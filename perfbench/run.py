"""The qdrings benchmark: seeded closed-loop workloads against the public API.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload verify-ring-laws --seed 1 --seconds 30 --trace 0

Workloads (one client, one process; the next op starts when the previous
one returns):

    verify-ring-laws  `qdrings verify --suite ring-axioms` calls (trials 10, samples 50)
    verify-ideals     `qdrings verify` cycling through the six ideal and classification suites
    queries           one-shot CLI queries and descriptor membership/equality calls

With ``--trace 0`` whole rounds of ops run until ``--seconds`` of op time
and at least 100 ops are done, and the end-to-end metrics are reported.
Times are scaled to a reference host by a calibration loop run between ops, because
the speed of the host changes from second to second (see speed.py).  With
``--trace 1`` a fixed set of rounds runs untraced, and another with a span
around every call into the layers, and the per-layer metrics are reported.
Every output is checked outside the timed region.  The last line of stdout
is the JSON result; the lines before it are a readable summary and the run
metadata, including the digest of the outputs of the fixed first rounds.
"""

import sys
import time

_T0 = time.perf_counter()  # taken before any import a cold start of qdrings would pay for

import os  # noqa: E402  (already loaded by the interpreter at start-up)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))


def _import_qdrings():
    if not os.path.isfile(os.path.join(SRC, "qdrings", "__init__.py")):
        raise SystemExit(f"error: no qdrings sources under {SRC}")
    sys.path.insert(0, SRC)
    import qdrings

    if not os.path.abspath(qdrings.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported qdrings from {qdrings.__file__}, not from {SRC}")
    import qdrings.cli  # noqa: F401  (part of the cold start of every workload)

    return qdrings


def _setup_child(workload: str) -> None:
    """Cold start in a fresh interpreter: import, then the warm-up ops; prints seconds taken."""
    _import_qdrings()
    t_import = time.perf_counter() - _T0
    sys.path.insert(0, HERE)
    import gen
    import ops
    import speed

    api = ops.Api()
    warmup = gen.warmup_ops(workload)
    after_import = speed.calibration_ms()
    t1 = time.perf_counter()
    for op in warmup:
        ops.execute(op, api)
    t_warmup = time.perf_counter() - t1
    after_warmup = speed.calibration_ms()
    print(repr(speed.to_reference(t_import, after_import, after_import)
               + speed.to_reference(t_warmup, after_import, after_warmup)))


if __name__ == "__main__" and sys.argv[1:2] == ["--setup-child"]:
    _setup_child(sys.argv[2])
    sys.exit(0)


import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

sys.path.insert(0, HERE)
import gen  # noqa: E402
import ops  # noqa: E402
import speed  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

WORKLOADS = ("verify-ring-laws", "verify-ideals", "queries")
# Per-op deadlines: more than 20 times the slowest op seen for each workload.
DEADLINE_S = {"verify-ring-laws": 10.0, "verify-ideals": 10.0, "queries": 2.0}
PROBE_DEADLINE_S = 0.5
# Rounds in the traced run and in the output digest; the first rounds of every run.
FIXED_ROUNDS = {"verify-ring-laws": 6, "verify-ideals": 2, "queries": 2}
SETUP_SAMPLES = 7
BLOCK_S = 0.03  # op time between two calibrations
MIN_OPS = 100  # so that op_p90_ms has at least ten samples beyond it
SPAN_CAP = 200_000
OUT_DIR = os.path.join(ROOT, ".perfbench")


class Deadline(BaseException):
    """Raised by the interval timer; a BaseException so no library handler swallows it."""


def _on_alarm(signum, frame):
    raise Deadline()


class Runner:
    """Runs ops one at a time under the deadline, checks them and keeps the tallies.

    Ops run in blocks of at least `BLOCK_S` seconds of op time with a calibration loop
    (`speed.py`) between blocks; each op's latency is scaled to the reference host by the
    calibrations on either side of its block.
    """

    def __init__(self, api, deadline: float, tracer=None):
        self.api, self.deadline, self.tracer = api, deadline, tracer
        self.op_time = 0.0  # measured seconds; sets how long a run takes
        self.ref_time = 0.0  # the same, scaled to the reference host
        self.latencies: list[float] = []  # per op, ms at the reference host
        self.ok: list[bool] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.calibrations = [speed.calibration_ms()]
        self._block: list[float] = []

    def run(self, op, digest=None) -> None:
        """Run one op, then check its output with `ops.check`."""
        failure = None
        code = out = err = None
        if self.tracer is not None:
            self.tracer.op_id = self.attempted
            self.tracer.active = True
        signal.setitimer(signal.ITIMER_REAL, self.deadline)
        t0 = time.perf_counter()
        try:
            code, out, err = ops.execute(op, self.api)
            elapsed = time.perf_counter() - t0
        except Deadline:
            elapsed = self.deadline
            failure = f"deadline of {self.deadline} s"
        except Exception as exc:  # any escape from the public call is a failed op
            elapsed = time.perf_counter() - t0
            failure = f"raised {type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if self.tracer is not None:
                self.tracer.active = False
        if failure is None:
            try:
                failure = ops.check(op, code, out, err, self.api)
            except Exception as exc:
                failure = f"output check raised {type(exc).__name__}: {exc}"
        if digest is not None:
            digest.update(repr((code, out, err)).encode())
        self.attempted += 1
        self.op_time += elapsed
        self.ok.append(failure is None)
        self._block.append(elapsed)
        if sum(self._block) >= BLOCK_S:
            self.calibrate()
        if failure is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{op.family} {list(op.args)}: {failure}")

    def calibrate(self) -> None:
        """Close the current block: calibrate and scale its latencies."""
        if not self._block:
            return
        before, after = self.calibrations[-1], speed.calibration_ms()
        self.calibrations.append(after)
        for seconds in self._block:
            ref = speed.to_reference(seconds, before, after)
            self.ref_time += ref
            self.latencies.append(ref * 1000)
        self._block = []


def _run_rounds(runner: Runner, rounds, seed: int, first: int, count: int, digest=None) -> None:
    for index in range(first, first + count):
        for op in rounds(seed, index):  # generated before the op is timed
            runner.run(op, digest)
    runner.calibrate()


def _timed_loop(api, rounds, seed: int, seconds: float, deadline: float, digest, digest_rounds: int):
    """The timed loop: whole rounds until `seconds` of op time and `MIN_OPS` ops are done.

    Returns (per-round lists of op latencies in ms at the reference host, the runner);
    a failed op counts at the deadline, as it misses every latency limit.
    """
    runner = Runner(api, deadline)
    sizes = []
    give_up = time.perf_counter() + seconds + 60  # reached only when ops hang
    while (runner.op_time < seconds or runner.attempted < MIN_OPS) and time.perf_counter() < give_up:
        for op in rounds(seed, len(sizes)):
            if time.perf_counter() >= give_up:
                break
            runner.run(op, digest if len(sizes) < digest_rounds else None)
        sizes.append(runner.attempted - sum(sizes))
    runner.calibrate()
    latencies = [ms if ok else deadline * 1000 for ms, ok in zip(runner.latencies, runner.ok)]
    by_round, start = [], 0
    for size in sizes:
        by_round.append(latencies[start:start + size])
        start += size
    return by_round, runner


def _setup_samples(workload: str) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-child", workload],
                              cwd=ROOT, capture_output=True, text=True, timeout=30)
        if done.returncode != 0:
            raise SystemExit(f"error: set-up run failed:\n{done.stderr}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def _source_lines() -> int:
    pkg = os.path.join(SRC, "qdrings")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                total += sum(1 for _ in fh)
    return total


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(by_round: list[list[float]], failed: int, setup: list[float]) -> dict:
    """The end-to-end metrics.  `op_p50_ms` is the median over rounds of each round's median.

    Every round has the same mix of ops, and in `verify-ideals` half of a round's six ops
    take under 20 ms and half over 20 ms, so the median of all ops falls between the
    slowest of the fast ops and the fastest of the slow ones, two tails of the run.  The
    median of round medians falls between typical members of the two groups.
    """
    latencies = [ms for lat in by_round for ms in lat]
    return {
        "ops_per_s": _metric(len(latencies) / (sum(latencies) / 1000), "1/s"),
        "op_p50_ms": _metric(statistics.median(statistics.median(lat) for lat in by_round if lat), "ms"),
        "op_p90_ms": _metric(statistics.quantiles(latencies, n=10)[-1], "ms"),
        "ok_ratio": _metric((len(latencies) - failed) / len(latencies), "ratio"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _per_layer(tracer, untraced: Runner, traced: Runner, hit_ratio: float, probe_misses: int) -> dict:
    out = {}
    scale = traced.ref_time / traced.op_time  # self times are reported at the reference host
    for layer in LAYERS:
        calls, self_s, raised = tracer.layer_totals(layer)
        out[f"{layer}.calls"] = _metric(calls, "count")
        out[f"{layer}.self_s"] = _metric(self_s * scale, "s")
        out[f"{layer}.raised"] = _metric(raised, "count")

    def fn(name, *stats):
        calls, self_s, _, _ = tracer.stats(name)
        if "calls" in stats:
            out[f"{name}.calls"] = _metric(calls, "count")
        if "self_s" in stats:
            out[f"{name}.self_s"] = _metric(self_s * scale, "s")

    fn("foundations.factorization", "calls", "self_s")
    fn("foundations.mod_inverse", "calls", "self_s")
    fn("foundations.primes_up_to", "calls")
    out["foundations.is_prime.hit_ratio"] = _metric(hit_ratio, "ratio")
    out["foundations.char_eq.calls"] = _metric(tracer.stats("foundations.Characteristic.__eq__")[0], "count")
    fn("group._build", "calls", "self_s")
    fn("group.add", "self_s")
    fn("group.zmul", "self_s")
    fn("group.coordinate_residue", "calls")
    fn("group.char_of", "calls", "self_s")
    fn("group.height", "calls")
    fn("subgroup.contains", "calls", "self_s")
    calls, _, _, nested = tracer.stats("subgroup.contains")
    out["subgroup.contains.nested_ratio"] = _metric(nested / (calls - nested) if calls > nested else 0.0, "ratio")
    fn("subgroup.equals", "calls", "self_s")
    fn("subgroup.parse_descriptor", "self_s")
    fn("ring.multiply", "calls", "self_s")
    fn("ring.principal_ideal", "self_s")
    fn("ring.certify_member", "calls", "self_s")
    fn("ring.solve_in_principal", "self_s")
    fn("ring.torsion_witness", "calls")
    fn("oracle.random_element", "self_s")
    fn("oracle.sample_member", "self_s")
    drawn = tracer.stats("oracle.random_characteristic")[0]
    accepted = tracer.stats("oracle.random_group")[0]
    out["oracle.random_group.accept_ratio"] = _metric(accepted / drawn if drawn else 0.0, "ratio")
    fn("cli.run", "self_s")
    out["trace.overhead_ratio"] = _metric((untraced.attempted / untraced.ref_time)
                                          / (traced.attempted / traced.ref_time), "ratio")
    out["trace.uncovered_ratio"] = _metric(1 - tracer.top_s / traced.op_time, "ratio")
    out["probe.deadline_misses"] = _metric(probe_misses, "count")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_at_start = os.getloadavg()
    _import_qdrings()
    api = ops.Api()
    rounds = gen.ROUNDS[args.workload]
    deadline = DEADLINE_S[args.workload]
    signal.signal(signal.SIGALRM, _on_alarm)

    # The children start after this process has imported qdrings, so byte code is cached.
    setup = _setup_samples(args.workload) if args.trace == 0 else []

    warm = Runner(api, deadline)
    for op in gen.warmup_ops(args.workload):
        warm.run(op)

    digest = hashlib.sha256()
    fixed = FIXED_ROUNDS[args.workload]
    extra = {}
    if args.trace == 0:
        by_round, timed = _timed_loop(api, rounds, args.seed, args.seconds, deadline, digest, fixed)
        attempted, failed, completed = timed.attempted, timed.failed, len(by_round)
        metrics = _end_to_end(by_round, failed, setup)
        checked = [warm, timed]
        extra["setup_samples_s"] = setup
        extra["measured_op_time_s"] = timed.op_time
        extra["calibration_ms_median"] = statistics.median(timed.calibrations)
    else:
        # Untraced and traced passes see different rounds of one seed, so neither finds
        # caches warmed by the other; the traced rounds are the digest's fixed rounds.
        untraced = Runner(api, deadline)
        _run_rounds(untraced, rounds, args.seed, fixed, fixed)
        probes = Runner(api, PROBE_DEADLINE_S)
        if args.workload == "queries":
            for op in gen.deadline_probes(args.seed):
                probes.run(op)
        tracer = Tracer(SPAN_CAP)
        tracer.install()
        cache0 = api.foundations.is_prime.__wrapped__.cache_info()
        traced = Runner(api, deadline, tracer)
        _run_rounds(traced, rounds, args.seed, 0, fixed, digest)
        cache1 = api.foundations.is_prime.__wrapped__.cache_info()
        lookups = (cache1.hits - cache0.hits) + (cache1.misses - cache0.misses)
        hit_ratio = (cache1.hits - cache0.hits) / lookups if lookups else 0.0
        metrics = _per_layer(tracer, untraced, traced, hit_ratio, probes.failed)
        attempted, failed, completed = traced.attempted, traced.failed, fixed
        checked = [warm, untraced, traced]
        os.makedirs(OUT_DIR, exist_ok=True)
        span_file = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.tsv")
        dropped = tracer.write_spans(span_file)
        extra.update(span_file=os.path.relpath(span_file, ROOT), spans=tracer.next_span,
                     spans_dropped=dropped, probes=probes.attempted, probe_failures=probes.failures)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": load_at_start,
        "src_lines": _source_lines(),
        "ops": attempted,
        "rounds": completed,
        "failed": failed,
        "fail_ratio": failed / attempted,
        **extra,
    }
    if completed >= fixed:
        meta["output_digest"] = digest.hexdigest()
        meta["output_digest_rounds"] = fixed
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:>14.6g} {m['unit']}")
    for runner in checked:
        for failure in runner.failures:
            print(f"FAILED {failure}")
    print("meta " + json.dumps(meta))
    correct = all(r.failed == 0 for r in checked)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
