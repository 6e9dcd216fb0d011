"""Running generated ops against the public API, and checking their outputs.

``execute`` is the timed part of an op.  ``check`` runs outside the timed
region: it re-derives each answer through other parts of the public API
(the oracle layer, recomputed witnesses, sampled members) or compares it
with the answer the generator fixed in advance.
"""

from __future__ import annotations

import contextlib
import io
import json
import re

from gen import NEG, OK, USAGE, VERIFY_IDEAL_SUITES, Op, stream

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
ORACLE_BOUND = 12


class Api:
    """The qdrings modules the benchmark calls, looked up at call time so wrappers are seen."""

    def __init__(self):
        import qdrings.cli
        import qdrings.foundations
        import qdrings.group
        import qdrings.oracle
        import qdrings.ring
        import qdrings.subgroup

        self.cli = qdrings.cli
        self.foundations = qdrings.foundations
        self.group = qdrings.group
        self.oracle = qdrings.oracle
        self.ring = qdrings.ring
        self.subgroup = qdrings.subgroup
        self.sample_cfg = qdrings.oracle.TrialConfig(seed=0)

    def build(self, cochar: str):
        return self.group.build_group(self.foundations.Characteristic.parse(cochar))


def execute(op: Op, api: Api) -> tuple[int, str, str]:
    """Run one op; returns (exit class, stdout, stderr)."""
    if op.kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = api.cli.run(list(op.args))
        return code, out.getvalue(), err.getvalue()
    cochar, dtext, other = op.args
    try:
        G = api.build(cochar)
        d = api.subgroup.parse_descriptor(dtext, G)
        if op.kind == "contains":
            answer = api.subgroup.contains(d, G.parse_elem(other))
        else:
            answer = api.subgroup.equals(d, api.subgroup.parse_descriptor(other, G))
    except ValueError as exc:  # ParseError and the library's typed input errors
        return USAGE, "", f"{type(exc).__name__}: {exc}"
    return (OK if answer else NEG), ("true" if answer else "false"), ""


# ---------------------------------------------------------------------------
# output checks; each returns None when the output is right, or what is wrong


def check(op: Op, code: int, out: str, err: str, api: Api) -> str | None:
    if code not in op.expect:
        return f"exit {code}, expected {sorted(op.expect)}; stderr {err.strip()[:200]!r}"
    if code == USAGE:
        return None if err.strip() else "usage error without a message"
    fn = _CHECKS.get(op.family)
    return fn(op, code, out, api) if fn else None


def _check_verify(op, code, out, api):
    summary = json.loads(out)
    if summary["suite"] != op.check["suite"] or summary["seed"] != op.check["seed"]:
        return "summary is for another suite or seed"
    if not summary["checks"] or not summary["passed"]:
        return "suite did not pass"
    failed = [c["check"] for c in summary["checks"] if not c["passed"]]
    return f"checks failed: {failed}" if failed else None


def _check_text(op, code, out, api):
    return None if out.strip() == op.check["text"] else f"printed {out.strip()!r}"


def _check_elem_info(op, code, out, api):
    G = api.build(op.check["cochar"])
    g = G.parse_elem(op.check["elem"])
    lines = dict(line.split("=", 1) for line in out.strip().splitlines())
    if G.parse_elem(lines["elem"]) != g:
        return "printed element is not the input"
    char = api.foundations.Characteristic.parse(lines["char"])
    for p in SMALL_PRIMES:
        measured = api.oracle.height_oracle(g, p, ORACLE_BOUND)
        if not api.oracle.heights_agree(char.value(p), measured, ORACLE_BOUND):
            return f"height at {p} is {char.value(p)}, the oracle measures {measured}"
    for P, expected in op.check["heights"].items():
        if str(char.value(P)) != expected:
            return f"height at {P} is {char.value(P)}, expected {expected}"
    torsion = g.rational == 0
    if lines["torsion"] != ("true" if torsion else "false"):
        return "torsion flag is wrong"
    if torsion:
        n = int(lines["order"])
        if n < 1 or api.group.zmul(n, g) != G.zero():
            return f"order {n} does not annihilate the element"
    elif lines["order"] != "inf":
        return "a non-torsion element has finite order"
    return None


def _ring(api, data):
    G = api.build(data["cochar"])
    mult = api.ring.make_mult(G, G.parse_elem(data["m"]))
    return G, mult


def _check_ring_mul(op, code, out, api):
    G, mult = _ring(api, op.check)
    g, b = G.parse_elem(op.check["g"]), G.parse_elem(op.check["b"])
    h = G.parse_elem(out.strip())
    if h.rational != g.rational * b.rational * mult.m_elt.rational:
        return "rational part of the product is wrong"
    if h != api.ring.multiply(mult, b, g):
        return "product differs from the product in the other order"
    return None


def _recomputes(api, mult, g, y, k, b) -> bool:
    return api.group.add(api.ring.multiply(mult, g, y), api.group.zmul(k, g)) == b


def _check_ring_ideal(op, code, out, api):
    G, mult = _ring(api, op.check)
    g = G.parse_elem(op.check["g"])
    d = api.subgroup.parse_descriptor(out.strip(), G)
    if not api.subgroup.contains(d, g):
        return "the ideal does not contain its generator"
    rng = stream(0, "check", *op.args)
    for _ in range(2):
        b = api.oracle.sample_member(d, rng, api.sample_cfg)
        w = api.ring.certify_member(mult, g, b)
        if w is None or not _recomputes(api, mult, g, w.y, w.k, b):
            return f"sampled member {b} has no recomputable witness"
    return None


def _check_witness(op, code, out, api):
    G, mult = _ring(api, op.check)
    g, b = G.parse_elem(op.check["g"]), G.parse_elem(op.check["b"])
    if code == NEG:
        if out.strip() != "not-a-member":
            return f"printed {out.strip()!r} for a non-member"
        if api.subgroup.contains(api.ring.principal_ideal(mult, g), b):
            return "declared not a member, but the principal ideal contains it"
        return None
    y_text, k_text = out.strip().rsplit(";k=", 1)
    if not y_text.startswith("y="):
        return f"unreadable witness {out.strip()!r}"
    if not _recomputes(api, mult, g, G.parse_elem(y_text[2:]), int(k_text), b):
        return "witness does not recompute to b"
    return None


_NAI = re.compile(r"e0=(.*);p=(\d+);x=(.*)")


def _check_witness_nai(op, code, out, api):
    if code == NEG:
        return None if out.startswith("ring-is-AI") else f"printed {out.strip()!r} for an AI-ring"
    G, _ = _ring(api, op.check)
    match = _NAI.fullmatch(out.strip())
    if match is None:
        return f"unreadable witness {out.strip()!r}"
    e0, x = G.parse_elem(match[1]), G.parse_elem(match[3])
    if not api.subgroup.contains(api.subgroup.full_inv(G, api.group.char_of(e0)), x):
        return "violator is outside the absolute ideal of e0"
    if (x.rational / e0.rational).denominator == 1:
        return "violator is an integer multiple of e0"
    return None


def _check_ai_ideal(op, code, out, api):
    G = api.build(op.check["cochar"])
    g = G.parse_elem(op.check["g"])
    d = api.subgroup.parse_descriptor(out.strip(), G)
    if not api.subgroup.contains(d, g):
        return "the absolute ideal does not contain its generator"
    floor = api.group.char_of(g)
    rng = stream(0, "check", *op.args)
    for _ in range(2):
        x = api.oracle.sample_member(d, rng, api.sample_cfg)
        if not api.foundations.char_geq(api.group.char_of(x), floor):
            return f"member {x} lies below the characteristic of the generator"
    return None


def _check_equals(op, code, out, api):
    if code == NEG:
        return None
    cochar, t1, t2 = op.args
    G = api.build(cochar)
    d1, d2 = api.subgroup.parse_descriptor(t1, G), api.subgroup.parse_descriptor(t2, G)
    rng = stream(0, "check", *op.args)
    for a, b in ((d1, d2), (d2, d1)):
        for _ in range(2):
            x = api.oracle.sample_member(a, rng, api.sample_cfg)
            if not api.subgroup.contains(b, x):
                return f"equal descriptors disagree on the member {x}"
    return None


_CHECKS = {
    **{suite: _check_verify for suite in ("ring-axioms", *VERIFY_IDEAL_SUITES)},
    "describe": _check_text,
    "classify": _check_text,
    "elem-info": _check_elem_info,
    "elem-factor": _check_elem_info,
    "ring-mul": _check_ring_mul,
    "ring-ideal": _check_ring_ideal,
    "witness": _check_witness,
    "witness-nai": _check_witness_nai,
    "ai-ideal": _check_ai_ideal,
    "equals": _check_equals,
}
