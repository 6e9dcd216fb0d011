"""Draw lock: a sha256 of everything the seeded generators draw in each suite.

The summaries under tests/golden/ record only pass/fail and trial counts, so a
generator change that keeps every check passing would leave them unchanged.
This test wraps the generator names in ``oracle`` and ``suites`` and hashes
the canonical string of every group, element and member they return while a
suite runs at the golden config (seed 7, trials 20, samples 10).  The digests
live in tests/golden/draws/digests.json; a change that alters the draws on
purpose regenerates them with

    PYTHONPATH=src python tests/test_draws.py

A second lock runs every suite on a ``random.Random`` that refuses all its
methods but ``random``, ``getrandbits`` and seeding, so that the summaries
rest on those two methods and on the package's own ``oracle._below`` only.
"""

import contextlib
import hashlib
import json
import random
from pathlib import Path

import pytest

from qdrings import oracle, suites
from qdrings.cli import run
from qdrings.group import canonical_elem_str
from qdrings.oracle import TrialConfig
from qdrings.suites import SUITE_NAMES, run_suite

DIGESTS = Path(__file__).parent / "golden" / "draws" / "digests.json"
GOLDEN_CONFIG = TrialConfig(seed=7, trials=20, samples_per_instance=10)
_GENERATORS = {
    "random_group": lambda G: "group " + G.cochar.canonical_str(),
    "random_element": lambda g: "element " + canonical_elem_str(g),
    "random_nonzero_torsion": lambda g: "torsion " + canonical_elem_str(g),
    "sample_member": lambda g: "member " + canonical_elem_str(g),
}


@contextlib.contextmanager
def _recording(lines: list[str]):
    """Wrap each generator name in oracle and suites so that its results are appended to lines."""

    def wrap(fn, show):
        def recorded(*args, **kwargs):
            out = fn(*args, **kwargs)
            lines.append(show(out))
            return out

        return recorded

    saved = []
    try:
        for module in (oracle, suites):
            for name, show in _GENERATORS.items():
                fn = getattr(module, name)
                saved.append((module, name, fn))
                setattr(module, name, wrap(fn, show))
        yield lines
    finally:
        for module, name, fn in reversed(saved):
            setattr(module, name, fn)


def draw_digest(suite: str) -> tuple[str, int]:
    """The sha256 of the draws of one suite at the golden config, and how many there were."""
    with _recording([]) as lines:
        run_suite(suite, GOLDEN_CONFIG)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest(), len(lines)


def test_every_suite_has_a_draw_digest():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(SUITE_NAMES)


@pytest.mark.parametrize("suite", sorted(SUITE_NAMES))
def test_draws_match_the_recorded_digest(suite):
    digest, count = draw_digest(suite)
    assert {"sha256": digest, "draws": count} == json.loads(DIGESTS.read_text())[suite]


def _refused(name):
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"the package called random.Random.{name}")

    return refuse


# every public method but random, getrandbits and seed, and the private _randbelow
_StrictRandom = type(
    "_StrictRandom",
    (random.Random,),
    {
        name: _refused(name)
        for name in dir(random.Random)
        if (name == "_randbelow" or not name.startswith("_"))
        and name not in ("random", "getrandbits", "seed")
        and callable(getattr(random.Random, name))
    },
)


@pytest.mark.parametrize("suite", sorted(SUITE_NAMES))
def test_summaries_need_only_random_and_getrandbits(suite, monkeypatch, capsys):
    seeded = TrialConfig.rng

    def strict_rng(cfg, *path):
        rng = _StrictRandom()
        random.Random.setstate(rng, seeded(cfg, *path).getstate())  # the stream TrialConfig.rng seeds
        return rng

    monkeypatch.setattr(TrialConfig, "rng", strict_rng)
    with pytest.raises(AssertionError, match="random.Random.randint"):
        TrialConfig(seed=1).rng("x").randint(1, 2)
    argv = ["verify", "--suite", suite, "--seed", "7", "--trials", "20", "--samples", "10", "--format", "json-like-summary"]
    assert run(argv) == 0
    golden = Path(__file__).parent / "golden" / f"{suite}.json"
    assert capsys.readouterr().out == golden.read_text()


if __name__ == "__main__":
    recorded = {}
    for name in sorted(SUITE_NAMES):
        digest, count = draw_digest(name)
        recorded[name] = {"sha256": digest, "draws": count}
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(recorded, indent=2) + "\n")
