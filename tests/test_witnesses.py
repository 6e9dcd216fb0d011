"""Witness lock: a sha256 of what ``certify_member`` answers on a seeded corpus.

For each of 300 seeds a group is drawn (reduced and nonreduced in turn) and
``certify_member`` is asked about five elements b in each of the three
regimes: a non-torsion generator under a non-torsion basis square (the full
construction of ``solve_in_principal``), a non-torsion generator under a
torsion basis square, and a torsion generator.  Two of the five b are sampled
members of the principal ideal, one is a product g*x + k*g, and two are random
elements, which are mostly not members and get None.  Each answer is hashed
with its inputs as ``group|m|g|b|witness``.  The digests live in
tests/golden/witnesses/digests.json; a change that alters a witness on purpose
regenerates them with

    PYTHONPATH=src python tests/test_witnesses.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from qdrings.group import add, zmul
from qdrings.oracle import (
    TrialConfig,
    random_element,
    random_group,
    random_nonzero_torsion,
    sample_member,
)
from qdrings.ring import Multiplication, certify_member, multiply, principal_ideal

DIGESTS = Path(__file__).parent / "golden" / "witnesses" / "digests.json"
SEEDS = range(300)
REGIMES = ("full-construction", "torsion-square", "torsion-generator")


def _torsion(G, rng, cfg):
    """A nonzero torsion element when G has a slot below the prime bound, else zero."""
    try:
        return random_nonzero_torsion(G, rng, cfg)
    except ValueError:
        return G.zero()


def _corpus_lines() -> dict[str, list[str]]:
    lines = {regime: [] for regime in REGIMES}
    for seed in SEEDS:
        cfg = TrialConfig(seed=seed, trials=1, max_prime=7 if seed % 4 >= 2 else 13)
        rng = cfg.rng("witnesses")
        G = random_group(rng, cfg, reduced=seed % 2 == 0, with_torsion=seed % 3 != 0)
        for regime in REGIMES:
            m = _torsion(G, rng, cfg) if regime == "torsion-square" else random_element(G, rng, cfg)
            g = _torsion(G, rng, cfg) if regime == "torsion-generator" else random_element(G, rng, cfg)
            mult = Multiplication(G, m)
            ideal = principal_ideal(mult, g)
            bs = [sample_member(ideal, rng, cfg), sample_member(ideal, rng, cfg)]
            x = random_element(G, rng, cfg, torsion=rng.random() < 0.3)
            bs.append(add(multiply(mult, g, x), zmul(rng.randint(-8, 8), g)))
            bs += [random_element(G, rng, cfg, torsion=rng.random() < 0.3) for _ in range(2)]
            for b in bs:
                w = certify_member(mult, g, b)
                lines[regime].append(f"{G.cochar.canonical_str()}|{m}|{g}|{b}|{w}")
    return lines


def witness_digests() -> dict[str, dict]:
    """Per regime: the sha256 of the corpus lines, how many calls there were and how many got None."""
    return {
        regime: {
            "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
            "calls": len(lines),
            "none": sum(line.endswith("|None") for line in lines),
        }
        for regime, lines in _corpus_lines().items()
    }


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text())


def test_witnesses_match_the_recorded_digests(recorded):
    assert witness_digests() == recorded


def test_the_corpus_covers_every_regime_and_both_answers(recorded):
    assert sorted(recorded) == sorted(REGIMES)
    for counts in recorded.values():
        assert counts["calls"] == 5 * len(SEEDS)
        assert 0 < counts["none"] < counts["calls"]


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(witness_digests(), indent=2) + "\n")
