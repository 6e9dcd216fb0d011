"""Acceptance suite.

One test per criterion, run at the stated instance counts with exact
(tolerance-zero) arithmetic and a 100% pass bar.  Each test prints a single
PASS/FAIL line so the suite reads as a checklist under `pytest -s` or `-v`.
"""

import sys

import pytest

from qdrings.foundations import INF, Characteristic
from qdrings.group import build_group, height, zmul
from qdrings.oracle import (
    TrialConfig,
    height_oracle,
    heights_agree,
    ideal_two_way_check,
    random_element,
    random_group,
    ring_axiom_check,
)
from qdrings.ring import make_mult, principal_ideal
from qdrings.suites import run_suite

from mutations import (
    certifier_skipping_verification,
    lowered_eta,
    product_dropping_m,
)

SEED = 20260811


def _verdict(criterion: str, passed: bool, detail: str = "") -> None:
    tag = "PASS" if passed else "FAIL"
    tail = f"  {detail}" if detail else ""
    print(f"ACCEPTANCE {tag} {criterion}{tail}", file=sys.stderr)
    assert passed, f"{criterion}: {detail}"


def _all_pass(reports):
    bad = [r for r in reports if not r.passed]
    detail = "; ".join(r.line() for r in bad) if bad else ""
    return not bad, detail


def test_criterion_1_ring_laws():
    cfg = TrialConfig(seed=SEED, trials=50, samples_per_instance=1000)
    ok, detail = _all_pass(run_suite("ring-axioms", cfg))
    _verdict("1 ring-law suite (50 groups x 1000 triples, exact)", ok, detail)


def test_criterion_2_torsion_multiple_witnesses():
    cfg = TrialConfig(seed=SEED, trials=200, samples_per_instance=10)
    ok, detail = _all_pass(run_suite("lemma2.2", cfg))
    _verdict("2 torsion cyclic-slot witnesses (200 x 10 both directions)", ok, detail)


def test_criterion_3_nontorsion_principal_ideals_two_way():
    cfg = TrialConfig(seed=SEED, trials=100, samples_per_instance=20)
    ok, detail = _all_pass(run_suite("lemma2.3", cfg))
    _verdict("3 reduced nontorsion two-way ideal check (100 x 20 per direction)", ok, detail)


@pytest.fixture(scope="module")
def thm24_reports():
    return {r.name: r for r in run_suite("thm2.4", TrialConfig(seed=SEED, trials=100, samples_per_instance=20))}


def test_criterion_4_torsion_generator_case(thm24_reports):
    names = ("thm2.4-case1-ideal", "thm2.4-case1-clause-reduced", "thm2.4-case1-clause-nonreduced")
    ok, detail = _all_pass([thm24_reports[n] for n in names])
    clause_trials = min(thm24_reports[n].trials for n in names[1:])
    _verdict(
        f"4 torsion-generator ideals and the reduced/nonreduced clause ({clause_trials} each kind)",
        ok and clause_trials >= 50,
        detail,
    )


def test_criterion_5_torsion_square_case(thm24_reports):
    report = thm24_reports["thm2.4-case3"]
    ok, detail = _all_pass([report])
    _verdict("5 torsion-square two-way ideal check (100 instances)", ok, detail)


def test_criterion_6_principal_absolute_ideals():
    cfg = TrialConfig(seed=SEED, trials=200, samples_per_instance=20)
    ok, detail = _all_pass(run_suite("thm3.3", cfg))
    _verdict("6 principal absolute ideals match principal ideals (200 instances)", ok, detail)


def test_criterion_7_ai_ring_classification():
    cfg = TrialConfig(seed=SEED, trials=100, samples_per_instance=20)
    ok, detail = _all_pass(run_suite("thm3.4", cfg))
    _verdict("7 AI/FI classification, witnesses, and ideal equalities (100 instances)", ok, detail)


def test_criterion_8_multiplication_group_correspondence():
    cfg = TrialConfig(seed=SEED, trials=200, samples_per_instance=20)
    ok, detail = _all_pass(run_suite("mult-iso", cfg))
    _verdict("8 defining-element correspondence and torsion closure (200 instances)", ok, detail)


def test_criterion_9_height_oracle_agreement():
    cfg = TrialConfig(seed=SEED, trials=500)
    rng = cfg.rng("heights")
    failures = []
    for i in range(500):
        G = random_group(rng, cfg)
        g = random_element(G, rng, cfg, torsion=rng.random() < 0.3)
        p = rng.choice((2, 3, 5, 7, 11, 13))
        if not heights_agree(height(g, p), height_oracle(g, p, 6), 6):
            failures.append(f"instance {i}: height({g}, {p})")
    _verdict("9 closed-form heights agree with the division oracle (500 cases, bound 6)",
             not failures, "; ".join(failures[:3]))


def test_criterion_10_mutation_sensitivity():
    cfg = TrialConfig(seed=SEED, samples_per_instance=30)
    GA = build_group(Characteristic(0, {2: 2, 3: INF}))
    e = GA.elem(1)
    unital = make_mult(GA, e)
    g = zmul(2, e)
    sound = principal_ideal(unital, g)

    detections = {
        "lowered-eta": not ideal_two_way_check(unital, g, lowered_eta(sound), cfg).passed,
        "dropped-m-factor": not ring_axiom_check(unital, cfg, product=product_dropping_m).passed,
        "skipped-witness-verification": not ideal_two_way_check(
            unital, g, sound, cfg, certifier=certifier_skipping_verification
        ).passed,
    }
    missed = [name for name, caught in detections.items() if not caught]
    _verdict("10 mutation sensitivity (3 documented mutations detected)",
             not missed, f"undetected: {missed}" if missed else "")
