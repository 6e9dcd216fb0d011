"""Named verification sweeps runnable from the command line and the tests.

Each suite builds randomized instances from a seeded configuration and
reports one line per check.  The sweeps certify the closed-form results
through the oracle layer: sampled inclusions with recomputed witnesses,
descriptor equalities with explicit separating elements, and classification
coherence.
"""

from __future__ import annotations

from .errors import NotAMemberError, RingIsAIError
from .foundations import INF, Characteristic
from .group import add, build_group, char_of, is_integers, is_torsion, neg, order, zmul
from .oracle import (
    CheckReport,
    TrialConfig,
    ideal_two_way_check,
    random_element,
    random_group,
    random_nonzero_torsion,
    ring_axiom_check,
    sample_member,
    _below,
    _draw_primes,
)
from .ring import (
    is_ai_ring,
    is_fi_ring,
    make_mult,
    multiply,
    non_absolute_ideal_witness,
    principal_absolute_ideal,
    principal_ideal,
    torsion_witness,
)
from .subgroup import contains, equals, full_inv, torsion_inv

__all__ = ["SUITE_NAMES", "run_suite", "suite_summary"]

_NONZERO_UP_TO_30 = tuple(n for n in range(-30, 31) if n)


def _instances(cfg: TrialConfig, label: str, **constraints):
    """(i, rng, G) for each instance i: its own stream ``cfg.rng(label, i)`` and the group drawn from it."""
    for i in range(cfg.trials):
        rng = cfg.rng(label, i)
        yield i, rng, random_group(rng, cfg, **constraints)


def _absorb(target: CheckReport, instance: int, sub: CheckReport) -> None:
    target.trials += sub.trials
    if not sub.passed:
        target.record(instance, f"instance {instance}: {sub.failures[0]}")


def suite_ring_axioms(cfg: TrialConfig) -> list[CheckReport]:
    out = CheckReport("ring-axioms")
    forced_defaults = [0, 1, INF]  # make sure each default kind shows up
    for i in range(cfg.trials):
        rng = cfg.rng("ring-axioms", i)
        force = forced_defaults[i] if i < len(forced_defaults) else None
        G = random_group(rng, cfg, force_default=force)
        m = random_element(G, rng, cfg, torsion=rng.random() < 0.4)
        _absorb(out, i, ring_axiom_check(make_mult(G, m), cfg))
    return [out]


def suite_lemma22(cfg: TrialConfig) -> list[CheckReport]:
    witnesses = CheckReport("lemma2.2-witness")
    multiples = CheckReport("lemma2.2-multiples")
    for i, rng, G in _instances(cfg, "lemma2.2", with_torsion=True):
        g = random_nonzero_torsion(G, rng, cfg)
        d = torsion_inv(G, char_of(g))
        bound = int(order(g))
        for _ in range(cfg.samples_per_instance):
            u = sample_member(d, rng, cfg)
            witnesses.trials += 1
            try:
                n = torsion_witness(g, u)
            except (NotAMemberError, ArithmeticError) as exc:
                witnesses.record(i, f"instance {i}: {exc}")
                continue
            if zmul(n, g) != u:
                witnesses.record(i, f"instance {i}: {n}*{g} != {u}")
        for _ in range(cfg.samples_per_instance):
            n = -3 * bound + _below(rng.getrandbits, 6 * bound + 1)
            multiples.trials += 1
            if not contains(d, zmul(n, g)):
                multiples.record(i, f"instance {i}: {n}*{g} left the torsion descriptor")
    return [witnesses, multiples]


def suite_lemma23(cfg: TrialConfig) -> list[CheckReport]:
    out = CheckReport("lemma2.3-two-way")
    for i, rng, G in _instances(cfg, "lemma2.3", reduced=True):
        mult = make_mult(G, random_element(G, rng, cfg))
        g = random_element(G, rng, cfg)
        _absorb(out, i, ideal_two_way_check(mult, g, principal_ideal(mult, g), cfg))
    return [out]


def suite_thm24(cfg: TrialConfig) -> list[CheckReport]:
    case1 = CheckReport("thm2.4-case1-ideal")
    clause_red = CheckReport("thm2.4-case1-clause-reduced")
    clause_non = CheckReport("thm2.4-case1-clause-nonreduced")
    case2 = CheckReport("thm2.4-case2")
    case3 = CheckReport("thm2.4-case3")

    for i, rng, G in _instances(cfg, "thm2.4-case1", with_torsion=True):
        g = random_nonzero_torsion(G, rng, cfg)
        mult = make_mult(G, random_element(G, rng, cfg, torsion=rng.random() < 0.5))
        d = principal_ideal(mult, g)
        case1.trials += 1
        if not equals(d, torsion_inv(G, char_of(g))):
            case1.record(i, f"instance {i}: ideal of a torsion generator is not its torsion descriptor")
        _absorb(case1, i, ideal_two_way_check(mult, g, d, cfg))

    for i, rng, G in _instances(cfg, "thm2.4-clause-reduced", reduced=True, with_torsion=True):
        g = random_nonzero_torsion(G, rng, cfg)
        clause_red.trials += 1
        if not equals(full_inv(G, char_of(g)), torsion_inv(G, char_of(g))):
            clause_red.record(i, f"instance {i}: descriptors split in a reduced group")

    for i, rng, G in _instances(cfg, "thm2.4-clause-nonreduced", reduced=False):
        g = random_element(G, rng, cfg, torsion=True)
        full_d = full_inv(G, char_of(g))
        tors_d = torsion_inv(G, char_of(g))
        clause_non.trials += 1
        if equals(full_d, tors_d):
            clause_non.record(i, f"instance {i}: descriptors coincide in a nonreduced group")
            continue
        separating = G.elem_qb(1, g.as_pair()[1])  # rational one, same torsion residue
        if not contains(full_d, separating) or contains(tors_d, separating):
            clause_non.record(i, f"instance {i}: separating element {separating} failed")

    for i, rng, G in _instances(cfg, "thm2.4-case2"):
        mult = make_mult(G, random_element(G, rng, cfg))
        g = random_element(G, rng, cfg)
        _absorb(case2, i, ideal_two_way_check(mult, g, principal_ideal(mult, g), cfg))

    for i, rng, G in _instances(cfg, "thm2.4-case3"):
        m = random_element(G, rng, cfg, torsion=True) if rng.random() < 0.8 else G.zero()
        mult = make_mult(G, m)
        g = random_element(G, rng, cfg)
        _absorb(case3, i, ideal_two_way_check(mult, g, principal_ideal(mult, g), cfg))

    return [case1, clause_red, clause_non, case2, case3]


def suite_thm33(cfg: TrialConfig) -> list[CheckReport]:
    out = CheckReport("thm3.3-principal-absolute")
    for i, rng, G in _instances(cfg, "thm3.3"):
        if rng.random() < 0.5 and _draw_primes(G, cfg)[0]:
            g = random_nonzero_torsion(G, rng, cfg)
            pai = principal_absolute_ideal(g)
            out.trials += 1
            if not equals(pai, torsion_inv(G, char_of(g))):
                out.record(i, f"instance {i}: absolute ideal of torsion {g} is not its torsion descriptor")
            for m in (G.zero(), G.basis_element(), random_element(G, rng, cfg, torsion=True)):
                out.trials += 1
                if not equals(principal_ideal(make_mult(G, m), g), pai):
                    out.record(i, f"instance {i}: torsion ideal depends on the ring (m={m})")
        else:
            g = random_element(G, rng, cfg)
            mult = make_mult(G, random_element(G, rng, cfg))  # products not all torsion
            out.trials += 1
            if not equals(principal_ideal(mult, g), principal_absolute_ideal(g)):
                out.record(i, f"instance {i}: principal and absolute ideals split for {g}")
    return [out]


def suite_thm34(cfg: TrialConfig) -> list[CheckReport]:
    integers = CheckReport("thm3.4-integers")
    classify = CheckReport("thm3.4-classify")
    witness = CheckReport("thm3.4-witness")
    ai_ideals = CheckReport("thm3.4-ai-ideals")

    GZ = build_group(Characteristic(INF))
    for i in range(cfg.samples_per_instance):
        rng = cfg.rng("thm3.4-integers", i)
        mult = make_mult(GZ, GZ.elem(-20 + _below(rng.getrandbits, 41)))
        integers.trials += 1
        if not (is_ai_ring(mult) and is_fi_ring(mult)):
            integers.record(i, f"instance {i}: a ring on the integers-like group is not AI")
        g = GZ.elem(_NONZERO_UP_TO_30[_below(rng.getrandbits, len(_NONZERO_UP_TO_30))])
        integers.trials += 1
        if not equals(principal_ideal(mult, g), principal_absolute_ideal(g)):
            integers.record(i, f"instance {i}: ideal of {g} is not its absolute ideal")

    for i, rng, G in _instances(cfg, "thm3.4"):
        if is_integers(G):
            G = random_group(cfg.rng("thm3.4-resample", i), cfg, with_torsion=True)
        m = random_element(G, rng, cfg, torsion=rng.random() < 0.5)
        mult = make_mult(G, m)
        classify.trials += 1
        if is_ai_ring(mult) != (not is_torsion(m)) or is_fi_ring(mult) != is_ai_ring(mult):
            classify.record(i, f"instance {i}: classification disagrees with the torsion test")
        if not is_ai_ring(mult):
            witness.trials += 1
            try:
                non_absolute_ideal_witness(mult)  # verifies its three facts internally
            except (RingIsAIError, ArithmeticError) as exc:
                witness.record(i, f"instance {i}: {exc}")
        else:
            for _ in range(min(cfg.samples_per_instance, 20)):
                g = random_element(G, rng, cfg, torsion=rng.random() < 0.4)
                ai_ideals.trials += 1
                if not equals(principal_ideal(mult, g), principal_absolute_ideal(g)):
                    ai_ideals.record(i, f"instance {i}: ideal of {g} is not absolute in an AI-ring")
    return [integers, classify, witness, ai_ideals]


def suite_mult_iso(cfg: TrialConfig) -> list[CheckReport]:
    round_trip = CheckReport("mult-iso-round-trip")
    additivity = CheckReport("mult-iso-additivity")
    nai_subgroup = CheckReport("mult-iso-nai-subgroup")
    for i, rng, G in _instances(cfg, "mult-iso"):
        m = random_element(G, rng, cfg, torsion=rng.random() < 0.4)
        round_trip.trials += 1
        if make_mult(G, m).m_elt != m:
            round_trip.record(i, f"instance {i}: defining element does not round-trip")
        m2 = random_element(G, rng, cfg, torsion=rng.random() < 0.4)
        g = random_element(G, rng, cfg)
        h = random_element(G, rng, cfg, torsion=rng.random() < 0.3)
        additivity.trials += 1
        lhs = multiply(make_mult(G, add(m, m2)), g, h)
        rhs = add(multiply(make_mult(G, m), g, h), multiply(make_mult(G, m2), g, h))
        if lhs != rhs:
            additivity.record(i, f"instance {i}: product is not additive in the defining element")
        # drawn torsion primes mean G has a torsion slot, so G is not the integers group
        if _draw_primes(G, cfg)[0]:
            t1 = random_element(G, rng, cfg, torsion=True)
            t2 = random_element(G, rng, cfg, torsion=True)
            nai_subgroup.trials += 1
            closed = (
                not is_ai_ring(make_mult(G, add(t1, t2)))
                and not is_ai_ring(make_mult(G, neg(t1)))
                and is_ai_ring(make_mult(G, m)) != is_torsion(m)
            )
            if not closed:
                nai_subgroup.record(i, f"instance {i}: torsion defining elements are not closed")
    return [round_trip, additivity, nai_subgroup]


SUITE_NAMES = {
    "lemma2.2": suite_lemma22,
    "lemma2.3": suite_lemma23,
    "thm2.4": suite_thm24,
    "thm3.3": suite_thm33,
    "thm3.4": suite_thm34,
    "ring-axioms": suite_ring_axioms,
    "mult-iso": suite_mult_iso,
}


def run_suite(name: str, cfg: TrialConfig) -> list[CheckReport]:
    try:
        fn = SUITE_NAMES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITE_NAMES)}") from None
    return fn(cfg)


def suite_summary(name: str, cfg: TrialConfig, reports: list[CheckReport]) -> dict:
    return {
        "suite": name,
        "seed": cfg.seed,
        "trials": cfg.trials,
        "max_prime": cfg.max_prime,
        "max_exp": cfg.max_exp,
        "passed": all(r.passed for r in reports),
        "checks": [r.to_dict() for r in reports],
    }
