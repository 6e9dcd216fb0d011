"""The five record classes: construction, printing, equality, hashing and immutability.

``Decomposition``, ``PrincipalWitness`` and ``NonAbsoluteWitness`` are immutable
records printed as ``Name(field=value, ...)``; ``TrialConfig`` is an immutable,
validated sweep configuration; ``CheckReport`` is the mutable outcome of one check.
"""

from fractions import Fraction

import pytest

from qdrings import (
    Characteristic,
    CheckReport,
    Decomposition,
    NonAbsoluteWitness,
    PrincipalWitness,
    TrialConfig,
    build_group,
    decompose,
    make_mult,
    non_absolute_ideal_witness,
)
from qdrings.foundations import MAX_EXPONENT
from qdrings.oracle import MAX_PRIME_BOUND, MAX_SAMPLES, MAX_TRIALS

G = build_group(Characteristic(0, {2: 2, 3: 1}))
GROUP = "nonreduced m=12 (Q (+) Z_12)"


def _assert_immutable(record, field, value):
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.unknown = value


def test_decomposition_is_an_immutable_record():
    g = G.elem_qb(3, 5)
    d = decompose(g)
    text = f"Decomposition(scale=1, rational=Fraction(3, 1), tail=<q=0;b=5 in {GROUP}>, support=frozenset({{2, 3}}))"
    assert repr(d) == str(d) == text
    assert (d.scale, d.rational, d.tail, d.support) == (1, Fraction(3), G.elem_qb(0, 5), frozenset({2, 3}))
    same = Decomposition(scale=1, rational=Fraction(3), tail=G.elem_qb(0, 5), support=frozenset({2, 3}))
    assert d == same == Decomposition(1, Fraction(3), G.elem_qb(0, 5), frozenset({2, 3}))
    assert hash(d) == hash(same) and d is not same
    assert d != Decomposition(1, Fraction(3), G.elem_qb(0, 4), frozenset({2, 3}))
    assert d.recombine() == g
    _assert_immutable(d, "scale", 2)


def test_principal_witness_is_an_immutable_record():
    w = PrincipalWitness(G.zero(), 3)
    assert repr(w) == f"PrincipalWitness(y=<q=0;b=0 in {GROUP}>, k=3)"
    assert str(w) == "y=q=0;b=0;k=3"
    assert w == PrincipalWitness(y=G.zero(), k=3) and hash(w) == hash(PrincipalWitness(y=G.zero(), k=3))
    assert w != PrincipalWitness(G.zero(), 4) and w != PrincipalWitness(G.elem_qb(0, 1), 3)
    _assert_immutable(w, "k", 4)


def test_non_absolute_witness_is_an_immutable_record():
    w = non_absolute_ideal_witness(make_mult(G, G.elem_qb(0, 1)))
    e0, violator = G.elem_qb(1, 0), G.elem_qb(Fraction(1, 2), 0)
    assert repr(w) == f"NonAbsoluteWitness(e0=<q=1;b=0 in {GROUP}>, p=2, violator=<q=1/2;b=0 in {GROUP}>)"
    assert str(w) == "e0=q=1;b=0;p=2;x=q=1/2;b=0"
    assert (w.e0, w.p, w.violator) == (e0, 2, violator)
    assert w == NonAbsoluteWitness(e0=e0, p=2, violator=violator) == NonAbsoluteWitness(e0, 2, violator)
    assert hash(w) == hash(NonAbsoluteWitness(e0, 2, violator))
    assert w != NonAbsoluteWitness(e0, 3, violator)
    _assert_immutable(w, "p", 3)


def test_trial_config_keeps_its_signature_printing_and_equality():
    cfg = TrialConfig(seed=3)
    assert repr(cfg) == "TrialConfig(seed=3, trials=100, max_prime=13, max_exp=4, samples_per_instance=20)"
    assert str(cfg) == repr(cfg)
    assert cfg.primes == (2, 3, 5, 7, 11, 13)
    assert TrialConfig(3, 100, 13, 4, 20) == cfg == TrialConfig(
        seed=3, trials=100, max_prime=13, max_exp=4, samples_per_instance=20
    )
    assert hash(TrialConfig(seed=3)) == hash(cfg) and TrialConfig(seed=3) is not cfg
    for other in (TrialConfig(seed=4), TrialConfig(seed=3, trials=99), TrialConfig(seed=3, max_prime=11),
                  TrialConfig(seed=3, max_exp=5), TrialConfig(seed=3, samples_per_instance=21)):
        assert other != cfg
    # the primes are derived, so they are neither printed nor compared
    twin = TrialConfig(seed=3)
    object.__setattr__(twin, "primes", (2, 3))
    assert twin == cfg and hash(twin) == hash(cfg) and twin.primes == (2, 3)
    with pytest.raises(TypeError):
        TrialConfig()
    with pytest.raises(TypeError):
        TrialConfig(seed=3, primes=(2, 3))
    _assert_immutable(cfg, "seed", 4)
    _assert_immutable(cfg, "primes", (2,))
    assert cfg.rng("a", 1).random() == TrialConfig(seed=3, trials=7).rng("a", 1).random()


def test_trial_config_and_check_report_leave_other_types_to_python():
    # __eq__ returns NotImplemented for another type, so == falls back to identity and is False
    cfg, report = TrialConfig(seed=3), CheckReport("x")
    assert cfg.__eq__(cfg._key()) is NotImplemented and cfg != cfg._key()
    assert report.__eq__("x") is NotImplemented and report != "x"
    assert cfg != report and report != cfg


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"trials": 0}, "trials, max_exp and samples_per_instance must be positive"),
        ({"max_exp": 0}, "trials, max_exp and samples_per_instance must be positive"),
        ({"samples_per_instance": 0}, "trials, max_exp and samples_per_instance must be positive"),
        ({"max_prime": 4}, "max_prime must be at least 5 so divisible and finite primes coexist"),
        ({"max_prime": MAX_PRIME_BOUND + 1}, f"max_prime must be at most {MAX_PRIME_BOUND}"),
        ({"max_exp": MAX_EXPONENT + 1}, f"max_exp must be at most {MAX_EXPONENT}"),
        ({"trials": MAX_TRIALS + 1}, f"trials must be at most {MAX_TRIALS}"),
        ({"samples_per_instance": MAX_SAMPLES + 1}, f"samples_per_instance must be at most {MAX_SAMPLES}"),
        # with several faults, the first check in the order above reports
        ({"trials": 0, "max_prime": 4}, "trials, max_exp and samples_per_instance must be positive"),
        ({"max_prime": 4, "max_exp": MAX_EXPONENT + 1}, "max_prime must be at least 5"),
        ({"max_prime": MAX_PRIME_BOUND + 1, "max_exp": MAX_EXPONENT + 1}, "max_prime must be at most"),
        ({"max_exp": MAX_EXPONENT + 1, "trials": MAX_TRIALS + 1}, "max_exp must be at most"),
        ({"trials": MAX_TRIALS + 1, "samples_per_instance": MAX_SAMPLES + 1}, "trials must be at most"),
    ],
)
def test_trial_config_validation_messages_in_order(kwargs, message):
    with pytest.raises(ValueError) as exc:
        TrialConfig(seed=1, **kwargs)
    assert str(exc.value).startswith(message)


def test_check_report_records_the_first_failure_and_prints_one_line():
    r = CheckReport("x")
    assert repr(r) == "CheckReport(name='x', trials=0, failures=[], fail_index=None)"
    assert r.passed and r.line() == "PASS x trials=0"
    assert r.to_dict() == {"check": "x", "passed": True, "trials": 0, "fail_at": None, "failures": []}
    assert CheckReport("y").failures is not r.failures  # a fresh list per report
    r.trials = 9
    for i in range(7):
        r.record(4 + i, f"bad{i}")
    assert not r.passed and r.fail_index == 4
    assert r.line() == "FAIL x trials=9 fail_at=4 detail=bad0"
    assert r.to_dict() == {
        "check": "x", "passed": False, "trials": 9, "fail_at": 4, "failures": [f"bad{i}" for i in range(5)]
    }
    assert repr(r) == f"CheckReport(name='x', trials=9, failures={[f'bad{i}' for i in range(7)]!r}, fail_index=4)"
    assert str(r) == repr(r)
    same = CheckReport("x", 9, [f"bad{i}" for i in range(7)], 4)
    assert r == same and r == CheckReport(name="x", trials=9, failures=list(same.failures), fail_index=4)
    assert r != CheckReport("x", 9, list(same.failures), 5)
    with pytest.raises(TypeError):
        hash(r)
