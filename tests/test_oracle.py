"""Tests for the independent checkers: division oracle, two-way ideal check, axiom check."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qdrings.foundations import INF, MAX_EXPONENT, Characteristic, is_prime
from qdrings.group import (
    _check_denominator,
    build_group,
    canonical_elem_str,
    char_of,
    coordinate_residue,
    height,
    zmul,
)
from qdrings.mutations import (
    certifier_skipping_verification,
    lowered_eta,
    product_dropping_m,
)
from qdrings.oracle import (
    MAX_PRIME_BOUND,
    MAX_SAMPLES,
    MAX_TRIALS,
    TrialConfig,
    exact_divide,
    height_oracle,
    heights_agree,
    ideal_two_way_check,
    random_element,
    random_group,
    random_nonzero_torsion,
    ring_axiom_check,
    sample_member,
    _below,
    _draw_primes,
    _input_digest,
    _plan,
)
from qdrings.ring import make_mult, principal_ideal
from qdrings.subgroup import (
    DescriptorKind,
    SubgroupDescriptor,
    contains,
    equals,
    full_inv,
    plus_cyclic,
    torsion_inv,
)

GA = build_group(Characteristic(0, {2: 2, 3: INF}))
GB = build_group(Characteristic(0, {2: 1}))
E = GA.elem(1)
E2 = GA.elem(0, {2: 1})
CFG = TrialConfig(seed=717171, samples_per_instance=25)


def test_trial_config_validation():
    with pytest.raises(ValueError):
        TrialConfig(seed=1, trials=0)
    with pytest.raises(ValueError):
        TrialConfig(seed=1, max_prime=3)
    with pytest.raises(ValueError):
        TrialConfig(seed=1, samples_per_instance=0)
    with pytest.raises(ValueError):
        TrialConfig(seed=1, max_exp=0)
    smallest = TrialConfig(seed=1, trials=1, max_prime=5, max_exp=1, samples_per_instance=1)
    assert smallest.primes == (2, 3, 5)
    with pytest.raises(ValueError, match="at least 5"):
        TrialConfig(seed=1, max_prime=4)
    assert TrialConfig(seed=1, max_prime=MAX_PRIME_BOUND).primes[-1] == 997
    with pytest.raises(ValueError, match="at most 1000"):
        TrialConfig(seed=1, max_prime=MAX_PRIME_BOUND + 1)
    assert TrialConfig(seed=1, max_exp=MAX_EXPONENT).max_exp == MAX_EXPONENT
    with pytest.raises(ValueError, match="max_exp must be at most 1000"):
        TrialConfig(seed=1, max_exp=MAX_EXPONENT + 1)


def test_trial_config_caps_the_sweep_sizes():
    # the acceptance run draws 50 groups x 1000 samples and 200 groups x 10
    for trials, samples in ((50, 1000), (200, 10), (MAX_TRIALS, MAX_SAMPLES)):
        cfg = TrialConfig(seed=1, trials=trials, samples_per_instance=samples)
        assert (cfg.trials, cfg.samples_per_instance) == (trials, samples)
    with pytest.raises(ValueError, match="trials must be at most 1000"):
        TrialConfig(seed=1, trials=MAX_TRIALS + 1)
    with pytest.raises(ValueError, match="samples_per_instance must be at most 1000"):
        TrialConfig(seed=1, samples_per_instance=MAX_SAMPLES + 1)


def test_exact_divide_constructs_verified_preimages():
    y = exact_divide(zmul(2, E), 2)
    assert y == E
    assert exact_divide(E, 2) is None  # the congruence 2a = 1 modulo 4 has no solution
    assert exact_divide(GA.zero(), 2) == GA.zero()
    half = exact_divide(GB.elem_qb(1, 0), 2)
    assert half == GB.elem_qb(Fraction(1, 2), 0)


def test_height_oracle_examples():
    assert height_oracle(E, 2, 6) == 0
    assert height_oracle(GA.zero(), 7, 6) == 6
    assert height_oracle(GB.elem_qb(1, 0), 2, 6) == 6
    assert height_oracle(GA.zero(), 7, 0) == 0 and height_oracle(GA.zero(), 7, 12) == 12
    for bound in (-1, 13):
        with pytest.raises(ValueError):
            height_oracle(E, 2, bound)


def test_height_oracle_never_consults_the_closed_form():
    # a chain that forces repeated lifting through the torsion coordinate
    g = GA.elem(0, {2: 2})
    assert height_oracle(g, 2, 6) == 1 == height(g, 2)
    g2 = GA.elem(Fraction(4), {2: 0})
    assert height_oracle(g2, 2, 6) == 6 and height(g2, 2) == INF


def test_a_composite_p_is_rejected_before_it_reaches_the_slot_memo():
    G = build_group(Characteristic(2))
    g = G.elem(1)
    calls = (coordinate_residue, exact_divide, lambda g, p: height_oracle(g, p, 3), height)
    for call in calls:
        with pytest.raises(ValueError, match="^4 is not prime$"):
            call(g, 4)
    assert 4 not in G._slots


def test_height_agreement_at_the_oracle_bound():
    # larger exponents than the bound exercise the saturation convention
    rng = random.Random(21)
    cfg = TrialConfig(seed=21, max_exp=8)
    for _ in range(300):
        G = random_group(rng, cfg)
        g = random_element(G, rng, cfg, torsion=rng.random() < 0.3)
        p = rng.choice((2, 3, 5))
        assert heights_agree(height(g, p), height_oracle(g, p, 6), 6)


def test_sampled_members_do_lie_in_their_descriptor():
    rng = random.Random(20)
    for _ in range(200):
        G = random_group(rng, CFG)
        eta = char_of(random_element(G, rng, CFG, torsion=rng.random() < 0.4))
        for d in (full_inv(G, eta), torsion_inv(G, eta)):
            x = sample_member(d, rng, CFG)
            assert contains(d, x)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32),
    st.booleans(),
    st.sampled_from(((5, 1), (13, 4), (31, 3), (60, 9))),
)
def test_generators_build_what_the_public_constructor_builds(seed, reduced, sizes):
    # the generators skip G.elem's checks; every draw must still be what G.elem gives
    max_prime, max_exp = sizes
    cfg = TrialConfig(seed=seed, max_prime=max_prime, max_exp=max_exp)
    rng = cfg.rng("construction")
    G = random_group(rng, cfg, reduced=reduced)
    assert G.is_reduced == reduced
    drawn = [random_element(G, rng, cfg, torsion=t) for t in (False, True, False, True)]
    if any(G._slot(p) for p in cfg.primes):
        drawn.append(random_nonzero_torsion(G, rng, cfg))
    kinds = set()
    for g in drawn[:3]:
        eta = char_of(g)
        for d in (full_inv(G, eta), torsion_inv(G, eta), plus_cyclic(torsion_inv(G, eta), g)):
            kinds.add(d.kind)
            drawn += [sample_member(d, rng, cfg) for _ in range(3)]
    assert kinds == set(DescriptorKind)
    for x in drawn:
        assert x == G.elem(x.rational, x.overrides)
        assert _check_denominator(x) is x
        for p, a in x.overrides.items():
            assert is_prime(p) and 0 <= a < G._slot(p)


def test_descriptor_memos_are_transparent():
    # sample_member keeps the plan of the last prime list in _plan; a descriptor used under one
    # list, then another, then the first again, draws as fresh descriptors do
    wide, narrow = TrialConfig(seed=1, max_prime=13), TrialConfig(seed=1, max_prime=7)
    rng = random.Random(41)
    kinds = set()
    for i in range(150):
        G = random_group(rng, wide, reduced=i % 2 == 0)
        g = random_element(G, rng, wide, torsion=rng.random() < 0.3)
        m = random_element(G, rng, wide, torsion=rng.random() < 0.5)
        d = principal_ideal(make_mult(G, m), g)
        kinds.add(d.kind)

        def fresh():
            return SubgroupDescriptor(d.group, d.kind, d.eta, d.generator)

        seed = rng.getrandbits(32)
        used, unused = random.Random(seed), random.Random(seed)
        for cfg in (wide, narrow, wide):
            for _ in range(3):
                b = sample_member(d, used, cfg)
                assert b == sample_member(fresh(), unused, cfg) and contains(d, b)
            x = random_element(G, used, cfg, torsion=used.random() < 0.5)
            assert contains(d, x) == contains(fresh(), x)
            assert x == random_element(G, unused, cfg, torsion=unused.random() < 0.5)
        assert d._plan[0] is wide.primes
        assert d == fresh() and str(d) == str(fresh()) and repr(d) == repr(fresh())
    assert kinds == set(DescriptorKind)


class _Scripted(random.Random):
    """A Random whose random() and getrandbits() give fixed answers and count their calls.

    Every getrandbits(k) returns pick % 3, which lies below 3 and below CFG.max_exp, so each
    integer draw takes one call and random_characteristic picks the default (0, finite, inf)[pick].
    """

    def __init__(self, value: float, pick: int):
        super().__init__(0)
        self.value, self.bits = value, pick % 3
        self.calls = {"random": 0, "getrandbits": 0}

    def random(self):
        self.calls["random"] += 1
        return self.value

    def getrandbits(self, k):
        self.calls["getrandbits"] += 1
        return self.bits


@pytest.mark.parametrize(
    "reduced, pick, fallback",
    [
        (True, 0, "default=inf;2:2,3:1"),  # every draw has default 0, so none is reduced
        (False, -1, "default=0;2:2,3:1"),  # every draw has default inf, so none is nonreduced
        (None, -1, "default=inf;2:2,3:1"),  # with_torsion: default inf alone has no slot
    ],
)
def test_random_group_falls_back_after_200_rejected_draws(reduced, pick, fallback):
    rng = _Scripted(0.99, pick)  # 0.99 keeps every prime off the exceptions
    G = random_group(rng, CFG, reduced=reduced, with_torsion=reduced is None)
    assert rng.calls["getrandbits"] == 2 * 200  # a finite value and the pick of the default per draw
    assert G.cochar == Characteristic.parse(fallback)


def test_below_draws_what_randrange_draws():
    ours, theirs = random.Random(5), random.Random(5)
    for n in [*range(1, 70), 2**20, 2**20 + 1, 10**30]:
        for _ in range(20):
            r = _below(ours.getrandbits, n)
            assert 0 <= r < n and r == theirs.randrange(n)


@pytest.mark.parametrize("n", [0, -1, -5])
def test_below_refuses_an_empty_range(n):
    with pytest.raises(ValueError):
        _below(random.Random(5).getrandbits, n)


class _CountingHashes(tuple):
    hashes = 0

    def __hash__(self):
        type(self).hashes += 1
        return super().__hash__()


def test_draw_primes_is_memoised_for_the_last_prime_list_and_never_hashes_it():
    G = build_group(Characteristic(0, {2: 2, 3: 1, 7: INF}))
    small, large = TrialConfig(seed=1, max_prime=5), TrialConfig(seed=1, max_prime=13)
    object.__setattr__(small, "primes", _CountingHashes(small.primes))
    first = _draw_primes(G, small)
    assert first == ((2, 3), (5,), ())  # slots, zero-value primes, inf-value primes
    assert _draw_primes(G, small) is first  # found by identity
    assert _draw_primes(G, large) == ((2, 3), (5, 11, 13), (7,))
    assert _draw_primes(G, small) == first  # worked out again after the other list
    assert _draw_primes(build_group(G.cochar), small) == first
    assert _CountingHashes.hashes == 0


def test_sample_member_keeps_the_plan_of_the_last_prime_list_and_never_hashes_it():
    G = build_group(Characteristic(0, {2: 2, 3: 1, 7: INF}))
    small, large = TrialConfig(seed=1, max_prime=5), TrialConfig(seed=1, max_prime=13)
    object.__setattr__(small, "primes", _CountingHashes(small.primes))
    before = _CountingHashes.hashes
    d = full_inv(G, Characteristic(0, {2: 1}))
    sample_member(d, random.Random(0), small)
    first = d._plan
    assert first[0] is small.primes and first[1] == _plan(d, small.primes)
    sample_member(d, random.Random(1), small)
    assert d._plan is first  # found by identity, not worked out again
    sample_member(d, random.Random(2), large)
    assert d._plan[0] is large.primes and d._plan[1] == _plan(d, large.primes)
    sample_member(d, random.Random(3), small)
    assert d._plan[0] is small.primes and d._plan[1] == first[1]
    assert _CountingHashes.hashes == before


def test_plan_steps_hold_only_what_full_member_reads():
    # 2: inf with floor 2 is a rho step; 3: slot 9 with floor inf a zero step; 5: slot 25 with
    # floor 1 a floor step; 7: slot 7 with floor 0 a maybe step
    G = build_group(Characteristic(1, {2: INF, 3: 2, 5: 2}))
    d = full_inv(G, Characteristic(0, {2: 2, 3: INF, 5: 1}))
    assert d.kind is DescriptorKind.FULL
    _, steps, _ = _plan(d, (2, 3, 5, 7))
    assert steps == (
        (2, "rho", 4, None),
        (3, "zero", None, None),
        (5, "floor", 5, 5),
        (7, "maybe", 1, 7),
    )


def test_random_nonzero_torsion_falls_back_after_100_zero_draws():
    G = build_group(Characteristic.parse("default=0;2:2,3:1,5:1"))
    rng = _Scripted(0.99, 0)  # 0.99 draws no coordinate, so every torsion draw is zero
    g = random_nonzero_torsion(G, rng, CFG)
    assert rng.calls["random"] == 100 * 3  # one coin at each slot prime 2, 3, 5 per draw
    assert g == G.elem(0, {2: 1})


def test_two_way_check_passes_on_sound_descriptors():
    mult = make_mult(GA, E)
    g = zmul(2, E)
    report = ideal_two_way_check(mult, g, principal_ideal(mult, g), CFG)
    assert report.passed and report.trials == 2 * CFG.samples_per_instance

    trivial = make_mult(GA, GA.zero())
    report = ideal_two_way_check(trivial, zmul(3, E), principal_ideal(trivial, zmul(3, E)), CFG)
    assert report.passed


def test_two_way_check_reports_each_product_that_leaves_a_too_small_descriptor():
    mult = make_mult(GA, E)
    g = zmul(2, E)
    too_small = torsion_inv(GA, char_of(g))  # no non-torsion element, so every product leaves it
    report = ideal_two_way_check(mult, g, too_small, CFG)
    # replay the forward draws with the stdlib methods _below stands for: k is randint(-8, 8)
    rng = CFG.rng("ideal", _input_digest(GA.cochar, E, g))
    expected = []
    for _ in range(CFG.samples_per_instance):
        x = random_element(GA, rng, CFG, torsion=rng.random() < 0.3)
        k = rng.randint(-8, 8)
        expected.append(f"product g*{canonical_elem_str(x)}+{k}g left the descriptor")
    assert report.fail_index == 0 and report.failures[: len(expected)] == expected
    assert report.to_dict()["failures"] == expected[:5]


def test_two_way_check_reports_are_deterministic():
    mult = make_mult(GA, E)
    g = zmul(2, E)
    r1 = ideal_two_way_check(mult, g, principal_ideal(mult, g), CFG)
    r2 = ideal_two_way_check(mult, g, principal_ideal(mult, g), CFG)
    assert r1.to_dict() == r2.to_dict()
    other = ideal_two_way_check(mult, g, principal_ideal(mult, g), TrialConfig(seed=99))
    assert other.passed  # different seed, same verdict


def test_ring_axiom_check_passes_for_real_products():
    for mult in (make_mult(GA, E), make_mult(GA, E2), make_mult(GA, GA.zero())):
        assert ring_axiom_check(mult, CFG).passed


def test_report_lines_have_the_documented_shape():
    report = ring_axiom_check(make_mult(GA, E), CFG)
    assert report.line().startswith("PASS ring-axioms trials=")
    bad = ideal_two_way_check(
        make_mult(GA, E),
        zmul(2, E),
        lowered_eta(principal_ideal(make_mult(GA, E), zmul(2, E))),
        CFG,
    )
    assert not bad.passed
    line = bad.line()
    assert line.startswith("FAIL ideal-two-way trials=") and "fail_at=" in line and "detail=" in line


# -- exhaustive enumeration on small torsion parts ------------------------------


def _torsion_part(G):
    """Every torsion element of a group whose slots are 2**2 and 3**1."""
    return [G.elem(0, {2: a, 3: b}) for a in range(4) for b in range(3)]


@pytest.mark.parametrize(
    "chi",
    [
        Characteristic(0, {2: 2, 3: 1, 5: INF}),
        Characteristic(0, {2: 2, 3: 1}),
        Characteristic(INF, {2: 2, 3: 1}),
    ],
    ids=["reduced-mixed", "nonreduced", "reduced-divisible-default"],
)
def test_torsion_descriptors_match_exhaustive_enumeration(chi):
    G = build_group(chi)
    torsion = _torsion_part(G)
    for g in torsion:
        multiples = {zmul(n, g) for n in range(12)}
        described = {x for x in torsion if contains(torsion_inv(G, char_of(g)), x)}
        assert multiples == described


@pytest.mark.parametrize("chi", [Characteristic(0, {2: 2, 3: 1, 5: INF}), Characteristic(0, {2: 2, 3: 1})])
def test_torsion_heights_match_exhaustive_divisibility(chi):
    G = build_group(chi)
    torsion = _torsion_part(G)
    for x in torsion:
        for p in (2, 3, 5, 7):
            divisible = {
                k for k in range(5) if any(zmul(p**k, y) == x for y in torsion)
            }
            brute = max(divisible)
            h = height(x, p)
            if brute == 4:
                assert h == INF or h >= 4
            else:
                assert h == brute


def test_principal_ideals_of_torsion_generators_match_enumeration():
    GA5 = build_group(Characteristic(0, {2: 2, 3: 1, 5: INF}))
    torsion = _torsion_part(GA5)
    for m in (GA5.zero(), GA5.basis_element(), GA5.elem(0, {2: 1, 3: 2})):
        mult = make_mult(GA5, m)
        for g in torsion:
            d = principal_ideal(mult, g)
            ideal = {zmul(n, g) for n in range(12)}  # the cyclic group is the whole ideal here
            for x in torsion:
                assert contains(d, x) == (x in ideal)


# -- mutation sensitivity ------------------------------------------------------


def test_lowered_floor_is_detected_by_the_backward_direction():
    mult = make_mult(GA, E)
    g = zmul(2, E)
    corrupted = lowered_eta(principal_ideal(mult, g))
    assert contains(corrupted, E)  # the corrupted descriptor wrongly admits the basis
    report = ideal_two_way_check(mult, g, corrupted, CFG)
    assert not report.passed
    assert any("no certificate" in f for f in report.failures)


@pytest.mark.parametrize(
    "chi", [Characteristic(0, {2: 2, 3: 1, 5: INF}), Characteristic(0, {2: 2, 3: 1})], ids=["reduced", "nonreduced"]
)
@pytest.mark.parametrize(
    "m, g, kind",
    [
        ({}, {2: 2, 3: 1}, DescriptorKind.TORSION),  # a torsion generator: T(char g)
        ({2: 2}, None, DescriptorKind.SUM),  # the basis under a torsion square: T(char g*e) + Z*g
    ],
    ids=["torsion-generator", "torsion-square"],
)
def test_lowered_torsion_floor_is_detected_by_the_backward_direction(chi, m, g, kind):
    G = build_group(chi)
    mult = make_mult(G, G.elem(0, m) if m else G.basis_element())
    g = G.elem(0, g) if g else G.basis_element()
    sound = principal_ideal(mult, g)
    corrupted = lowered_eta(sound)
    assert sound.kind is corrupted.kind is kind
    assert (sound.eta.value(2), corrupted.eta.value(2)) == (1, 0) and not equals(sound, corrupted)
    assert ideal_two_way_check(mult, g, sound, CFG).passed
    report = ideal_two_way_check(mult, g, corrupted, CFG)
    assert not report.passed
    assert any("no certificate" in f for f in report.failures)


def test_dropped_defining_element_is_detected_by_the_axiom_check():
    report = ring_axiom_check(make_mult(GA, E2), CFG, product=product_dropping_m)
    assert not report.passed and report.fail_index == 0  # the basis square, checked first
    report_unital = ring_axiom_check(make_mult(GA, E), CFG, product=product_dropping_m)
    assert not report_unital.passed  # additivity in the defining element fails


def test_skipped_witness_verification_is_detected_by_recomputation():
    mult = make_mult(GA, E)
    g = zmul(2, E)
    report = ideal_two_way_check(
        mult, g, principal_ideal(mult, g), CFG, certifier=certifier_skipping_verification
    )
    assert not report.passed
    assert any("does not recompute" in f for f in report.failures)
