"""Tests for subgroup descriptors: membership, normalization, equality."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qdrings.errors import GroupMismatchError, UnsupportedCaseError
from qdrings.foundations import INF, MAX_HEIGHT, Characteristic, char_geq, factorization, is_prime, primes_up_to
from qdrings.group import add, build_group, char_of, is_torsion, zmul
from qdrings.oracle import (
    TrialConfig,
    height_oracle,
    random_characteristic,
    random_element,
    random_group,
    sample_member,
)
from qdrings.ring import make_mult, multiply
from qdrings.subgroup import (
    DescriptorKind,
    SubgroupDescriptor,
    contains,
    equals,
    full_inv,
    parse_descriptor,
    plus_cyclic,
    torsion_inv,
)

CHI_A = Characteristic(0, {2: 2, 3: INF})
GA = build_group(CHI_A)
GB = build_group(Characteristic(0, {2: 1}))
GZ = build_group(Characteristic(INF))
CFG = TrialConfig(seed=515151)

E = GA.elem(1)
E2 = GA.elem(0, {2: 1})


def torsion_elements_of_GA():
    return [GA.elem(0, {2: a}) for a in range(4)]


# -- full_inv ----------------------------------------------------------------

def test_full_inv_zero_floor_is_everything():
    d = full_inv(GA, Characteristic(0))
    rng = random.Random(1)
    for _ in range(50):
        assert contains(d, random_element(GA, rng, CFG, torsion=rng.random() < 0.5))


def test_full_inv_example_in_GA():
    d = full_inv(GA, char_of(zmul(2, E)))
    assert contains(d, zmul(2, E))
    assert not contains(d, E)  # its height at 2 is 0, below the floor of 1


def test_full_inv_all_inf_floor_in_GB_is_the_rational_summand():
    d = full_inv(GB, Characteristic(INF))
    for q in (Fraction(1), Fraction(-3, 7), Fraction(5, 2)):
        assert contains(d, GB.elem_qb(q, 0))
    assert not contains(d, GB.elem_qb(0, 1))
    assert not contains(d, GB.elem_qb(1, 1))


def test_full_inv_collapses_to_torsion_when_only_torsion_fits():
    # an infinite floor at a divisible prime leaves only torsion members
    d = full_inv(GA, Characteristic(INF, {2: 0}))
    assert d.kind is DescriptorKind.TORSION
    # a positive floor on infinitely many primes of nonzero cocharacteristic does too
    G = build_group(Characteristic(2))
    d2 = full_inv(G, Characteristic(1))
    assert d2.kind is DescriptorKind.TORSION


# the floor v at 2 against the cocharacteristic value k at 2 (default inf elsewhere), printed
# as full_inv and torsion_inv normalize it; the full floor collapses to T(...) at k = v = inf
_FLOOR_TABLE = {
    (0, 0): ("G(eta=default=0;2:inf)", "T(eta=default=inf)"),
    (0, 1): ("G(eta=default=0;2:inf)", "T(eta=default=inf)"),
    (0, 2): ("G(eta=default=0;2:inf)", "T(eta=default=inf)"),
    (0, 3): ("G(eta=default=0;2:inf)", "T(eta=default=inf)"),
    (0, INF): ("G(eta=default=0;2:inf)", "T(eta=default=inf)"),
    (1, 0): ("G(eta=default=0)", "T(eta=default=inf;2:0)"),
    (1, 1): ("G(eta=default=0;2:inf)", "T(eta=default=inf)"),
    (1, 2): ("G(eta=default=0;2:inf)", "T(eta=default=inf)"),
    (1, 3): ("G(eta=default=0;2:inf)", "T(eta=default=inf)"),
    (1, INF): ("G(eta=default=0;2:inf)", "T(eta=default=inf)"),
    (3, 0): ("G(eta=default=0)", "T(eta=default=inf;2:0)"),
    (3, 1): ("G(eta=default=0;2:1)", "T(eta=default=inf;2:1)"),
    (3, 2): ("G(eta=default=0;2:2)", "T(eta=default=inf;2:2)"),
    (3, 3): ("G(eta=default=0;2:inf)", "T(eta=default=inf)"),
    (3, INF): ("G(eta=default=0;2:inf)", "T(eta=default=inf)"),
    (INF, 0): ("G(eta=default=0)", "T(eta=default=inf)"),
    (INF, 1): ("G(eta=default=0;2:1)", "T(eta=default=inf)"),
    (INF, 2): ("G(eta=default=0;2:2)", "T(eta=default=inf)"),
    (INF, 3): ("G(eta=default=0;2:3)", "T(eta=default=inf)"),
    (INF, INF): ("T(eta=default=inf)", "T(eta=default=inf)"),
}


@pytest.mark.parametrize("k, v", sorted(_FLOOR_TABLE))
def test_floor_normalization_table(k, v):
    G = build_group(Characteristic(INF, {2: k}))
    eta = Characteristic(0, {2: v})
    assert (str(full_inv(G, eta)), str(torsion_inv(G, eta))) == _FLOOR_TABLE[k, v]


# -- torsion_inv ---------------------------------------------------------------

def test_torsion_inv_examples():
    all_t = torsion_inv(GA, char_of(E2))
    members = [g for g in torsion_elements_of_GA() if contains(all_t, g)]
    assert members == torsion_elements_of_GA()

    half = torsion_inv(GA, char_of(zmul(2, E2)))
    assert [g for g in torsion_elements_of_GA() if contains(half, g)] == [
        GA.zero(),
        zmul(2, E2),
    ]

    trivial = torsion_inv(GA, Characteristic(INF))
    assert [g for g in torsion_elements_of_GA() if contains(trivial, g)] == [GA.zero()]
    assert not contains(trivial, E)  # nontorsion elements never belong


# -- plus_cyclic ---------------------------------------------------------------

def test_plus_cyclic_examples():
    trivial = torsion_inv(GA, Characteristic(INF))
    line = plus_cyclic(trivial, E)
    assert line.kind is DescriptorKind.SUM
    assert contains(line, zmul(5, E))
    assert not contains(line, E2)
    assert not contains(line, GA.elem(Fraction(1, 2), {2: 0}))

    collapsed = plus_cyclic(torsion_inv(GA, char_of(E2)), GA.zero())
    assert collapsed.kind is DescriptorKind.TORSION

    with pytest.raises(UnsupportedCaseError):
        plus_cyclic(full_inv(GA, Characteristic(0)), E)
    with pytest.raises(GroupMismatchError):
        plus_cyclic(trivial, GB.elem_qb(1, 0))


def test_a_non_torsion_element_or_remainder_never_belongs_to_a_torsion_part():
    # in Q (+) Z_2 every element dominates the floor T(eta=0) normalises to, so only the
    # torsion test of contains keeps a non-torsion x, or a non-torsion remainder, out
    torsion = torsion_inv(GB, Characteristic(0))
    assert contains(torsion, GB.elem_qb(0, 1))
    assert not contains(torsion, GB.elem_qb(1, 0)) and not contains(torsion, GB.elem_qb(Fraction(1, 3), 1))
    line = plus_cyclic(torsion, GB.elem_qb(2, 0))
    assert contains(line, GB.elem_qb(4, 1)) and contains(line, GB.elem_qb(-2, 0))
    for x in (GB.elem_qb(1, 0), GB.elem_qb(3, 1), GB.elem_qb(Fraction(1, 2), 0), GB.elem_qb(-1, 1)):
        assert not contains(line, x)  # x - k*g keeps a nonzero rational for every integer k


def test_cyclic_line_excludes_fractions_of_the_generator():
    e0 = GA.elem(1, {2: 0})
    line = plus_cyclic(torsion_inv(GA, Characteristic(INF)), e0)
    assert contains(line, zmul(-3, e0))
    assert not contains(line, GA.elem(Fraction(1, 2), {2: 0}))


def test_plus_cyclic_with_torsion_generator_collapses_to_the_meet(deadline):
    # generator of order 4 outside the torsion floor at height 1
    floor = torsion_inv(GA, Characteristic(INF, {2: 1}))
    d = plus_cyclic(floor, E2)
    assert d.kind is DescriptorKind.TORSION
    for g in torsion_elements_of_GA():
        assert contains(d, g)  # T(floor) + Z*e2 is all of the torsion part
    assert not contains(d, E)
    # and it equals the full torsion descriptor by the cyclic-slot collapse
    assert equals(d, torsion_inv(GA, char_of(E2)))
    # generators of order 2**10 * 3**6 and 2**39; x has an odd 2-coordinate, so no multiple hits it
    for cochar, text in [
        ("default=inf;2:11,3:6", "T(eta=default=inf)+Z*r=0;2:2,3:1"),
        ("default=inf;2:40", "T(eta=default=inf)+Z*r=0;2:2"),
    ]:
        G = build_group(Characteristic.parse(cochar))
        with deadline(1.0):
            big = parse_descriptor(text, G)
            assert not contains(big, G.parse_elem("r=0;2:1"))
            assert contains(big, G.parse_elem("r=0;2:6"))  # 2-height 1, as the generator's


# -- membership vs the direct definition --------------------------------------

def test_full_membership_matches_characteristic_comparison():
    rng = random.Random(2)
    for _ in range(1000):
        G = random_group(rng, CFG)
        # floors of elements, and arbitrary ones that may have a positive default
        if rng.random() < 0.5:
            eta = char_of(random_element(G, rng, CFG, torsion=rng.random() < 0.4))
        else:
            eta = random_characteristic(rng, CFG)
        x = random_element(G, rng, CFG, torsion=rng.random() < 0.4)
        expected = char_geq(char_of(x), eta)
        # hand-built descriptors skip normalization, so eta reaches contains as drawn
        for d in (full_inv(G, eta), SubgroupDescriptor(G, DescriptorKind.FULL, eta)):
            assert contains(d, x) == expected
        for d in (torsion_inv(G, eta), SubgroupDescriptor(G, DescriptorKind.TORSION, eta)):
            assert contains(d, x) == (expected and is_torsion(x))


_ORACLE_CFG = TrialConfig(seed=0, max_prime=13, max_exp=4)
_FLOOR_VALUES = st.sampled_from([*range(12), INF])


def _oracle_heights(x, eta):
    """height_oracle at every prime where x or eta can differ from the rest, plus one prime for the rest.

    The primes are those of the config, the exceptions of the cocharacteristic and of eta, the
    overrides of x and the primes of its coefficient; the next prime above them all stands for
    every other prime, where cocharacteristic, eta and x look alike.  Returns None when x has a
    finite height of 12 or more, where the capped oracle could not tell it from inf.
    """
    r = x.rational
    primes = {*_ORACLE_CFG.primes, *x.group.cochar.exception_primes, *eta.exception_primes, *x.overrides}
    for n in (abs(r.numerator), r.denominator):
        if n > 1:
            primes |= set(factorization(n))
    if r.numerator and any(r.numerator % p**12 == 0 for p in primes):
        return None  # slot heights stay below max_exp, so only a divisible prime can reach 12
    rest = max(primes) + 1
    while not is_prime(rest):
        rest += 1
    return {p: height_oracle(x, p, 12) for p in (*primes, rest)}


def _oracle_member(kind, eta, generator, x):
    """Whether x lies in the subgroup of that kind by definition; None when the oracle cannot tell.

    ``G(eta)`` holds the x with every height at least eta, ``T(eta)`` the torsion ones among
    them, and ``T(eta)+Z*generator`` the x that some integer multiple of the generator moves
    into ``T(eta)``.
    """
    if kind is DescriptorKind.SUM:
        k = x.rational / generator.rational  # the one multiple that can leave x - k*generator torsion
        if k.denominator != 1:
            return False
        x = add(x, zmul(-int(k), generator))
    if kind is not DescriptorKind.FULL and x.rational != 0:
        return False
    heights = _oracle_heights(x, eta)
    if heights is None:
        return None
    # the oracle reads 12 exactly where the height is inf; every finite floor value is at most 11
    return all(h == 12 if eta.value(p) == INF else h >= eta.value(p) for p, h in heights.items())


@settings(max_examples=50, deadline=None)
@given(
    st.integers(0, 2**32),
    st.booleans(),
    _FLOOR_VALUES,
    st.dictionaries(st.sampled_from([2, 3, 5, 7, 13, 17]), _FLOOR_VALUES, max_size=4),
)
def test_membership_matches_the_height_oracle(seed, reduced, default, exceptions):
    # an oracle of its own: heights by repeated division, never char_of or another closed form
    cfg = _ORACLE_CFG
    rng = random.Random(seed)
    G = random_group(rng, cfg, reduced=reduced)
    eta = Characteristic(default, exceptions)
    g = random_element(G, rng, cfg)  # non-torsion, the generator of both sums
    # each normalised descriptor next to a hand-built one that skips normalisation: both
    # describe the subgroup the oracle defines from the drawn floor and generator
    pairs = {
        DescriptorKind.FULL: (full_inv(G, eta), SubgroupDescriptor(G, DescriptorKind.FULL, eta)),
        DescriptorKind.TORSION: (torsion_inv(G, eta), SubgroupDescriptor(G, DescriptorKind.TORSION, eta)),
        DescriptorKind.SUM: (
            plus_cyclic(torsion_inv(G, eta), g),
            SubgroupDescriptor(G, DescriptorKind.SUM, eta, g),
        ),
    }
    elements = [random_element(G, rng, cfg, torsion=t) for t in (False, True)]
    elements += [sample_member(normalised, rng, cfg) for normalised, _ in pairs.values()]
    for kind, descriptors in pairs.items():
        for x in elements:
            expected = _oracle_member(kind, eta, g, x)
            if expected is not None:
                assert [contains(d, x) for d in descriptors] == [expected] * 2, (kind, x)


def test_membership_reads_the_floor_default_at_overrides_outside_the_exceptions():
    # 5 is no exception of the cocharacteristic or of the floor, so the floor there is its
    # default v; a coordinate a at 5 has height v exactly when 5**v divides it and 5**(v+1) does not
    G = build_group(Characteristic(3, {2: INF}))
    for v in (1, 2):
        d = torsion_inv(G, Characteristic(v))
        assert d.eta.default == v and 5 not in d.eta.exception_primes
        for a in range(125):
            x = G.elem(0, {5: a})
            assert contains(d, x) == (height_oracle(x, 5, 3) >= v)


def test_membership_never_factors(monkeypatch):
    def refuse(n):
        raise AssertionError(f"factorization({n}) called")

    monkeypatch.setattr("qdrings.group.factorization", refuse)
    # numerators with 22-digit prime factors; factoring them is what contains avoids
    p, q = 10**21 + 117, 10**21 + 193
    for cochar in ("default=inf;2:3", "default=1;2:3"):
        G = build_group(Characteristic.parse(cochar))
        descriptors = [
            full_inv(G, Characteristic(0, {2: 1})),
            torsion_inv(G, Characteristic(0, {2: 1})),
            plus_cyclic(torsion_inv(G, Characteristic(INF)), G.elem(4 * p)),
        ]
        assert [d.kind for d in descriptors] == list(DescriptorKind)
        b = G.elem(p * q)
        elements = [b, zmul(8, b), G.elem(0, {2: 4}), zmul(q, descriptors[2].generator)]
        assert [[contains(d, x) for x in elements] for d in descriptors] == [
            [False, True, True, True],
            [False, False, True, False],
            [False, True, False, True],
        ]


def test_normalization_is_idempotent_and_membership_invariant():
    rng = random.Random(3)
    for _ in range(300):
        G = random_group(rng, CFG)
        eta = char_of(random_element(G, rng, CFG, torsion=rng.random() < 0.4))
        for d in (full_inv(G, eta), torsion_inv(G, eta)):
            renorm = (
                full_inv(G, d.eta) if d.kind is DescriptorKind.FULL else torsion_inv(G, d.eta)
            )
            assert renorm.kind is d.kind and renorm.eta == d.eta
            x = random_element(G, rng, CFG, torsion=rng.random() < 0.4)
            assert contains(d, x) == contains(renorm, x)


def test_monotonicity_of_floors():
    rng = random.Random(4)
    for _ in range(200):
        G = random_group(rng, CFG)
        x = random_element(G, rng, CFG, torsion=rng.random() < 0.4)
        eta1 = char_of(x)
        eta2 = char_of(zmul(rng.randint(2, 9), x))  # multiplying only raises heights
        assert char_geq(eta2, eta1)
        lo, hi = full_inv(G, eta1), full_inv(G, eta2)
        y = sample_member(hi, rng, CFG)
        assert contains(lo, y)


def test_floor_subgroups_are_stable_under_multiples_and_products():
    rng = random.Random(5)
    for _ in range(200):
        G = random_group(rng, CFG)
        eta = char_of(random_element(G, rng, CFG, torsion=rng.random() < 0.4))
        d = full_inv(G, eta)
        x = sample_member(d, rng, CFG)
        assert contains(d, zmul(rng.randint(-20, 20), x))
        mult = make_mult(G, random_element(G, rng, CFG, torsion=rng.random() < 0.4))
        y = random_element(G, rng, CFG, torsion=rng.random() < 0.4)
        assert contains(d, multiply(mult, x, y))


# -- equality ------------------------------------------------------------------

def test_equals_torsion_vs_full_follows_reducedness():
    assert equals(full_inv(GA, char_of(E2)), torsion_inv(GA, char_of(E2)))
    xb = GB.elem_qb(0, 1)
    assert not equals(full_inv(GB, char_of(xb)), torsion_inv(GB, char_of(xb)))


def test_equals_ignores_floor_values_at_dead_primes():
    eta = Characteristic(INF, {2: 1, 3: 0})
    edited = Characteristic(INF, {2: 1, 3: 0, 5: 2})  # 5 has cocharacteristic 0 in GA
    assert GA.cochar.value(5) == 0
    assert equals(full_inv(GA, eta), full_inv(GA, edited))
    assert full_inv(GA, edited).eta.value(5) == INF


def test_equals_distinguishes_genuinely_different_floors():
    assert not equals(
        full_inv(GA, Characteristic(INF, {2: 1, 3: 0})),
        full_inv(GA, Characteristic(INF, {2: 0, 3: 0})),
    )
    assert not equals(torsion_inv(GA, Characteristic(INF, {2: 1})), torsion_inv(GA, Characteristic(INF, {2: 0})))


def test_equals_cyclic_line_against_floor_in_the_integers_group():
    line = plus_cyclic(torsion_inv(GZ, Characteristic(INF)), GZ.elem(-12))
    assert equals(line, full_inv(GZ, Characteristic(0, {2: 2, 3: 1})))
    assert not equals(line, full_inv(GZ, Characteristic(0, {2: 2})))
    # outside the integers-like group a cyclic line never matches a floor
    line_a = plus_cyclic(torsion_inv(GA, Characteristic(INF)), zmul(2, E))
    assert not equals(line_a, full_inv(GA, char_of(zmul(2, E))))


def test_equals_against_a_floor_with_large_values_never_builds_its_index(deadline):
    # the index of this floor, the product of p**MAX_HEIGHT over 300 primes, has about 45M digits
    floor = full_inv(GZ, Characteristic(0, {p: MAX_HEIGHT for p in primes_up_to(2000)[:300]}))
    with deadline(1.0):
        for n in (6, 2**MAX_HEIGHT, 2**MAX_HEIGHT * 3**MAX_HEIGHT):
            assert not equals(plus_cyclic(torsion_inv(GZ, Characteristic(INF)), GZ.elem(n)), floor)
    two = full_inv(GZ, Characteristic(0, {2: MAX_HEIGHT}))
    assert equals(plus_cyclic(torsion_inv(GZ, Characteristic(INF)), GZ.elem(-(2**MAX_HEIGHT))), two)
    assert not equals(plus_cyclic(torsion_inv(GZ, Characteristic(INF)), GZ.elem(2**MAX_HEIGHT * 3)), two)


def test_equals_sum_generators_modulo_torsion_part():
    floor = torsion_inv(GA, Characteristic(INF, {2: 0}))  # the whole torsion part
    a = plus_cyclic(floor, E)
    b = plus_cyclic(floor, add(E, E2))  # differs by a torsion member
    assert equals(a, b)
    c = plus_cyclic(floor, zmul(-1, E))  # sign-normalized away
    assert equals(a, c)
    d = plus_cyclic(floor, zmul(2, E))
    assert not equals(a, d)


def test_equal_descriptors_agree_on_sampled_members():
    rng = random.Random(6)
    for _ in range(200):
        G = random_group(rng, CFG)
        base = char_of(random_element(G, rng, CFG, torsion=rng.random() < 0.4))
        candidates = [full_inv(G, base), torsion_inv(G, base)]
        g = random_element(G, rng, CFG, torsion=rng.random() < 0.4)
        if not contains(torsion_inv(G, base), g):
            candidates.append(plus_cyclic(torsion_inv(G, base), g))
        for d1 in candidates:
            for d2 in candidates:
                if equals(d1, d2):
                    x = sample_member(d1, rng, CFG)
                    y = sample_member(d2, rng, CFG)
                    assert contains(d2, x) and contains(d1, y)


def test_descriptor_parse_print_round_trip():
    texts = [
        "G(eta=default=inf;2:1,3:0)",
        "T(eta=default=inf;2:1)",
        "T(eta=default=inf)+Z*r=2",
    ]
    for text in texts:
        d = parse_descriptor(text, GA)
        assert str(d) == text
    # a torsion generator is read into the floor
    assert str(parse_descriptor("T(eta=default=inf;2:1)+Z*r=0;2:1", GA)) == "T(eta=default=inf;2:0)"
