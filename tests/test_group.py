"""Tests for group construction and element arithmetic.

Derived height values are frozen here only after the independent
iterated-division oracle reproduces them in the same test.
"""

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qdrings.cli import run
from qdrings.errors import (
    GroupMismatchError,
    InvalidDenominatorError,
    ParseError,
    UnsupportedCaseError,
)
from qdrings.foundations import INF, Characteristic, char_geq, factorization, meet, vp
from qdrings.group import (
    Qd1Group,
    add,
    build_group,
    _build,
    _check_denominator,
    _free_part,
    _implied,
    _quotient,
    c_of,
    char_of,
    coordinate_residue,
    decompose,
    height,
    is_integers,
    is_torsion,
    neg,
    order,
    zmul,
)
from qdrings.oracle import TrialConfig, height_oracle, heights_agree, random_element, random_group
from qdrings.ring import make_mult, multiply, principal_absolute_ideal

CHI_A = Characteristic(0, {2: 2, 3: INF})
CHI_B = Characteristic(0, {2: 1})
CHI_C = Characteristic(0, {2: 2, 3: 1, 5: INF})
CHI_Z = Characteristic(INF)

GA = build_group(CHI_A)
GB = build_group(CHI_B)
GC = build_group(CHI_C)
GZ = build_group(CHI_Z)

CFG = TrialConfig(seed=424242, trials=50)


# -- construction ------------------------------------------------------------


def test_build_group_kinds():
    assert not GB.is_reduced and GB.modulus == 2
    assert str(GB) == "nonreduced m=2 (Q (+) Z_2)"
    assert GA.is_reduced and GA.modulus is None
    assert GZ.is_reduced
    assert is_integers(GZ)
    assert not is_integers(GA)
    # zeroing one coordinate reopens division there, so the group grows past the integers
    assert not is_integers(build_group(Characteristic(INF, {2: 0})))


def test_group_identity_is_by_cocharacteristic():
    assert build_group(CHI_A) == GA
    assert GA != GB
    assert len({GA, build_group(CHI_A), GB}) == 2
    # elements of separately built groups with one cocharacteristic mix freely
    twin = build_group(CHI_A)
    x, y = GA.elem(Fraction(1, 2), {2: 3}), twin.elem(3, {2: 1})
    assert twin.elem(Fraction(1, 2), {2: 3}) == x
    assert add(x, y) == add(y, x) == GA.elem(Fraction(7, 2), {2: 0})
    assert multiply(make_mult(GA, twin.elem(1)), x, y) == twin.elem(Fraction(3, 2), {2: 3})


# -- element constructor -----------------------------------------------------


def test_elem_basis_and_validation():
    e = GA.elem(1)
    assert e.rational == 1 and e.overrides == {}
    with pytest.raises(InvalidDenominatorError):
        GA.elem(Fraction(1, 3))  # the 3-coordinate of a third of the basis leaves the group
    with pytest.raises(InvalidDenominatorError):
        GA.elem(Fraction(1, 2))  # needs an explicit 2-coordinate
    # the keys follow coordinate_residue's rule and messages
    with pytest.raises(ValueError, match="^prime 5 carries no finite torsion coordinate"):
        GA.elem(0, {5: 1})
    with pytest.raises(ValueError, match="^prime 3 carries no finite torsion coordinate"):
        GA.elem(0, {3: 1})
    with pytest.raises(ValueError, match="^4 is not prime$"):
        GA.elem(0, {4: 1})
    with pytest.raises(ValueError, match="^override key True is not prime$"):
        GA.elem(0, {True: 1})
    for value in (1.5, Fraction(1), "1", True):  # coordinates and multiples are ints, not bools
        with pytest.raises(ValueError, match=re.escape(f"override at 2 must be an integer, got {value!r}")):
            GA.elem(0, {2: value})
        with pytest.raises(ValueError, match=re.escape(f"integer multiple expected, got {value!r}")):
            zmul(value, e)
        with pytest.raises(ValueError, match=re.escape(f"torsion residue must be an integer, got {value!r}")):
            GB.elem_qb(1, value)


def test_invalid_denominator_with_two_large_primes_is_rejected_without_factoring(deadline, capsys):
    p, q = 10**21 + 117, 3 * 10**21 + 53  # 22-digit primes; Brent's method needs ~1e10 steps
    G = build_group(Characteristic(1))
    with deadline(1.0):
        with pytest.raises(InvalidDenominatorError, match=f"denominator part {p * q} "):
            G.elem(Fraction(1, p * q))
        with pytest.raises(InvalidDenominatorError, match="denominator prime 5 "):
            G.elem(Fraction(1, 5 * p * q))  # a small prime is still named
        with pytest.raises(InvalidDenominatorError, match="denominator prime 53 "):
            G.elem(Fraction(1, 53 * p))  # so is any prime below 2**10
        code = run(["elem", "info", "--cochar", "default=1", "--elem", f"r=1/{p * q}"])
    assert code == 2
    assert "a valid denominator" in capsys.readouterr().err


def test_elem_half_basis_off_two():
    g = GA.elem(Fraction(1, 2), {2: 0})
    assert 8 * g == 4 * GA.elem(1)  # an integer multiple lands on the basis line


def test_elem_normalizes_redundant_overrides():
    assert GA.elem(1, {2: 1}) == GA.elem(1)
    assert GA.elem(1, {2: 5}) == GA.elem(1)  # residues are reduced modulo 4
    assert GA.elem(1, {2: 0}) != GA.elem(1)


def test_nonreduced_elements_keep_full_coordinates():
    x = GB.elem_qb(1, 0)
    assert x.overrides == {2: 0}
    assert GB.elem_qb(1) == x  # the residue defaults to 0
    assert x.as_pair() == (Fraction(1), 0)
    assert GB.elem_qb(Fraction(1, 2), 1).as_pair() == (Fraction(1, 2), 1)
    assert GB.elem(1) == GB.elem_qb(1, 1)  # the basis pairs the rational one with residue one
    with pytest.raises(InvalidDenominatorError):
        GB.elem(Fraction(1, 2))
    with pytest.raises(UnsupportedCaseError):
        GA.elem_qb(1, 0)


# -- group laws --------------------------------------------------------------


def test_add_neg_zmul_examples():
    e = GA.elem(1)
    e2 = GA.elem(0, {2: 1})
    assert add(e, neg(e)) == GA.zero()
    assert zmul(4, e2) == GA.zero()
    half = GA.elem(Fraction(1, 2), {2: 0})
    assert add(half, half) == GA.elem(1, {2: 0})
    assert e - e2 == add(e, neg(e2))
    twin_shape = build_group(Characteristic(0, {2: 2, 3: INF, 5: 1}))
    # elements of equal groups are equal even when the group objects differ; of different groups, never
    assert e == Qd1Group(CHI_A).elem(1)
    for other in (GB.elem_qb(1, 0), twin_shape.elem(1)):
        assert e != other
        with pytest.raises(GroupMismatchError):
            add(e, other)
        with pytest.raises(GroupMismatchError):
            e - other
        with pytest.raises(GroupMismatchError):
            multiply(make_mult(GA, e), e, other)


def test_add_and_multiply_at_a_prime_outside_the_exception_list():
    G = build_group(Characteristic.parse("default=2;3:1"))
    assert not G._slots  # slot moduli are computed on first use, never at construction
    x = G.elem(Fraction(1, 17), {17: 5})
    y = G.elem(2, {17: 100})
    half = G.elem(Fraction(1, 2), {2: 1})  # its 17-coordinate is 1/2 = 145 mod 289
    mult = make_mult(G, G.elem(3, {17: 7}))
    # slots: 17**2 = 289 at 17, 2**2 = 4 at 2; 1/17 is 1 mod 4
    assert add(x, y) == G.elem(Fraction(35, 17), {17: 105})
    assert add(x, G.elem(4)) == G.elem(Fraction(69, 17), {17: 9})
    total = add(x, half)
    assert (total.rational, total.overrides) == (Fraction(19, 34), {17: 150, 2: 2})
    assert multiply(mult, x, y) == G.elem(Fraction(6, 17), {17: 3500 % 289})
    assert multiply(mult, x, G.elem(4)) == G.elem(Fraction(12, 17), {17: 140})
    assert multiply(mult, x, half) == G.elem(Fraction(3, 34), {17: 5 * 145 * 7 % 289, 2: 3})


def test_closure_of_arithmetic_under_revalidation():
    rng = random.Random(7)
    cfg = TrialConfig(seed=7)
    for _ in range(40):
        G = random_group(rng, cfg)
        pool = [random_element(G, rng, cfg, torsion=rng.random() < 0.3) for _ in range(6)]
        for _ in range(250):
            op = rng.choice(["add", "neg", "zmul"])
            if op == "add":
                out = add(rng.choice(pool), rng.choice(pool))
            elif op == "neg":
                out = neg(rng.choice(pool))
            else:
                out = zmul(rng.randint(-9, 9), rng.choice(pool))
            rebuilt = G.elem(out.rational, out.overrides)
            assert rebuilt == out
            pool[rng.randrange(len(pool))] = out


def _assert_lowest_terms(x):
    assert x._den > 0 and math.gcd(x._num, x._den) == 1


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**64), st.integers(-30, 30))
def test_integer_core_is_reduced_and_agrees_with_fractions(seed, n):
    rng = random.Random(seed)
    G = random_group(rng, CFG)
    g, h, m = (random_element(G, rng, CFG, torsion=rng.random() < 0.3) for _ in range(3))
    mult = make_mult(G, m)
    checked = [
        (g, g.rational),
        (G.elem(n), Fraction(n)),
        (G.elem(h.rational, h.overrides), h.rational),
        (add(g, h), g.rational + h.rational),
        (zmul(n, g), n * g.rational),
        (multiply(mult, g, h), g.rational * h.rational * m.rational),
    ]
    for x, reference in checked:
        _assert_lowest_terms(x)
        assert x.rational == reference
        parsed = G.parse_elem(str(x))
        assert parsed == x and hash(parsed) == hash(x)
    swapped = add(h, g)
    assert swapped == add(g, h) and hash(swapped) == hash(add(g, h))


def _fraction_coordinate(x, p, q):
    # the coordinate at p from the override, else from the Fraction coefficient
    if p in x.overrides:
        return x.overrides[p]
    r = x.rational
    return r.numerator * pow(r.denominator, -1, q) % q


def _assert_overrides_are_the_unimplied_coordinates(x, coordinates):
    # coordinates: every candidate key of a result with its coordinate there; in either group kind
    # an override must be stored exactly where the coefficient does not give that coordinate
    assert x._overrides.keys() <= coordinates.keys()
    for p, a in coordinates.items():
        q = x._group._slots[p]
        implied = None if x._den % p == 0 else x._num * pow(x._den, -1, q) % q
        if p in x._overrides:
            assert x._overrides[p] == a % q != implied
        else:
            assert a % q == implied


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**64), st.integers(-30, 30), st.booleans())
def test_arithmetic_results_need_no_denominator_check(seed, n, reduced):
    # add, zmul, neg and multiply skip the check that G.elem makes: each result must pass it
    # anyway and equal the element G.elem builds from Fraction coefficients and coordinates
    rng = random.Random(seed)
    G = random_group(rng, CFG, reduced=reduced)
    g, h, m = (random_element(G, rng, CFG, torsion=rng.random() < 0.3) for _ in range(3))
    mult = make_mult(G, m)
    keys = g.overrides.keys() | h.overrides.keys() | m.overrides.keys()
    slots = {p: G._slot(p) for p in keys}
    c = {x: {p: _fraction_coordinate(x, p, q) for p, q in slots.items()} for x in (g, h, m)}
    checked = [
        (add(g, h), g.rational + h.rational, {p: c[g][p] + c[h][p] for p in keys}),
        (zmul(n, g), n * g.rational, {p: n * c[g][p] for p in keys}),
        (neg(h), -h.rational, {p: -c[h][p] for p in keys}),
        (
            multiply(mult, g, h),
            g.rational * h.rational * m.rational,
            {p: c[g][p] * c[h][p] * c[m][p] for p in keys},
        ),
    ]
    for x, rational, coordinates in checked:
        assert _check_denominator(x) is x
        _assert_lowest_terms(x)
        assert x.rational == rational
        assert x == G.elem(rational, coordinates)
        _assert_overrides_are_the_unimplied_coordinates(x, coordinates)


def test_arithmetic_on_equal_group_objects_reads_slots_the_first_has_not_seen():
    # each call gets two fresh equal groups: x fills only the slot memo of G1 at 2, y of G2 at 3
    def twins():
        chi = Characteristic(2)
        G1, G2 = Qd1Group(chi), Qd1Group(chi)
        return G1, G2, G1.elem(1, {2: 3}), G2.elem(1, {3: 5})

    for op, expected in (
        (lambda G1, G2, x, y: add(x, y), "r=2;2:0,3:6"),
        (lambda G1, G2, x, y: add(y, x), "r=2;2:0,3:6"),
        (lambda G1, G2, x, y: multiply(make_mult(G1, G1.elem(1)), x, y), "r=1;2:3,3:5"),
        (lambda G1, G2, x, y: multiply(make_mult(G2, G2.elem(3, {5: 7})), x, y), "r=3;2:1,3:6,5:7"),
    ):
        G1, G2, x, y = twins()
        assert 3 not in G1._slots and 2 not in G2._slots
        assert str(op(G1, G2, x, y)) == expected


def test_build_keeps_an_override_exactly_where_the_coefficient_does_not_imply_it():
    # a slot p**2 at 2, 3 and 5 in a reduced group and in Q (+) Z_900: one normal form for both
    for G in (build_group(Characteristic(2)), build_group(Characteristic(0, {2: 2, 3: 2, 5: 2}))):
        for p in (2, 3, 5):
            q = G._slot(p)
            # den 1; dens that are units at p; p | den; num/den not in lowest terms, as with
            # 2/2 at p = 2 and a = 3, where a*den == num (mod 4) holds but 3 is not 2/2 = 1
            for den in (1, 7, 2, 3, 12, 25, 2 * p, p * p):
                for num in (*range(-7, 8), 2 * p, -3 * p * p, 10**40 + 1):
                    if den % p:  # the rule itself, against the Fraction coefficient's coordinate
                        assert _implied(num, den, q) == _fraction_coordinate(_build(G, num, den, {}), p, q)
                    for a in range(q):
                        x = _build(G, num, den, {p: a})
                        assert x.rational == Fraction(num, den)
                        _assert_lowest_terms(x)
                        _assert_overrides_are_the_unimplied_coordinates(x, {p: a})
        assert _build(G, 2, 2, {2: 3}).overrides == {2: 3}
        assert _build(G, 1, 2, {2: 0}).overrides == {2: 0}


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32))
def test_sparse_nonreduced_elements_round_trip_through_pairs_and_text(seed):
    # a nonreduced element stores only its unimplied coordinates; the (q, b) pair and the q=...;b=...
    # text still carry every coordinate, and each rebuilds the same element
    rng = random.Random(seed)
    G = random_group(rng, CFG, reduced=False)
    x = random_element(G, rng, CFG, torsion=rng.random() < 0.3)
    rational, b = x.as_pair()
    coordinates = {p: b % G._slot(p) for p in G._torsion_keys}
    assert {p: coordinate_residue(x, p) for p in G._torsion_keys} == coordinates
    _assert_overrides_are_the_unimplied_coordinates(x, coordinates)
    assert G.elem_qb(rational, b) == x
    assert G.parse_elem(str(x)) == x


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.integers(-30, 30), st.booleans())
def test_operators_are_the_group_laws(seed, n, reduced):
    rng = random.Random(seed)
    G = random_group(rng, CFG, reduced=reduced)
    g, h = (random_element(G, rng, CFG, torsion=rng.random() < 0.3) for _ in range(2))
    assert g + h == add(g, h)
    assert g - h == add(g, neg(h))
    assert -g == neg(g) == zmul(-1, g)
    assert n * g == zmul(n, g)
    if reduced:
        with pytest.raises(UnsupportedCaseError, match="nonreduced groups only"):
            g.as_pair()


@pytest.mark.parametrize(
    "cochar, text, message",
    [
        ("default=0;2:2,3:inf", "r=1/3", "prime 3 has cocharacteristic inf"),
        ("default=0;2:2,3:inf", "r=1/2", "prime 2 has cocharacteristic 2"),
        ("default=1", "r=1/5", "prime 5 has cocharacteristic 1"),
        ("default=inf;7:3", "r=1/7", "prime 7 has cocharacteristic 3"),
        ("default=inf;7:3", "r=1/11", "prime 11 has cocharacteristic inf"),
    ],
)
def test_reduced_entry_points_reject_a_bad_denominator(cochar, text, message):
    G = build_group(Characteristic.parse(cochar))
    r = Fraction(text[2:])
    with pytest.raises(InvalidDenominatorError, match=message):
        G.elem(r)
    with pytest.raises(ParseError, match=message):
        G.parse_elem(text)
    with pytest.raises(UnsupportedCaseError):
        G.elem_qb(r)
    # an explicit coordinate at every slot prime of the denominator makes it valid
    slots = {p: 0 for p in factorization(r.denominator) if G._slot(p)}
    if len(slots) == len(factorization(r.denominator)):
        assert G.elem(r, slots).rational == r


def test_nonreduced_entry_points_reject_a_bad_denominator():
    G = build_group(Characteristic(0, {2: 1, 3: 2}))
    for r, message in (
        (Fraction(1, 2), "prime 2 has cocharacteristic 1"),
        (Fraction(5, 9), "prime 3 has cocharacteristic 2"),
        (Fraction(1, 6), "prime 2 has cocharacteristic 1"),
    ):
        with pytest.raises(InvalidDenominatorError, match=message):
            G.elem(r)
        # elem_qb and the q=...;b=... text give every torsion coordinate, so any denominator is valid
        x = G.elem_qb(r, 5)
        assert x.as_pair() == (r, 5) and G.parse_elem(str(x)) == x
    with pytest.raises(InvalidDenominatorError):
        G.elem(Fraction(1, 3), {2: 1})  # the coordinate at 2 does not cover 3


def test_elem_takes_ints_and_fractions_as_they_are():
    for G in (GA, GB):
        three = G.elem(3)
        assert G.elem(Fraction(6, 2)) == three == G.elem("3") == G.elem(3.0)
        one = G.elem(True)
        assert one == G.elem(1) and str(one) == str(G.elem(1))
        # a bool coefficient would print as True
        assert type(three._num) is int and type(one._num) is int
    assert str(GA.elem(True)) == "r=1"


# -- heights -----------------------------------------------------------------


def test_integer_valuations_match_fraction_references():
    # height at the infinite-value primes and c_of, against vp and factoring of g.rational
    rng = random.Random(1111)
    for _ in range(300):
        G = random_group(rng, CFG)
        g = random_element(G, rng, CFG, torsion=rng.random() < 0.2)
        chi = G.cochar
        r = g.rational
        for p in CFG.primes + chi.exception_primes:
            if chi.value(p) == INF:
                assert height(g, p) == (INF if r == 0 else vp(r, p))
        primes = factorization(abs(r.numerator)) if r else ()
        expected = 0 if r == 0 else math.prod(p ** vp(r, p) for p in primes if chi.value(p) == INF)
        assert c_of(g) == expected


def test_height_examples_match_the_division_oracle():
    e = GA.elem(1)
    cases = [
        (e, 2, 0),
        (e, 3, 0),
        (zmul(2, e), 2, 1),
        (GA.elem(0, {2: 2}), 2, 1),
        (GA.elem(Fraction(1, 2), {2: 3}), 2, 0),
    ]
    for g, p, expected in cases:
        assert height_oracle(g, p, 6) == expected
        assert height(g, p) == expected
    # unbounded cases: the oracle saturates at the bound
    assert height(e, 5) == INF and height_oracle(e, 5, 6) == 6
    assert height(GB.elem_qb(1, 0), 2) == INF and height_oracle(GB.elem_qb(1, 0), 2, 6) == 6
    assert height(GA.zero(), 2) == INF and height_oracle(GA.zero(), 2, 6) == 6


def test_height_oracle_agreement_sweep():
    rng = random.Random(31)
    for _ in range(500):
        G = random_group(rng, CFG)
        g = random_element(G, rng, CFG, torsion=rng.random() < 0.3)
        for p in (2, 3, 5, 7, 11, 13):
            assert heights_agree(height(g, p), height_oracle(g, p, 6), 6)


def test_height_law_under_prime_multiplication():
    rng = random.Random(32)
    for _ in range(300):
        G = random_group(rng, CFG)
        g = random_element(G, rng, CFG, torsion=rng.random() < 0.3)
        p = rng.choice((2, 3, 5, 7))
        h, h2 = height(g, p), height(zmul(p, g), p)
        k = G.cochar.value(p)
        if h == INF:
            assert h2 == INF
        elif isinstance(k, int) and h + 1 >= k:
            assert h2 == INF  # the coordinate wrapped to zero
        else:
            assert h2 == h + 1


# -- characteristic of an element --------------------------------------------


def test_char_of_examples():
    e = GA.elem(1)
    assert char_of(e) == Characteristic(INF, {2: 0, 3: 0})
    assert char_of(GA.zero()) == Characteristic(INF)
    assert char_of(GZ.elem(1)) == Characteristic(0)
    assert char_of(GZ.elem(12)) == Characteristic(0, {2: 2, 3: 1})
    assert char_of(GB.elem_qb(1, 0)) == Characteristic(INF)


def test_char_of_is_eventually_constant_and_bounds_sums():
    rng = random.Random(33)
    for _ in range(300):
        G = random_group(rng, CFG)
        g = random_element(G, rng, CFG, torsion=rng.random() < 0.3)
        h = random_element(G, rng, CFG, torsion=rng.random() < 0.3)
        cg, ch = char_of(g), char_of(h)
        assert isinstance(cg, Characteristic) and len(cg.exception_primes) < 40
        assert char_geq(char_of(add(g, h)), meet(cg, ch))


# -- torsion, order, and the divisible-prime content --------------------------


def test_order_examples():
    assert order(GA.elem(0, {2: 1})) == 4
    assert order(GA.elem(1)) == INF
    assert order(GC.elem(0, {2: 2, 3: 1})) == 6
    assert order(GA.zero()) == 1
    assert order(GB.elem_qb(0, 1)) == 2


def test_torsion_support_is_the_prime_divisors_of_the_order():
    rng = random.Random(34)
    for _ in range(300):
        G = random_group(rng, CFG)
        g = random_element(G, rng, CFG, torsion=True)
        n = order(g)
        assert is_torsion(g) and isinstance(n, int)
        finite_heights = {p for p in (2, 3, 5, 7, 11, 13) if height(g, p) != INF}
        assert finite_heights == set(factorization(n)) if n > 1 else not finite_heights


def test_c_of_examples():
    e = GA.elem(1)
    assert c_of(GA.elem(0, {2: 1})) == 0
    assert c_of(zmul(3, e)) == 3
    assert c_of(GZ.elem(1)) == 1
    assert c_of(GZ.elem(-12)) == 12
    assert c_of(GB.elem_qb(7, 1)) == 1  # no divisible primes in a nonreduced group
    assert c_of(e) == 1


def test_c_of_matches_its_definition_on_random_elements():
    # the definition: p**height(g, p) over the primes of the numerator with cochar value inf
    rng = random.Random(36)
    for i in range(600):
        G = random_group(rng, CFG, force_default=[0, 1, INF][i % 3])
        g = zmul(rng.randint(1, 400), random_element(G, rng, CFG))
        expected = 1
        for p, e in factorization(g.rational.numerator).items():
            if G.cochar.value(p) == INF:
                expected *= p**e
        assert c_of(g) == expected


def test_c_of_and_decompose_never_factor_in_an_inf_default_group(monkeypatch):
    def refuse(n):
        raise AssertionError(f"factorization({n}) called")

    monkeypatch.setattr("qdrings.group.factorization", refuse)
    p, q = 10**21 + 117, 10**21 + 193
    G = build_group(Characteristic.parse("default=inf;2:3,3:0"))
    g = G.elem(12 * p * q)
    h = G.elem(Fraction(p * q, 3), {2: 1})
    assert (c_of(g), c_of(h)) == (p * q, p * q)
    for x in (g, h):
        d = decompose(x)
        assert d.scale == p * q and set(d.support) == {2} and d.recombine() == x


# -- decomposition -----------------------------------------------------------


def test_decompose_examples():
    e = GA.elem(1)
    d = decompose(e)
    assert (d.scale, d.rational, d.tail, set(d.support)) == (1, 1, GA.zero(), set())
    d3 = decompose(zmul(3, e))
    assert d3.scale == 3 and d3.rational == 1 and d3.recombine() == zmul(3, e)
    e2 = GA.elem(0, {2: 1})
    dt = decompose(e2)
    assert dt.scale == 0 and dt.rational == 0 and dt.tail == e2 and set(dt.support) == {2}
    x = GB.elem_qb(Fraction(3, 5), 1)
    assert decompose(x).recombine() == x
    for g in (e, e2):  # 3 has cocharacteristic inf in GA, so no torsion coordinate
        with pytest.raises(ValueError):
            decompose(g, {3})


def _fraction_primes(r):
    out = set()
    if r.numerator:
        out |= set(factorization(r.numerator))
    out |= set(factorization(r.denominator))
    return out


def test_decompose_invariants_on_random_elements():
    rng = random.Random(35)
    for i in range(300):
        G = random_group(rng, CFG, reduced=i % 3 != 0)
        g = random_element(G, rng, CFG, torsion=rng.random() < 0.25)
        d = decompose(g)
        assert d.recombine() == g
        assert set(d.tail.overrides) <= set(d.support)
        assert d.scale == c_of(g)
        # a given support is added to the one worked out for g; scale and rational stay
        support = frozenset(p for p in (2, 3, 5, 7) if G._slot(p) and rng.random() < 0.5)
        ds = decompose(g, support)
        assert ds.recombine() == g and ds.support >= support | d.support
        assert (ds.scale, ds.rational) == (d.scale, d.rational)
        if not is_torsion(g):
            for p in _fraction_primes(d.rational):
                assert p in d.support or G.cochar.value(p) == 0
            # the support choice is not unique: enlarging it reproduces g as well
            extra = next(
                (p for p in (2, 3, 5, 7) if p not in d.support
                 and isinstance(G.cochar.value(p), int) and G.cochar.value(p) > 0),
                None,
            )
            if extra is not None:
                support = set(d.support) | {extra}
                free = G.elem(d.scale * d.rational, {p: 0 for p in support})
                tail = G.elem(0, {p: _coordinate(g, p) for p in support})
                assert add(free, tail) == g


def test_decompose_checks_the_support_it_is_given():
    # the tail reads coordinates without coordinate_residue's checks, so decompose checks its
    # primes first: 4 = 2**2 would otherwise get the slot 16 of the default value 2
    G = build_group(Characteristic.parse("default=2;3:inf"))
    g = G.elem(5)
    with pytest.raises(ValueError, match="^4 is not prime$"):
        decompose(g, {4})
    with pytest.raises(ValueError, match="^prime 3 carries no finite torsion coordinate"):
        decompose(g, {3})
    with pytest.raises(ValueError, match="^4 is not prime$"):
        height(g, 4)
    with pytest.raises(ValueError, match="^4 is not prime$"):
        coordinate_residue(g, 4)
    d = decompose(g, {7})
    assert d.support == {5, 7} and d.recombine() == g


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.booleans())
def test_element_memos_are_transparent(seed, reduced):
    # principal_absolute_ideal fills _pai and _free_part fills _fp; an element with both filled
    # compares, hashes and prints as a fresh one, and each support gets what a fresh element gets
    rng = random.Random(seed)
    G = random_group(rng, CFG, reduced=reduced)
    g = random_element(G, rng, CFG, torsion=rng.random() < 0.3)
    principal_absolute_ideal(g)
    slot_primes = [p for p in CFG.primes if G._slot(p)]
    for _ in range(4):
        support = frozenset(p for p in slot_primes if rng.random() < 0.5)
        fresh = G.elem(g.rational, g.overrides)
        # the base support holds every torsion coordinate of Q (+) Z_m, stored or implied
        base = set(g.overrides) if reduced else set(G._torsion_keys)
        if is_torsion(g):
            expected = (0, 0, frozenset(base | support))
        else:
            base |= {p for p in factorization(g.rational.numerator) if G._slot(p)}
            expected = (c_of(fresh), fresh.rational / c_of(fresh), frozenset(base | support))
        assert _free_part(g, support) == _free_part(fresh, support) == expected
    assert g._pai is not None and g._fp is not None
    fresh = G.elem(g.rational, g.overrides)
    assert g == fresh and hash(g) == hash(fresh)
    assert str(g) == str(fresh) and repr(g) == repr(fresh)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**64), st.integers(-40, 40), st.booleans())
def test_quotient_is_the_floor_and_only_an_integer_ratio_leaves_torsion(seed, k, multiple):
    rng = random.Random(seed)
    G = random_group(rng, CFG)
    g = random_element(G, rng, CFG)
    while is_torsion(g):
        g = random_element(G, rng, CFG)
    t = random_element(G, rng, CFG, torsion=rng.random() < 0.5)
    # x = k*g + t has an integer ratio whenever t is torsion
    x = add(zmul(k, g), t) if multiple else t
    ratio = x.rational / g.rational
    q = _quotient(x, g)
    assert q == math.floor(ratio)
    assert is_torsion(add(x, zmul(-q, g))) == (ratio.denominator == 1)


def _coordinate(g, p):
    from qdrings.group import coordinate_residue

    return coordinate_residue(g, p)


# -- serialization -----------------------------------------------------------


def test_elem_parse_print_round_trip_examples():
    for G, text in [
        (GA, "r=1;2:0"),
        (GA, "r=-7/5"),
        (GA, "r=1/2;2:0"),
        (GB, "q=1/3;b=1"),
        (GZ, "r=42"),
    ]:
        assert str(G.parse_elem(text)) == text
    # a redundant override is not canonical: it restates the rational's residue
    assert str(GA.parse_elem("r=1;2:1")) == "r=1"
    assert GA.parse_elem("r=1;2:1") == GA.parse_elem("r=1")


def test_elem_parse_errors():
    with pytest.raises(ParseError) as err:
        GA.parse_elem("r=1;5:1")  # no finite slot at 5
    assert err.value.pos == 4
    with pytest.raises(ParseError) as err:
        GA.parse_elem("r=1;4:0")  # 4 is not prime
    assert err.value.pos == 4
    with pytest.raises(ParseError) as err:
        GA.parse_elem("r=1;2:4")  # residue out of range
    assert err.value.pos == 6
    with pytest.raises(ParseError):
        GA.parse_elem("r=1/3")
    with pytest.raises(ParseError):
        GB.parse_elem("r=1")  # wrong kind prefix
    with pytest.raises(ParseError):
        GB.parse_elem("q=1;b=2")  # residue beyond the modulus
    with pytest.raises(ParseError) as err:
        GA.parse_elem("r=-")  # a sign with no digits after it
    assert err.value.pos == 3


def test_elem_round_trip_sweep():
    rng = random.Random(36)
    for _ in range(1000):
        G = random_group(rng, CFG)
        g = random_element(G, rng, CFG, torsion=rng.random() < 0.3)
        assert G.parse_elem(str(g)) == g
