"""Tests for the integer primitives and the characteristic calculus."""

import math
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qdrings import foundations
from qdrings.cli import run
from qdrings.errors import FactorizationBudgetError, ParseError
from qdrings.foundations import (
    INF,
    MAX_EXPONENT,
    MAX_HEIGHT,
    Characteristic,
    bezout,
    char_geq,
    crt,
    equivalent,
    factorization,
    is_idempotent_type,
    is_prime,
    is_zero_type,
    meet,
    mod_inverse,
    primes_up_to,
    vp,
)
from qdrings.group import build_group, char_of
from qdrings.oracle import TrialConfig, random_characteristic, random_element, random_group
from qdrings.subgroup import full_inv, torsion_inv

PRIMES = (2, 3, 5, 7, 11, 13)
P22, Q22 = 10**21 + 117, 10**21 + 193  # 22-digit primes

ext_values = st.one_of(st.integers(0, 4), st.just(INF))
characteristics = st.builds(
    Characteristic,
    st.one_of(st.just(0), st.integers(1, 4), st.just(INF)),
    st.dictionaries(st.sampled_from(PRIMES), ext_values, max_size=6),
)


# -- extended naturals -------------------------------------------------------


def test_infinity_ordering():
    assert 5 < INF
    assert INF > 5
    assert not INF < INF
    assert INF <= INF
    assert INF >= 10**100
    assert min(3, INF) == 3
    assert min(INF, INF) == INF
    assert INF + 1 == INF
    assert 1 + INF == INF
    assert INF != 7
    assert INF == INF


def test_characteristic_admits_only_nonnegative_ints_and_inf():
    # INF is math.inf, so the constructor is the gate that keeps other floats out
    assert INF is math.inf
    for default, exceptions in [(1.5, None), (0, {2: 2.0}), (float("nan"), None), (-INF, None), (True, None)]:
        with pytest.raises(ValueError):
            Characteristic(default, exceptions)
    assert Characteristic(float("inf")) == Characteristic(INF)


# -- primitives --------------------------------------------------------------


def test_vp_examples():
    assert vp(12, 2) == 2
    assert vp(Fraction(1, 9), 3) == -2
    assert vp(5, 7) == 0
    assert vp(Fraction(-18, 5), 3) == 2


def test_vp_errors():
    with pytest.raises(ValueError):
        vp(0, 2)
    with pytest.raises(ValueError):
        vp(4, 6)


def test_bezout_examples():
    x, y, g = bezout(6, 35)
    assert g == 1 and 6 * x + 35 * y == 1
    assert bezout(4, 0) == (1, 0, 4)
    x, y, g = bezout(12, 18)
    assert g == 6 and 12 * x + 18 * y == 6  # checked by substitution
    with pytest.raises(ValueError):
        bezout(0, 0)


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_bezout_identity(a, b):
    if a == 0 and b == 0:
        return
    x, y, g = bezout(a, b)
    assert g > 0
    assert a * x + b * y == g
    assert a % g == 0 and b % g == 0


def test_mod_inverse_examples():
    assert mod_inverse(3, 4) == 3
    assert mod_inverse(1, 27) == 1
    # independent oracle: exhaustive search modulo 9
    expected = next(b for b in range(9) if 5 * b % 9 == 1)
    assert expected == 2
    assert mod_inverse(5, 9) == 2
    with pytest.raises(ValueError):
        mod_inverse(6, 9)
    for q in (0, -7):
        with pytest.raises(ValueError, match=f"^modulus must be positive, got {q}$"):
            mod_inverse(3, q)


@given(st.integers(-10**12, 10**12), st.integers(1, 10**12))
def test_mod_inverse_agrees_with_bezout(a, q):
    x, _, g = bezout(a % q, q)
    if g == 1:
        assert mod_inverse(a, q) == x % q
    else:
        with pytest.raises(ValueError, match=rf"not invertible modulo {q} \(gcd {g}\)"):
            mod_inverse(a, q)


def test_crt():
    r, m = crt([(1, 4), (2, 27)])
    assert m == 108 and r % 4 == 1 and r % 27 == 2
    assert crt([]) == (0, 1)
    with pytest.raises(ValueError):
        crt([(0, 4), (1, 6)])  # moduli share a factor
    for q in (0, -7):
        with pytest.raises(ValueError, match=f"^modulus must be positive, got {q}$"):
            crt([(1, 4), (2, q)])


# psi_k: the least odd composite that passes Miller-Rabin to each of the first k prime bases
PSI_9 = 3825123056546413051  # also psi_10 and psi_11
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_is_prime():
    assert [p for p in range(60) if is_prime(p)] == primes_up_to(59)
    for value in (2.0, True, "7"):  # ints only: no float, bool or string
        with pytest.raises(ValueError, match=re.escape(f"primality is defined for integers, got {value!r}")):
            is_prime(value)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31)
    assert not is_prime(1) and not is_prime(-7)
    assert primes_up_to(2) == [2] and primes_up_to(1) == []
    assert PSI_12 == 399165290221 * 798330580441 and is_prime(399165290221)
    assert not is_prime(PSI_9) and not is_prime(PSI_12) and not is_prime(PSI_13)


SIEVED = frozenset(primes_up_to(10**6))


@given(st.integers(-10, 10**6))
def test_is_prime_agrees_with_the_sieve(n):
    assert is_prime(n) == (n in SIEVED)


@pytest.mark.parametrize("n", [5459, 5777, 10877, 16109, 18971])  # OEIS A217255
def test_strong_lucas_pseudoprimes_fail_base_two(n):
    assert foundations._is_strong_lucas_prp(n)
    assert not foundations._is_strong_prp(n, 2)
    assert not is_prime(n)


def test_is_prime_matches_sympy_beyond_the_proven_range():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2014)
    mersenne = (2**89 - 1, 2**127 - 1, 2**521 - 1)
    cases = [*mersenne, *(a * b for a in mersenne for b in mersenne)]
    for _ in range(1000):
        bits = rng.randint(82, 1000)
        cases.append(rng.getrandbits(bits) | 1 << (bits - 1) | 1)
    cases += [sympy.nextprime(2**bits + rng.getrandbits(bits)) for bits in (82, 96, 128, 192, 256)]
    for n in cases:
        assert is_prime(n) == sympy.isprime(n), n
    lucas = sympy.ntheory.primetest.is_strong_lucas_prp
    for n in range(3, 20000, 2):  # squares and D sharing a factor with n included
        assert foundations._is_strong_lucas_prp(n) == lucas(n), n


def test_is_prime_cache_is_bounded():
    maxsize = is_prime.cache_info().maxsize
    assert maxsize is not None and maxsize > 0


def test_factorization():
    assert factorization(360) == {2: 3, 3: 2, 5: 1}
    assert factorization(-17) == {17: 1}
    assert factorization(1) == {}
    with pytest.raises(ValueError):
        factorization(0)


# primes on both sides of the trial-division bound 2**10, and powers of those just above it
NEAR_BOUND = tuple(p for p in primes_up_to(2**11) if p > 2**9)
JUST_ABOVE = tuple(p for p in NEAR_BOUND if p > 2**10)[:12]
factorable = st.one_of(
    st.lists(st.sampled_from(NEAR_BOUND), min_size=1, max_size=4).map(math.prod),
    st.sampled_from(JUST_ABOVE).flatmap(lambda p: st.sampled_from((p**2, p**3))),
    st.integers(1, 1000).map(lambda k: k * P22),
)


@given(factorable, st.sampled_from((1, -1)))
def test_factorization_multiplies_back_to_ascending_primes(n, sign):
    f = factorization(sign * n)
    assert math.prod(p**e for p, e in f.items()) == n
    assert all(is_prime(p) and e > 0 for p, e in f.items())
    assert list(f) == sorted(f)


def test_factoring_a_large_prime_times_a_small_k_is_fast(deadline):
    # the cofactor goes straight to Miller-Rabin, with no trial-division sweep before it
    with deadline(1.0):
        for k in range(1, 301):
            assert factorization(k * P22)[P22] == 1


@pytest.mark.parametrize(
    "p, k",
    [(1031, 300), (10007, 200), (2**31 - 1, 60)],
    ids=["1031**300", "10007**200", "(2**31-1)**60"],
)
def test_prime_powers_factor_in_bounded_time(deadline, p, k):
    # each is a perfect power found by integer roots; (2**31-1)**60 used to run out of Brent steps
    with deadline(1.0):
        assert factorization(p**k) == {p: k}
        assert factorization(-3 * p**k * 1033) == {3: 1, p: k, 1033: 1}


def test_prime_exponents_above_the_trial_primes_are_tried(deadline):
    # 1031 is the least prime above the trial bound, so no trial prime k gives a root
    with deadline(1.0):
        assert factorization(1031**1031) == {1031: 1031}


def test_a_long_composite_is_split_before_its_primality_test(deadline):
    # the 3110-digit cofactor is no perfect power; one Miller-Rabin pow on it takes seconds
    with deadline(0.5):
        assert factorization(1031**1031 * 1033) == {1031: 1031, 1033: 1}


def test_a_long_prime_survives_the_short_brent_attempt(deadline):
    m4253 = 2**4253 - 1  # a 1281-digit Mersenne prime
    with deadline(2.0):
        assert factorization(m4253) == {m4253: 1}


def test_found_primes_are_divided_out_of_later_cofactors(monkeypatch):
    # without the division the cofactors shed about one prime per split (52 calls here)
    splits = []
    brent = foundations._brent_split
    monkeypatch.setattr(foundations, "_brent_split", lambda n, budget: splits.append(n) or brent(n, budget))
    assert factorization((1031 * 1033) ** 50 * 1039) == {1031: 50, 1033: 50, 1039: 1}
    assert len(splits) <= 3


def test_brent_gives_up_within_its_step_budget(deadline):
    with deadline(2.0):
        with pytest.raises(FactorizationBudgetError, match="did not split"):
            factorization(3 * P22 * Q22)
    assert issubclass(FactorizationBudgetError, ValueError)


def test_composites_beyond_the_proven_range_need_no_sympy(monkeypatch, capsys):
    monkeypatch.setitem(sys.modules, "sympy", None)  # `import sympy` raises ImportError
    is_prime.cache_clear()
    assert not is_prime(P22 * Q22)
    assert factorization(1031**10) == {1031: 10}
    m89 = 2**89 - 1  # a prime beyond the proven Miller-Rabin range
    assert is_prime(m89)
    assert run(["elem", "info", "--cochar", "default=inf", "--elem", f"r={2 * m89}"]) == 0
    assert f"char=default=0;2:1,{m89}:1\n" in capsys.readouterr().out


# -- characteristics ---------------------------------------------------------


def test_characteristic_canonical_form():
    c = Characteristic(0, {3: 0, 2: 2, 5: INF})
    assert c.exception_primes == (2, 5)  # the default-valued entry is dropped
    assert c.value(3) == 0
    assert c.value(2) == 2
    assert c.value(5) == INF
    assert c.canonical_str() == "default=0;2:2,5:inf"


def test_characteristic_validation():
    with pytest.raises(ValueError):
        Characteristic(0, {4: 1})
    with pytest.raises(ValueError):
        Characteristic(-1)
    with pytest.raises(ValueError):
        Characteristic(0, {2: -3})
    # a plain int passes on its first test; anything else gets the full check and its message
    for bad in (True, False, 1.5, Fraction(1), "1", -1):
        with pytest.raises(ValueError, match=re.escape(f"default must be a nonnegative integer or INF, got {bad!r}")):
            Characteristic(bad)
        with pytest.raises(ValueError, match=re.escape(f"value at 2 must be a nonnegative integer or INF, got {bad!r}")):
            Characteristic(0, {2: bad})
    for bad in (True, 2.0, Fraction(2), "2", 4):
        with pytest.raises(ValueError, match=re.escape(f"exception key {bad!r} is not prime")):
            Characteristic(0, {bad: 1})

    class Wide(int):
        pass

    assert Characteristic(Wide(1), {Wide(2): Wide(3), 3: INF}) == Characteristic(1, {2: 3, 3: INF})


def test_characteristic_parse_round_trip_examples():
    for text in ("default=0", "default=inf", "default=0;2:2,3:inf", "default=2;5:0"):
        assert Characteristic.parse(text).canonical_str() == text


def test_characteristic_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        Characteristic.parse("default=0;4:1")
    assert err.value.pos == 10
    with pytest.raises(ParseError) as err:
        Characteristic.parse("default=x")
    assert err.value.pos == 8
    with pytest.raises(ParseError) as err:
        Characteristic.parse("default=0;2:1,2:2")
    assert err.value.pos == 14


def test_characteristic_parse_caps_exponents():
    assert Characteristic.parse(f"default=0;2:{MAX_EXPONENT}").value(2) == MAX_EXPONENT
    for text, pos in ((f"default={MAX_EXPONENT + 1}", 8), ("default=0;2:10000000000", 12)):
        with pytest.raises(ParseError) as err:
            Characteristic.parse(text)
        assert err.value.pos == pos


def test_floors_parse_up_to_the_largest_printable_height():
    # 2**MAX_HEIGHT has 4300 digits, Python's default int-to-str limit, and 2**(MAX_HEIGHT+1) more
    assert 10**4299 <= 2**MAX_HEIGHT < 10**4300 <= 2 ** (MAX_HEIGHT + 1)
    text = f"default=0;2:{MAX_HEIGHT}"
    assert Characteristic.parse(text, MAX_HEIGHT).value(2) == MAX_HEIGHT
    with pytest.raises(ParseError) as err:
        Characteristic.parse(f"default=0;2:{MAX_HEIGHT + 1}", MAX_HEIGHT)
    assert err.value.pos == 12
    with pytest.raises(ParseError):
        Characteristic.parse(text)  # a cocharacteristic stays capped at MAX_EXPONENT


@given(characteristics)
def test_characteristic_parse_print_round_trip(c):
    assert Characteristic.parse(c.canonical_str()) == c


def test_equivalent_examples():
    zero = Characteristic(0)
    assert equivalent(zero, zero)
    assert equivalent(Characteristic(0, {2: 3}), zero)
    assert not equivalent(Characteristic(0, {2: INF}), zero)
    assert not equivalent(Characteristic(0), Characteristic(1))


def _related_pool(rng):
    """Characteristics with plenty of nontrivial equivalences among them."""
    base = Characteristic(
        rng.choice([0, 2, INF]),
        {p: rng.choice([0, 1, 3, INF]) for p in PRIMES if rng.random() < 0.5},
    )
    pool = [base]
    for _ in range(3):
        exc = dict(base.exception_items())
        p = rng.choice(PRIMES)
        exc[p] = rng.choice([0, 1, 2, 3, INF])
        pool.append(Characteristic(base.default, exc))
    return pool


def test_equivalent_is_an_equivalence_relation():
    rng = random.Random(20240)
    for _ in range(1000):
        pool = _related_pool(rng)
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert equivalent(a, a)
        assert equivalent(a, b) == equivalent(b, a)
        if equivalent(a, b) and equivalent(b, c):
            assert equivalent(a, c)


def test_is_zero_type_examples():
    assert is_zero_type(Characteristic(0, {2: 1}))
    assert not is_zero_type(Characteristic(0, {3: INF}))
    assert not is_zero_type(Characteristic(INF))


def test_is_idempotent_type_examples():
    assert is_idempotent_type(Characteristic(INF))
    # one finite change away from an idempotent characteristic
    c = Characteristic(0, {2: 2, 3: INF})
    assert is_idempotent_type(c)
    assert equivalent(c, Characteristic(0, {3: INF}))
    # the finite default would need infinitely many changes
    assert not is_idempotent_type(Characteristic(5))


def test_type_predicates_agree_with_equivalence():
    rng = random.Random(99)
    zero = Characteristic(0)
    for _ in range(300):
        c = rng.choice(_related_pool(rng))
        assert is_zero_type(c) == equivalent(c, zero)
        if is_idempotent_type(c):
            representative = Characteristic(
                c.default, {p: (INF if v == INF else 0) for p, v in c.exception_items()}
            )
            assert equivalent(c, representative)
            assert all(representative.value(p) in (0, INF) for p in PRIMES)
        else:
            for other in (zero, Characteristic(INF), Characteristic(0, {2: INF})):
                assert not equivalent(c, other)


def test_char_geq_examples():
    zero = Characteristic(0)
    top = Characteristic(INF)
    c = Characteristic(0, {2: 1})
    assert char_geq(c, zero)
    assert char_geq(top, c)
    assert not char_geq(c, Characteristic(0, {2: 2}))
    assert c >= zero and c <= top


@pytest.mark.parametrize(
    "a, b, geq",
    [
        # the defaults decide: no exception, or exceptions that agree with the answer
        (Characteristic(2), Characteristic(1), True),
        (Characteristic(1), Characteristic(2), False),
        (Characteristic(INF), Characteristic(5), True),
        (Characteristic(3), Characteristic(INF), False),
        (Characteristic(1, {2: 5}), Characteristic(2, {2: 3}), False),
        (Characteristic(INF, {2: 5}), Characteristic(INF, {2: 3}), True),
        # an exception of a alone decides
        (Characteristic(3, {5: 1}), Characteristic(2), False),
        (Characteristic(3, {5: INF}), Characteristic(2), True),
        (Characteristic(INF, {7: 0}), Characteristic(0), True),
        (Characteristic(INF, {7: 0}), Characteristic(1), False),
        # an exception of b alone decides
        (Characteristic(2), Characteristic(1, {3: 4}), False),
        (Characteristic(2), Characteristic(1, {3: 2}), True),
        (Characteristic(INF), Characteristic(0, {3: INF}), True),
        (Characteristic(5), Characteristic(0, {3: INF}), False),
    ],
)
def test_char_geq_compares_defaults_and_every_exception(a, b, geq):
    assert char_geq(a, b) is geq and (a >= b) is geq and (b <= a) is geq


def test_characteristic_repr_is_its_canonical_text():
    assert repr(Characteristic(INF, {3: 0, 2: 1})) == "Characteristic('default=inf;2:1,3:0')"
    assert repr(Characteristic(0)) == "Characteristic('default=0')"


@given(characteristics, characteristics, characteristics)
def test_char_geq_is_a_partial_order(a, b, c):
    assert char_geq(a, a)
    if char_geq(a, b) and char_geq(b, a):
        assert a == b
    if char_geq(a, b) and char_geq(b, c):
        assert char_geq(a, c)
    assert char_geq(a, Characteristic(0))


def _assert_canonical(c):
    """Prime keys in ascending order and no value equal to the default: what the validating constructor builds."""
    keys = list(c._exceptions)
    assert keys == sorted(keys) and all(is_prime(p) for p in keys)
    assert all(v != c.default for v in c._exceptions.values())
    rebuilt = Characteristic(c.default, c._exceptions)
    assert rebuilt == c and str(rebuilt) == str(c)


# primes above 13 too, so that a set of exception keys can iterate out of numeric order
wide_characteristics = st.builds(
    Characteristic,
    st.one_of(st.just(0), st.integers(1, 4), st.just(INF)),
    st.dictionaries(st.sampled_from((*PRIMES, 17, 19, 23, 29, 31)), ext_values, max_size=8),
)


@given(wide_characteristics, wide_characteristics)
def test_meet_builds_a_canonical_characteristic(a, b):
    _assert_canonical(meet(a, b))


def test_derived_characteristics_are_canonical():
    # keys out of order, and a value the meet takes equal to its default
    _assert_canonical(meet(Characteristic(0, {17: 1}), Characteristic(0, {3: 1})))
    _assert_canonical(meet(Characteristic(2, {3: 1}), Characteristic(1, {3: 4})))
    G = build_group(Characteristic(0, {2: 3, 5: 2, 17: INF}))
    _assert_canonical(char_of(G.elem(0, {5: 1, 2: 1})))
    cfg = TrialConfig(seed=3232, max_prime=37)
    rng = random.Random(cfg.seed)
    for _ in range(150):
        G = random_group(rng, cfg)
        c = char_of(random_element(G, rng, cfg, torsion=rng.random() < 0.4))
        eta = random_characteristic(rng, cfg)
        for derived in (c, meet(c, eta), full_inv(G, eta).eta, torsion_inv(G, eta).eta):
            _assert_canonical(derived)


@given(characteristics, characteristics, characteristics)
def test_meet_is_the_greatest_lower_bound(a, b, lower):
    m = meet(a, b)
    assert char_geq(a, m) and char_geq(b, m)
    if char_geq(a, lower) and char_geq(b, lower):
        assert char_geq(m, lower)
