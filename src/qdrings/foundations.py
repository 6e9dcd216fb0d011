"""Exact integer arithmetic and the calculus of characteristics.

A characteristic assigns to every prime a value in N ∪ {inf}.  Only
eventually constant characteristics are representable here: a cofinite
default plus finitely many exceptional primes.  That shape covers every
profile the library produces (cocharacteristics of groups, height profiles
of elements) and keeps all derived data finite.  The value inf is
`math.inf`, which sorts above every int and absorbs addition; every finite
value is an `int`, and `Characteristic` admits nothing else.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache

from .errors import FactorizationBudgetError, ParseError

__all__ = [
    "INF",
    "MAX_EXPONENT",
    "MAX_HEIGHT",
    "ExtNat",
    "Characteristic",
    "bezout",
    "char_geq",
    "crt",
    "equivalent",
    "factorization",
    "is_idempotent_type",
    "is_prime",
    "is_zero_type",
    "meet",
    "mod_inverse",
    "primes_up_to",
    "vp",
]


INF = math.inf
ExtNat = int | float


def _check_extnat(value, what: str) -> None:
    if value != INF and (isinstance(value, bool) or not isinstance(value, int) or value < 0):
        raise ValueError(f"{what} must be a nonnegative integer or INF, got {value!r}")


# ---------------------------------------------------------------------------
# integer primitives


# Miller-Rabin with the 13 primes 2..41 as bases is exact below psi_13 (Jiang and Deng,
# Math. Comp. 83, 2014); the first 12 of them pass psi_12 = 399165290221 * 798330580441.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN_BOUND = 3317044064679887385961981  # psi_13


def _is_strong_prp(n: int, a: int) -> bool:
    """Whether the odd n > a passes the strong (Miller-Rabin) test to base a."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s with d odd
    x = pow(a, (n - 1) >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    sign = 1
    while a := a % n:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a, n = n, a
    return sign if n == 1 else 0


def _is_strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test of odd n > 1 (Baillie and Wagstaff, Math. Comp. 35, 1980).

    Selfridge's parameters: D is the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and
    Q = (1 - D)/4. With n + 1 = d * 2**s, d odd, n passes if U_d or a V_{d*2**r}, r < s, is 0 mod n.
    """
    if math.isqrt(n) ** 2 == n:
        return False  # a square has no D with (D/n) = -1
    D = 5
    while (j := _jacobi(D, n)) == 1:
        D = 2 - D if D < 0 else -D - 2
    if j == 0:
        return n == abs(D)  # D shares a factor with n
    Q, half = (1 - D) // 4, (n + 1) // 2  # half is the inverse of 2 modulo n
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    u, v, qk = 1, 1, Q % n  # U_k, V_k and Q**k modulo n for k = 1, the leading bit of d
    for bit in bin((n + 1) >> s)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = (u + v) * half % n, (D * u + v) * half % n, qk * Q % n
    for _ in range(s):  # u stays U_d while v runs through V_{d*2**r}
        if u == 0 or v == 0:
            return True
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
    return False


@lru_cache(maxsize=4096)  # bounded: every prime ever asked about would otherwise stay cached
def is_prime(n: int) -> bool:
    """Primality: exact below psi_13 (about 3.3e24) by Miller-Rabin with the 13 bases 2..41.

    At and above it, base-2 Miller-Rabin then a strong Lucas test: Baillie-PSW, a probable-prime
    test with no known counterexample. Whatever either rejects is proven composite.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"primality is defined for integers, got {n!r}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < _MR_PROVEN_BOUND:
        return all(_is_strong_prp(n, a) for a in _MR_BASES)
    return _is_strong_prp(n, 2) and _is_strong_lucas_prp(n)


def primes_up_to(bound: int) -> list[int]:
    """All primes p <= bound, ascending."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(2, bound + 1) if sieve[p]]


def vp(x, p: int) -> int:
    """p-adic valuation of a nonzero rational: x = p**v * (u/w) with p dividing neither u nor w."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    frac = Fraction(x)
    if frac == 0:
        raise ValueError("the valuation of 0 is infinite; handled at the height layer only")
    return _int_vp(frac.numerator, p) - _int_vp(frac.denominator, p)


def _int_vp(n: int, p: int) -> int:
    """How many times the prime p divides the nonzero int n; the one valuation loop."""
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def bezout(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (x, y, g) with a*x + b*y = g = gcd(a, b) > 0."""
    if a == 0 and b == 0:
        raise ValueError("gcd(0, 0) is undefined")
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_x, old_y, old_r


def mod_inverse(a: int, q: int) -> int:
    """Inverse of a modulo q, in [0, q).  Requires gcd(a, q) = 1."""
    if q < 1:
        raise ValueError(f"modulus must be positive, got {q}")
    try:
        return pow(a, -1, q)
    except ValueError:
        raise ValueError(f"{a} is not invertible modulo {q} (gcd {math.gcd(a, q)})") from None


def crt(congruences) -> tuple[int, int]:
    """Combine (residue, modulus) pairs with pairwise coprime moduli.

    Returns (r, M) with r in [0, M) satisfying every congruence; the empty
    system yields (0, 1).
    """
    r, m = 0, 1
    for a, n in congruences:
        if n < 1:
            raise ValueError(f"modulus must be positive, got {n}")
        t = (a - r) * mod_inverse(m % n, n) % n
        r = r + m * t
        m = m * n
    return r % m, m


# Trial division takes out the primes below _TRIAL_BOUND, so a cofactor below its square is prime.
_TRIAL_BOUND = 2**10
_TRIAL_PRIMES = tuple(primes_up_to(_TRIAL_BOUND))
# Polynomial steps Brent's method may take over one factorization, every split and constant c
# included: ample for factors up to about 10**9, too few for two 22-digit primes.
_BRENT_STEPS = 2**18
# A cofactor above _SHORT_BRENT_BITS gets _SHORT_BRENT_STEPS of Brent before its primality test:
# the one Miller-Rabin pow on 3000 digits takes seconds, while a factor up to about 10**4 falls
# out of those steps in milliseconds.
_SHORT_BRENT_BITS = 1000
_SHORT_BRENT_STEPS = 512


def _brent_split(n: int, budget: int) -> tuple[int, int]:
    """A nontrivial divisor of an odd n by Brent's cycle method, and the budget left.

    The divisor is 1 when the next round would take more than `budget` polynomial steps, which
    it always does for a prime n.
    """
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            if budget < 2 * r:  # the r steps that move x on, and at most r more to look for a cycle
                return 1, budget
            budget -= 2 * r
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot; replay its at most 128 steps one at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g, budget


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1, by Newton's method from above."""
    e = math.log2(n) / k  # relative error near 2**-52, far inside the 1e-9 margin below
    # start just above the root; from a power of two a large k would take about k steps
    x = int(2 ** (e + 1e-9)) + 1 if e < 1000 else 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(n: int) -> tuple[int, int]:
    """(r, k) with r**k == n for the least prime k that has one, or (n, 1).

    n has no prime factor below _TRIAL_BOUND = 2**10, so a k-th root is at least
    2**10 and only primes k <= bit_length/10 need trying.
    """
    for k in primes_up_to(n.bit_length() // 10):
        r = _iroot(n, k)
        if r**k == n:
            return r, k
    return n, 1


def _factor_into(n: int, out: dict[int, int]) -> None:
    """Add the prime factors of n > 1, which has none below _TRIAL_BOUND, to out.

    Each cofactor first sheds the primes found so far, then is tested for a
    perfect power, so that p**k costs a few roots rather than k splits and k
    primality tests on numbers of up to k*log p digits.  A cofactor of more than
    _SHORT_BRENT_BITS bits then gets a short Brent attempt before its primality
    test; every Brent step is charged to the one budget of _BRENT_STEPS.
    """
    budget = _BRENT_STEPS
    found: list[int] = []
    pending = [(n, 1)]  # (cofactor, multiplicity)
    while pending:
        n, e = pending.pop()
        for p in found:
            k = _int_vp(n, p)
            if k:
                n //= p**k
                out[p] += k * e
        if n == 1:
            continue
        r, k = _perfect_power(n)
        if k > 1:
            pending.append((r, k * e))
            continue
        d = 1
        if n.bit_length() > _SHORT_BRENT_BITS:
            steps = min(budget, _SHORT_BRENT_STEPS)
            d, left = _brent_split(n, steps)
            budget -= steps - left
        if d == 1:
            if n < _TRIAL_BOUND**2 or is_prime(n):
                out[n] = out.get(n, 0) + e
                found.append(n)
                continue
            d, budget = _brent_split(n, budget)
            if d == 1:
                raise FactorizationBudgetError(
                    f"Brent's method did not split the {len(str(n))}-digit composite {n} "
                    f"within {_BRENT_STEPS} steps"
                )
        d = min(d, n // d)  # the smaller part next, so that a prime it holds leaves the other
        pending += ((n // d, e), (d, e))


def factorization(n: int) -> dict[int, int]:
    """Prime factorization of abs(n) as an exponent map; n must be nonzero.

    Trial division by the primes below 2**10, then, for each cofactor, integer roots for a
    perfect power, a short Brent attempt when it has more than 1000 bits, Miller-Rabin, and
    Brent's method within a fixed step budget (FactorizationBudgetError when it runs out).
    """
    if n == 0:
        raise ValueError("0 has no prime factorization")
    n = abs(n)
    out: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:  # n has no prime factor below p, so it is 1 or prime
            break
        if n % p == 0:
            k = out[p] = _int_vp(n, p)
            n //= p**k
    if n > 1:
        _factor_into(n, out)
    return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# characteristics


# Largest finite value the grammar accepts for a cocharacteristic: a group builds p**v for
# its torsion slots.
MAX_EXPONENT = 1000
# Python's default limit on the digits that int() reads and str() prints; the grammars read
# numbers of at most this many digits.
_MAX_DIGITS = 4300
# Largest finite height of an element whose coefficient prints: 2**14284 is the largest power
# of 2 within _MAX_DIGITS digits.  Floors are parsed up to it, so that the characteristics and
# descriptors the CLI prints parse back.
MAX_HEIGHT = 14284


class Characteristic:
    """Eventually constant map from primes to N ∪ {inf}.

    Stored canonically: exception values never equal the default, keys are
    prime and kept sorted.
    """

    __slots__ = ("_default", "_exceptions")

    def __init__(self, default: ExtNat, exceptions: Mapping[int, ExtNat] | None = None):
        # a plain nonnegative int passes each check on its first test
        if type(default) is not int or default < 0:
            _check_extnat(default, "default")
        exc: dict[int, ExtNat] = {}
        for p, v in (exceptions or {}).items():
            if (type(p) is not int and (isinstance(p, bool) or not isinstance(p, int))) or not is_prime(p):
                raise ValueError(f"exception key {p!r} is not prime")
            if type(v) is not int or v < 0:
                _check_extnat(v, f"value at {p}")
            if v != default:
                exc[p] = v
        self._default = default
        self._exceptions = dict(sorted(exc.items()))

    @property
    def default(self) -> ExtNat:
        return self._default

    @property
    def exception_primes(self) -> tuple[int, ...]:
        return tuple(self._exceptions)

    def exception_items(self) -> tuple[tuple[int, ExtNat], ...]:
        return tuple(self._exceptions.items())

    def value(self, p: int) -> ExtNat:
        """Value at a prime p (primality of p is the caller's responsibility)."""
        return self._exceptions.get(p, self._default)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Characteristic):
            return NotImplemented
        return self._default == other._default and self._exceptions == other._exceptions

    def __hash__(self) -> int:
        return hash((self._default, tuple(self._exceptions.items())))

    def __ge__(self, other: "Characteristic") -> bool:
        return char_geq(self, other)

    def __le__(self, other: "Characteristic") -> bool:
        return char_geq(other, self)

    def canonical_str(self) -> str:
        return f"default={self._default}{_items_str(self._exceptions.items())}"

    __str__ = canonical_str

    def __repr__(self) -> str:
        return f"Characteristic({self.canonical_str()!r})"

    @classmethod
    def parse(cls, text: str, bound: int = MAX_EXPONENT) -> "Characteristic":
        """Parse the `default=<v>[;p:v,...]` grammar; v is `inf` or an integer 0..bound.

        The bound is MAX_EXPONENT for a cocharacteristic and MAX_HEIGHT for a floor.
        """
        return _scan_characteristic(text, 0, len(text), bound)


def _char(default: ExtNat, exc: Mapping[int, ExtNat]) -> Characteristic:
    """The unchecked constructor, like ``group._build``: for prime keys and no value equal to the default."""
    c = object.__new__(Characteristic)
    c._default = default
    c._exceptions = dict(sorted(exc.items()))
    return c


def equivalent(c1: Characteristic, c2: Characteristic) -> bool:
    """Whether the disagreement set is finite with both values finite at every disagreement."""
    if c1.default != c2.default:
        return False
    for p in set(c1.exception_primes) | set(c2.exception_primes):
        v1, v2 = c1.value(p), c2.value(p)
        if v1 != v2 and INF in (v1, v2):
            return False
    return True


def is_zero_type(c: Characteristic) -> bool:
    """Whether c is equivalent to the all-zero characteristic."""
    return c.default == 0 and all(v != INF for _, v in c.exception_items())


def is_idempotent_type(c: Characteristic) -> bool:
    """Whether c is equivalent to a characteristic taking only the values 0 and inf."""
    return c.default in (0, INF)


def _pointwise(a: Characteristic, b: Characteristic, rule) -> Characteristic:
    """rule(a(p), b(p)) at every prime: at the two defaults and at every exception prime of either."""
    ae, ad = a._exceptions, a._default
    be, bd = b._exceptions, b._default
    d = rule(ad, bd)
    return _char(d, {p: v for p in ae.keys() | be.keys() if (v := rule(ae.get(p, ad), be.get(p, bd))) != d})


def char_geq(a: Characteristic, b: Characteristic) -> bool:
    """Pointwise order: a(p) >= b(p) at every prime."""
    return _pointwise(a, b, min) == b


def meet(a: Characteristic, b: Characteristic) -> Characteristic:
    """Pointwise minimum (the greatest lower bound for char_geq)."""
    return _pointwise(a, b, min)


# ---------------------------------------------------------------------------
# shared scanning helpers for the textual grammars


def _expect(text: str, pos: int, literal: str) -> int:
    if not text.startswith(literal, pos):
        raise ParseError(text, pos, f"{literal!r}")
    return pos + len(literal)


def _scan_uint(text: str, pos: int) -> tuple[int, int]:
    """A run of at most _MAX_DIGITS ASCII digits; str.isdigit and int() would also take other scripts' digits."""
    start = pos
    while pos < len(text) and text[pos] in "0123456789":  # text[pos] is one character
        pos += 1
    if pos == start:
        raise ParseError(text, pos, "a digit")
    if pos - start > _MAX_DIGITS:
        raise ParseError(text, start, f"a number of at most {_MAX_DIGITS} digits")
    return int(text[start:pos]), pos


def _scan_int(text: str, pos: int) -> tuple[int, int]:
    sign = 1
    if pos < len(text) and text[pos] == "-":
        sign = -1
        pos += 1
    n, pos = _scan_uint(text, pos)
    return sign * n, pos


def _scan_value(text: str, pos: int, bound: int) -> tuple[ExtNat, int]:
    if text.startswith("inf", pos):
        return INF, pos + 3
    v, end = _scan_uint(text, pos)
    if v > bound:
        raise ParseError(text, pos, f"inf or an integer at most {bound}")
    return v, end


def _scan_items(text: str, pos: int, end: int, key_expected: str, is_key, scan_value) -> dict:
    """The one `[;p:v,...]` loop: the pairs from pos, which must run exactly to end.

    A key is an integer that is_key accepts (else a ParseError expecting
    key_expected at it) and that was not listed before; scan_value(text, pos, key)
    returns the value at pos and the position after it.
    """
    items = {}
    if pos == end:
        return items
    pos = _expect(text, pos, ";")
    while True:
        key_pos = pos
        p, pos = _scan_uint(text, pos)
        if not is_key(p):
            raise ParseError(text, key_pos, key_expected)
        if p in items:
            raise ParseError(text, key_pos, "a prime not listed before")
        pos = _expect(text, pos, ":")
        items[p], pos = scan_value(text, pos, p)
        if pos == end:
            return items
        pos = _expect(text, pos, ",")


def _items_str(items) -> str:
    """The `[;p:v,...]` text of (key, value) pairs, in the order given; the one printer of it."""
    return ";" + ",".join(f"{p}:{v}" for p, v in items) if items else ""


def _scan_characteristic(text: str, pos: int, end: int, bound: int) -> Characteristic:
    """`default=<v>[;p:v,...]` from pos, running exactly to end; v is `inf` or an integer 0..bound."""
    pos = _expect(text, pos, "default=")
    default, pos = _scan_value(text, pos, bound)
    exc = _scan_items(text, pos, end, "a prime", is_prime, lambda text, pos, p: _scan_value(text, pos, bound))
    return Characteristic(default, exc)
