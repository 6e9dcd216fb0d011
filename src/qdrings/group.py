"""Rank-1 quotient divisible groups and exact element arithmetic.

A group is determined by its cocharacteristic.  For a nonzero type the group
is reduced and lives inside a product of cyclic p-adic modules generated by
one coordinate per prime; for the zero type it is Q (+) Z_m.  An element of
either kind is stored the same way: the coefficient num/den of the basis, two
ints in lowest terms with den > 0, plus finitely many torsion-coordinate
overrides at primes whose cocharacteristic value is finite and positive, one
exactly where the coefficient does not imply that coordinate.  The
coefficient is a ``Fraction`` only when ``.rational`` asks for one, so the
arithmetic core combines plain ints, and one core serves both kinds.  Only
``Qd1Group._slot(p)`` decides whether a prime carries a torsion coordinate: it
is the memoised modulus p**cochar(p) when that value is finite and positive,
and 0, meaning no finite torsion coordinate, when it is 0 or inf.  A
nonreduced group fills the memo when it is built, and a group takes over the
memo of an equal group object at ``_same_group``.  Only ``_implied(num, den,
q)`` states which coordinate mod q the coefficient num/den implies; ``add``,
``_build``, the ring product and the normal form of a descriptor all read it
there.

Denominators are validated where outside input comes in, in ``Qd1Group.elem``
and ``Qd1Group.elem_qb`` (``parse_elem`` goes through them), and in the seeded
generators of ``oracle``, which build from ints with ``_build`` and call
``_check_denominator`` on every result that is not torsion.  A result of
``add``, ``zmul``, ``multiply`` or the two fused kernels ``_plus_multiple``
(x + k*g) and ``ring._ideal_element`` (g x y + k*g) needs no check: its
reduced denominator has only primes of its operands' denominators, each such
prime with a nonzero cocharacteristic value carries an override in some valid
operand and so gets a coordinate in the result, and ``_build`` never drops an
override at a prime that divides the denominator.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Mapping, Set as AbstractSet
from fractions import Fraction

from .errors import (
    GroupMismatchError,
    InvalidDenominatorError,
    ParseError,
    UnsupportedCaseError,
)
from .foundations import (
    INF,
    _TRIAL_PRIMES,
    Characteristic,
    ExtNat,
    _char,
    _expect,
    _int_vp,
    _items_str,
    _scan_int,
    _scan_items,
    _scan_uint,
    crt,
    factorization,
    is_prime,
    is_zero_type,
)

__all__ = [
    "Decomposition",
    "GroupElement",
    "Qd1Group",
    "add",
    "build_group",
    "c_of",
    "char_of",
    "coordinate_residue",
    "decompose",
    "height",
    "is_integers",
    "is_torsion",
    "neg",
    "order",
    "zmul",
]


class Qd1Group:
    """A rank-1 quotient divisible group, identified by its cocharacteristic."""

    __slots__ = ("_cochar", "_modulus", "_torsion_keys", "_slots")

    def __init__(self, cochar: Characteristic):
        self._cochar = cochar
        # keyed by prime only; a finite positive default gives a slot at every prime
        self._slots: dict[int, int] = {}
        if is_zero_type(cochar):
            self._torsion_keys = tuple(p for p in cochar.exception_primes if self._slot(p))
            self._modulus = math.prod(self._slot(p) for p in self._torsion_keys)
        else:
            self._torsion_keys = None
            self._modulus = None

    @property
    def cochar(self) -> Characteristic:
        return self._cochar

    @property
    def is_reduced(self) -> bool:
        return self._modulus is None

    @property
    def modulus(self) -> int | None:
        """The torsion modulus m of a nonreduced group Q (+) Z_m; None when reduced."""
        return self._modulus

    def _slot(self, p: int) -> int:
        """Memoised modulus p**cochar(p) at the prime p; 0 means no finite torsion coordinate."""
        q = self._slots.get(p)
        if q is None:
            k = self._cochar.value(p)
            q = self._slots[p] = p**k if 0 < k < INF else 0
        return q

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Qd1Group):
            return NotImplemented
        return self._cochar == other._cochar

    def __hash__(self) -> int:
        return hash(self._cochar)

    def __repr__(self) -> str:
        return f"Qd1Group({self._cochar.canonical_str()!r})"

    def __str__(self) -> str:
        if self.is_reduced:
            return f"reduced cochar={self._cochar.canonical_str()}"
        return f"nonreduced m={self._modulus} (Q (+) Z_{self._modulus})"

    # -- element constructors ------------------------------------------------

    def elem(self, rational, overrides: Mapping[int, int] | None = None) -> "GroupElement":
        """Build the element with the given rational coefficient and torsion overrides.

        Override keys must be primes with finite positive cocharacteristic
        value; residues are reduced into range.  Any prime dividing the
        denominator needs either cocharacteristic 0 or an explicit override.
        """
        ov: dict[int, int] = {}
        for p, a in (overrides or {}).items():
            if isinstance(p, bool) or not isinstance(p, int):
                raise ValueError(f"override key {p!r} is not prime")
            q = _coordinate_slot(self, p)
            if isinstance(a, bool) or not isinstance(a, int):
                raise ValueError(f"override at {p} must be an integer, got {a!r}")
            ov[p] = a % q
        if type(rational) is int:  # not bool, which would reach _num as True
            return _build(self, rational, 1, ov)
        r = rational if isinstance(rational, Fraction) else Fraction(rational)
        return _check_denominator(_build(self, r.numerator, r.denominator, ov))

    def elem_qb(self, q, b: int = 0) -> "GroupElement":
        """Build a nonreduced element from its (rational, torsion residue) pair."""
        if self.is_reduced:
            raise UnsupportedCaseError("elem_qb applies to nonreduced groups only")
        if isinstance(b, bool) or not isinstance(b, int):
            raise ValueError(f"torsion residue must be an integer, got {b!r}")
        b %= self._modulus
        ov = {p: b % self._slot(p) for p in self._torsion_keys}
        r = Fraction(q)
        return _check_denominator(_build(self, r.numerator, r.denominator, ov))

    def zero(self) -> "GroupElement":
        return _build(self, 0, 1, {})

    def basis_element(self) -> "GroupElement":
        return _build(self, 1, 1, {})

    def parse_elem(self, text: str) -> "GroupElement":
        return _scan_element(self, text, 0)


def build_group(cochar: Characteristic) -> Qd1Group:
    """The quotient divisible group of rank 1 with the given cocharacteristic."""
    return Qd1Group(cochar)


def is_integers(G: Qd1Group) -> bool:
    """Whether G is the group determined by the everywhere-infinite cocharacteristic."""
    return G._cochar.default == INF and not G._cochar._exceptions


class GroupElement:
    """Canonical finite representation of a group element.

    Immutable; built only by ``_build``, so get one through the parent group
    (``elem``, ``elem_qb``, ``zero``, ``basis_element``, ``parse_elem``) or the
    arithmetic; calling the class raises TypeError.  The coefficient of the
    basis is held as ints ``_num`` and ``_den`` in lowest terms with
    ``_den > 0``; ``rational`` builds the ``Fraction`` on demand.  In either
    group kind an override is kept exactly where the coefficient does not
    imply that coordinate (see ``_build``).
    Two slots are memos, None until first asked for, and equality, hashing
    and printing ignore them: ``_pai`` holds ``ring.principal_absolute_ideal``
    of the element, and ``_tw`` holds the per-slot data
    ``ring.torsion_witness`` reads from a torsion base element.
    """

    __slots__ = ("_group", "_num", "_den", "_overrides", "_pai", "_tw")

    @property
    def group(self) -> Qd1Group:
        return self._group

    @property
    def rational(self) -> Fraction:
        return Fraction(self._num, self._den)

    @property
    def overrides(self) -> dict[int, int]:
        return dict(self._overrides)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        return (
            (self._group is other._group or self._group == other._group)
            and self._num == other._num
            and self._den == other._den
            and self._overrides == other._overrides
        )

    def __hash__(self) -> int:
        return hash((self._group, self._num, self._den, tuple(sorted(self._overrides.items()))))

    def __add__(self, other: "GroupElement") -> "GroupElement":
        return add(self, other)

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return _plus_multiple(self, -1, other)

    def __neg__(self) -> "GroupElement":
        return neg(self)

    def __rmul__(self, n: int) -> "GroupElement":
        return zmul(n, self)

    def __str__(self) -> str:
        return canonical_elem_str(self)

    def __repr__(self) -> str:
        return f"<{canonical_elem_str(self)} in {self._group}>"

    def as_pair(self) -> tuple[Fraction, int]:
        """The (rational, torsion residue) view of a nonreduced element."""
        if self._group.is_reduced:
            raise UnsupportedCaseError("as_pair applies to nonreduced groups only")
        G = self._group
        slots = G._slots
        residue, _ = crt((_residue(self, p, slots[p]), slots[p]) for p in G._torsion_keys)
        return self.rational, residue


def _implied(num: int, den: int, q: int) -> int:
    """The coordinate num/den implies mod q, for den a unit mod q; the one statement of that rule."""
    return num % q if den == 1 else num * pow(den, -1, q) % q


def _residue(g: GroupElement, p: int, q: int) -> int:
    # coordinate_residue without validation, for a prime whose slot q is known
    a = g._overrides.get(p)
    return _implied(g._num, g._den, q) if a is None else a


_new = object.__new__


def _build(group: Qd1Group, num: int, den: int, overrides: dict[int, int]) -> GroupElement:
    """Normalize and allocate; the single constructor of ``GroupElement``, for both group kinds.

    It allocates the element with ``object.__new__`` and sets its six slots,
    the two memos to None; ``GroupElement`` has no ``__init__``, so no second
    frame runs per element.  The coefficient num/den needs den > 0; it is
    brought to lowest terms here.  The overrides hold residues already
    reduced modulo their slots, at primes that have been through
    ``group._slot``.  The denominator is not validated here: ``elem``,
    ``elem_qb`` and the oracle's generators check it, and an arithmetic
    result inherits a valid one (see the module docstring).

    An override a at p with slot q = p**k is dropped when the coefficient
    implies it, ``a == _implied(num, den, q)``: when p does not divide den,
    den is a unit modulo q, so that rule is tested as a*den == num (mod q)
    with no inverse.  When p divides den it does not divide num (lowest
    terms), so the same test fails and the override is kept.
    """
    if den != 1 and (d := math.gcd(num, den)) != 1:
        num //= d
        den //= d
    slots = group._slots
    ov = {}
    for p, a in overrides.items():
        if (a * den - num) % slots[p]:
            ov[p] = a  # not implied by the coefficient
    g = _new(GroupElement)
    g._group = group
    g._num = num
    g._den = den
    g._overrides = ov
    g._pai = None
    g._tw = None
    return g


def _check_denominator(g: GroupElement) -> GroupElement:
    """g itself when every prime of its denominator may divide it, else InvalidDenominatorError.

    A prime may divide the denominator when its cocharacteristic value is 0 or
    when g gives its coordinate there.
    """
    den = g._den
    if den == 1:
        return g
    chi = g._group._cochar
    rest = den
    for p in g._overrides:
        while rest % p == 0:
            rest //= p
    for p in chi.exception_primes:
        while rest % p == 0:
            if chi.value(p) != 0:
                raise InvalidDenominatorError(
                    f"denominator prime {p} has cocharacteristic {chi.value(p)} and no override"
                )
            rest //= p
    if rest > 1 and chi.default != 0:
        # name a prime only when trial division finds one; factoring rest may not finish
        p = next((p for p in _TRIAL_PRIMES if rest % p == 0), None)
        part = f"prime {p}" if p else f"part {rest}"
        raise InvalidDenominatorError(
            f"denominator {part} has cocharacteristic {chi.default} and no override"
        )
    return g


def _same_group(G: Qd1Group, *values) -> None:
    """Raise unless every value (element, descriptor, multiplication) lives in G.

    A value from an equal group object passes only here, and G takes over that
    object's slot memo, so G's memo holds every override key of the value.  An
    entry is the same p**k either way, and ``dict.update`` runs in C uninterrupted.
    """
    for v in values:
        if v._group is not G:
            if v._group != G:
                raise GroupMismatchError("arguments belong to different groups")
            G._slots.update(v._group._slots)


def _coordinate_slot(G: Qd1Group, p: int) -> int:
    """The slot of p in G; ValueError unless p is a prime with finite positive cocharacteristic value."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    q = G._slot(p)
    if not q:
        raise ValueError(f"prime {p} carries no finite torsion coordinate (cocharacteristic {G.cochar.value(p)})")
    return q


def coordinate_residue(g: GroupElement, p: int) -> int:
    """The torsion coordinate of g at a prime with finite positive cocharacteristic value."""
    return _residue(g, p, _coordinate_slot(g.group, p))


# ---------------------------------------------------------------------------
# group laws


def add(g: GroupElement, h: GroupElement) -> GroupElement:
    G = g._group
    if h._group is not G:
        _same_group(G, h)
    gn, gd, go = g._num, g._den, g._overrides
    hn, hd, ho = h._num, h._den, h._overrides
    slots = G._slots
    ov = {}
    for p in {*go, *ho}:
        q = slots[p]
        a = go[p] if p in go else _implied(gn, gd, q)
        b = ho[p] if p in ho else _implied(hn, hd, q)
        ov[p] = (a + b) % q
    return _build(G, gn * hd + hn * gd, gd * hd, ov)


def neg(g: GroupElement) -> GroupElement:
    return zmul(-1, g)


def zmul(n: int, g: GroupElement) -> GroupElement:
    if type(n) is not int and (isinstance(n, bool) or not isinstance(n, int)):
        raise ValueError(f"integer multiple expected, got {n!r}")
    G = g._group
    slots = G._slots
    ov = {}
    for p, a in g._overrides.items():
        ov[p] = n * a % slots[p]
    return _build(G, n * g._num, g._den, ov)


def _plus_multiple(x: GroupElement, k: int, g: GroupElement) -> GroupElement:
    """x + k*g with one ``_build``: the value of ``add(x, zmul(k, g))`` for an int k."""
    G = x._group
    if g._group is not G:
        _same_group(G, g)
    xn, xd, xo = x._num, x._den, x._overrides
    gn, gd, go = g._num, g._den, g._overrides
    slots = G._slots
    ov = {}
    for p in {*xo, *go}:
        q = slots[p]
        a = xo[p] if p in xo else _implied(xn, xd, q)
        b = go[p] if p in go else _implied(gn, gd, q)
        ov[p] = (a + k * b) % q
    return _build(G, xn * gd + k * gn * xd, xd * gd, ov)


# ---------------------------------------------------------------------------
# invariants


def height(g: GroupElement, p: int) -> ExtNat:
    """The p-height of g: the largest k with g divisible by p**k, INF if unbounded."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _height(g, p)


def _height(g: GroupElement, p: int) -> ExtNat:
    # height without the primality test, for a p already known to be prime
    G = g._group
    q = G._slots.get(p)
    if q is None:
        q = G._slot(p)
    if q:
        a = g._overrides.get(p)
        if a is None:
            a = _implied(g._num, g._den, q)
        return INF if a == 0 else _int_vp(a, p)
    # no finite torsion coordinate: the value at p is 0 or inf
    if g._num == 0 or G._cochar.value(p) == 0:
        return INF
    return _int_vp(g._num, p) - _int_vp(g._den, p)


def _finite_height_primes(g: GroupElement) -> AbstractSet[int] | None:
    """The primes where g can have finite height, or None when that is all but finitely many.

    A height is inf at every prime with cocharacteristic value 0, and a
    torsion g has height inf wherever it has no torsion override.  So the
    primes are the override keys of a torsion g, and the exception primes of
    the cocharacteristic for a non-torsion g when its default is 0.  A
    non-torsion g in a group with a nonzero default has height 0 at every
    prime that is not an exception, an override or a factor of its
    numerator: ``char_of`` factors only then, and ``char_of(g) >= eta`` then
    fails for a nonzero eta default and needs only eta's exception primes
    otherwise.  Every returned key is prime.
    """
    if g._num == 0:
        return g._overrides.keys()
    chi = g._group._cochar
    return chi._exceptions.keys() if chi.default == 0 else None


def char_of(g: GroupElement) -> Characteristic:
    """The full height profile of g; it factors only where ``_finite_height_primes`` says it must."""
    primes = _finite_height_primes(g)
    default_h: ExtNat = INF
    if primes is None:
        default_h = 0
        primes = {*g._group._cochar.exception_primes, *g._overrides, *factorization(g._num)}
    # every candidate is prime, so neither the heights nor the characteristic test primality
    return _char(default_h, {p: h for p in primes if (h := _height(g, p)) != default_h})


def is_torsion(g: GroupElement) -> bool:
    return g._num == 0


def order(g: GroupElement) -> ExtNat:
    """The additive order of g."""
    if g._num != 0:
        return INF
    n = 1
    slots = g._group._slots  # every override key has its slot memoised
    for p, a in g._overrides.items():
        q = slots[p]
        n = math.lcm(n, q // math.gcd(a, q))
    return n


def c_of(g: GroupElement) -> int:
    """Product of p**height(g, p) over the primes with infinite cocharacteristic value.

    Zero on torsion elements, one when no such prime exists; always a finite
    positive integer otherwise because only finitely many primes divide the
    rational coefficient.
    """
    if g._num == 0:
        return 0
    chi = g._group._cochar
    if chi.default == INF:
        # every prime but the finite-value exceptions is divisible, so dividing those
        # out of |num| leaves c without factoring
        result = abs(g._num)
        for p, v in chi.exception_items():
            if v != INF:
                while result % p == 0:
                    result //= p
        return result
    result = 1
    for p, v in chi.exception_items():
        if v == INF:
            result *= p ** _int_vp(g._num, p)
    return result


def _quotient(x: GroupElement, g: GroupElement) -> int:
    """floor(x.rational / g.rational) for a non-torsion g.

    Callers rely on x - k*g, for this k, being torsion exactly when the ratio
    is an integer; no other k can make it torsion.
    """
    return x._num * g._den // (g._num * x._den)


def _finite_positive_chi_divisors(G: Qd1Group, n: int) -> set[int]:
    """Primes p dividing the nonzero n with a torsion slot, 0 < cochar(p) < inf."""
    chi = G._cochar
    primes = factorization(n) if 0 < chi._default < INF else chi.exception_primes
    return {p for p in primes if n % p == 0 and G._slot(p)}


class Decomposition(namedtuple("Decomposition", "scale rational tail support")):
    """The canonical splitting of an element of either group kind.

    The element equals scale * rational * e0 + tail, where e0 is the basis
    element with its torsion coordinate zeroed on the support, the tail is a
    torsion element supported there, and the rational is a fraction whose
    primes avoid the complement of the support inside the nonzero-value
    primes of the cocharacteristic.  Fields: the int scale, the Fraction
    rational, the GroupElement tail and the frozenset support.
    """

    __slots__ = ()

    def recombine(self) -> GroupElement:
        G = self.tail.group
        free_part = G.elem(self.scale * self.rational, {p: 0 for p in self.support})
        return add(free_part, self.tail)


def decompose(g: GroupElement, support: AbstractSet[int] = frozenset()) -> Decomposition:
    """Split g, in either group kind, into a free part against a punctured basis plus a torsion tail.

    The support is the overrides of g (every torsion coordinate in Q (+) Z_m,
    stored or implied), the slot primes of its numerator, and the given
    primes, which must be primes that carry a slot (else ValueError).
    Enlarging it leaves scale and rational as they are.  A torsion g is its
    own tail.
    """
    for p in support:
        _coordinate_slot(g._group, p)
    scale, rational, base = _free_part(g)
    support = base.union(support)
    return Decomposition(scale, rational, _tail(g, support), support)


def _free_part(g: GroupElement) -> tuple[int, Fraction, frozenset[int]]:
    """Scale, rational and base support of ``decompose(g)``, without building its tail.

    The base support is the overrides of g (every torsion coordinate in
    Q (+) Z_m) and the slot primes of its numerator; a larger support leaves
    the scale and the rational as they are.
    """
    G = g._group
    base = frozenset(g._overrides if G._modulus is None else G._torsion_keys)
    if g._num == 0:
        return 0, Fraction(0), base
    scale = c_of(g)
    return scale, Fraction(g._num, g._den * scale), base | _finite_positive_chi_divisors(G, g._num)


def _tail(g: GroupElement, support: frozenset[int]) -> GroupElement:
    """The torsion part of g supported on the given primes, which must be slot primes of its group."""
    G = g._group
    go = g._overrides
    ov = {}
    for p in support:
        # an override is the coordinate itself; any other prime may not have its slot memoised yet
        a = go.get(p)
        ov[p] = _implied(g._num, g._den, G._slot(p)) if a is None else a
    return _build(G, 0, 1, ov)


# ---------------------------------------------------------------------------
# textual grammar


def _frac_str(num: int, den: int) -> str:
    return str(num) if den == 1 else f"{num}/{den}"


def canonical_elem_str(g: GroupElement) -> str:
    if g.group.is_reduced:
        return f"r={_frac_str(g._num, g._den)}{_items_str(sorted(g._overrides.items()))}"
    _, b = g.as_pair()
    return f"q={_frac_str(g._num, g._den)};b={b}"


def _scan_fraction(text: str, pos: int) -> tuple[Fraction, int]:
    num, pos = _scan_int(text, pos)
    if pos < len(text) and text[pos] == "/":
        den_pos = pos + 1
        den, pos = _scan_uint(text, den_pos)
        if den == 0:
            raise ParseError(text, den_pos, "a nonzero denominator")
        return Fraction(num, den), pos
    return Fraction(num), pos


def _scan_element(G: Qd1Group, text: str, pos: int) -> GroupElement:
    """An element of G in the grammar of its group kind, from pos to the end of text."""
    if G._modulus is None:
        pos = _expect(text, pos, "r=")
        value_pos = pos
        rational, pos = _scan_fraction(text, pos)

        def scan_residue(text: str, pos: int, p: int) -> tuple[int, int]:
            a, end = _scan_uint(text, pos)
            if a >= G._slots[p]:
                raise ParseError(text, pos, f"a residue below {p}**{G._cochar.value(p)}")
            return a, end

        key = "a prime with a finite torsion coordinate"
        ov = _scan_items(text, pos, len(text), key, lambda p: is_prime(p) and G._slot(p), scan_residue)
        try:
            return G.elem(rational, ov)
        except InvalidDenominatorError as exc:
            raise ParseError(text, value_pos, f"a valid denominator ({exc})") from exc
    pos = _expect(text, pos, "q=")
    rational, pos = _scan_fraction(text, pos)
    pos = _expect(text, pos, ";b=")
    res_pos = pos
    b, pos = _scan_uint(text, res_pos)
    if pos != len(text):
        raise ParseError(text, pos, "end of input")
    if b >= G._modulus:
        raise ParseError(text, res_pos, f"a residue below {G._modulus}")
    return G.elem_qb(rational, b)
