"""Symbolic subgroup descriptors with exact membership and equality.

Three shapes cover every subgroup the ideal machinery produces: the
height-floor subgroup of all elements whose characteristic dominates a given
one, its torsion analogue (one cyclic slot per prime, shifted by the floor),
and a torsion part plus a single cyclic summand.  Descriptors are normalized
at construction, which makes equality a finite structural comparison in
every case.  In particular a ``SUM`` generator is non-torsion: a torsion
summand is folded into the torsion part when the sum is built.

Membership never factors: deciding ``char(x) >= eta`` needs heights only at
the primes that ``group._finite_height_primes(x)`` names, or at the exception
primes of eta when it names none.
"""

from __future__ import annotations

import enum

from .errors import ParseError, UnsupportedCaseError
from .foundations import (
    INF,
    MAX_HEIGHT,
    Characteristic,
    _expect,
    _int_vp,
    _pointwise,
    _scan_characteristic,
    meet,
)
from .group import (
    GroupElement,
    Qd1Group,
    _build,
    _finite_height_primes,
    _height,
    _implied,
    _plus_multiple,
    _quotient,
    _residue,
    _same_group,
    _scan_element,
    canonical_elem_str,
    char_of,
    is_integers,
    neg,
)

__all__ = [
    "DescriptorKind",
    "SubgroupDescriptor",
    "contains",
    "descriptor_str",
    "equals",
    "full_inv",
    "parse_descriptor",
    "plus_cyclic",
    "torsion_inv",
]


class DescriptorKind(enum.Enum):
    FULL = "G"
    TORSION = "T"
    SUM = "T+Z"


class SubgroupDescriptor:
    """A normalized descriptor, built by full_inv, torsion_inv, plus_cyclic or ring.principal_absolute_ideal."""

    __slots__ = ("_group", "_kind", "_eta", "_generator")

    def __init__(
        self,
        group: Qd1Group,
        kind: DescriptorKind,
        eta: Characteristic,
        generator: GroupElement | None = None,
    ):
        self._group = group
        self._kind = kind
        self._eta = eta
        self._generator = generator

    @property
    def group(self) -> Qd1Group:
        return self._group

    @property
    def kind(self) -> DescriptorKind:
        return self._kind

    @property
    def eta(self) -> Characteristic:
        return self._eta

    @property
    def generator(self) -> GroupElement | None:
        return self._generator

    def __eq__(self, other) -> bool:
        if not isinstance(other, SubgroupDescriptor):
            return NotImplemented
        return equals(self, other)

    __hash__ = None  # semantic equality is not hash-compatible

    def __str__(self) -> str:
        return descriptor_str(self)

    def __repr__(self) -> str:
        return f"<{descriptor_str(self)} in {self._group}>"


# ---------------------------------------------------------------------------
# normalization

# Heights at a prime with cocharacteristic value k live in {0, ..., k-1, inf}
# for finite k, in {0, 1, 2, ...} ∪ {inf-only-for-torsion} when k is inf, and
# are always inf when k = 0.  A floor v there becomes the least height that
# meets it: ``v if v < k else INF`` for the full floor, and, as a torsion
# element has height inf wherever there is no finite slot (k = 0 or inf),
# ``v if v < k < INF else INF`` for the torsion floor.


def _normalize_torsion_eta(G: Qd1Group, eta: Characteristic) -> Characteristic:
    return _pointwise(G._cochar, eta, lambda k, v: v if v < k < INF else INF)


def _normalize_full_eta(G: Qd1Group, eta: Characteristic) -> tuple[Characteristic, bool]:
    """Cap the floor against the cocharacteristic; report whether only torsion can satisfy it."""
    chi = G.cochar
    norm = _pointwise(chi, eta, lambda k, v: v if v < k else INF)
    # A nontorsion element has height 0 at all but finitely many primes of
    # nonzero cocharacteristic, and finite height at every divisible prime.
    collapsed = (chi.default != 0 and norm.default >= 1) or any(
        chi.value(p) == INF and norm.value(p) == INF
        for p in chi._exceptions.keys() | norm._exceptions.keys()
    )
    return norm, collapsed


def full_inv(G: Qd1Group, eta: Characteristic) -> SubgroupDescriptor:
    """Descriptor of all elements whose characteristic dominates eta pointwise."""
    norm, collapsed = _normalize_full_eta(G, eta)
    if collapsed:
        return torsion_inv(G, norm)
    return SubgroupDescriptor(G, DescriptorKind.FULL, norm)


def torsion_inv(G: Qd1Group, eta: Characteristic) -> SubgroupDescriptor:
    """Descriptor of the direct sum over primes of the eta-shifted torsion components."""
    return SubgroupDescriptor(G, DescriptorKind.TORSION, _normalize_torsion_eta(G, eta))


def plus_cyclic(d: SubgroupDescriptor, g: GroupElement) -> SubgroupDescriptor:
    """The descriptor of d plus all integer multiples of g."""
    if d._kind is not DescriptorKind.TORSION:
        raise UnsupportedCaseError("plus_cyclic extends a torsion descriptor")
    G = d._group
    _same_group(G, g)
    if g._num == 0:  # Z*g is the torsion at g's heights, so the floors meet
        return torsion_inv(G, meet(d._eta, char_of(g)))
    return SubgroupDescriptor(G, DescriptorKind.SUM, d._eta, _canonical_generator(d._eta, g))


def _canonical_generator(eta: Characteristic, g: GroupElement) -> GroupElement:
    """Reduce g modulo the torsion part and normalize the sign of the rational.

    A coordinate is reduced modulo p**v for the floor value v < inf at p: in
    a reduced group the overrides, in Q (+) Z_m every torsion coordinate,
    stored or implied.
    """
    if g._num < 0:
        g = neg(g)
    G = g._group
    reduced = G._modulus is None
    ov = {}
    for p in g._overrides if reduced else G._torsion_keys:
        a = _residue(g, p, G._slots[p])
        v = eta.value(p)
        if v != INF:
            pv = p**v
            a %= pv
            # prefer the coordinate the rational implies when the two agree; at p | den it implies
            # none, and the override that lets p divide den stays, even when pv is 1
            if reduced and g._den % p and _implied(g._num, g._den, pv) == a:
                continue
        ov[p] = a
    return _build(G, g._num, g._den, ov)


# ---------------------------------------------------------------------------
# membership


def _dominates(x: GroupElement, d: SubgroupDescriptor) -> bool:
    """Whether char_of(x) >= d.eta; heights are compared where ``_finite_height_primes`` allows them finite."""
    floor, rest = d._eta._exceptions, d._eta._default
    primes = _finite_height_primes(x)
    if primes is None:
        if rest != 0:
            return False
        primes = floor
    for p in primes:
        v = floor.get(p, rest)
        if v != 0 and _height(x, p) < v:
            return False
    return True


def contains(d: SubgroupDescriptor, x: GroupElement) -> bool:
    """Exact membership for any descriptor variant; never factors.

    ``G(eta)`` and ``T(eta)`` compare the heights of x with eta only where
    ``group._finite_height_primes`` allows them finite.  A ``SUM`` reduces to
    its torsion part once the right multiple of the generator is subtracted.
    """
    if x._group is not d._group:  # a hot site: test identity before paying for the call
        _same_group(d._group, x)
    kind = d._kind
    if kind is DescriptorKind.FULL:
        return _dominates(x, d)
    if kind is DescriptorKind.SUM and x._num != 0:
        # g is non-torsion: x - k*g is torsion only for k = x.rational / g.rational
        g = d._generator
        x = _plus_multiple(x, -_quotient(x, g), g)
    return x._num == 0 and _dominates(x, d)


# ---------------------------------------------------------------------------
# equality

# Every variant pair is decidable:
#   * same-variant descriptors compare by normalized data (injectivity comes
#     from explicit separating elements);
#   * a non-collapsed height-floor descriptor, and a sum (plus_cyclic folds a
#     torsion generator into the floor, so a sum generator is non-torsion),
#     each have a nontorsion member, so neither equals a torsion descriptor;
#   * rational coefficients of sum members form one cyclic subgroup of Q,
#     while a height-floor subgroup has unbounded denominators at any prime
#     of finite cocharacteristic value, so the two can only coincide in the
#     integers-like group, where both are explicit multiples of the basis.


def _is_eta_index(n: int, eta: Characteristic) -> bool:
    """Whether the positive n is the product of p**eta(p), for eta with default 0 and finite values.

    Each p**eta(p) is divided out of n rather than multiplied up, so a floor
    with large values costs no more than the size of n.
    """
    for p, v in eta.exception_items():
        if _int_vp(n, p) != v:
            return False
        n //= p**v
    return n == 1


def equals(d1: SubgroupDescriptor, d2: SubgroupDescriptor) -> bool:
    """Exact set equality of two descriptors over the same group."""
    _same_group(d1._group, d2)
    k1, k2 = d1._kind, d2._kind
    if k1 is k2:
        if k1 is DescriptorKind.SUM:
            return d1._eta == d2._eta and d1._generator == d2._generator
        return d1._eta == d2._eta
    if k1 is DescriptorKind.TORSION or k2 is DescriptorKind.TORSION:
        return False
    summ, full = (d1, d2) if k1 is DescriptorKind.SUM else (d2, d1)
    if not is_integers(summ._group):
        return False
    g = summ._generator
    return g._den == 1 and _is_eta_index(abs(g._num), full._eta)


# ---------------------------------------------------------------------------
# textual grammar


def descriptor_str(d: SubgroupDescriptor) -> str:
    if d.kind is DescriptorKind.FULL:
        return f"G(eta={d.eta.canonical_str()})"
    if d.kind is DescriptorKind.TORSION:
        return f"T(eta={d.eta.canonical_str()})"
    return f"T(eta={d.eta.canonical_str()})+Z*{canonical_elem_str(d.generator)}"


def parse_descriptor(text: str, G: Qd1Group) -> SubgroupDescriptor:
    full = text.startswith("G(eta=")
    pos = len("G(eta=") if full else _expect(text, 0, "T(eta=")
    close = text.find(")", pos)
    if close < 0:
        raise ParseError(text, len(text), "')'")
    end = close + 1
    if full:  # text after a full floor is reported before the floor is read
        if end != len(text):
            raise ParseError(text, end, "end of input")
        return full_inv(G, _scan_characteristic(text, pos, close, MAX_HEIGHT))
    eta = _scan_characteristic(text, pos, close, MAX_HEIGHT)
    if end == len(text):
        return torsion_inv(G, eta)
    pos = _expect(text, end, "+Z*")
    return plus_cyclic(torsion_inv(G, eta), _scan_element(G, text, pos))
