"""Ring structures on a rank-1 quotient divisible group.

A multiplication is determined by the square of the basis element, and the
induced product acts coordinatewise: rational coefficients multiply, torsion
coordinates multiply modulo their slot.  On top of the product sit closed
forms for principal ideals and principal absolute ideals, constructive
membership witnesses that are recomputed before being returned, and the
classification of the rings whose ideals are all absolute (equivalently all
fully invariant).
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import count

from .errors import InvariantError, NotAMemberError, RingIsAIError, UnsupportedCaseError
from .foundations import (
    INF,
    Characteristic,
    bezout,
    is_prime,
)
from .group import (
    GroupElement,
    Qd1Group,
    _build,
    _check_denominator,
    _free_part,
    _implied,
    _plus_multiple,
    _quotient,
    _same_group,
    _tail,
    char_of,
    is_integers,
    is_torsion,
    order,
    zmul,
)
from .subgroup import (
    DescriptorKind,
    SubgroupDescriptor,
    contains,
    equals,
    full_inv,
    plus_cyclic,
    torsion_inv,
)

__all__ = [
    "Multiplication",
    "NonAbsoluteWitness",
    "PrincipalWitness",
    "certify_member",
    "is_ai_ring",
    "is_fi_ring",
    "make_mult",
    "multiply",
    "non_absolute_ideal_witness",
    "principal_absolute_ideal",
    "principal_ideal",
    "solve_in_principal",
    "torsion_witness",
]


class Multiplication:
    """A ring structure on its group, pinned down by the square of the basis element.

    The ``_memo`` slot holds what the witness paths work out from the ring
    and one generator alone, for the last generator asked about, found by
    identity (an element does not keep its hash).  The square of the basis
    fixes which path can run, so one slot serves both: with a torsion square,
    ``certify_member`` keeps ``(g, e, zero, g x e)``; with a non-torsion one,
    ``solve_in_principal`` keeps ``(g, free part of m, free part of g,
    support, tail, order of tail)``, the free parts as ``group._free_part``
    gives them and the tail of g over its last support.  Another generator
    recomputes and replaces it; another support recomputes the tail.  It is
    a cache of values the ring already determines, so equality and hashing
    ignore it.
    """

    __slots__ = ("_group", "_m", "_memo")

    def __init__(self, group: Qd1Group, m_elt: GroupElement):
        _same_group(group, m_elt)
        self._group = group
        self._m = m_elt
        self._memo: tuple | None = None

    @property
    def group(self) -> Qd1Group:
        return self._group

    @property
    def m_elt(self) -> GroupElement:
        return self._m

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multiplication):
            return NotImplemented
        return self._group == other._group and self._m == other._m

    def __hash__(self) -> int:
        return hash((self._group, self._m))

    def __repr__(self) -> str:
        return f"<multiplication m={self._m} on {self._group}>"


class PrincipalWitness(namedtuple("PrincipalWitness", "y k")):
    """Certificate that b = g x y + k*g inside the ideal generated by g: a GroupElement y and an int k."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"y={self.y};k={self.k}"


class NonAbsoluteWitness(namedtuple("NonAbsoluteWitness", "e0 p violator")):
    """Certificate that a ring has an ideal that is not an absolute ideal.

    The principal ideal of the GroupElement e0 is exactly its cyclic group,
    while the GroupElement violator shares the characteristic of e0 without
    being one of its multiples; p is the prime the violator divides e0 by.
    """

    __slots__ = ()

    def __str__(self) -> str:
        return f"e0={self.e0};p={self.p};x={self.violator}"


def make_mult(G: Qd1Group, m: GroupElement) -> Multiplication:
    return Multiplication(G, m)


def multiply(mult: Multiplication, g1: GroupElement, g2: GroupElement) -> GroupElement:
    """The ring product: coordinatewise, weighted by the square of the basis element."""
    G = mult._group
    if g1._group is not G or g2._group is not G:
        _same_group(G, g1, g2)
    m = mult._m
    n1, d1, o1 = g1._num, g1._den, g1._overrides
    n2, d2, o2 = g2._num, g2._den, g2._overrides
    nm, dm, om = m._num, m._den, m._overrides
    slots = G._slots
    ov = {}
    for p in {*o1, *o2, *om}:
        q = slots[p]
        a = o1[p] if p in o1 else _implied(n1, d1, q)
        b = o2[p] if p in o2 else _implied(n2, d2, q)
        c = om[p] if p in om else _implied(nm, dm, q)
        ov[p] = a * b * c % q
    return _build(G, n1 * n2 * nm, d1 * d2 * dm, ov)


def _ideal_element(mult: Multiplication, g: GroupElement, y: GroupElement, k: int) -> GroupElement:
    """g x y + k*g with one ``_build``: the value of ``add(multiply(mult, g, y), zmul(k, g))`` for an int k.

    Coordinatewise it is a*(b*c + k) modulo each slot, with a, b and c the
    coordinates of g, y and the basis square; the coefficient is
    ng*(ny*nm + k*dy*dm) / (dg*dy*dm).
    """
    G = mult._group
    if g._group is not G or y._group is not G:
        _same_group(G, g, y)
    m = mult._m
    ng, dg, og = g._num, g._den, g._overrides
    ny, dy, oy = y._num, y._den, y._overrides
    nm, dm, om = m._num, m._den, m._overrides
    slots = G._slots
    ov = {}
    for p in {*og, *oy, *om}:
        q = slots[p]
        a = og[p] if p in og else _implied(ng, dg, q)
        b = oy[p] if p in oy else _implied(ny, dy, q)
        c = om[p] if p in om else _implied(nm, dm, q)
        ov[p] = a * (b * c + k) % q
    return _build(G, ng * (ny * nm + k * dy * dm), dg * dy * dm, ov)


def is_ai_ring(mult: Multiplication) -> bool:
    """Whether every ideal of the ring is an absolute ideal of the group."""
    return is_integers(mult.group) or not is_torsion(mult.m_elt)


def is_fi_ring(mult: Multiplication) -> bool:
    """Whether every ideal is a fully invariant subgroup; coincides with is_ai_ring."""
    return is_ai_ring(mult)


def principal_ideal(mult: Multiplication, g: GroupElement) -> SubgroupDescriptor:
    """The ideal generated by g, in closed form.

    It is the principal absolute ideal unless g is non-torsion and all
    products are torsion, which happens exactly when the basis square is;
    then it is the torsion of g x e plus the multiples of g.
    """
    G = mult._group
    _same_group(G, g)
    if g._num == 0 or mult._m._num != 0:
        return principal_absolute_ideal(g)
    return plus_cyclic(principal_absolute_ideal(multiply(mult, g, G.basis_element())), g)


def principal_absolute_ideal(g: GroupElement) -> SubgroupDescriptor:
    """The smallest subgroup containing g that is an ideal in every ring on the group.

    It depends on g alone, so it is built once per element and memoised in g's ``_pai`` slot.
    """
    if g._pai is None:
        # G(char g) or T(char g), already normal: heights lie in {0, ..., k-1, inf} at a slot of value k
        # and are inf at value 0, so neither capping rule moves them; a non-torsion floor cannot collapse,
        # being 0 by default wherever the cocharacteristic is not, and finite at every divisible prime.
        kind = DescriptorKind.FULL if g._num else DescriptorKind.TORSION
        g._pai = SubgroupDescriptor(g._group, kind, char_of(g))
    return g._pai


# ---------------------------------------------------------------------------
# constructive witnesses


def torsion_witness(g: GroupElement, u: GroupElement) -> int:
    """An integer n with n*g = u, for torsion g and u in the torsion descriptor of char g.

    Built one prime at a time: the coordinate a of g is a unit times the prime
    power d = gcd(a, q) of its slot q, so u is a multiple of g exactly when u is
    torsion, is 0 wherever g is, and has a coordinate divisible by d at every
    slot of g; otherwise NotAMemberError.  The unit pins n down modulo q/d, and
    the congruences combine by the Chinese remainder theorem as they come, with
    one inverse per slot; the result is verified by recomputation.  A zero u
    gets the order of g.  The per-slot data of g, its inverses among them, is
    worked out once per element and memoised in g's ``_tw`` slot.
    """
    if g._num != 0:
        raise UnsupportedCaseError("torsion_witness needs a torsion base element")
    G = g._group
    if u._group is not G:  # a hot site: test identity before paying for the call
        _same_group(G, u)
    if u._num != 0 or not u._overrides.keys() <= g._overrides.keys():
        raise NotAMemberError(f"{u} is not an integer multiple of {g}")
    plan = g._tw
    if plan is None:
        # per slot of g, (p, d, q/d, a/d, M, the inverse of (a/d)*M mod q/d), where M is the
        # product of the moduli q/d of the slots before it; pow(x, -1, 1) is 0
        steps, M = [], 1
        slots = G._slots
        for p, a in g._overrides.items():
            q = slots[p]
            d = math.gcd(a, q)  # the p-power part of a; q when a = 0, which leaves n free modulo 1
            modulus = q // d
            steps.append((p, d, modulus, a // d, M, pow(a // d * M, -1, modulus)))
            M *= modulus
        plan = g._tw = tuple(steps), M  # M is the order of g
    steps, order_g = plan
    uo = u._overrides
    n = 0  # n in [0, M) solves the congruences of the slots seen so far
    for p, d, modulus, unit, M, inverse in steps:
        c, r = divmod(uo.get(p, 0), d)  # a torsion u is 0 wherever it has no override
        if r:
            raise NotAMemberError(f"{u} is not an integer multiple of {g}")
        n += M * ((c - unit * n) * inverse % modulus)  # (a/d)*(n + M*t) = c (mod q/d), solved for t
    if zmul(n, g) != u:
        raise InvariantError("torsion witness failed recomputation", cochar=G._cochar, g=g, u=u)
    return n or order_g


def solve_in_principal(mult: Multiplication, g: GroupElement, b: GroupElement) -> PrincipalWitness | None:
    """A witness b = g x y + k*g when b lies in the ideal of a non-torsion g, or None.

    Requires a non-torsion generator and a non-torsion basis square.  It is
    built from the free part of m and the decomposition of g, over one finite support
    holding every torsion override of g, m and b and every finite-slot prime
    of the numerators of g and m: there the problem splits into a Bezout
    equation for the free parts and an integer multiple for the tails.  The
    witness is recomputed before being returned.
    """
    G = mult._group
    _same_group(G, g, b)
    m = mult._m
    if g._num == 0 or m._num == 0:
        raise UnsupportedCaseError(
            "solve_in_principal needs a non-torsion generator and a non-torsion basis square"
        )
    if not contains(principal_absolute_ideal(g), b):
        return None

    # the support holds every prime of g, m and b that carries a slot; the free
    # parts do not depend on it, and the tail of m is never read, so it is not built
    memo = mult._memo
    if memo is None or memo[0] is not g:
        memo = g, _free_part(m), _free_part(g), None, None, None
    _, m_free, g_free, last_support, tail, n = memo
    (m_scale, m_frac, m_base), (g_scale, r_frac, g_base) = m_free, g_free
    support = g_base.union(m_base, b._overrides.keys())
    if support != last_support:
        tail = _tail(g, support)
        n = order(tail)
        mult._memo = g, m_free, g_free, support, tail, n
    w = torsion_witness(tail, _tail(b, support))

    # the free parts combine in ints: k1/k2 = b / g_scale - w * r in lowest terms, k2 > 0
    rn, rd = r_frac.numerator, r_frac.denominator
    k1 = b._num * rd - w * rn * b._den * g_scale
    k2 = b._den * g_scale * rd
    c = math.gcd(k1, k2)
    k1, k2 = k1 // c, k2 // c
    x0, y0, gcd = bezout(m_scale, n * rn * k2)
    if gcd != 1:
        raise InvariantError("support primes leaked into the Bezout step", cochar=G._cochar, m=m, g=g, b=b)
    x, y = x0 * k1, y0 * k1
    zn, zd = rd * m_frac.denominator * x, rn * m_frac.numerator * k2
    if zd < 0:
        zn, zd = -zn, -zd
    # every support prime is a slot prime, so the zero coordinates need no check
    y_elt = _check_denominator(_build(G, zn, zd, {p: 0 for p in support}))
    k = n * y * rd + w
    if _ideal_element(mult, g, y_elt, k) != b:
        raise InvariantError("principal witness failed recomputation", cochar=G._cochar, m=m, g=g, b=b)
    return PrincipalWitness(y_elt, k)


def certify_member(mult: Multiplication, g: GroupElement, b: GroupElement) -> PrincipalWitness | None:
    """A recomputable witness that b lies in the ideal generated by g, or None.

    Dispatches on the generator and the basis square: torsion generators
    reduce to an integer multiple, non-torsion ones either to the full
    construction or to a multiple of the generator plus a multiple of its
    product with the basis.
    """
    G = mult._group
    if g._num == 0:
        _same_group(G, g)  # torsion_witness checks b against the group of g
        try:
            n = torsion_witness(g, b)
        except NotAMemberError:
            return None
        return PrincipalWitness(G.zero(), n)
    if mult._m._num != 0:
        return solve_in_principal(mult, g, b)
    _same_group(G, g, b)
    # all products are torsion: members are k*g plus a multiple of g x e, and only
    # k = _quotient(b, g) can leave a torsion t; the tests below reject any other t
    k = _quotient(b, g)
    t = _plus_multiple(b, -k, g)
    memo = mult._memo
    if memo is not None and memo[0] is g:
        _, e, zero, g_times_e = memo
    else:
        e, zero = G.basis_element(), G.zero()
        g_times_e = multiply(mult, g, e)
        mult._memo = g, e, zero, g_times_e
    if g_times_e == zero:
        if t != zero:
            return None
        y = zero
    else:
        try:
            n = torsion_witness(g_times_e, t)
        except NotAMemberError:
            return None
        y = zmul(n, e)
    if _ideal_element(mult, g, y, k) != b:
        raise InvariantError("membership witness failed recomputation", cochar=G._cochar, m=mult._m, g=g, b=b)
    return PrincipalWitness(y, k)


def _smallest_finite_cochar_prime(G: Qd1Group) -> int:
    # G is not the integers (that ring is AI), so some value is finite
    chi = G.cochar
    if chi.default == INF:
        return min(p for p, v in chi.exception_items() if v != INF)
    return next(p for p in count(2) if chi.value(p) != INF and is_prime(p))


def non_absolute_ideal_witness(mult: Multiplication) -> NonAbsoluteWitness:
    """For a ring that is not an AI-ring, a verified ideal that is not absolute.

    Chooses the smallest usable prime and the minimal support containing the
    basis square, zeroes the basis there, and exhibits its p-th fraction as an
    element of the matching absolute ideal outside the cyclic principal ideal.
    All three defining facts are checked before the witness is returned.
    """
    if is_ai_ring(mult):
        raise RingIsAIError("every ideal of this ring is an absolute ideal")
    G = mult.group
    m = mult.m_elt
    if G.is_reduced:
        part = set(m._overrides)
        if not part:
            part = {_smallest_finite_cochar_prime(G)}
        p = min(part)
        ov = {q: 0 for q in part if G._slot(q)}
        e0 = G.elem(1, ov)
        violator = G.elem(Fraction(1, p), ov)
    else:
        e0 = G.elem_qb(1, 0)
        p = 2
        violator = G.elem_qb(Fraction(1, 2), 0)

    cyclic = plus_cyclic(torsion_inv(G, Characteristic(INF)), e0)
    inputs = {"cochar": G.cochar, "m": m, "p": p}
    if not equals(principal_ideal(mult, e0), cyclic):
        raise InvariantError("witness ideal is not the cyclic group of e0", **inputs)
    if not contains(full_inv(G, char_of(e0)), violator):
        raise InvariantError("violator left the absolute ideal of e0", **inputs)
    if contains(cyclic, violator):
        raise InvariantError("violator is a multiple of e0", **inputs)
    return NonAbsoluteWitness(e0, p, violator)
