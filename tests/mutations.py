"""Deliberately broken variants proving the checkers can detect real bugs.

Each mutant models one defect class the verification layer exists to catch:
a descriptor whose height floor was silently lowered, a product rule that
forgets the defining element, product rules that each break exactly one ring
law while keeping the basis square, and a witness path that skips the final
recomputation together with the off-by-one slip that recomputation would
have caught.  Feeding these to the oracle checks must produce failures;
the sensitivity test asserts exactly that.
"""

from __future__ import annotations

from qdrings.foundations import INF, Characteristic
from qdrings.group import GroupElement, neg
from qdrings.ring import Multiplication, PrincipalWitness, certify_member, multiply
from qdrings.subgroup import DescriptorKind, SubgroupDescriptor, full_inv, plus_cyclic, torsion_inv

__all__ = [
    "certifier_skipping_verification",
    "lowered_eta",
    "product_dropping_m",
    "product_dropping_signs",
    "product_of_squares",
    "product_squaring_the_first",
]


def lowered_eta(d: SubgroupDescriptor) -> SubgroupDescriptor:
    """The descriptor with its height floor dropped by one at the prime 2."""
    p = 2
    v = d.eta.value(p)
    chi_p = d.group.cochar.value(p)
    if v == INF:
        new = chi_p - 1 if 0 < chi_p < INF else 0
    else:
        new = max(0, v - 1)
    exceptions = dict(d.eta.exception_items())
    exceptions[p] = new
    eta = Characteristic(d.eta.default, exceptions)
    if d.kind is DescriptorKind.FULL:
        return full_inv(d.group, eta)
    if d.kind is DescriptorKind.TORSION:
        return torsion_inv(d.group, eta)
    return plus_cyclic(torsion_inv(d.group, eta), d.generator)


def product_dropping_m(mult: Multiplication, g1: GroupElement, g2: GroupElement) -> GroupElement:
    """Coordinatewise product that forgets the defining element: the basis square taken as e."""
    return multiply(Multiplication(mult.group, mult.group.basis_element()), g1, g2)


def product_squaring_the_first(mult: Multiplication, g1: GroupElement, g2: GroupElement) -> GroupElement:
    """x∘y = x·x·m: the second factor is read as the first, so only commutativity fails."""
    return multiply(mult, g1, g1)


def product_of_squares(mult: Multiplication, g1: GroupElement, g2: GroupElement) -> GroupElement:
    """x∘y = x²·y²·m, each square taken in the ring with basis square e: commutative, not associative."""
    unital = Multiplication(mult.group, mult.group.basis_element())
    return multiply(mult, multiply(unital, g1, g1), multiply(unital, g2, g2))


def product_dropping_signs(mult: Multiplication, g1: GroupElement, g2: GroupElement) -> GroupElement:
    """x∘y = |x|·|y|·m: commutative and associative, not distributive.

    |x| is x with its sign dropped: x negated when its rational is negative.
    """
    g1, g2 = (neg(g) if g.rational < 0 else g for g in (g1, g2))
    return multiply(mult, g1, g2)


def certifier_skipping_verification(mult: Multiplication, g: GroupElement, b: GroupElement):
    """Witness path with the final recomputation removed and the slip it guarded against."""
    witness = certify_member(mult, g, b)
    if witness is None:
        return None
    return PrincipalWitness(witness.y, witness.k + 1)
