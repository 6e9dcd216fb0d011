"""Deliberately broken variants proving the checkers can detect real bugs.

Each mutant models one defect class the verification layer exists to catch:
a descriptor whose height floor was silently lowered, a product rule that
forgets the defining element, and a witness path that skips the final
recomputation together with the off-by-one slip that recomputation would
have caught.  Feeding these to the oracle checks must produce failures;
the sensitivity test asserts exactly that.
"""

from __future__ import annotations

from .foundations import INF, Characteristic
from .group import GroupElement
from .ring import Multiplication, PrincipalWitness, certify_member, multiply
from .subgroup import DescriptorKind, SubgroupDescriptor, full_inv, plus_cyclic, torsion_inv

__all__ = ["certifier_skipping_verification", "lowered_eta", "product_dropping_m"]


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


def certifier_skipping_verification(mult: Multiplication, g: GroupElement, b: GroupElement):
    """Witness path with the final recomputation removed and the slip it guarded against."""
    witness = certify_member(mult, g, b)
    if witness is None:
        return None
    return PrincipalWitness(witness.y, witness.k + 1)
