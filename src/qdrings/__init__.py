"""Rank-1 quotient divisible abelian groups, their rings, and exact verification tools."""

from .errors import (
    FactorizationBudgetError,
    GroupMismatchError,
    InvalidDenominatorError,
    InvariantError,
    NotAMemberError,
    ParseError,
    RingIsAIError,
    UnsupportedCaseError,
)
from .foundations import (
    INF,
    MAX_EXPONENT,
    MAX_HEIGHT,
    Characteristic,
    ExtNat,
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
    vp,
)
from .group import (
    Decomposition,
    GroupElement,
    Qd1Group,
    add,
    build_group,
    c_of,
    char_of,
    decompose,
    height,
    is_integers,
    is_torsion,
    neg,
    order,
    zmul,
)
from .oracle import (
    CheckReport,
    TrialConfig,
    exact_divide,
    height_oracle,
    ideal_two_way_check,
    ring_axiom_check,
)
from .ring import (
    Multiplication,
    NonAbsoluteWitness,
    PrincipalWitness,
    certify_member,
    is_ai_ring,
    is_fi_ring,
    make_mult,
    multiply,
    non_absolute_ideal_witness,
    principal_absolute_ideal,
    principal_ideal,
    solve_in_principal,
    torsion_witness,
)
from .subgroup import (
    DescriptorKind,
    SubgroupDescriptor,
    contains,
    descriptor_str,
    equals,
    full_inv,
    parse_descriptor,
    plus_cyclic,
    torsion_inv,
)
from .suites import SUITE_NAMES, run_suite

__version__ = "0.1.0"
