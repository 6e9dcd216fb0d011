"""Tests for ring structures, principal ideals, and constructive witnesses."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qdrings.errors import (
    GroupMismatchError,
    NotAMemberError,
    RingIsAIError,
    UnsupportedCaseError,
)
from qdrings.foundations import INF, Characteristic
from qdrings.group import add, build_group, char_of, is_torsion, order, zmul
from qdrings.oracle import TrialConfig, random_element, random_group
from qdrings.ring import (
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
GC = build_group(Characteristic(0, {2: 2, 3: 1, 5: INF}))
GZ = build_group(Characteristic(INF))
CFG = TrialConfig(seed=616161)

E = GA.elem(1)
E2 = GA.elem(0, {2: 1})
UNITAL = make_mult(GA, E)
TRIVIAL = make_mult(GA, GA.zero())
TORSION_RING = make_mult(GA, E2)


# -- products ------------------------------------------------------------------

def test_multiply_identity_and_trivial():
    for g in (E, E2, GA.elem(Fraction(5, 2), {2: 3}), zmul(-7, E)):
        assert multiply(UNITAL, E, g) == g
        assert multiply(TRIVIAL, g, E) == GA.zero()
    assert multiply(UNITAL, E, E) == UNITAL.m_elt
    rng = random.Random(9)
    for _ in range(50):
        G = random_group(rng, CFG)
        unit = make_mult(G, G.basis_element())
        g = random_element(G, rng, CFG, torsion=rng.random() < 0.4)
        assert multiply(unit, G.basis_element(), g) == g


def test_multiply_with_torsion_square():
    assert multiply(TORSION_RING, E, E) == E2
    assert multiply(TORSION_RING, E2, E2) == E2  # 1*1*1 modulo 4
    assert is_torsion(multiply(TORSION_RING, zmul(5, E), GA.elem(Fraction(1, 2), {2: 0})))


# a group with the shape of GA but another cocharacteristic, and a second object equal to GA
FOREIGN = build_group(Characteristic(0, {2: 2, 3: INF, 5: 1}))
TWIN = build_group(CHI_A)


def _rebuilt(G, value):
    """The element or descriptor with the same text in the group G."""
    return parse_descriptor(str(value), G) if isinstance(value, SubgroupDescriptor) else G.parse_elem(str(value))


@pytest.mark.parametrize(
    "fn, args, checked",
    [
        (make_mult, (GA, E), (1,)),
        (principal_ideal, (UNITAL, zmul(2, E)), (1,)),
        (torsion_witness, (E2, zmul(2, E2)), (1,)),
        (solve_in_principal, (UNITAL, zmul(2, E), zmul(6, E)), (1, 2)),
        (certify_member, (TORSION_RING, zmul(2, E), zmul(6, E)), (1, 2)),
        (contains, (principal_ideal(UNITAL, zmul(2, E)), zmul(6, E)), (1,)),
        (equals, (principal_ideal(UNITAL, zmul(2, E)), principal_ideal(UNITAL, zmul(2, E))), (1,)),
        (plus_cyclic, (torsion_inv(GA, Characteristic(0)), zmul(2, E)), (1,)),
    ],
)
def test_a_foreign_argument_is_refused_and_an_equal_group_object_accepted(fn, args, checked):
    expected = fn(*args)
    for i in checked:
        with pytest.raises(GroupMismatchError):
            fn(*args[:i], _rebuilt(FOREIGN, args[i]), *args[i + 1 :])
        assert fn(*args[:i], _rebuilt(TWIN, args[i]), *args[i + 1 :]) == expected


def test_multiply_nonreduced_acts_summandwise():
    mult = make_mult(GB, GB.elem_qb(Fraction(2), 1))
    x = GB.elem_qb(Fraction(1, 3), 1)
    y = GB.elem_qb(Fraction(5), 1)
    assert multiply(mult, x, y) == GB.elem_qb(Fraction(10, 3), 1)
    # a foreign factor is refused on either side
    with pytest.raises(GroupMismatchError):
        multiply(mult, x, E)
    with pytest.raises(GroupMismatchError):
        multiply(mult, E, x)


def test_ring_laws_on_random_instances():
    rng = random.Random(10)
    for _ in range(40):
        G = random_group(rng, CFG)
        mult = make_mult(G, random_element(G, rng, CFG, torsion=rng.random() < 0.4))
        x = random_element(G, rng, CFG)
        y = random_element(G, rng, CFG, torsion=rng.random() < 0.3)
        z = random_element(G, rng, CFG)
        assert multiply(mult, x, y) == multiply(mult, y, x)
        assert multiply(mult, multiply(mult, x, y), z) == multiply(mult, x, multiply(mult, y, z))
        assert multiply(mult, add(x, y), z) == add(multiply(mult, x, z), multiply(mult, y, z))


# -- principal ideals ------------------------------------------------------------

def test_principal_ideal_torsion_generator():
    d = principal_ideal(UNITAL, E2)
    assert d.kind is DescriptorKind.TORSION
    assert equals(d, torsion_inv(GA, char_of(E2)))
    # the same descriptor under every multiplication
    assert equals(principal_ideal(TRIVIAL, E2), d)
    assert equals(principal_ideal(TORSION_RING, E2), d)


def test_principal_ideal_case_two():
    d = principal_ideal(UNITAL, zmul(2, E))
    assert d.kind is DescriptorKind.FULL
    assert d.eta == Characteristic(INF, {2: 1, 3: 0})


def test_principal_ideal_zero_multiplication_is_the_cyclic_line():
    g = zmul(3, E)
    d = principal_ideal(TRIVIAL, g)
    assert d.kind is DescriptorKind.SUM
    assert equals(d, plus_cyclic(torsion_inv(GA, Characteristic(INF)), g))
    assert contains(d, zmul(-6, E)) and not contains(d, E)


def test_principal_ideal_torsion_square_case():
    g = zmul(2, E)
    d = principal_ideal(TORSION_RING, g)
    assert d.kind is DescriptorKind.SUM
    ge = multiply(TORSION_RING, g, E)
    assert ge == zmul(2, E2)
    assert contains(d, add(g, ge)) and contains(d, zmul(3, g))
    assert not contains(d, E2)  # its height at 2 is 0 < 1


# -- principal absolute ideals -----------------------------------------------

def test_principal_absolute_ideal_examples():
    d = principal_absolute_ideal(E)
    assert d.kind is DescriptorKind.FULL and d.eta == Characteristic(INF, {2: 0, 3: 0})
    rng = random.Random(11)
    for _ in range(30):
        assert contains(d, random_element(GA, rng, CFG, torsion=rng.random() < 0.4))

    dt = principal_absolute_ideal(zmul(2, E2))
    assert equals(dt, torsion_inv(GA, char_of(zmul(2, E2))))

    db = principal_absolute_ideal(GB.elem_qb(1, 0))
    assert contains(db, GB.elem_qb(Fraction(9, 7), 0))
    assert not contains(db, GB.elem_qb(1, 1))


@pytest.mark.parametrize("reduced", [True, False])
def test_principal_absolute_ideal_is_memoised_per_element(reduced):
    rng = random.Random(1212)
    for _ in range(40):
        G = random_group(rng, CFG, reduced=reduced)
        g = random_element(G, rng, CFG, torsion=rng.random() < 0.4)
        before = hash(g)
        pai = principal_absolute_ideal(g)
        assert principal_absolute_ideal(g) is pai
        fresh = (torsion_inv if is_torsion(g) else full_inv)(G, char_of(g))
        assert equals(pai, fresh) and str(pai) == str(fresh)
        # the memo is invisible to equality, hashing and printing
        parsed = G.parse_elem(str(g))
        assert parsed == g and hash(parsed) == hash(g) == before and str(parsed) == str(g)
        assert principal_absolute_ideal(parsed) is not pai
        assert equals(principal_absolute_ideal(parsed), pai)


# every group kind, by the default of its cocharacteristic: a nonreduced group has default 0
@pytest.mark.parametrize("reduced, default", [(False, 0), (True, 0), (True, 3), (True, INF)])
def test_principal_absolute_ideal_is_its_generators_heights_with_nothing_to_normalize(reduced, default):
    # principal_absolute_ideal takes char_of(g) as the floor; full_inv and torsion_inv must find
    # nothing to cap in it, and a non-torsion g must give a floor that does not collapse to torsion
    rng = random.Random(3030)
    for _ in range(60):
        G = random_group(rng, CFG, reduced=reduced, force_default=default)
        assert G.cochar.default == default and G.is_reduced is reduced
        for torsion, kind in ((False, DescriptorKind.FULL), (True, DescriptorKind.TORSION)):
            g = random_element(G, rng, CFG, torsion=torsion)
            pai = principal_absolute_ideal(g)
            normalized = (torsion_inv if torsion else full_inv)(G, char_of(g))
            assert pai.kind is normalized.kind is kind
            assert pai.eta == normalized.eta and pai.generator is None


def test_principal_ideal_of_a_torsion_square_is_the_absolute_ideal_of_g_times_e_plus_g():
    rng = random.Random(3131)
    for _ in range(60):
        G = random_group(rng, CFG, with_torsion=True)
        mult = make_mult(G, random_element(G, rng, CFG, torsion=True))
        g = random_element(G, rng, CFG)
        if is_torsion(g):
            continue
        d = principal_ideal(mult, g)
        assert d.kind is DescriptorKind.SUM
        assert str(d) == str(plus_cyclic(torsion_inv(G, char_of(multiply(mult, g, G.basis_element()))), g))


# -- membership witnesses --------------------------------------------------------

def test_solve_in_principal_trivial_and_derived_examples():
    g = zmul(2, E)
    w = solve_in_principal(UNITAL, g, g)
    assert (w.y, w.k) == (GA.zero(), 1)

    b = add(zmul(2, E), zmul(2, E2))
    w = solve_in_principal(UNITAL, g, b)
    assert add(multiply(UNITAL, g, w.y), zmul(w.k, g)) == b

    assert solve_in_principal(UNITAL, g, E) is None  # height at 2 too small

    with pytest.raises(UnsupportedCaseError):
        solve_in_principal(UNITAL, E2, E2)
    with pytest.raises(UnsupportedCaseError):
        solve_in_principal(TORSION_RING, g, g)


def test_solve_in_principal_random_sweep():
    rng = random.Random(12)
    for _ in range(150):
        G = random_group(rng, CFG)
        mult = make_mult(G, random_element(G, rng, CFG))
        g = random_element(G, rng, CFG)
        x = random_element(G, rng, CFG, torsion=rng.random() < 0.4)
        b = add(multiply(mult, g, x), zmul(rng.randint(-9, 9), g))
        w = solve_in_principal(mult, g, b)
        assert w is not None
        assert add(multiply(mult, g, w.y), zmul(w.k, g)) == b


def test_membership_iff_witness_in_case_two():
    rng = random.Random(15)
    for _ in range(200):
        G = random_group(rng, CFG)
        mult = make_mult(G, random_element(G, rng, CFG))
        g = random_element(G, rng, CFG)
        d = principal_ideal(mult, g)
        b = random_element(G, rng, CFG, torsion=rng.random() < 0.4)
        assert contains(d, b) == (solve_in_principal(mult, g, b) is not None)


def test_torsion_witness_examples():
    g = GC.elem(0, {2: 2, 3: 1})
    assert torsion_witness(g, GC.elem(0, {2: 2})) == 3
    assert torsion_witness(g, GC.elem(0, {3: 1})) == 4
    assert torsion_witness(g, GC.zero()) == order(g) == 6
    with pytest.raises(NotAMemberError):
        torsion_witness(zmul(2, E2), E2)  # height at 2 drops below the floor
    with pytest.raises(UnsupportedCaseError):
        torsion_witness(E, E2)
    with pytest.raises(NotAMemberError):
        torsion_witness(E2, E)  # a non-torsion element is no multiple of a torsion one


def test_torsion_witness_nonreduced():
    G = build_group(Characteristic(0, {2: 2, 3: 1}))
    g = G.elem_qb(0, 5)
    u = G.elem_qb(0, 10)
    n = torsion_witness(g, u)
    assert zmul(n, g) == u


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**64), st.booleans(), st.integers(-60, 60))
def test_torsion_witness_decides_membership_like_the_torsion_descriptor(seed, multiple, k):
    rng = random.Random(seed)
    G = random_group(rng, CFG, with_torsion=True)
    g = random_element(G, rng, CFG, torsion=True)
    u = zmul(k, g) if multiple else random_element(G, rng, CFG, torsion=True)
    if not contains(torsion_inv(G, char_of(g)), u):
        with pytest.raises(NotAMemberError):
            torsion_witness(g, u)
        return
    n = torsion_witness(g, u)
    assert zmul(n, g) == u
    # the canonical witness: reduced modulo the order of g, with 0 given as the order itself
    assert 1 <= n <= order(g)
    assert (n == order(g)) == (u == G.zero())


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**64))
def test_a_warm_torsion_witness_plan_is_transparent(seed):
    # the first call fills g._tw; members, non-members and a zero u then get what a fresh
    # element gets, every later call keeps the memo object, and g compares and prints as before
    rng = random.Random(seed)
    G = random_group(rng, CFG, with_torsion=True)
    g = random_element(G, rng, CFG, torsion=True)
    torsion_witness(g, G.zero())
    plan = g._tw
    assert plan is not None
    us = [G.zero(), zmul(rng.randint(-60, 60), g), random_element(G, rng, CFG)]
    us += [random_element(G, rng, CFG, torsion=True) for _ in range(3)]
    for u in us:
        fresh = G.elem(0, g.overrides)
        assert fresh._tw is None
        answers = []
        for base in (fresh, g):
            try:
                answers.append(torsion_witness(base, u))
            except NotAMemberError:
                answers.append(None)
        assert answers[0] == answers[1]
        assert g._tw is plan and fresh._tw in (None, plan)  # None when u was rejected before the plan
    assert g == fresh and hash(g) == hash(fresh) and str(g) == str(fresh) and repr(g) == repr(fresh)


def test_certify_member_covers_all_cases():
    rng = random.Random(13)
    for mult, g in [
        (UNITAL, zmul(2, E)),
        (UNITAL, E2),
        (TORSION_RING, zmul(2, E)),
        (TRIVIAL, zmul(3, E)),
        (make_mult(GB, GB.elem_qb(0, 1)), GB.elem_qb(2, 1)),
    ]:
        G = mult.group
        for _ in range(25):
            x = random_element(G, rng, CFG, torsion=rng.random() < 0.4)
            b = add(multiply(mult, g, x), zmul(rng.randint(-6, 6), g))
            w = certify_member(mult, g, b)
            assert w is not None
            assert add(multiply(mult, g, w.y), zmul(w.k, g)) == b


def test_certify_member_rejects_non_members():
    assert certify_member(TORSION_RING, zmul(2, E), E) is None
    assert certify_member(UNITAL, E2, E) is None
    assert certify_member(TRIVIAL, zmul(3, E), E) is None


def _foreign(G):
    """A group that is not G, in which the text of any element drawn under CFG parses."""
    chi = G.cochar
    return build_group(Characteristic(chi.default, {**dict(chi.exception_items()), 43: 2 if chi.default == 1 else 1}))


@pytest.mark.parametrize("torsion_square", [False, True])
def test_a_warm_witness_memo_is_transparent(torsion_square):
    # one long-lived ring per group, generators interleaved at random (a torsion one, which
    # reads no memo, and two non-torsion ones), members of varying support and non-members:
    # every answer is the answer of a fresh ring, and a foreign argument is still refused
    rng = random.Random(31 + torsion_square)
    seen = set()  # regimes run, and how each memo-reading call found the memo
    for _ in range(30):
        G = random_group(rng, CFG, with_torsion=True)
        m = random_element(G, rng, CFG, torsion=torsion_square)
        mult = make_mult(G, m)
        gens = [random_element(G, rng, CFG, torsion=True)]
        gens += [random_element(G, rng, CFG) for _ in range(2)]
        other = _foreign(G)
        for _ in range(24):
            i = rng.randrange(3)
            g = gens[i]
            x = random_element(G, rng, CFG, torsion=rng.random() < 0.4)
            b = add(multiply(mult, g, x), zmul(rng.randint(-6, 6), g)) if rng.random() < 0.7 else x
            before = mult._memo
            w = certify_member(mult, g, b)
            assert w == certify_member(make_mult(G, m), g, b)
            if w is not None:
                assert add(multiply(mult, g, w.y), zmul(w.k, g)) == b
            seen.add("torsion generator" if i == 0 else "torsion square" if torsion_square else "full")
            if i and (torsion_square or w is not None):  # a non-member of G(char g) stops before it
                memo = mult._memo
                assert memo[0] is g  # the memo now holds this generator
                if before is None or before[0] is not g:
                    seen.add("other generator")
                elif memo is before:
                    seen.add("hit")
                else:  # worked out again: only a new support may miss
                    assert not torsion_square and before[3] != memo[3]
                    seen.add("other support")
            for args in ((other.parse_elem(str(g)), b), (g, other.parse_elem(str(b)))):
                with pytest.raises(GroupMismatchError):
                    certify_member(mult, *args)
    if torsion_square:  # this memo has no support: g x e depends on g alone
        assert seen == {"torsion generator", "torsion square", "other generator", "hit"}
    else:
        assert seen == {"torsion generator", "full", "other generator", "hit", "other support"}


# -- classification ----------------------------------------------------------------

def test_classification_examples():
    assert is_ai_ring(UNITAL) and is_fi_ring(UNITAL)
    assert not is_ai_ring(TORSION_RING) and not is_fi_ring(TORSION_RING)
    assert not is_ai_ring(TRIVIAL)
    for m in (GZ.zero(), GZ.elem(5), GZ.elem(-3)):
        assert is_ai_ring(make_mult(GZ, m))


def test_mult_round_trip():
    rng = random.Random(14)
    for _ in range(100):
        G = random_group(rng, CFG)
        m = random_element(G, rng, CFG, torsion=rng.random() < 0.5)
        assert make_mult(G, m).m_elt == m
    # torsion defining elements are closed under addition
    t1, t2 = E2, zmul(3, E2)
    assert not is_ai_ring(make_mult(GA, add(t1, t2)))


def test_multiplication_equality():
    same = make_mult(GA, GA.parse_elem("r=1"))
    assert UNITAL == same and hash(UNITAL) == hash(same)
    assert UNITAL != TORSION_RING
    assert make_mult(GA, GA.zero()) != make_mult(GC, GC.zero())
    warm = make_mult(GA, GA.zero())  # the witness memo takes no part in equality or hashing
    certify_member(warm, zmul(3, E), zmul(6, E))
    assert warm._memo is not None
    assert warm == make_mult(GA, GA.zero()) and hash(warm) == hash(make_mult(GA, GA.zero()))


def test_non_absolute_ideal_witness_examples():
    w = non_absolute_ideal_witness(TORSION_RING)
    assert w.e0 == GA.elem(1, {2: 0})
    assert w.p == 2
    assert w.violator == GA.elem(Fraction(1, 2), {2: 0})
    cyclic = plus_cyclic(torsion_inv(GA, Characteristic(INF)), w.e0)
    assert equals(principal_ideal(TORSION_RING, w.e0), cyclic)
    assert contains(full_inv(GA, char_of(w.e0)), w.violator)
    assert not contains(cyclic, w.violator)

    mult_b = make_mult(GB, GB.elem_qb(0, 1))
    wb = non_absolute_ideal_witness(mult_b)
    assert wb.e0 == GB.elem_qb(1, 0) and wb.p == 2 and wb.violator == GB.elem_qb(Fraction(1, 2), 0)

    with pytest.raises(RingIsAIError):
        non_absolute_ideal_witness(UNITAL)
    with pytest.raises(RingIsAIError):
        non_absolute_ideal_witness(make_mult(GZ, GZ.zero()))


def test_non_absolute_ideal_witness_with_zero_square():
    # no torsion support to contain: the smallest finite-slot prime is used
    w = non_absolute_ideal_witness(TRIVIAL)
    assert w.p == 2 and w.e0 == GA.elem(1, {2: 0})
    # a group whose only finite cocharacteristic values sit at dead primes
    G = build_group(Characteristic(INF, {5: 0}))
    w5 = non_absolute_ideal_witness(make_mult(G, G.zero()))
    assert w5.p == 5 and w5.e0 == G.elem(1)
    assert w5.violator == G.elem(Fraction(1, 5))
    # the scan up from 2 skips the infinite primes 2 and 3 and the composite 4
    G = build_group(Characteristic(1, {2: INF, 3: INF}))
    w = non_absolute_ideal_witness(make_mult(G, G.zero()))
    assert w.p == 5 and w.e0 == G.elem(1, {5: 0})


def test_the_rational_group_runs_through_every_path():
    # zero type with trivial torsion: the group is Q itself
    GQ = build_group(Characteristic(0))
    assert GQ.modulus == 1
    x = GQ.elem_qb(Fraction(3, 7), 0)
    assert char_of(x) == Characteristic(INF) and order(x) == INF
    e = GQ.elem(1)
    unital = make_mult(GQ, e)
    assert multiply(unital, e, e) == e
    assert equals(principal_ideal(unital, x), principal_absolute_ideal(x))
    w = solve_in_principal(unital, x, GQ.elem_qb(Fraction(-5, 11), 0))
    assert add(multiply(unital, x, w.y), zmul(w.k, x)) == GQ.elem_qb(Fraction(-5, 11), 0)
    zero_ring = make_mult(GQ, GQ.zero())
    assert not is_ai_ring(zero_ring)
    nw = non_absolute_ideal_witness(zero_ring)
    assert nw.p == 2 and nw.violator == GQ.elem_qb(Fraction(1, 2), 0)
    line = principal_ideal(zero_ring, x)
    assert contains(line, zmul(4, x)) and not contains(line, GQ.elem_qb(Fraction(3, 14), 0))


def test_witness_serializations():
    w = solve_in_principal(UNITAL, zmul(2, E), zmul(2, E))
    assert str(w) == "y=r=0;k=1"
    nw = non_absolute_ideal_witness(TORSION_RING)
    assert str(nw) == "e0=r=1;2:0;p=2;x=r=1/2;2:0"
