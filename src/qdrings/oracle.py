"""Independent brute-force checkers certifying the closed-form code paths.

The checkers here never call the closed forms they are judging: the height
oracle decides divisibility by solving one congruence per coordinate, and the
ideal checks accept nothing without a witness identity that is recomputed
from raw element arithmetic.  Everything is a deterministic function of the
configured seed and the check inputs.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from .errors import InvalidDenominatorError, InvariantError
from .foundations import (
    INF,
    MAX_EXPONENT,
    Characteristic,
    ExtNat,
    is_prime,
    is_zero_type,
    mod_inverse,
    primes_up_to,
)
from .group import (
    GroupElement,
    Qd1Group,
    _build,
    _check_denominator,
    _residue,
    add,
    build_group,
    canonical_elem_str,
    zmul,
)
from .ring import Multiplication, certify_member, make_mult, multiply
from .subgroup import (
    DescriptorKind,
    SubgroupDescriptor,
    _normalize_torsion_eta,
    contains,
    descriptor_str,
)

__all__ = [
    "CheckReport",
    "MAX_PRIME_BOUND",
    "MAX_SAMPLES",
    "MAX_TRIALS",
    "TrialConfig",
    "exact_divide",
    "height_oracle",
    "heights_agree",
    "ideal_two_way_check",
    "random_characteristic",
    "random_element",
    "random_group",
    "ring_axiom_check",
    "sample_member",
]

_MAX_ORACLE_BOUND = 12
# largest accepted TrialConfig.max_prime; the sieve allocates one byte per integer
MAX_PRIME_BOUND = 1000
# largest accepted TrialConfig.trials and samples_per_instance, so that every sweep is bounded
MAX_TRIALS = 1000
MAX_SAMPLES = 1000
_NONZERO_NUMERATORS = tuple(n for n in range(-40, 41) if n)
_RHO_MAGNITUDES = tuple(range(1, 30))


@dataclass(frozen=True)
class TrialConfig:
    """Bounds and seeding for randomized sweeps."""

    seed: int
    trials: int = 100
    max_prime: int = 13
    max_exp: int = 4
    samples_per_instance: int = 20
    primes: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.trials < 1 or self.max_exp < 1 or self.samples_per_instance < 1:
            raise ValueError("trials, max_exp and samples_per_instance must be positive")
        if self.max_prime < 5:
            raise ValueError("max_prime must be at least 5 so divisible and finite primes coexist")
        if self.max_prime > MAX_PRIME_BOUND:
            raise ValueError(f"max_prime must be at most {MAX_PRIME_BOUND}")
        if self.max_exp > MAX_EXPONENT:
            raise ValueError(f"max_exp must be at most {MAX_EXPONENT}")
        if self.trials > MAX_TRIALS:
            raise ValueError(f"trials must be at most {MAX_TRIALS}")
        if self.samples_per_instance > MAX_SAMPLES:
            raise ValueError(f"samples_per_instance must be at most {MAX_SAMPLES}")
        # sieved once per sweep; every generator draws from these primes
        object.__setattr__(self, "primes", tuple(primes_up_to(self.max_prime)))

    def rng(self, *path) -> random.Random:
        """An independent stream derived from the seed and a stable label path."""
        label = ":".join([str(self.seed), *map(str, path)])
        digest = hashlib.sha256(label.encode()).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))


@dataclass
class CheckReport:
    """Line-oriented outcome of one named check."""

    name: str
    trials: int = 0
    failures: list[str] = field(default_factory=list)
    fail_index: int | None = None

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, index: int, detail: str) -> None:
        if self.fail_index is None:
            self.fail_index = index
        self.failures.append(detail)

    def line(self) -> str:
        if self.passed:
            return f"PASS {self.name} trials={self.trials}"
        return (
            f"FAIL {self.name} trials={self.trials} fail_at={self.fail_index} "
            f"detail={self.failures[0]}"
        )

    def to_dict(self) -> dict:
        return {
            "check": self.name,
            "passed": self.passed,
            "trials": self.trials,
            "fail_at": self.fail_index,
            "failures": self.failures[:5],
        }


# ---------------------------------------------------------------------------
# heights by iterated division


def exact_divide(g: GroupElement, p: int) -> GroupElement | None:
    """Solve p*y = g coordinate by coordinate; None when no solution exists.

    The rational coefficient divides exactly; at primes other than p the
    coordinate congruence is solved with an inverse, and at p itself the
    residue must shed one factor of p.  The candidate is revalidated and the
    product is recomputed before it is returned.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    G = g.group
    keys = set(g.overrides)
    if G._slot(p):
        keys.add(p)
    ov = {}
    for q in keys:
        modulus = G._slot(q)
        a = _residue(g, q, modulus)
        if q != p:
            ov[q] = a * mod_inverse(p % modulus, modulus) % modulus
        elif a == 0:
            ov[q] = 0
        elif a % p == 0:
            ov[q] = a // p
        else:
            return None
    try:
        y = G.elem(g.rational / p, ov)
    except InvalidDenominatorError:
        return None
    if zmul(p, y) != g:
        raise InvariantError("division candidate failed recomputation", cochar=G.cochar, g=g, p=p)
    return y


def height_oracle(g: GroupElement, p: int, bound: int) -> int:
    """min(height, bound) by repeatedly dividing by p; bound is capped at 12."""
    if not 0 <= bound <= _MAX_ORACLE_BOUND:
        raise ValueError(f"bound must lie in [0, {_MAX_ORACLE_BOUND}]")
    k = 0
    x = g
    while k < bound:
        y = exact_divide(x, p)
        if y is None:
            break
        x = y
        k += 1
    return k


def heights_agree(closed: ExtNat, oracle_value: int, bound: int) -> bool:
    """Agreement of an exact height with a bound-capped oracle measurement."""
    if closed >= bound:
        return oracle_value == bound
    return closed == oracle_value


# ---------------------------------------------------------------------------
# seeded generators
#
# The generators call two methods of random.Random only: random() for every
# coin and getrandbits() for every integer, drawn through _below.  Python
# promises the random() sequence of a seed across versions, and getrandbits is
# the primitive that randrange, randint and choice are built on, so no draw
# depends on how a version implements those.


def _below(getrandbits, n: int) -> int:
    """A uniform int in [0, n) for n >= 1, redrawing n.bit_length() bits until one lands below n.

    This is the loop CPython's ``random.Random`` uses for ``randrange``,
    ``randint`` and ``choice``, so ``_below(gb, n)``, ``a + _below(gb, b - a +
    1)`` and ``s[_below(gb, len(s))]`` draw what ``randrange(n)``,
    ``randint(a, b)`` and ``choice(s)`` draw on CPython 3.10-3.13.  An empty
    range, n = 0, raises ValueError as those do; it is tested only on a
    redraw, which n = 0 always reaches, so a draw that lands pays nothing.
    """
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        if n < 1:
            raise ValueError("empty range for _below")
        r = getrandbits(k)
    return r


def random_characteristic(rng: random.Random, cfg: TrialConfig, *, force_default=None) -> Characteristic:
    gb, max_exp = rng.getrandbits, cfg.max_exp
    if force_default is None:
        finite = 1 + _below(gb, max_exp)  # drawn before the pick, whichever value is picked
        default = (0, finite, INF)[_below(gb, 3)]
    else:
        default = force_default
    exceptions = {}
    for p in cfg.primes:
        if rng.random() < 0.5:
            finite = 1 + _below(gb, max_exp)
            exceptions[p] = (0, finite, INF)[_below(gb, 3)]
    return Characteristic(default, exceptions)


def random_group(
    rng: random.Random,
    cfg: TrialConfig,
    *,
    reduced: bool | None = None,
    with_torsion: bool = False,
    force_default=None,
) -> Qd1Group:
    """A random group, optionally constrained to a kind or to visible torsion."""
    for _ in range(200):
        chi = random_characteristic(rng, cfg, force_default=force_default)
        if reduced is not None and is_zero_type(chi) == reduced:
            continue
        G = build_group(chi)
        if with_torsion and not _draw_primes(G, cfg)[0]:
            continue
        return G
    fallback = Characteristic(0 if reduced is False else INF, {2: 2, 3: 1})
    return build_group(fallback)


def _draw_primes(G: Qd1Group, cfg: TrialConfig) -> tuple[tuple[int, ...], ...]:
    """The primes random_element draws at: slots, zero-value and inf-value primes.

    The slots are the sorted primes of cfg.primes and of the cocharacteristic's
    exceptions that carry a torsion coordinate; the other two are read from
    cfg.primes.  Memoised on G for the last prime list asked for, found by
    identity: a tuple does not keep its hash, and a group is drawn from under
    one list throughout, so a repeat call hashes nothing.  Another list
    recomputes and replaces the memo.
    """
    primes = cfg.primes
    last = G._draw_primes
    if last is not None and last[0] is primes:
        return last[1]
    chi = G._cochar
    found = (
        tuple(p for p in sorted(set(primes) | set(chi.exception_primes)) if G._slot(p)),
        tuple(p for p in primes if chi.value(p) == 0),
        tuple(p for p in primes if chi.value(p) == INF),
    )
    G._draw_primes = primes, found  # holds the list, so no other tuple can be the one tested
    return found


def random_element(
    G: Qd1Group, rng: random.Random, cfg: TrialConfig, *, torsion: bool = False
) -> GroupElement:
    """A random element, or a random torsion element when torsion is set.

    The element is built from ints with ``_build``, skipping the checks of
    ``G.elem``, which hold by construction: every key is a slot prime of
    ``_draw_primes``, so it comes from the sieved ``cfg.primes`` or is an
    exception prime that ``Characteristic`` has checked, and every residue is
    drawn below its slot.  A torsion result has denominator 1; any other
    result goes through ``_check_denominator``.
    """
    slots, zero_primes, inf_primes = _draw_primes(G, cfg)
    rand, gb = rng.random, rng.getrandbits
    ov = {}
    den = 1
    for p in slots:
        if rand() < 0.45:
            ov[p] = _below(gb, G._slots[p])  # _draw_primes has filled the slot
            if not torsion and rand() < 0.3:
                den *= p
    if torsion:
        return _build(G, 0, 1, ov)
    for p in zero_primes:
        if rand() < 0.25:
            den *= p
    num = _NONZERO_NUMERATORS[_below(gb, len(_NONZERO_NUMERATORS))]
    for p in inf_primes:
        if rand() < 0.3:
            num *= p ** (1 + _below(gb, cfg.max_exp))
    return _check_denominator(_build(G, num, den, ov))


def random_nonzero_torsion(G: Qd1Group, rng: random.Random, cfg: TrialConfig) -> GroupElement:
    """A torsion element that is not zero; the group must have a usable torsion slot."""
    slots = _draw_primes(G, cfg)[0]
    if not slots:
        raise ValueError("group has no torsion slot below the prime bound")
    for _ in range(100):
        g = random_element(G, rng, cfg, torsion=True)
        if g != G.zero():
            return g
    p = slots[0]
    return G.elem(0, {p: 1})


def sample_member(d: SubgroupDescriptor, rng: random.Random, cfg: TrialConfig) -> GroupElement:
    """A member of the described subgroup, generated from the floor rather than by rejection.

    What the draws need besides the rng depends only on d and on the prime
    list ``cfg.primes``, so it is worked out once and memoised in ``d._plan``
    with the list it was made for: the torsion plan of the floor (of its
    normalised torsion floor for ``G(eta)``) and, for ``G(eta)``, the steps of
    ``_full_member``.  The list is found by identity, as in ``_draw_primes``,
    so a repeat call hashes nothing; another list recomputes and replaces the
    memo, and the descriptor draws as a fresh one would.
    """
    primes = cfg.primes
    last = d._plan
    if last is not None and last[0] is primes:
        plan = last[1]
    else:
        plan = _plan(d, primes)
        d._plan = primes, plan  # holds the list, so no other tuple can be the one tested
    G, kind = d._group, d._kind
    if kind is DescriptorKind.TORSION:
        return _torsion_member(G, plan, rng)
    if kind is DescriptorKind.SUM:
        k = -6 + _below(rng.getrandbits, 13)
        t = _torsion_member(G, plan, rng)
        x = add(zmul(k, d._generator), t)
    else:
        x = _full_member(G, plan, rng)
    if not contains(d, x):
        raise InvariantError(f"member generator left {descriptor_str(d)}: {x}", cochar=G._cochar)
    return x


def _plan(d: SubgroupDescriptor, primes: tuple[int, ...]) -> tuple:
    """The torsion plan of d; for ``G(eta)``, that of its torsion floor and the steps of ``_full_member``.

    The primes visited are those of ``primes`` and the exception primes of
    the cocharacteristic and of the floor, in increasing order, so every key
    is prime: it was sieved or ``Characteristic`` checked it.
    """
    G, eta = d._group, d._eta
    chi = G._cochar
    if d._kind is not DescriptorKind.FULL:
        return _torsion_plan(G, eta, primes)
    steps = []  # (p, kind, p**v, room) in the order the draws consume the rng; a "rho" step
    # reads no room and a "zero" step only its prime, so those fields are None
    for p in sorted(set(primes) | set(chi.exception_primes) | set(eta.exception_primes)):
        k, v = chi.value(p), eta.value(p)
        if k == INF:
            if 0 < v < INF:
                steps.append((p, "rho", p**v, None))
        elif k > 0:
            q = G._slot(p)  # _build reads the memoised slot of every key
            if v == INF:
                steps.append((p, "zero", None, None))
            else:
                steps.append((p, "floor" if v > 0 else "maybe", p**v, q // p**v))
    # the primes that may enter the denominator, and whether their cocharacteristic value is 0
    den_steps = tuple((p, chi.value(p) == 0) for p in primes if chi.value(p) != INF)
    return _torsion_plan(G, _normalize_torsion_eta(G, eta), primes), tuple(steps), den_steps


def _torsion_plan(G: Qd1Group, eta: Characteristic, primes: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    """(p, p**v, slot // p**v) at each prime whose slot has room above the floor value v."""
    chi = G.cochar
    plan = []
    for p in sorted(set(primes) | set(chi.exception_primes) | set(eta.exception_primes)):
        v = eta.value(p)
        if v < chi.value(p) < INF:
            plan.append((p, p**v, G._slot(p) // p**v))
    return tuple(plan)


def _torsion_member(G: Qd1Group, plan, rng) -> GroupElement:
    """A torsion element meeting the floor of a torsion plan, built with ``_build`` like ``random_element``.

    Keys are prime by construction (see ``_plan``), and ``p**v *
    _below(q // p**v)`` lies in ``[0, q)`` for the slot q of p.
    """
    rand, gb = rng.random, rng.getrandbits
    ov = {}
    for p, pv, room in plan:
        if rand() < 0.6:
            ov[p] = pv * _below(gb, room)
    return _build(G, 0, 1, ov)


def _full_member(G: Qd1Group, plan, rng) -> GroupElement:
    """An element meeting the floor eta of a ``G(eta)`` plan, built with ``_build`` like ``random_element``.

    Keys and residues are valid by construction, as in ``_torsion_member``.
    The coefficient stays two ints, rho and den, and the result goes through
    ``_check_denominator`` unless it is torsion.
    """
    torsion_plan, steps, den_steps = plan
    rand, gb = rng.random, rng.getrandbits
    if rand() < 0.2:
        # torsion members satisfy any floor they meet on the torsion slots
        return _torsion_member(G, torsion_plan, rng)
    rho = _RHO_MAGNITUDES[_below(gb, len(_RHO_MAGNITUDES))] * (1, -1)[_below(gb, 2)]
    forced: dict[int, int] = {}
    for p, kind, pv, room in steps:
        if kind == "rho":  # a divisible prime: rho takes p**v, p**v or p**(v+1)
            rho *= pv * (1, 1, p)[_below(gb, 3)]
        elif kind == "zero":  # floor inf on a slot
            forced[p] = 0
        elif kind == "floor" or rand() < 0.3:  # floor v > 0 always, floor 0 sometimes
            forced[p] = pv * _below(gb, room)
    den = 1
    for p, zero_value in den_steps:
        if zero_value:
            if rand() < 0.25:
                den *= p
        elif p in forced and rand() < 0.25:
            den *= p
    return _check_denominator(_build(G, rho, den, forced))


# ---------------------------------------------------------------------------
# two-way ideal certification


def _input_digest(*parts) -> str:
    return hashlib.sha256("|".join(map(str, parts)).encode()).hexdigest()[:12]


def ideal_two_way_check(
    mult: Multiplication,
    g: GroupElement,
    d: SubgroupDescriptor,
    cfg: TrialConfig,
    certifier=certify_member,
) -> CheckReport:
    """Sample both inclusions between the ideal of g and the descriptor d.

    Products of g land in d; members of d come back with a witness whose
    defining identity is recomputed here, independently of how the witness
    was produced.
    """
    G = mult._group
    rng = cfg.rng("ideal", _input_digest(G._cochar, mult._m, g))
    gb = rng.getrandbits
    report = CheckReport("ideal-two-way")
    for i in range(cfg.samples_per_instance):
        x = random_element(G, rng, cfg, torsion=rng.random() < 0.3)
        k = -8 + _below(gb, 17)
        b = add(multiply(mult, g, x), zmul(k, g))
        report.trials += 1
        if not contains(d, b):
            report.record(i, f"product g*{canonical_elem_str(x)}+{k}g left the descriptor")
    for i in range(cfg.samples_per_instance):
        b = sample_member(d, rng, cfg)
        report.trials += 1
        w = certifier(mult, g, b)
        if w is None:
            report.record(
                cfg.samples_per_instance + i,
                f"member {canonical_elem_str(b)} of {descriptor_str(d)} has no certificate",
            )
            continue
        if add(multiply(mult, g, w.y), zmul(w.k, g)) != b:
            report.record(
                cfg.samples_per_instance + i,
                f"witness {w} does not recompute to {canonical_elem_str(b)}",
            )
    return report


def ring_axiom_check(
    mult: Multiplication,
    cfg: TrialConfig,
    *,
    product=multiply,
) -> CheckReport:
    """Exact commutativity, associativity, bilinearity, and additivity in the defining element.

    The products x*y and y*z of each sample are computed once and reused by
    every check that compares them.
    """
    G, m = mult._group, mult._m
    rng = cfg.rng("axioms", _input_digest(G._cochar, m))
    report = CheckReport("ring-axioms")
    e = G.basis_element()
    report.trials += 1
    if product(mult, e, e) != m:
        report.record(0, "square of the basis element does not round-trip")
    for i in range(cfg.samples_per_instance):
        x = random_element(G, rng, cfg)
        y = random_element(G, rng, cfg, torsion=rng.random() < 0.25)
        z = random_element(G, rng, cfg)
        report.trials += 1
        xy = product(mult, x, y)
        yz = product(mult, y, z)
        if xy != product(mult, y, x):
            report.record(i, "commutativity failed")
            continue
        if product(mult, xy, z) != product(mult, x, yz):
            report.record(i, "associativity failed")
            continue
        if product(mult, add(x, y), z) != add(product(mult, x, z), yz):
            report.record(i, "distributivity failed")
            continue
        m2 = random_element(G, rng, cfg)
        lhs = product(make_mult(G, add(m, m2)), x, y)
        rhs = add(xy, product(make_mult(G, m2), x, y))
        if lhs != rhs:
            report.record(i, "additivity in the defining element failed")
    return report
