"""Seeded input generation for the three workloads.

Standard library only: nothing here imports qdrings, so every input and
every expected answer is fixed before the program under test runs.  An op
is either an argv list for the command-line front end, or descriptor text
plus element text for ``subgroup.parse_descriptor`` followed by
``contains`` or ``equals``.  Expected answers for the descriptor ops are
computed here from valuations of explicit coordinates, independently of the
library.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

VERIFY_IDEAL_SUITES = ("thm2.4", "lemma2.3", "lemma2.2", "thm3.3", "thm3.4", "mult-iso")

# Exit classes: 0 true, 1 mathematical negative, 2 usage or parse error.
OK, NEG, USAGE = 0, 1, 2


@dataclass
class Op:
    """One closed-loop request and what the benchmark accepts as its answer."""

    kind: str  # "cli", "contains" or "equals"
    args: tuple  # argv for "cli"; (cochar, descriptor, element-or-descriptor) otherwise
    expect: frozenset  # accepted exit classes
    family: str  # label used to group latency and to pick the output check
    check: dict = field(default_factory=dict)  # data for the output check


def stream(seed: int, *label) -> random.Random:
    """An independent random stream for a seed and a label path."""
    text = ":".join(["perfbench", str(seed), *map(str, label)])
    return random.Random(int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big"))


# ---------------------------------------------------------------------------
# number theory kept apart from the library under test

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases; exact below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: random.Random, digits: int) -> int:
    while True:
        n = rng.randrange(10 ** (digits - 1), 10**digits) | 1
        if is_probable_prime(n):
            return n


def vp(n: int, p: int) -> int:
    """Valuation of a nonzero integer."""
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def frac_text(r: Fraction) -> str:
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


def chi_text(default, exc: dict) -> str:
    head = f"default={default}"
    if not exc:
        return head
    return head + ";" + ",".join(f"{p}:{v}" for p, v in sorted(exc.items()))


def reduced_elem(r: Fraction, coords: dict) -> str:
    body = ",".join(f"{p}:{a}" for p, a in sorted(coords.items()))
    return f"r={frac_text(r)}" + (f";{body}" if body else "")


# ---------------------------------------------------------------------------
# verify workloads


def verify_ring_laws_round(seed: int, index: int) -> list[Op]:
    op_seed = stream(seed, "ring-laws", index).randrange(2**31)
    argv = ["verify", "--suite", "ring-axioms", "--seed", str(op_seed), "--trials", "10",
            "--samples", "50", "--format", "json-like-summary"]
    return [Op("cli", tuple(argv), frozenset({OK}), "ring-axioms",
               {"suite": "ring-axioms", "seed": op_seed})]


def verify_ideals_round(seed: int, index: int) -> list[Op]:
    rng = stream(seed, "ideals", index)
    ops = []
    for suite in VERIFY_IDEAL_SUITES:
        op_seed = rng.randrange(2**31)
        argv = ["verify", "--suite", suite, "--seed", str(op_seed), "--trials", "10",
                "--samples", "20", "--format", "json-like-summary"]
        ops.append(Op("cli", tuple(argv), frozenset({OK}), suite, {"suite": suite, "seed": op_seed}))
    return ops


# ---------------------------------------------------------------------------
# queries: groups


@dataclass
class Group:
    """A generated group: its cochar text plus what the generator needs to know."""

    text: str
    default: object  # int or "inf"
    exc: dict  # exception prime -> int or "inf"

    def value(self, p: int):
        return self.exc.get(p, self.default)

    def slots(self) -> dict:
        """Primes with a finite positive torsion slot among the listed exceptions."""
        return {p: v for p, v in self.exc.items() if isinstance(v, int) and v > 0}


def make_group(default, exc: dict) -> Group:
    exc = {p: v for p, v in exc.items() if v != default}
    return Group(chi_text(default, exc), default, exc)


def group_slots(rng: random.Random) -> Group:
    """Reduced: torsion slots at 2 and 3 with exponents up to 10, 7 divisible, the rest Z_p-like."""
    return make_group("inf", {2: rng.randint(1, 10), 3: rng.randint(1, 6), 7: 0})


def group_finite_default(rng: random.Random) -> Group:
    """Reduced with a finite nonzero default, so heights need the factors of the numerator."""
    return make_group(rng.randint(1, 3), {2: rng.randint(1, 10), 3: "inf", 5: "inf", 7: 0})


def group_nonreduced(rng: random.Random) -> Group:
    return make_group(0, {2: rng.randint(1, 10), 3: rng.randint(1, 5)})


INTEGERS = make_group("inf", {})


def slot_coords(rng: random.Random, G: Group, density: float = 0.6) -> dict:
    return {p: rng.randrange(1, p**k) for p, k in G.slots().items() if rng.random() < density}


def plain_rational(rng: random.Random, G: Group) -> Fraction:
    """A nonzero rational valid in G without overrides: denominators only at divisible primes."""
    num = rng.choice([n for n in range(-30, 31) if n])
    for p in (5, 11, 13):
        if G.value(p) == "inf" and rng.random() < 0.3:
            num *= p ** rng.randint(1, 4)
    den = 7 ** rng.randint(0, 2) if G.value(7) == 0 else 1
    return Fraction(num, den)


def elem_text(rng: random.Random, G: Group, *, torsion: bool = False) -> str:
    if G.default == 0:  # nonreduced: Q (+) Z_m with m the product of the slots
        m = math.prod(p**k for p, k in G.slots().items())
        q = Fraction(0) if torsion else Fraction(rng.randint(-20, 20) or 1, rng.choice([1, 2, 3, 5, 7, 11]))
        return f"q={frac_text(q)};b={rng.randrange(m)}"
    coords = slot_coords(rng, G)
    if torsion:
        if not coords and G.slots():
            p, k = next(iter(G.slots().items()))
            coords = {p: rng.randrange(1, p**k)}
        return reduced_elem(Fraction(0), coords)
    return reduced_elem(plain_rational(rng, G), coords)


def any_group(rng: random.Random) -> Group:
    return rng.choice([group_slots, group_finite_default, group_nonreduced])(rng)


def group_integers(rng: random.Random) -> Group:
    return INTEGERS


# ---------------------------------------------------------------------------
# queries: command-line ops


def expected_describe(G: Group) -> str:
    if G.default == 0 and all(v != "inf" for v in G.exc.values()):
        m = math.prod(p**k for p, k in G.slots().items())
        return f"nonreduced m={m} (Q (+) Z_{m})"
    return f"reduced cochar={G.text}"


def op_describe(rng):
    G = rng.choice([group_slots, group_finite_default, group_nonreduced, group_integers])(rng)
    return Op("cli", ("group", "describe", "--cochar", G.text), frozenset({OK}), "describe",
              {"text": expected_describe(G)})


MALFORMED_CHARS = ("default=inf;4:2", "default=1;3:2,3:1", "default=-1", "default=2;5:", "defaults=0",
                   "default=0;2:1,", "default=inf;1:3")


def op_describe_bad(rng):
    return Op("cli", ("group", "describe", "--cochar", rng.choice(MALFORMED_CHARS)),
              frozenset({USAGE}), "usage")


def op_elem_info(rng, *, big: int = 0, semiprime: int = 0):
    if big or semiprime:
        G = rng.choice([group_finite_default, group_slots])(rng)
        coords = slot_coords(rng, G, 0.3)
        factors = [random_prime(rng, big)] if big else [random_prime(rng, semiprime),
                                                        random_prime(rng, semiprime + 1)]
        r = plain_rational(rng, G) * math.prod(factors)
        text = reduced_elem(r, coords)
        # a large prime divides r once: height 1, or inf where the slot there is Z/p
        heights = {P: ("inf" if G.default == 1 else "1") for P in factors}
        family = "elem-factor"
    else:
        G = any_group(rng)
        text = elem_text(rng, G, torsion=rng.random() < 0.3)
        heights = {}
        family = "elem-info"
    return Op("cli", ("elem", "info", "--cochar", G.text, "--elem", text), frozenset({OK}), family,
              {"cochar": G.text, "elem": text, "heights": heights})


def op_elem_bad(rng):
    G = group_slots(rng)
    bad = rng.choice(["r=1/0", "r=", "r=1;4:1", "r=1/5", "q=1;b=0", "r=1;2:" + str(2 ** G.value(2)),
                      "r=2x"])
    return Op("cli", ("elem", "info", "--cochar", G.text, "--elem", bad), frozenset({USAGE}), "usage")


def op_ring_mul(rng):
    G = any_group(rng)
    m = elem_text(rng, G, torsion=rng.random() < 0.3)
    g, b = elem_text(rng, G), elem_text(rng, G, torsion=rng.random() < 0.3)
    return Op("cli", ("ring", "mul", "--cochar", G.text, "--m", m, "--g", g, "--b", b),
              frozenset({OK}), "ring-mul", {"cochar": G.text, "m": m, "g": g, "b": b})


def op_ring_ideal(rng):
    G = any_group(rng)
    m = elem_text(rng, G, torsion=rng.random() < 0.4)
    g = elem_text(rng, G, torsion=rng.random() < 0.3)
    return Op("cli", ("ring", "ideal", "--cochar", G.text, "--m", m, "--g", g), frozenset({OK}),
              "ring-ideal", {"cochar": G.text, "m": m, "g": g})


def op_ring_classify(rng):
    G = rng.choice([group_slots, group_finite_default, group_nonreduced, group_integers])(rng)
    torsion = rng.random() < 0.5
    m = "r=0" if G is INTEGERS and torsion else elem_text(rng, G, torsion=torsion)
    ai = G is INTEGERS or not torsion
    return Op("cli", ("ring", "classify", "--cochar", G.text, "--m", m),
              frozenset({OK if ai else NEG}), "classify",
              {"text": f"AI={'true' if ai else 'false'} FI={'true' if ai else 'false'}"})


def op_ring_witness(rng, *, member: bool):
    """A membership witness in the principal ideal of a non-torsion g, in a ring with non-torsion m.

    g = 5*u: any b = g*t, or g*t over a power of the divisible prime 7, keeps every height of g;
    a b prime to 5 has 5-height 0 < 1 and lies outside.
    """
    G = group_slots(rng)
    m = elem_text(rng, G)
    u = rng.choice([n for n in range(-12, 13) if n and n % 5])
    g = Fraction(5 * u)
    if member:
        b = g * rng.choice([n for n in range(-9, 10) if n]) / 7 ** rng.randint(0, 1)
    else:
        b = Fraction(rng.choice([n for n in range(-40, 41) if n % 5]), 7 ** rng.randint(0, 1))
    return Op("cli", ("ring", "witness", "--cochar", G.text, "--m", m, "--g", reduced_elem(g, {}),
                      "--b", reduced_elem(b, {})),
              frozenset({OK if member else NEG}), "witness",
              {"cochar": G.text, "m": m, "g": reduced_elem(g, {}), "b": reduced_elem(b, {})})


def op_ring_witness_nai(rng):
    G = rng.choice([group_slots, group_nonreduced, group_integers])(rng)
    torsion = rng.random() < 0.6
    m = "r=0" if G is INTEGERS else elem_text(rng, G, torsion=torsion)
    ai = G is INTEGERS or not torsion
    return Op("cli", ("ring", "witness", "--cochar", G.text, "--m", m),
              frozenset({NEG if ai else OK}), "witness-nai", {"cochar": G.text, "m": m})


def op_ai_ideal(rng):
    G = any_group(rng)
    g = elem_text(rng, G, torsion=rng.random() < 0.3)
    return Op("cli", ("ai", "ideal", "--cochar", G.text, "--g", g), frozenset({OK}), "ai-ideal",
              {"cochar": G.text, "g": g})


# ---------------------------------------------------------------------------
# queries: descriptor ops with answers from explicit coordinates


def _meets(a: int, q: int, p: int, floor) -> bool:
    """Whether the torsion coordinate a mod q = p**k has height at least floor ("inf": must be 0)."""
    a %= q
    if a == 0:
        return True
    return floor != "inf" and vp(a, p) >= floor


def torsion_floor(rng, G: Group) -> dict:
    return {p: rng.choice([rng.randrange(k), rng.randrange(k), "inf"]) for p, k in G.slots().items()}


def floor_text(floors: dict) -> str:
    return chi_text("inf", {p: v for p, v in floors.items() if v != "inf"})


def op_contains_torsion(rng, *, member: bool):
    G = make_group("inf", {2: rng.randint(2, 10), 3: rng.randint(2, 6), 5: rng.randint(1, 4)})
    slots = G.slots()
    floors = torsion_floor(rng, G)
    for _ in range(200):
        coords = slot_coords(rng, G, 0.8)
        # push coordinates above the floor for members, below it for one prime otherwise
        for p, a in coords.items():
            f = floors[p]
            if rng.random() < 0.7:
                coords[p] = 0 if f == "inf" else a * p**f % p ** slots[p]
        answer = all(_meets(coords.get(p, 0), p**k, p, floors[p]) for p, k in slots.items())
        if answer == member:
            break
    x = reduced_elem(Fraction(0), {p: a for p, a in coords.items() if a})
    d = f"T(eta={floor_text(floors)})"
    return Op("contains", (G.text, d, x), frozenset({OK if answer else NEG}), "contains-T",
              {"answer": answer})


def op_contains_sum_torsion(rng, *, member: bool):
    """T(eta)+Z*g with torsion g of order 2**(k2-1) * 3**3: 1728 or 3456.

    g has an even 2-coordinate and the floor at 2 is at least 1, so x with an
    odd 2-coordinate is never reached, while x = n*g + t with t above the
    floors always is.
    """
    k2, k3 = rng.randint(7, 8), 3
    G = make_group("inf", {2: k2, 3: k3})
    q2, q3 = 2**k2, 3**k3
    floors = {2: rng.randint(1, k2 - 1), 3: rng.choice([rng.randrange(k3), "inf"])}
    g = {2: 2 * rng.randrange(1, q2 // 2, 2), 3: rng.choice([a for a in range(1, q3) if a % 3])}
    if member:
        n = rng.randrange(q2 * q3)
        t = {p: 0 if f == "inf" else p**f * rng.randrange(p**k) for (p, k), f in zip(((2, k2), (3, k3)), floors.values())}
        x = {2: (n * g[2] + t[2]) % q2, 3: (n * g[3] + t[3]) % q3}
    else:
        x = {2: rng.randrange(1, q2, 2), 3: rng.randrange(q3)}
    d = f"T(eta={floor_text(floors)})+Z*{reduced_elem(Fraction(0), g)}"
    xt = reduced_elem(Fraction(0), {p: a for p, a in x.items() if a})
    return Op("contains", (G.text, d, xt), frozenset({OK if member else NEG}), "contains-sum-torsion",
              {"answer": member})


def op_contains_sum(rng, *, member: bool):
    """T(eta)+Z*g with non-torsion g = n and 2-coordinate c; x = j*n with 2-coordinate d."""
    k2 = rng.randint(2, 10)
    G = make_group("inf", {2: k2, 7: 0})
    q2 = 2**k2
    floor = rng.randrange(k2)
    n = 3 ** rng.randint(0, 3) * rng.choice([1, 5, 11, 13])
    c = rng.randrange(q2)
    j = rng.randint(-6, 6)
    rational = Fraction(j * n)
    if member:
        d = (j * c + 2**floor * rng.randrange(q2)) % q2
    elif floor > 0 and rng.random() < 0.5:  # the right multiple, but x - j*g sits below the floor
        d = (j * c + 2 ** (floor - 1) * (2 * rng.randrange(q2) + 1)) % q2
    else:  # the rational part is not an integer multiple of n
        d = rng.randrange(q2)
        rational += Fraction(rng.choice([1, -1]), 7)
    dtext = f"T(eta={floor_text({2: floor})})+Z*{reduced_elem(Fraction(n), {2: c})}"
    return Op("contains", (G.text, dtext, reduced_elem(rational, {2: d})),
              frozenset({OK if member else NEG}), "contains-sum", {"answer": member})


def op_contains_full(rng, *, member: bool, big: int = 0):
    """G(eta) with a floor on the 2- and 3-slots and on two Z_p-like primes; x = r=n/7^j."""
    G = make_group("inf", {2: rng.randint(3, 10), 3: rng.randint(2, 6), 7: 0})
    eta = {2: rng.randrange(G.value(2)), 3: rng.randrange(G.value(3)), 5: rng.randint(0, 3),
           11: rng.randint(0, 2)}
    exps = {p: e + rng.randint(0, 2) for p, e in eta.items()}
    if not member:
        p = rng.choice([p for p, e in eta.items() if e > 0] or [5])
        if eta[p] == 0:
            eta[p] = 1
        exps[p] = eta[p] - 1
    n = math.prod(p**e for p, e in exps.items()) * rng.choice([1, -1, 13, -17, 19])
    if big:
        n *= random_prime(rng, big)
    answer = all(vp(n, p) >= e for p, e in eta.items())
    x = reduced_elem(Fraction(n, 7 ** rng.randint(0, 2)), {})
    d = f"G(eta={chi_text(0, {p: e for p, e in eta.items() if e})})"
    return Op("contains", (G.text, d, x), frozenset({OK if answer else NEG}),
              "contains-factor" if big else "contains-G", {"answer": answer})


def op_equals(rng):
    shape = rng.randrange(4)
    if shape == 0:  # a torsion generator collapses the sum to the pointwise minimum of the floors
        k2, k3 = rng.randint(2, 8), rng.randint(1, 4)
        G = make_group("inf", {2: k2, 3: k3})
        floors = {2: rng.randrange(k2), 3: rng.randrange(k3)}
        g = {2: 2 ** rng.randrange(k2) * rng.choice([1, 3]) % 2**k2, 3: rng.randrange(3**k3)}
        hts = {p: (vp(a, p) if a else "inf") for p, a in g.items()}
        meet = {p: (floors[p] if hts[p] == "inf" else min(floors[p], hts[p])) for p in floors}
        same = rng.random() < 0.5
        if not same:
            p = rng.choice([2, 3])
            meet[p] = meet[p] + 1 if meet[p] + 1 < G.value(p) else "inf"
        d1 = f"T(eta={floor_text(floors)})+Z*{reduced_elem(Fraction(0), {p: a for p, a in g.items() if a})}"
        d2 = f"T(eta={floor_text(meet)})"
        answer = same
    elif shape == 1:  # in the integers both shapes describe N*Z exactly when N is the floor's index
        G = INTEGERS
        a, b = rng.randint(0, 5), rng.randint(0, 3)
        N = 2**a * 3**b
        answer = rng.random() < 0.5
        gen = N if answer else N * rng.choice([5, 7, 2])
        d1 = f"G(eta={chi_text(0, {p: e for p, e in {2: a, 3: b}.items() if e})})"
        d2 = f"T(eta=default=inf)+Z*r={gen}"
    elif shape == 2:  # one floor written two ways
        G = make_group("inf", {2: rng.randint(3, 10), 7: 0})
        e = rng.randrange(1, G.value(2))
        d1 = f"G(eta=default=0;2:{e})"
        d2 = f"G(eta=default=0;2:{e},5:0)"
        answer = True
        if rng.random() < 0.5:
            d2 = f"G(eta=default=0;2:{e},5:1)"
            answer = False
    else:  # a height-floor subgroup has non-torsion members, a torsion one does not
        G = make_group("inf", {2: rng.randint(2, 8), 3: rng.randint(1, 4)})
        d1 = f"G(eta=default=0;2:{rng.randrange(G.value(2))})"
        d2 = f"T(eta=default=inf;2:{rng.randrange(G.value(2))})"
        answer = False
    if rng.random() < 0.5:
        d1, d2 = d2, d1
    return Op("equals", (G.text, d1, d2), frozenset({OK if answer else NEG}), "equals",
              {"answer": answer})


MALFORMED_DESCRIPTORS = ("G(eta=default=0;2:1", "T(eta=default=inf)+Z*r=1/0", "X(eta=default=0)",
                         "T(eta=default=inf)+Y*r=1", "G(eta=default=0;4:1)", "T(eta=default=inf)+Z*r=1;9:1")


def op_descriptor_bad(rng):
    G = group_slots(rng)
    return Op("contains", (G.text, rng.choice(MALFORMED_DESCRIPTORS), "r=1"), frozenset({USAGE}), "usage")


# (op factory, count) per round; the composition is fixed so every round has the same mix.
def _queries_plan():
    return [
        (op_describe, 6),
        (op_describe_bad, 2),
        (op_elem_info, 14),
        (lambda r: op_elem_info(r, big=r.randint(10, 22)), 12),
        (lambda r: op_elem_info(r, semiprime=r.randint(6, 7)), 3),
        (op_elem_bad, 3),
        (op_ring_mul, 10),
        (op_ring_ideal, 8),
        (op_ring_classify, 6),
        (lambda r: op_ring_witness(r, member=True), 6),
        (lambda r: op_ring_witness(r, member=False), 4),
        (op_ring_witness_nai, 4),
        (op_ai_ideal, 6),
        (lambda r: op_contains_torsion(r, member=True), 3),
        (lambda r: op_contains_torsion(r, member=False), 3),
        (lambda r: op_contains_sum_torsion(r, member=True), 3),
        (lambda r: op_contains_sum_torsion(r, member=False), 2),
        (lambda r: op_contains_sum(r, member=True), 2),
        (lambda r: op_contains_sum(r, member=False), 2),
        (lambda r: op_contains_full(r, member=True), 3),
        (lambda r: op_contains_full(r, member=False), 3),
        (lambda r: op_contains_full(r, member=r.random() < 0.5, big=r.randint(10, 22)), 5),
        (op_equals, 6),
        (op_descriptor_bad, 2),
    ]


QUERIES_PLAN = _queries_plan()


def queries_round(seed: int, index: int) -> list[Op]:
    rng = stream(seed, "queries", index)
    ops = [build(rng) for build, count in QUERIES_PLAN for _ in range(count)]
    rng.shuffle(ops)
    return ops


ROUNDS = {
    "verify-ring-laws": verify_ring_laws_round,
    "verify-ideals": verify_ideals_round,
    "queries": queries_round,
}

# Warm-up ops come from a fixed seed so that set-up time does not depend on the workload seed.
WARMUP_SEED = 0x5EED
# This thm2.4 instance tests primality above the range of the built-in Miller-Rabin bases,
# which imports sympy (about 0.7 s and 30 MB) on first use.  verify-ideals runs meet such
# instances at random, so the import is lazy set-up that workload needs: it is paid in
# warm-up, where setup_s and peak_rss_mb show it, rather than by whichever op comes first.
SYMPY_IMPORT_OP_SEED = 1777634762


def warmup_ops(workload: str) -> list[Op]:
    if workload == "queries":
        rng = stream(WARMUP_SEED, "queries-warmup")
        return [build(rng) for build, _ in QUERIES_PLAN]
    ops = ROUNDS[workload](WARMUP_SEED, -1)
    if workload == "verify-ideals":
        argv = ("verify", "--suite", "thm2.4", "--seed", str(SYMPY_IMPORT_OP_SEED), "--trials", "10",
                "--samples", "20", "--format", "json-like-summary")
        ops.append(Op("cli", argv, frozenset({OK}), "thm2.4", {"suite": "thm2.4", "seed": SYMPY_IMPORT_OP_SEED}))
    return ops


# ---------------------------------------------------------------------------
# inputs that do not finish within 20 s at the time the benchmark was written


def deadline_probes(seed: int) -> list[Op]:
    rng = stream(seed, "probes")
    p, q = random_prime(rng, 22), random_prime(rng, 22)
    either = frozenset({OK, USAGE})
    return [
        Op("cli", ("elem", "info", "--cochar", "default=1", "--elem", f"r={p * q}"), either, "probe"),
        Op("cli", ("elem", "info", "--cochar", "default=1", "--elem", f"r=1/{p * q}"), either, "probe"),
        # generator of order 2**10 * 3**6 = 746496; x has an odd 2-coordinate, so no multiple hits it
        Op("contains", ("default=inf;2:11,3:6", "T(eta=default=inf)+Z*r=0;2:2,3:1", "r=0;2:1"),
           frozenset({NEG, USAGE}), "probe"),
    ]
