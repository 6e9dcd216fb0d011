"""Command-line front end.

Exit codes follow a shell-friendly contract: 0 for success and true verdicts,
1 for mathematical negatives (a ring classified as not AI, a membership that
fails, a suite reporting FAIL), 2 for usage and parse errors, bounds beyond a
documented cap, and integers Brent's method cannot split within its step budget,
3 for an internal error: an answer that failed its own recomputation check.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import InvariantError, ParseError, RingIsAIError
from .foundations import MAX_EXPONENT, Characteristic
from .group import build_group, c_of, char_of, is_torsion, order
from .oracle import MAX_PRIME_BOUND, TrialConfig
from .ring import (
    certify_member,
    is_ai_ring,
    is_fi_ring,
    make_mult,
    multiply,
    non_absolute_ideal_witness,
    principal_absolute_ideal,
    principal_ideal,
)
from .subgroup import descriptor_str
from .suites import SUITE_NAMES, run_suite, suite_summary

__all__ = ["main", "run"]

OK = 0
NEGATIVE = 1
USAGE = 2
INTERNAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdrings",
        description="Exact calculator for rank-1 quotient divisible groups and the rings on them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    group_cmd = sub.add_parser("group", help="group-level queries")
    group_sub = group_cmd.add_subparsers(dest="subcommand", required=True)
    describe = group_sub.add_parser("describe", help="kind and shape of the group")
    describe.add_argument("--cochar", required=True)

    elem_cmd = sub.add_parser("elem", help="element-level queries")
    elem_sub = elem_cmd.add_subparsers(dest="subcommand", required=True)
    info = elem_sub.add_parser("info", help="invariants of one element")
    info.add_argument("--cochar", required=True)
    info.add_argument("--elem", required=True)

    ring_cmd = sub.add_parser("ring", help="ring-level queries")
    ring_sub = ring_cmd.add_subparsers(dest="subcommand", required=True)
    mul = ring_sub.add_parser("mul", help="product of two elements")
    ideal = ring_sub.add_parser("ideal", help="principal ideal of an element")
    classify = ring_sub.add_parser("classify", help="AI/FI classification of the ring")
    witness = ring_sub.add_parser(
        "witness",
        help="with --g and --b, a principal-ideal membership witness; otherwise the non-absolute-ideal witness",
    )
    for p in (mul, ideal, classify, witness):
        p.add_argument("--cochar", required=True)
        p.add_argument("--m", required=True, help="defining element, the square of the basis")
    mul.add_argument("--g", required=True)
    mul.add_argument("--b", required=True, help="second factor")
    ideal.add_argument("--g", required=True)
    witness.add_argument("--g")
    witness.add_argument("--b")

    ai_cmd = sub.add_parser("ai", help="absolute-ideal queries")
    ai_sub = ai_cmd.add_subparsers(dest="subcommand", required=True)
    ai_ideal = ai_sub.add_parser("ideal", help="principal absolute ideal of an element")
    ai_ideal.add_argument("--cochar", required=True)
    ai_ideal.add_argument("--g", required=True)

    verify = sub.add_parser("verify", help="run a named randomized verification suite")
    verify.add_argument("--suite", required=True, choices=sorted(SUITE_NAMES))
    verify.add_argument("--seed", required=True, type=int, help="explicit seed for reproducibility")
    verify.add_argument("--trials", type=int, default=100)
    verify.add_argument(
        "--max-prime", type=int, default=13, help=f"largest prime drawn, at most {MAX_PRIME_BOUND}"
    )
    verify.add_argument(
        "--max-exp", type=int, default=4, help=f"largest exponent drawn, at most {MAX_EXPONENT}"
    )
    verify.add_argument("--samples", type=int, default=20, help="samples per instance")
    verify.add_argument(
        "--format", choices=("text", "json-like-summary"), default="text", dest="format_"
    )
    return parser


def _cmd_group_describe(args) -> int:
    G = build_group(Characteristic.parse(args.cochar))
    print(G)
    return OK


def _cmd_elem_info(args) -> int:
    G = build_group(Characteristic.parse(args.cochar))
    g = G.parse_elem(args.elem)
    # every line is formatted before any is printed: char_of may factor, and an order
    # p**k may be too long for str, so a failure leaves stdout empty
    lines = (
        f"elem={g}",
        f"char={char_of(g).canonical_str()}",
        f"order={order(g)}",
        f"torsion={'true' if is_torsion(g) else 'false'}",
        f"c={c_of(g)}",
    )
    print("\n".join(lines))
    return OK


def _ring_context(args):
    G = build_group(Characteristic.parse(args.cochar))
    mult = make_mult(G, G.parse_elem(args.m))
    return G, mult


def _cmd_ring_mul(args) -> int:
    G, mult = _ring_context(args)
    print(multiply(mult, G.parse_elem(args.g), G.parse_elem(args.b)))
    return OK


def _cmd_ring_ideal(args) -> int:
    G, mult = _ring_context(args)
    print(descriptor_str(principal_ideal(mult, G.parse_elem(args.g))))
    return OK


def _cmd_ring_classify(args) -> int:
    _, mult = _ring_context(args)
    ai, fi = is_ai_ring(mult), is_fi_ring(mult)
    print(f"AI={'true' if ai else 'false'} FI={'true' if fi else 'false'}")
    return OK if ai else NEGATIVE


def _cmd_ring_witness(args) -> int:
    G, mult = _ring_context(args)
    if (args.g is None) != (args.b is None):
        print("ring witness needs both --g and --b, or neither", file=sys.stderr)
        return USAGE
    if args.g is not None:
        witness = certify_member(mult, G.parse_elem(args.g), G.parse_elem(args.b))
        if witness is None:
            print("not-a-member")
            return NEGATIVE
        print(witness)
        return OK
    try:
        print(non_absolute_ideal_witness(mult))
    except RingIsAIError as exc:
        print(f"ring-is-AI: {exc}")
        return NEGATIVE
    return OK


def _cmd_ai_ideal(args) -> int:
    G = build_group(Characteristic.parse(args.cochar))
    print(descriptor_str(principal_absolute_ideal(G.parse_elem(args.g))))
    return OK


def _cmd_verify(args) -> int:
    cfg = TrialConfig(
        seed=args.seed,
        trials=args.trials,
        max_prime=args.max_prime,
        max_exp=args.max_exp,
        samples_per_instance=args.samples,
    )
    reports = run_suite(args.suite, cfg)
    if args.format_ == "json-like-summary":
        print(json.dumps(suite_summary(args.suite, cfg, reports), indent=2))
    else:
        for r in reports:
            print(r.line())
    return OK if all(r.passed for r in reports) else NEGATIVE


_HANDLERS = {
    ("group", "describe"): _cmd_group_describe,
    ("elem", "info"): _cmd_elem_info,
    ("ring", "mul"): _cmd_ring_mul,
    ("ring", "ideal"): _cmd_ring_ideal,
    ("ring", "classify"): _cmd_ring_classify,
    ("ring", "witness"): _cmd_ring_witness,
    ("ai", "ideal"): _cmd_ai_ideal,
    ("verify", None): _cmd_verify,
}


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE
    handler = _HANDLERS[(args.command, getattr(args, "subcommand", None))]
    try:
        return handler(args)
    except ParseError as exc:
        print(str(exc), file=sys.stderr)
        return USAGE
    except ValueError as exc:  # every error in qdrings.errors but InvariantError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL


def main() -> None:
    sys.exit(run(sys.argv[1:]))
