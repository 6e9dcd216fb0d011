"""Tests for the command-line front end: outputs, exit codes, grammar round trips."""

import argparse
import contextlib
import importlib
import io
import json
import pkgutil
import random
import re
import runpy
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import qdrings
from qdrings import cli, errors, foundations, oracle, suites
from qdrings.cli import run
from qdrings.errors import ParseError
from qdrings.foundations import INF, MAX_HEIGHT, Characteristic
from qdrings.group import Qd1Group, add, build_group, char_of, zmul
from qdrings.oracle import TrialConfig, random_characteristic, random_element, ring_axiom_check
from qdrings.ring import (
    _ideal_element,
    make_mult,
    multiply,
    principal_absolute_ideal,
    principal_ideal,
    torsion_witness,
)
from qdrings.subgroup import contains, descriptor_str, equals, full_inv, parse_descriptor, torsion_inv

from mutations import (
    lowered_eta,
    product_dropping_m,
    product_dropping_signs,
    product_of_squares,
    product_squaring_the_first,
)

CHI_A = "default=0;2:2,3:inf"


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- group / elem ----------------------------------------------------------------


def test_group_describe_nonreduced(capsys):
    code, out, _ = run_cli(capsys, "group", "describe", "--cochar", "default=0;2:1")
    assert code == 0
    assert out.strip() == "nonreduced m=2 (Q (+) Z_2)"


def test_group_describe_reduced(capsys):
    code, out, _ = run_cli(capsys, "group", "describe", "--cochar", CHI_A)
    assert code == 0
    assert out.strip() == f"reduced cochar={CHI_A}"


def test_elem_info(capsys):
    code, out, _ = run_cli(capsys, "elem", "info", "--cochar", CHI_A, "--elem", "r=3")
    assert code == 0
    lines = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert lines == {
        "elem": "r=3",
        "char": "default=inf;2:0,3:1",
        "order": "inf",
        "torsion": "false",
        "c": "3",
    }


# -- ring ------------------------------------------------------------------------


def test_ring_mul(capsys):
    code, out, _ = run_cli(
        capsys, "ring", "mul", "--cochar", CHI_A, "--m", "r=0;2:1", "--g", "r=1", "--b", "r=1"
    )
    assert code == 0 and out.strip() == "r=0;2:1"


def test_ring_ideal(capsys):
    code, out, _ = run_cli(
        capsys, "ring", "ideal", "--cochar", CHI_A, "--m", "r=1", "--g", "r=2"
    )
    assert code == 0 and out.strip() == "G(eta=default=inf;2:1,3:0)"


def test_ring_classify_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "ring", "classify", "--cochar", CHI_A, "--m", "r=0;2:1")
    assert code == 1 and out.strip() == "AI=false FI=false"
    code, out, _ = run_cli(capsys, "ring", "classify", "--cochar", CHI_A, "--m", "r=1")
    assert code == 0 and out.strip() == "AI=true FI=true"
    code, out, _ = run_cli(capsys, "ring", "classify", "--cochar", "default=inf", "--m", "r=0")
    assert code == 0 and out.strip() == "AI=true FI=true"


def test_ring_witness_membership(capsys):
    code, out, _ = run_cli(
        capsys, "ring", "witness", "--cochar", CHI_A, "--m", "r=1", "--g", "r=2", "--b", "r=2"
    )
    assert code == 0 and out.strip() == "y=r=0;k=1"
    code, out, _ = run_cli(
        capsys, "ring", "witness", "--cochar", CHI_A, "--m", "r=1", "--g", "r=2", "--b", "r=1"
    )
    assert code == 1 and out.strip() == "not-a-member"


@pytest.mark.parametrize("default", ["inf", "1"])
def test_ring_witness_with_a_product_of_two_large_primes(capsys, deadline, default):
    # factoring b would not finish; membership in the ideal of g=1 needs no factors
    b_text = f"r={(10**21 + 117) * (10**21 + 193)}"
    argv = ["--cochar", f"default={default}", "--m", "r=1", "--g", "r=1", "--b", b_text]
    with deadline(1.0):
        code, out, _ = run_cli(capsys, "ring", "witness", *argv)
    assert code == 0
    y_text, k_text = out.strip().removeprefix("y=").rsplit(";k=", 1)
    G = build_group(Characteristic.parse(f"default={default}"))
    mult = make_mult(G, G.parse_elem("r=1"))
    g = G.parse_elem("r=1")
    assert add(multiply(mult, g, G.parse_elem(y_text)), zmul(int(k_text), g)) == G.parse_elem(b_text)


N_TWO_LARGE = (10**21 + 117) * (10**21 + 193)


@pytest.mark.parametrize(
    "argv",
    [
        ("ring", "ideal", "--cochar", "default=inf", "--m", "r=1", "--g", f"r={N_TWO_LARGE}"),
        ("ring", "witness", "--cochar", "default=inf", "--m", "r=1", "--g", f"r={N_TWO_LARGE}",
         "--b", f"r={N_TWO_LARGE}"),
        ("elem", "info", "--cochar", "default=1", "--elem", f"r={N_TWO_LARGE}"),
    ],
    ids=["ring-ideal", "ring-witness", "elem-info"],
)
def test_factoring_beyond_the_brent_budget_exits_two(capsys, deadline, argv):
    with deadline(2.0):
        code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "did not split" in err


def test_elem_info_of_a_3110_digit_composite_answers_at_once(capsys, deadline):
    with deadline(1.0):
        code, out, _ = run_cli(capsys, "elem", "info", "--cochar", "default=7", "--elem", f"r={1031**1031 * 1033}")
    assert code == 0
    assert out.splitlines()[1:] == ["char=default=0;1031:inf,1033:1", "order=inf", "torsion=false", "c=1"]


def test_elem_info_of_a_4001_digit_prime_power_answers_at_once(capsys, deadline):
    with deadline(1.0):
        code, out, _ = run_cli(capsys, "elem", "info", "--cochar", "default=7", "--elem", f"r={10007**1000}")
    assert code == 0
    assert out.splitlines()[1:] == ["char=default=0;10007:inf", "order=inf", "torsion=false", "c=1"]


def test_ring_witness_non_absolute(capsys):
    code, out, _ = run_cli(capsys, "ring", "witness", "--cochar", CHI_A, "--m", "r=0;2:1")
    assert code == 0 and out.strip() == "e0=r=1;2:0;p=2;x=r=1/2;2:0"
    code, out, _ = run_cli(capsys, "ring", "witness", "--cochar", CHI_A, "--m", "r=1")
    assert code == 1 and out.strip().startswith("ring-is-AI")


def _ring(cochar, m, *elems):
    G = build_group(Characteristic.parse(cochar))
    return make_mult(G, G.parse_elem(m)), *(G.parse_elem(t) for t in elems)


def _witness_recomputes(out, cochar, m, g_text, b_text):
    """Whether the printed `y=<elem>;k=<int>` satisfies g*y + k*g = b."""
    mult, g, b = _ring(cochar, m, g_text, b_text)
    y_text, k_text = out.strip().removeprefix("y=").rsplit(";k=", 1)
    return add(multiply(mult, g, mult.group.parse_elem(y_text)), zmul(int(k_text), g)) == b


def test_ring_witness_with_a_large_defining_element_in_an_inf_group(capsys, deadline):
    # c_of(m) divides the exceptions out of the numerator of m instead of factoring it
    argv = ["--cochar", "default=inf", "--m", f"r={N_TWO_LARGE}", "--g", "r=1", "--b", f"r={N_TWO_LARGE}"]
    with deadline(1.0):
        code, out, _ = run_cli(capsys, "ring", "witness", *argv)
    assert code == 0 and out.strip() == f"y=r=0;k={N_TWO_LARGE}"
    assert _witness_recomputes(out, "default=inf", f"r={N_TWO_LARGE}", "r=1", f"r={N_TWO_LARGE}")


def test_ring_witness_in_a_zero_default_group_never_factors(capsys, deadline):
    # with default 0 only the exception primes can carry a slot, so g = N is not factored
    cochar, g, b = "default=0;2:3,3:inf", f"r={N_TWO_LARGE}", f"r={2 * N_TWO_LARGE}"
    with deadline(1.0):
        code, out, _ = run_cli(capsys, "ring", "witness", "--cochar", cochar, "--m", "r=1", "--g", g, "--b", b)
    assert code == 0 and _witness_recomputes(out, cochar, "r=1", g, b)


@pytest.mark.parametrize(
    "m, g, b, member",
    [
        ("r=0;2:1", "r=2", "r=0;2:2", True),
        ("r=0;2:1", "r=0;2:1", "r=0;2:3", True),
        ("r=0;2:1", "r=2", "r=4;2:1", False),
        ("r=1", "r=0;2:2", "r=0;2:1", False),
    ],
    ids=["torsion-m", "torsion-g-and-m", "torsion-m-outside", "torsion-g-outside"],
)
def test_ring_witness_with_a_torsion_generator_or_basis_square(capsys, m, g, b, member):
    code, out, _ = run_cli(capsys, "ring", "witness", "--cochar", CHI_A, "--m", m, "--g", g, "--b", b)
    if member:
        assert code == 0 and _witness_recomputes(out, CHI_A, m, g, b)
    else:
        assert code == 1 and out.strip() == "not-a-member"
        mult, g_elt, b_elt = _ring(CHI_A, m, g, b)
        assert not contains(principal_ideal(mult, g_elt), b_elt)


def test_ring_witness_flag_pairing(capsys):
    code, _, err = run_cli(capsys, "ring", "witness", "--cochar", CHI_A, "--m", "r=1", "--g", "r=2")
    assert code == 2 and "both --g and --b" in err


def test_ai_ideal(capsys):
    code, out, _ = run_cli(capsys, "ai", "ideal", "--cochar", "default=inf", "--g", "r=6")
    assert code == 0 and out.strip() == "G(eta=default=0;2:1,3:1)"


# -- verify ------------------------------------------------------------------------


def test_verify_text_output(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--suite", "lemma2.2", "--trials", "8", "--seed", "7",
        "--max-prime", "13", "--max-exp", "4",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert all(line.startswith("PASS lemma2.2") and "trials=" in line for line in lines)


def test_verify_json_summary(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--suite", "mult-iso", "--trials", "5", "--seed", "3",
        "--format", "json-like-summary",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == "mult-iso" and doc["seed"] == 3 and doc["passed"] is True
    assert {c["check"] for c in doc["checks"]} == {
        "mult-iso-round-trip", "mult-iso-additivity", "mult-iso-nai-subgroup",
    }


def test_verify_requires_a_seed(capsys):
    code, _, _ = run_cli(capsys, "verify", "--suite", "thm3.3", "--trials", "5")
    assert code == 2


def test_verify_rejects_a_prime_bound_above_the_cap(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--suite", "thm3.3", "--seed", "1", "--max-prime", "1001"
    )
    assert code == 2 and "max_prime must be at most 1000" in err


def test_verify_rejects_an_exponent_bound_above_the_cap(capsys, monkeypatch):
    from qdrings import cli

    monkeypatch.setattr(cli, "run_suite", lambda name, cfg: pytest.fail("a suite ran"))
    code, _, err = run_cli(
        capsys, "verify", "--suite", "thm3.3", "--seed", "1", "--max-exp", "1001"
    )
    assert code == 2 and "max_exp must be at most 1000" in err


@pytest.mark.parametrize(
    "flag, message",
    [
        ("--trials", "trials must be at most 1000"),
        ("--samples", "samples_per_instance must be at most 1000"),
    ],
)
def test_verify_rejects_sweep_sizes_above_the_caps_at_once(capsys, monkeypatch, deadline, flag, message):
    monkeypatch.setattr(cli, "run_suite", lambda name, cfg: pytest.fail("a suite ran"))
    with deadline(1.0):
        code, out, err = run_cli(
            capsys, "verify", "--suite", "ring-axioms", "--seed", "1", flag, "1000000000"
        )
    assert code == 2 and out == "" and message in err


def test_verify_defaults_are_the_trial_config_defaults(capsys, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "run_suite", lambda name, cfg: seen.append(cfg) or [])
    assert run_cli(capsys, "verify", "--suite", "thm3.3", "--seed", "3") == (0, "", "")
    assert seen == [TrialConfig(seed=3)]
    assert (seen[0].trials, seen[0].max_prime, seen[0].max_exp, seen[0].samples_per_instance) == (100, 13, 4, 20)


def test_verify_exits_one_when_a_check_fails(capsys, monkeypatch):
    from qdrings import cli
    from qdrings.oracle import CheckReport

    broken = CheckReport("stub", trials=1)
    broken.record(0, "synthetic failure")
    monkeypatch.setattr(cli, "run_suite", lambda name, cfg: [broken])
    code, out, _ = run_cli(capsys, "verify", "--suite", "thm3.3", "--seed", "1")
    assert code == 1
    assert out.strip() == "FAIL stub trials=1 fail_at=0 detail=synthetic failure"


_INTEGER_FLAGS = ("--seed", "--trials", "--max-prime", "--max-exp", "--samples")


@pytest.mark.parametrize("text", ["\u0663", "1_0", " 7", "+7", "7 ", "-", ""])
@pytest.mark.parametrize("flag", _INTEGER_FLAGS)
def test_verify_integer_options_take_ascii_digits_only(capsys, monkeypatch, flag, text):
    # int() reads all of these; the options read a number as the grammars do, the whole token
    monkeypatch.setattr(cli, "run_suite", lambda name, cfg: pytest.fail("a suite ran"))
    argv = ["verify", "--suite", "ring-axioms", "--seed", "1", f"{flag}={text}"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and f"argument {flag}: parse error at position" in err


def test_verify_integer_options_keep_their_values_and_messages(capsys, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "run_suite", lambda name, cfg: seen.append(cfg) or [])
    argv = ("--seed", "-5", "--trials", "7", "--max-prime", "11", "--max-exp", "3", "--samples", "0009")
    assert run_cli(capsys, "verify", "--suite", "thm3.3", *argv) == (0, "", "")
    assert seen == [TrialConfig(seed=-5, trials=7, max_prime=11, max_exp=3, samples_per_instance=9)]
    code, out, err = run_cli(capsys, "verify", "--suite", "thm3.3", "--seed", "1", "--trials", "0")
    assert (code, out) == (2, "") and err == "error: trials, max_exp and samples_per_instance must be positive\n"


def _lowered(build):
    return lambda *args: lowered_eta(build(*args))


# each mutant replaces one name that a suite calls, and the checks it must make fail
SUITE_MUTANTS = {
    "ring-axioms-dropping-m": (
        "ring-axioms", "ring_axiom_check",
        lambda mult, cfg: ring_axiom_check(mult, cfg, product=product_dropping_m), {"ring-axioms"},
    ),
    "lemma2.2-lowered": ("lemma2.2", "torsion_inv", _lowered(torsion_inv), {"lemma2.2-witness"}),
    "lemma2.2-witness-plus-one": (
        "lemma2.2", "torsion_witness", lambda g, u: torsion_witness(g, u) + 1, {"lemma2.2-witness"},
    ),
    "lemma2.2-raised": (
        "lemma2.2", "torsion_inv", lambda G, eta: torsion_inv(G, Characteristic(INF)), {"lemma2.2-multiples"},
    ),
    "lemma2.3-lowered": ("lemma2.3", "principal_ideal", _lowered(principal_ideal), {"lemma2.3-two-way"}),
    "thm2.4-lowered": (
        "thm2.4", "principal_ideal", _lowered(principal_ideal),
        {"thm2.4-case1-ideal", "thm2.4-case2", "thm2.4-case3"},
    ),
    "thm2.4-full-is-everything": (
        "thm2.4", "full_inv", lambda G, eta: full_inv(G, Characteristic(0)), {"thm2.4-case1-clause-reduced"},
    ),
    "thm2.4-full-is-torsion": ("thm2.4", "full_inv", torsion_inv, {"thm2.4-case1-clause-nonreduced"}),
    "thm2.4-contains-nothing": ("thm2.4", "contains", lambda d, x: False, {"thm2.4-case1-clause-nonreduced"}),
    "thm3.3-lowered": (
        "thm3.3", "principal_absolute_ideal", _lowered(principal_absolute_ideal), {"thm3.3-principal-absolute"},
    ),
    "thm3.4-never-ai": (
        "thm3.4", "is_ai_ring", lambda mult: False, {"thm3.4-integers", "thm3.4-classify", "thm3.4-witness"},
    ),
    "thm3.4-lowered": (
        "thm3.4", "principal_absolute_ideal", _lowered(principal_absolute_ideal),
        {"thm3.4-integers", "thm3.4-ai-ideals"},
    ),
    "mult-iso-doubled-m": ("mult-iso", "make_mult", lambda G, m: make_mult(G, add(m, m)), {"mult-iso-round-trip"}),
    "mult-iso-dropping-m": ("mult-iso", "multiply", product_dropping_m, {"mult-iso-additivity"}),
    "mult-iso-always-ai": ("mult-iso", "is_ai_ring", lambda mult: True, {"mult-iso-nai-subgroup"}),
}


@pytest.mark.parametrize("suite, name, mutant, failing", SUITE_MUTANTS.values(), ids=SUITE_MUTANTS)
def test_a_suite_reports_what_a_mutant_breaks(capsys, monkeypatch, suite, name, mutant, failing):
    monkeypatch.setattr(suites, name, mutant)
    argv = ("verify", "--suite", suite, "--seed", "3", "--trials", "10", "--samples", "10")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    shape = re.compile(r"FAIL (\S+) trials=\d+ fail_at=(\d+) detail=instance \2: .+")
    fails = [shape.fullmatch(line) for line in out.splitlines() if line.startswith("FAIL")]
    assert all(fails) and {m[1] for m in fails} == failing
    code, out, _ = run_cli(capsys, *argv, "--format", "json-like-summary")
    doc = json.loads(out)
    assert code == 1 and doc["passed"] is False
    failed = [c for c in doc["checks"] if not c["passed"]]
    assert {c["check"] for c in failed} == failing
    assert all(c["failures"][0].startswith(f"instance {c['fail_at']}: ") for c in failed)


def test_an_unknown_suite_name_is_a_value_error():
    with pytest.raises(ValueError, match="unknown suite 'thm9.9'; choose from"):
        suites.run_suite("thm9.9", TrialConfig(seed=1))


# -- parse errors -------------------------------------------------------------------


def test_parse_errors_exit_two_with_positions(capsys):
    code, _, err = run_cli(capsys, "group", "describe", "--cochar", "default=0;9:1")
    assert code == 2 and "position 10" in err
    code, _, err = run_cli(capsys, "elem", "info", "--cochar", CHI_A, "--elem", "r=1/3")
    assert code == 2 and "position" in err
    code, _, err = run_cli(capsys, "elem", "info", "--cochar", CHI_A, "--elem", "x=1")
    assert code == 2


@pytest.mark.parametrize(
    "cochar, text, pos, expected",
    [
        (CHI_A, "r=1/0", 4, "a nonzero denominator"),
        ("default=0;2:1", "q=1/0;b=0", 4, "a nonzero denominator"),
        (CHI_A, "r=1;2:1,2:3", 8, "a prime not listed before"),
        ("default=0;2:1", "q=1;b=0x", 7, "end of input"),
    ],
    ids=["zero-denominator", "zero-denominator-nonreduced", "repeated-prime", "trailing-text"],
)
def test_malformed_elements_exit_two_with_positions(capsys, cochar, text, pos, expected):
    code, out, err = run_cli(capsys, "elem", "info", "--cochar", cochar, "--elem", text)
    assert code == 2 and out == ""
    assert f"parse error at position {pos}: expected {expected}" in err


@pytest.mark.parametrize(
    "text, pos, expected",
    [
        ("G(eta=default=0)x", 16, "end of input"),
        ("T(eta=default=0", 15, "')'"),
        ("T(eta=default=0)+Z*r=1/0", 23, "a nonzero denominator"),
        ("G(eta=default=x)", 14, "a digit"),
    ],
    ids=["trailing-text", "unclosed", "bad-generator", "bad-floor"],
)
def test_malformed_descriptors_report_positions_in_the_whole_text(text, pos, expected):
    with pytest.raises(ParseError) as err:
        parse_descriptor(text, build_group(Characteristic.parse(CHI_A)))
    assert (err.value.text, err.value.pos, err.value.expected) == (text, pos, expected)


@pytest.mark.parametrize(
    "kind, text, pos",
    [
        ("cochar", "default=\u00b2", 8),
        ("cochar", "default=\u0663", 8),
        ("cochar", "default=0;\uff12:1", 10),
        ("reduced", "r=\u0661\u0662", 2),
        ("nonreduced", "q=1;b=\u0663", 6),
        ("floor", "G(eta=default=\u0663)", 14),
    ],
    ids=["superscript", "arabic-indic", "fullwidth-key", "reduced", "nonreduced", "floor"],
)
def test_numbers_are_ascii_digits_only(capsys, kind, text, pos):
    # str.isdigit and int() take these digits too; each grammar rejects them where they stand
    cochar = {"reduced": "default=inf", "nonreduced": "default=0;2:1", "floor": CHI_A}.get(kind)
    if kind == "cochar":
        parse, argv = Characteristic.parse, ["group", "describe", "--cochar", text]
    elif kind == "floor":
        parse, argv = lambda text: parse_descriptor(text, build_group(Characteristic.parse(cochar))), None
    else:
        parse = build_group(Characteristic.parse(cochar)).parse_elem
        argv = ["elem", "info", "--cochar", cochar, "--elem", text]
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.text, exc.value.pos, exc.value.expected) == (text, pos, "a digit")
    if argv:
        assert run_cli(capsys, *argv) == (2, "", f"{exc.value}\n")


@pytest.mark.parametrize(
    "argv, pos",
    [
        (["group", "describe", "--cochar", "default=" + "1" * 4400], 8),
        (["elem", "info", "--cochar", "default=inf", "--elem", "r=1/" + "1" * 4400], 4),
    ],
    ids=["cochar", "denominator"],
)
def test_a_number_of_more_than_4300_digits_is_a_parse_error_at_its_first_digit(capsys, argv, pos):
    # int() refuses more than 4300 digits by default; the grammars refuse them first, where they start
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"parse error at position {pos}: expected a number of at most 4300 digits in ")


def test_a_number_of_4300_digits_still_parses(capsys, deadline):
    with deadline(2.0):
        code, out, _ = run_cli(capsys, "elem", "info", "--cochar", "default=0;2:inf", "--elem", "r=" + "9" * 4300)
    assert code == 0 and out.startswith("elem=r=" + "9" * 4300 + "\n")


def test_a_composite_key_passing_twelve_prime_bases_is_rejected(capsys):
    psi_12 = 318665857834031151167461  # 399165290221 * 798330580441
    code, out, err = run_cli(capsys, "group", "describe", "--cochar", f"default=0;{psi_12}:1")
    assert code == 2 and out == ""
    assert "position 10" in err and "a prime" in err


def test_a_1332_digit_prime_key_is_checked_quickly(capsys, deadline):
    p = 2**4423 - 1  # a Mersenne prime
    foundations.is_prime.cache_clear()
    with deadline(2.0):
        code, out, _ = run_cli(capsys, "group", "describe", "--cochar", f"default=inf;{p}:0")
    assert code == 0 and out.strip() == f"reduced cochar=default=inf;{p}:0"


def test_an_order_too_long_to_print_leaves_stdout_empty(capsys, deadline):
    # the order is 100003**1000, about 5000 digits, past Python's int-to-str limit
    with deadline(2.0):
        code, out, err = run_cli(
            capsys, "elem", "info", "--cochar", "default=1000", "--elem", "r=0;100003:1"
        )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "integer string conversion" in err


def test_exponents_above_the_cap_are_rejected_before_a_group_is_built(capsys, monkeypatch):
    monkeypatch.setattr(Qd1Group, "__init__", lambda self, cochar: pytest.fail("a group was built"))
    code, _, err = run_cli(capsys, "group", "describe", "--cochar", "default=0;2:10000000000")
    assert code == 2 and "position 12" in err and "at most 1000" in err
    code, _, err = run_cli(capsys, "ai", "ideal", "--cochar", "default=1001", "--g", "r=1")
    assert code == 2 and "position 8" in err


# -- error surface and exports ------------------------------------------------------


ERROR_CLASSES = [
    c for c in vars(errors).values() if isinstance(c, type) and c.__module__ == errors.__name__
]
USAGE_ERRORS = [c for c in ERROR_CLASSES if issubclass(c, ValueError)]


def test_every_library_error_is_a_value_error():
    # the one exception is the broken-invariant error, which is not the caller's fault
    assert USAGE_ERRORS and set(ERROR_CLASSES) - set(USAGE_ERRORS) == {errors.InvariantError}


@pytest.mark.parametrize("cls", USAGE_ERRORS, ids=lambda c: c.__name__)
def test_every_library_error_exits_two(capsys, monkeypatch, cls):
    def fail(args):
        raise ParseError("default", 7, "'='") if cls is ParseError else cls("synthetic")

    monkeypatch.setitem(cli._HANDLERS, ("group", "describe"), fail)
    code, out, err = run_cli(capsys, "group", "describe", "--cochar", "default=0")
    assert code == 2 and out == ""
    if cls is ParseError:
        assert err == "parse error at position 7: expected '=' in 'default'\n"
    else:
        assert err == "error: synthetic\n"


def test_a_broken_invariant_exits_three(capsys, monkeypatch):
    def fail(args):
        raise errors.InvariantError("membership witness failed recomputation")

    monkeypatch.setitem(cli._HANDLERS, ("ring", "witness"), fail)
    code, out, err = run_cli(
        capsys, "ring", "witness", "--cochar", "default=0", "--m", "r=1", "--g", "r=2", "--b", "r=2"
    )
    assert (code, out, err) == (3, "", "internal error: membership witness failed recomputation\n")
    assert issubclass(errors.InvariantError, ArithmeticError)  # the suites record it as a FAIL


def test_a_bezout_step_with_a_common_factor_exits_three_with_its_inputs(capsys, monkeypatch):
    # the guard for support primes leaking into the Bezout step, fired by a bezout that reports gcd 2
    monkeypatch.setattr("qdrings.ring.bezout", lambda a, b: (0, 0, 2))
    argv = ["--cochar", "default=inf;2:1", "--m", "r=3", "--g", "r=5", "--b", "r=15"]
    code, out, err = run_cli(capsys, "ring", "witness", *argv)
    assert (code, out) == (3, "")
    assert err == (
        "internal error: support primes leaked into the Bezout step "
        "cochar=default=inf;2:1 m=r=3 g=r=5 b=r=15\n"
    )


_NAI = ["ring", "witness", "--cochar", "default=0;2:2,3:inf", "--m", "r=0;2:1"]


@pytest.mark.parametrize(
    "target, fault, argv, err",
    [
        (
            "qdrings.ring.zmul",
            lambda n, g: zmul(n + 1, g),
            ["ring", "witness", "--cochar", "default=inf;2:3", "--m", "r=1", "--g", "r=0;2:2", "--b", "r=0;2:4"],
            "torsion witness failed recomputation cochar=default=inf;2:3 g=r=0;2:2 u=r=0;2:4",
        ),
        (
            "qdrings.ring.torsion_witness",
            lambda g, u: torsion_witness(g, u) + 1,
            [*_NAI, "--g", "r=2", "--b", "r=0;2:2"],
            "membership witness failed recomputation cochar=default=0;2:2,3:inf m=r=0;2:1 g=r=2 b=r=0;2:2",
        ),
        (
            "qdrings.ring.equals",
            lambda a, b: False,
            _NAI,
            "witness ideal is not the cyclic group of e0 cochar=default=0;2:2,3:inf m=r=0;2:1 p=2",
        ),
        (
            "qdrings.ring.contains",
            lambda d, x: False,
            _NAI,
            "violator left the absolute ideal of e0 cochar=default=0;2:2,3:inf m=r=0;2:1 p=2",
        ),
        (
            "qdrings.ring.contains",
            lambda d, x: True,
            _NAI,
            "violator is a multiple of e0 cochar=default=0;2:2,3:inf m=r=0;2:1 p=2",
        ),
        (
            "qdrings.oracle.contains",
            lambda d, x: False,
            ["verify", "--suite", "lemma2.3", "--seed", "1", "--trials", "1", "--samples", "1"],
            "member generator left G(eta=default=0;2:4,3:inf,5:1,7:1): r=26880 cochar=default=inf;3:0",
        ),
    ],
    ids=["torsion-witness", "torsion-square", "cyclic-ideal", "violator-outside", "violator-multiple",
         "sample-member"],
)
def test_each_recomputation_guard_exits_three_with_its_inputs(capsys, monkeypatch, target, fault, argv, err):
    # the computation ahead of each guard is broken so that only the recomputation can see it
    monkeypatch.setattr(target, fault)
    assert run_cli(capsys, *argv) == (3, "", f"internal error: {err}\n")


@pytest.mark.parametrize(
    "product, detail",
    [
        (product_squaring_the_first, "instance 0: commutativity failed"),
        (product_of_squares, "instance 0: associativity failed"),
        (product_dropping_signs, "instance 1: distributivity failed"),
    ],
    ids=["commutativity", "associativity", "distributivity"],
)
def test_each_broken_ring_law_fails_verify(capsys, monkeypatch, product, detail):
    monkeypatch.setitem(oracle.ring_axiom_check.__kwdefaults__, "product", product)
    argv = ["--suite", "ring-axioms", "--seed", "7", "--trials", "3", "--samples", "5"]
    code, out, _ = run_cli(capsys, "verify", *argv)
    assert code == 1
    assert out.startswith("FAIL ring-axioms ") and out.endswith(f" detail={detail}\n")


def test_a_failed_recomputation_reports_its_inputs(capsys, monkeypatch):
    # a ring-side g x y + k*g that is off by one g breaks the check at the end of solve_in_principal
    monkeypatch.setattr("qdrings.ring._ideal_element", lambda mult, g, y, k: _ideal_element(mult, g, y, k + 1))
    argv = ["--cochar", "default=inf;2:1", "--m", "r=3", "--g", "r=5", "--b", "r=15"]
    code, out, err = run_cli(capsys, "ring", "witness", *argv)
    assert (code, out) == (3, "")
    assert err == (
        "internal error: principal witness failed recomputation "
        "cochar=default=inf;2:1 m=r=3 g=r=5 b=r=15\n"
    )


@pytest.mark.parametrize(
    "name", sorted(m.name for m in pkgutil.iter_modules(qdrings.__path__) if m.name != "__main__")
)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"qdrings.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_unknown_command_exits_two(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2
    assert run_cli(capsys, "ring", "mul", "--cochar", CHI_A)[0] == 2  # missing flags


_SUBCOMMANDS = {"group": ["describe"], "elem": ["info"], "ring": ["mul", "ideal", "classify", "witness"],
                "ai": ["ideal"], "verify": []}
# every option of every command, two abbreviations (--c is unique where --cochar exists, --s is
# ambiguous in verify), and unknown ones
_OPTIONS = ["--cochar", "--elem", "--m", "--g", "--b", "--suite", "--seed", "--trials", "--max-prime",
            "--max-exp", "--samples", "--format", "--c", "--s", "--foo", "-x", "-h", "--help"]
_VALUES = [CHI_A, "default=0;2:1", "r=1", "r=0;2:1", "7", "-5", "", "x", "ring-axioms", "json-like-summary"]
_STRAY = ["--", "-5", "", "-", "--foo", "-h", "nope", "verify"]
# the options each command needs, with values it accepts
_NEEDED = {"describe": ["--cochar", CHI_A], "info": ["--cochar", CHI_A, "--elem", "r=1"],
           "mul": ["--cochar", CHI_A, "--m", "r=1", "--g", "r=1", "--b", "r=1"],
           "classify": ["--cochar", CHI_A, "--m", "r=1"], "witness": ["--cochar", CHI_A, "--m", "r=1"],
           "ideal": ["--cochar", CHI_A, "--m", "r=1", "--g", "r=1"], "verify": ["--suite", "ring-axioms", "--seed", "7"]}


def _usage_argvs():
    """A fixed list of argv lists: -h at every level, bad commands and options, stray tokens."""
    argvs = [[], ["-h"], ["--foo", "verify", "--suite", "ring-axioms", "--seed", "1"], ["--", "ai"]]
    for command, subs in _SUBCOMMANDS.items():
        argvs += [[command], [command, "-h"], [command, "nope"], ["-5", command], ["--foo", command, "-h"]]
        argvs += [[command, s, "-h"] for s in subs]
    rng = random.Random(1907)
    while len(argvs) < 400:
        command = rng.choice([*_SUBCOMMANDS, *_SUBCOMMANDS, "frobnicate", ""])
        argv = [command]
        if _SUBCOMMANDS.get(command) and rng.random() < 0.8:
            argv.append(rng.choice(_SUBCOMMANDS[command]))
        if rng.random() < 0.5:
            argv += _NEEDED.get(argv[-1], [])
        for _ in range(rng.randrange(4)):
            argv.append(rng.choice(_OPTIONS))
            if rng.random() < 0.7:
                argv.append(rng.choice(_VALUES))
        for _ in range(rng.choice((0, 0, 1, 2))):  # before the command too
            argv.insert(rng.randrange(len(argv) + 1), rng.choice(_STRAY))
        argvs.append(argv)
    return argvs


def test_the_parser_of_one_command_prints_what_the_whole_parser_prints(capsys, monkeypatch):
    # compared in-process: argparse words its messages differently from one Python version to the next
    monkeypatch.setenv("COLUMNS", "80")
    for key in cli._HANDLERS:  # a parse that succeeds prints its namespace instead of running
        monkeypatch.setitem(cli._HANDLERS, key, lambda args: print(sorted(vars(args).items())) or 0)
    build = cli._build_parser

    def replay(argv, whole):
        with monkeypatch.context() as m:
            if whole:
                m.setattr(cli, "_build_parser", lambda command: build(None))
            code = cli.run(list(argv))
        return code, *capsys.readouterr()

    for argv in _usage_argvs():
        assert replay(argv, False) == replay(argv, True), argv
    built = []
    monkeypatch.setattr(cli, "_build_parser", lambda command: built.append(command) or build(command))
    assert cli.run(["--foo", "ai", "-h"]) == 0 and built == ["ai"]
    args, extra = build("ai").parse_known_args(["ring", "mul"])
    assert (args.command, extra) == ("ring", ["mul"])  # the other commands are left empty


# one argv per command and subcommand that parses
_PARSING_ARGVS = [
    ["group", "describe", "--cochar", CHI_A],
    ["elem", "info", "--cochar", CHI_A, "--elem", "r=1"],
    *(["ring", s, *_NEEDED[s]] for s in _SUBCOMMANDS["ring"]),
    ["ai", "ideal", "--cochar", CHI_A, "--g", "r=1"],
    ["verify", *_NEEDED["verify"]],
]


def _replay_parses(capsys, monkeypatch):
    """Make a parse that succeeds print its namespace instead of running; return a runner of argvs."""
    for key in cli._HANDLERS:
        monkeypatch.setitem(cli._HANDLERS, key, lambda args: print(sorted(vars(args).items())) or 0)

    def replay(argv):
        code = cli.run(list(argv))
        return code, *capsys.readouterr()

    return replay


def test_a_kept_parser_prints_what_a_fresh_build_prints(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    replay = _replay_parses(capsys, monkeypatch)
    memo = cli._build_parser
    for argv in [*_usage_argvs(), *_PARSING_ARGVS]:
        memo.cache_clear()
        fresh = replay(argv)
        assert replay(argv) == fresh, argv
        assert memo.cache_info()[:2] == (1, 1), argv  # one build, then one hit
        assert fresh[0] == 0 or argv not in _PARSING_ARGVS, argv

    # the width is read when help is printed, not when the parser is built
    memo.cache_clear()
    wide = replay(["verify", "-h"])
    monkeypatch.setenv("COLUMNS", "50")
    hit = replay(["verify", "-h"])
    assert memo.cache_info()[:2] == (1, 1)
    memo.cache_clear()
    assert hit == replay(["verify", "-h"]) != wide

    parser = memo("verify")
    assert memo("verify") is parser
    other = memo("ring")
    assert other is not parser and memo("ring") is other
    assert memo.cache_info().currsize == 1
    assert memo("verify") is not parser  # the ring parser took its place


def _parser_snapshot(parser):
    """The repr of the fields of the parser, of each of its actions and of each subparser below it."""
    parts = [repr(vars(parser))]
    for action in parser._actions:
        parts.append(repr(vars(action)))
        if isinstance(action, argparse._SubParsersAction):
            parts += [_parser_snapshot(sub) for sub in action.choices.values()]
    return "\n".join(parts)


@pytest.mark.parametrize(
    "command, runs",
    [
        ("verify", [(["verify", *_NEEDED["verify"]], 0), (["verify", "--suite", "ring-axioms", "--seed", "x"], 2),
                    (["verify", "-h"], 0), (["verify", "nope"], 2), (["verify", "--suite", "nope", "--seed", "1"], 2),
                    (["--foo", "verify", *_NEEDED["verify"]], 2)]),
        ("ring", [(["ring", "mul", *_NEEDED["mul"]], 0), (["ring", "mul", "--cochar", CHI_A], 2),
                  (["ring", "mul", "-h"], 0), (["ring", "-h"], 0), (["ring", "nope"], 2),
                  (["--foo", "ring", "mul", *_NEEDED["mul"]], 2)]),
    ],
)
def test_a_parse_leaves_the_kept_parser_unchanged(capsys, monkeypatch, command, runs):
    replay = _replay_parses(capsys, monkeypatch)
    cli._build_parser.cache_clear()
    parser = cli._build_parser(command)
    before = _parser_snapshot(parser)
    for argv, code in runs:
        assert replay(argv)[0] == code, argv
        assert _parser_snapshot(parser) == before, argv
    assert cli._build_parser.cache_info()[:2] == (len(runs), 1)  # every run parsed with this parser


@pytest.mark.parametrize(
    "argv, code",
    [
        (["group", "describe", "--cochar", CHI_A], 0),
        (["ring", "classify", "--cochar", CHI_A, "--m", "r=0;2:1"], 1),
        (["group", "describe", "--cochar", "default=0;2:"], 2),
    ],
    ids=["true", "negative", "usage"],
)
def test_python_dash_m_exits_with_the_run_code(capsys, monkeypatch, argv, code):
    # runs src/qdrings/__main__.py and cli.main as `python -m qdrings` does
    monkeypatch.setattr(sys, "argv", ["qdrings", *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("qdrings", run_name="__main__")
    assert exc.value.code == code
    assert (capsys.readouterr().out == "") == (code == 2)


# loaded by no command but verify; the first four come with dataclasses
_COLD_START_UNLOADED = ("dataclasses", "inspect", "ast", "dis", "tokenize", "hashlib", "json", "typing")


def test_a_cold_start_loads_only_what_its_command_runs(deadline):
    # a fresh interpreter without site, which would load typing and more on its own
    child = textwrap.dedent(
        f"""
        import sys
        sys.path.insert(0, {str(Path(qdrings.__file__).resolve().parent.parent)!r})
        import qdrings, qdrings.cli
        codes = [
            qdrings.cli.run(["group", "describe", "--cochar", {CHI_A!r}]),
            qdrings.cli.run(["ring", "mul", "--cochar", {CHI_A!r}, "--m", "r=1", "--g", "r=2", "--b", "r=3"]),
        ]
        print("loaded", *codes, *[m for m in {_COLD_START_UNLOADED!r} if m in sys.modules])
        sys.exit(qdrings.cli.run(["verify", "--suite", "lemma2.3", "--seed", "5", "--trials", "3",
                                  "--format", "json-like-summary"]))
        """
    )
    with deadline(60.0):
        proc = subprocess.run([sys.executable, "-S", "-c", child], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    describe, mul, loaded, summary = proc.stdout.split("\n", 3)
    assert (describe, mul) == (f"reduced cochar={CHI_A}", "r=6")
    assert loaded == "loaded 0 0"  # both commands exit 0, and none of the modules is loaded
    doc = json.loads(summary)
    assert doc["suite"] == "lemma2.3" and doc["passed"] is True


# -- grammar round trips ---------------------------------------------------------


def test_parse_print_round_trip_sweep():
    rng = random.Random(2026)
    cfg = TrialConfig(seed=2026)
    for _ in range(1000):
        chi = random_characteristic(rng, cfg)
        assert Characteristic.parse(chi.canonical_str()) == chi
        G = build_group(chi)
        g = random_element(G, rng, cfg, torsion=rng.random() < 0.3)
        assert G.parse_elem(str(g)) == g


def test_parse_char_matches_foundations_grammar():
    assert Characteristic.parse("default=inf") == Characteristic(INF)
    with pytest.raises(ParseError):
        Characteristic.parse("default")


def _stdout_of(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(list(argv)) == 0
    return out.getvalue()


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["0", "2", "inf"]),
    st.integers(0, MAX_HEIGHT),
    st.integers(0, 40),
    st.sampled_from(["r=1", "r=0;5:1"]),
)
@example("0", MAX_HEIGHT, 0, "r=1")
def test_printed_floors_parse_back(default, a, b, m):
    # heights up to MAX_HEIGHT: 2**a * 3**c stays below 2**MAX_HEIGHT, so the element prints
    cochar = f"default={default};2:inf,3:inf,5:2"
    text = f"r={2**a * 3 ** min(b, (MAX_HEIGHT - a) // 2)}"
    G = build_group(Characteristic.parse(cochar))
    g = G.parse_elem(text)
    info = _stdout_of("elem", "info", "--cochar", cochar, "--elem", text)
    lines = dict(line.split("=", 1) for line in info.splitlines())
    assert Characteristic.parse(lines["char"], MAX_HEIGHT) == char_of(g)
    assert char_of(g).value(2) == a
    ai = _stdout_of("ai", "ideal", "--cochar", cochar, "--g", text).strip()
    ideal = _stdout_of("ring", "ideal", "--cochar", cochar, "--m", m, "--g", text).strip()
    for printed, expected in (
        (ai, principal_absolute_ideal(g)),
        (ideal, principal_ideal(make_mult(G, G.parse_elem(m)), g)),
    ):
        parsed = parse_descriptor(printed, G)
        assert descriptor_str(parsed) == printed and equals(parsed, expected)
