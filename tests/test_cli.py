"""Tests for the command-line front end: outputs, exit codes, grammar round trips."""

import importlib
import json
import pkgutil
import random

import pytest

import qdrings
from qdrings import cli, errors, foundations
from qdrings.cli import run
from qdrings.errors import ParseError
from qdrings.foundations import INF, Characteristic
from qdrings.group import Qd1Group, add, build_group, zmul
from qdrings.oracle import TrialConfig, random_characteristic, random_element
from qdrings.ring import make_mult, multiply, principal_ideal
from qdrings.subgroup import contains

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


def test_verify_exits_one_when_a_check_fails(capsys, monkeypatch):
    from qdrings import cli
    from qdrings.oracle import CheckReport

    broken = CheckReport("stub", trials=1)
    broken.record(0, "synthetic failure")
    monkeypatch.setattr(cli, "run_suite", lambda name, cfg: [broken])
    code, out, _ = run_cli(capsys, "verify", "--suite", "thm3.3", "--seed", "1")
    assert code == 1
    assert out.strip() == "FAIL stub trials=1 fail_at=0 detail=synthetic failure"


# -- parse errors -------------------------------------------------------------------


def test_parse_errors_exit_two_with_positions(capsys):
    code, _, err = run_cli(capsys, "group", "describe", "--cochar", "default=0;9:1")
    assert code == 2 and "position 10" in err
    code, _, err = run_cli(capsys, "elem", "info", "--cochar", CHI_A, "--elem", "r=1/3")
    assert code == 2 and "position" in err
    code, _, err = run_cli(capsys, "elem", "info", "--cochar", CHI_A, "--elem", "x=1")
    assert code == 2


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


def test_a_failed_recomputation_reports_its_inputs(capsys, monkeypatch):
    # a ring-side zmul that is off by one breaks the check at the end of solve_in_principal
    monkeypatch.setattr("qdrings.ring.zmul", lambda n, g: zmul(n + 1, g))
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
