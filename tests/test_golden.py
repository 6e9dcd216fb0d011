"""Behaviour lock: the json-like-summary of every suite at one fixed seed.

Each file under tests/golden/ is the exact stdout of

    qdrings verify --suite <name> --seed 7 --trials 20 --samples 10 --format json-like-summary

A refactor that keeps behaviour reproduces every file byte for byte.  A
change that alters a summary on purpose regenerates the files with that
command and says why.
"""

from pathlib import Path

import pytest

from qdrings.cli import run
from qdrings.suites import SUITE_NAMES

GOLDEN = Path(__file__).parent / "golden"
ARGS = ["--seed", "7", "--trials", "20", "--samples", "10", "--format", "json-like-summary"]


def test_every_suite_has_a_golden_file():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(SUITE_NAMES)


@pytest.mark.parametrize("suite", sorted(SUITE_NAMES))
def test_summary_matches_golden_file(suite, capsys):
    code = run(["verify", "--suite", suite, *ARGS])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{suite}.json").read_text()
