"""Behaviour lock: the README "Command line" examples, replayed through `cli.run`.

Each file under tests/golden/cli/ holds one example's argv, exit code and
exact stdout.  `verify` is locked separately by test_golden.py and is left
out here.  A change that alters an output on purpose rewrites the file from
the command's new output and says why.
"""

import json
import shlex
from pathlib import Path

import pytest

from qdrings.cli import run

ROOT = Path(__file__).parents[1]
CASES = sorted((ROOT / "tests" / "golden" / "cli").glob("*.json"))


def readme_commands():
    section = (ROOT / "README.md").read_text().split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line)[1:]
        for line in block.splitlines()
        if line.startswith("qdrings ") and not line.startswith("qdrings verify")
    ]


def test_every_readme_example_has_a_golden_file():
    assert sorted(json.loads(p.read_text())["argv"] for p in CASES) == sorted(readme_commands())


@pytest.mark.parametrize("path", CASES, ids=lambda p: p.stem)
def test_cli_output_matches_golden_file(path, capsys):
    case = json.loads(path.read_text())
    code = run(case["argv"])
    assert capsys.readouterr().out == case["stdout"]
    assert code == case["exit_code"]
