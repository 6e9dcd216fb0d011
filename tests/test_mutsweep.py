"""Tests for tools/mutsweep.py: which modules a sweep takes, its timeout, and what it leaves behind."""

import ast
import importlib.util
import itertools
import json
import os
import signal
import subprocess
import sys
import tempfile
import textwrap
import types
from collections import Counter
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
_spec = importlib.util.spec_from_file_location("mutsweep", TOOLS / "mutsweep.py")
mutsweep = sys.modules["mutsweep"] = importlib.util.module_from_spec(_spec)  # dataclasses look it up
_spec.loader.exec_module(mutsweep)


def test_module_filter_keeps_only_the_module_with_that_stem():
    everything = mutsweep.mutants("")
    per_file = Counter(m.path.name for m in everything)
    package = sorted((mutsweep.ROOT / mutsweep.PACKAGE).glob("*.py"))
    with_sites = {p.name for p in package if any(mutsweep._sites(ast.parse(p.read_text())))}
    assert set(per_file) == with_sites and len(with_sites) == 8
    group = mutsweep.mutants("group")
    assert {m.path.name for m in group} == {"group.py"}  # not subgroup.py as well
    assert len(group) == per_file["group.py"]
    assert sum(len(mutsweep.mutants(p.stem)) for p in package) == len(everything)
    assert mutsweep.mutants("grou") == []


def test_lines_keep_the_mutants_on_those_lines_and_combine_with_module(capsys):
    ring, group = mutsweep.mutants("ring"), mutsweep.mutants("group")
    lines = sorted({m.line for m in ring})[:2]
    specs = [f"ring.py:{lines[0]}", f"ring.py:{lines[1]}", f"group.py:{group[0].line}"]
    keys = {("ring.py", lines[0]), ("ring.py", lines[1]), ("group.py", group[0].line)}

    def listed(*argv):
        assert mutsweep.main([*argv, "--list"]) == 0
        *rows, total = capsys.readouterr().out.splitlines()
        assert total == f"{len(rows)} mutants"
        return rows

    expected = [f"{m.path}:{m.line}: {m.what}" for m in mutsweep.mutants("") if (m.path.name, m.line) in keys]
    assert len(expected) > 3 and listed("--lines", *specs) == expected
    assert listed("--module", "ring", "--lines", *specs) == [row for row in expected if "/ring.py:" in row]
    # a line without a site, a module that is not in the package, and specs that are not FILE:LINE
    for argv in (
        ["--lines", f"ring.py:{max(m.line for m in ring) + 1000}"],
        ["--module", "group", "--lines", f"ring.py:{lines[0]}"],
        ["--lines", "nope.py:3"],
        ["--lines", "ring.py"],
        ["--lines", "ring.py:x"],
        ["--lines", "src/qdrings/ring.py:3"],
        ["--lines", "../qdrings/ring.py:3"],
        ["--lines", "ring.py:" + "".join(chr(0x660 + int(c)) for c in str(lines[0]))],  # Arabic-Indic digits
    ):
        with pytest.raises(SystemExit) as info:
            mutsweep.main([*argv, "--list"])
        assert info.value.code == 2
        assert "error:" in capsys.readouterr().err


def test_a_sweep_stopped_with_sigterm_removes_its_copy_of_the_tree(tmp_path, deadline):
    # tier-1 is replaced by a stub that reports it has started and then waits to be stopped
    child = textwrap.dedent(
        f"""
        import sys, time
        sys.path.insert(0, {str(TOOLS)!r})
        import mutsweep

        def stub(tree):
            print("running", flush=True)
            time.sleep(60)
            return True

        mutsweep._pytest = stub
        mutsweep.main(["--module", "__main__"])
        """
    )
    env = dict(os.environ, TMPDIR=str(tmp_path))
    with deadline(30.0):
        with subprocess.Popen(
            [sys.executable, "-c", child], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        ) as proc:
            assert proc.stdout.readline() == "running\n", proc.stderr.read()
            (copy,) = tmp_path.glob("mutsweep-*")
            # tier-1 runs in this copy, and this file loads tools/mutsweep.py when it is collected
            assert (copy / "tree" / "tools" / "mutsweep.py").is_file()
            proc.send_signal(signal.SIGTERM)
            assert proc.wait() == 128 + signal.SIGTERM
    assert list(tmp_path.glob("mutsweep-*")) == []


@pytest.mark.parametrize("unmutated_s, limit", [(10, 120.0), (50, 300.0)])
def test_a_mutant_past_six_unmutated_runs_is_killed_by_timeout(tmp_path, monkeypatch, capsys, unmutated_s, limit):
    # each reading moves the clock on by unmutated_s, which is so the time the unmutated run takes
    clock = itertools.count(0, unmutated_s)
    monkeypatch.setattr(mutsweep, "time", types.SimpleNamespace(monotonic=lambda: next(clock)))
    limits = []

    def stub(tree, timeout=None):
        if timeout is None:  # the unmutated run
            return True
        limits.append(timeout)
        raise subprocess.TimeoutExpired("pytest", timeout)

    monkeypatch.setattr(mutsweep, "_pytest", stub)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    report = tmp_path / "report.json"
    assert mutsweep.main(["--module", "__main__", "--json", str(report)]) == 0
    assert limits == [limit]
    assert "killed (timeout) src/qdrings/__main__.py:" in capsys.readouterr().out
    row = json.loads(report.read_text())["modules"]["__main__"]
    assert (row["killed"], row["timeouts"], row["total"]) == (1, 1, 1)
