"""Tests for tools/mutsweep.py: which modules a sweep takes, and what it leaves behind."""

import ast
import importlib.util
import os
import signal
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
_spec = importlib.util.spec_from_file_location("mutsweep", TOOLS / "mutsweep.py")
mutsweep = sys.modules["mutsweep"] = importlib.util.module_from_spec(_spec)  # dataclasses look it up
_spec.loader.exec_module(mutsweep)


def test_module_filter_keeps_only_the_module_with_that_stem():
    everything = mutsweep.mutants("")
    per_file = Counter(m.path.name for m in everything)
    package = sorted((mutsweep.ROOT / mutsweep.PACKAGE).glob("*.py"))
    with_sites = {p.name for p in package if any(mutsweep._sites(ast.parse(p.read_text())))}
    assert set(per_file) == with_sites and len(with_sites) == 9
    group = mutsweep.mutants("group")
    assert {m.path.name for m in group} == {"group.py"}  # not subgroup.py as well
    assert len(group) == per_file["group.py"]
    assert sum(len(mutsweep.mutants(p.stem)) for p in package) == len(everything)
    assert mutsweep.mutants("grou") == []


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
