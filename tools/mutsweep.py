"""Mutation sweep over src/qdrings: how many one-token mutants does tier-1 kill?

Each mutant changes one thing in one module:

    a comparison operator   <  <->  <=,  >  <->  >=,  ==  <->  !=,  is <-> is not,  in <-> not in
    an int constant         n  ->  n + 1  and  n  ->  n - 1   (bools excluded)

Every mutant is written into a private copy of the tree, one at a time, and
tier-1 runs there with ``-x``; a failing run kills the mutant, and so does one
past max(120 s, 6 times the unmutated run), logged ``killed (timeout)``.  The
report gives killed/total per module, and how many died by timeout, and lists each
survivor by file and line.  Before the sweep, the unmutated modules are put
through the same parse-and-unparse step and must pass, so that a survivor is
never an artefact of the rewriting.

Usage, from the root of the repository (stdlib only):

    python tools/mutsweep.py --module oracle --list          # the mutants, compiled but not tested
    python tools/mutsweep.py --module oracle                 # the sweep
    python tools/mutsweep.py --module oracle --json out.json # the sweep, with a report

``--module`` keeps the one module whose file stem is the given name, and every
module when it is empty (the default).  ``--lines`` keeps the mutants on the
given lines, each named by its file under src/qdrings and its line number; a
mutant's line is the first line of the node it changes.  Both filters apply
when both are given, and either combines with ``--list``:

    python tools/mutsweep.py --lines ring.py:160 group.py:402 --list

A sweep stopped with SIGTERM still removes its private copy of the tree.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "qdrings"
# README.md holds the CLI examples a test replays, and tools/ this module, which a test loads
COPIED = ("src", "tests", "tools", "pyproject.toml", "README.md")
SWAPS = {
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.Is: ast.IsNot,
    ast.IsNot: ast.Is,
    ast.In: ast.NotIn,
    ast.NotIn: ast.In,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
}


@dataclass(frozen=True)
class Mutant:
    path: Path  # relative to the root of the tree
    index: int  # position among the mutation sites of the module, in ast.walk order
    line: int
    kind: str  # "compare" or "int"
    what: str


def _sites(tree: ast.AST):
    """Each mutation site as (node, slot, replacement, kind, description), in ast.walk order."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                new = SWAPS[type(op)]
                yield node, i, new, "compare", f"{SYMBOLS[type(op)]} -> {SYMBOLS[new]}"
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            for delta in (1, -1):
                yield node, None, node.value + delta, "int", f"{node.value} -> {node.value + delta}"


def mutants(module_filter: str) -> list[Mutant]:
    out = []
    for path in sorted((ROOT / PACKAGE).glob("*.py")):
        if module_filter and path.stem != module_filter:
            continue
        tree = ast.parse(path.read_text(), str(path))
        for index, (node, _, _, kind, what) in enumerate(_sites(tree)):
            out.append(Mutant(path.relative_to(ROOT), index, node.lineno, kind, what))
    return out


def mutated_source(mutant: Mutant | None, path: Path) -> str:
    """The module at path, parsed and unparsed, with the mutant applied when it is given."""
    tree = ast.parse((ROOT / path).read_text())
    if mutant is not None:
        for index, (node, slot, new, _, _) in enumerate(_sites(tree)):
            if index == mutant.index:
                if slot is None:
                    node.value = new
                else:
                    node.ops[slot] = new()
                break
    return ast.unparse(tree) + "\n"


def _pytest(tree: Path, timeout: float | None = None) -> bool:
    """True when tier-1 passes in tree; raises subprocess.TimeoutExpired past timeout seconds."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"]
    return subprocess.run(argv, cwd=tree, env=env, timeout=timeout, capture_output=True).returncode == 0


def sweep(todo: list[Mutant], log) -> dict[Mutant, str]:
    """Run tier-1 against each mutant in a private copy of the tree; map each to its verdict.

    The verdict is "killed", "killed (timeout)" or "SURVIVED", as the log line gives it.
    """
    # SIGTERM raises SystemExit, so that the finally below removes the copy; subprocess.run
    # kills a running tier-1 child on the way out
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    scratch = Path(tempfile.mkdtemp(prefix="mutsweep-"))
    tree = scratch / "tree"
    try:
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, tree / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(src, tree / name)
        paths = sorted({m.path for m in todo})
        for path in paths:  # the unmutated rewrite must pass, or no verdict below means anything
            (tree / path).write_text(mutated_source(None, path))
        start = time.monotonic()
        if not _pytest(tree):
            raise SystemExit("error: tier-1 fails on the unparsed, unmutated modules")
        # a mutant can hang tier-1 (say, a loop that no longer ends): it is killed at this limit
        timeout = max(120.0, 6 * (time.monotonic() - start))
        for path in paths:
            shutil.copy2(ROOT / path, tree / path)

        verdicts = {}
        for mutant in todo:
            (tree / mutant.path).write_text(mutated_source(mutant, mutant.path))
            try:
                verdicts[mutant] = "SURVIVED" if _pytest(tree, timeout) else "killed"
            except subprocess.TimeoutExpired:
                verdicts[mutant] = "killed (timeout)"
            shutil.copy2(ROOT / mutant.path, tree / mutant.path)
            log(f"{verdicts[mutant]:8} {mutant.path}:{mutant.line}: {mutant.what}")
        return verdicts
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        signal.signal(signal.SIGTERM, previous)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--module", default="", help="keep only the module with this file stem, e.g. group; empty keeps every module"
    )
    parser.add_argument(
        "--lines", nargs="+", default=[], metavar="FILE:LINE", help="keep only the mutants on these lines, e.g. ring.py:160"
    )
    parser.add_argument("--list", action="store_true", help="list and compile the mutants; run no tests")
    parser.add_argument("--json", help="write the per-module ratios and the survivors here")
    args = parser.parse_args(argv)

    todo = mutants(args.module)
    if not todo:
        parser.error(f"no mutation site in a module named {args.module!r}")
    if args.lines:
        wanted = set()
        for spec in args.lines:
            name, _, line = spec.rpartition(":")
            if not (line.isascii() and line.isdigit()) or "/" in name or not (ROOT / PACKAGE / name).is_file():
                parser.error(f"--lines takes FILE:LINE with FILE a module under {PACKAGE}, got {spec!r}")
            wanted.add((name, int(line)))
        todo = [m for m in todo if (m.path.name, m.line) in wanted]
        if not todo:
            parser.error("no mutation site on the lines given")
    if args.list:
        for m in todo:
            compile(mutated_source(m, m.path), str(m.path), "exec")  # each mutant still builds
            print(f"{m.path}:{m.line}: {m.what}")
        print(f"{len(todo)} mutants")
        return 0

    start = time.monotonic()
    verdicts = sweep(todo, lambda line: print(line, flush=True))
    survivors = [m for m in todo if verdicts[m] == "SURVIVED"]
    per_module = {}
    for m in todo:
        row = per_module.setdefault(
            m.path.stem, {"killed": 0, "timeouts": 0, "total": 0, "compare": [0, 0], "int": [0, 0]}
        )
        killed = verdicts[m] != "SURVIVED"
        row["killed"] += killed
        row["timeouts"] += verdicts[m] == "killed (timeout)"
        row["total"] += 1
        row[m.kind][0] += killed  # [killed, total] for one kind of mutant
        row[m.kind][1] += 1
    print()
    for name, row in per_module.items():
        print(
            f"{name}: {row['killed']}/{row['total']} killed, {row['timeouts']} by timeout "
            f"(comparisons {row['compare'][0]}/{row['compare'][1]}, int constants {row['int'][0]}/{row['int'][1]})"
        )
    for m in survivors:
        print(f"survivor {m.path}:{m.line}: {m.what}")
    print(f"{time.monotonic() - start:.0f} s")
    if args.json:
        report = {
            "modules": per_module,
            "survivors": [f"{m.path}:{m.line}: {m.what}" for m in survivors],
        }
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
