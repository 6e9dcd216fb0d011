"""Mutation sweep over src/qdrings: how many one-token mutants does tier-1 kill?

Each mutant changes one thing in one module:

    a comparison operator   <  <->  <=,  >  <->  >=,  ==  <->  !=,  is <-> is not,  in <-> not in
    an int constant         n  ->  n + 1  and  n  ->  n - 1   (bools excluded)

Every mutant is written into a private copy of the tree, one at a time, and
tier-1 runs there with ``-x``; a failing run (or one past ``TIMEOUT`` seconds)
kills the mutant.  The report gives killed/total per module and lists each
survivor by file and line.  Before the sweep, the unmutated modules are put
through the same parse-and-unparse step and must pass, so that a survivor is
never an artefact of the rewriting.

Usage, from the root of the repository (stdlib only):

    python tools/mutsweep.py --module oracle --list          # the mutants, compiled but not tested
    python tools/mutsweep.py --module oracle                 # the sweep
    python tools/mutsweep.py --module oracle --json out.json # the sweep, with a report

``--module`` keeps the one module whose file stem is the given name, and every
module when it is empty (the default).  A sweep stopped with SIGTERM still
removes its private copy of the tree.
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
TIMEOUT = 600.0  # seconds per tier-1 run; a mutant that hangs (say, a loop that no longer ends) is killed
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


def _pytest(tree: Path) -> bool:
    """True when tier-1 passes in tree."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"]
    try:
        done = subprocess.run(argv, cwd=tree, env=env, timeout=TIMEOUT, capture_output=True)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def sweep(todo: list[Mutant], log) -> list[Mutant]:
    """Run tier-1 against each mutant in a private copy of the tree; return the survivors."""
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
        if not _pytest(tree):
            raise SystemExit("error: tier-1 fails on the unparsed, unmutated modules")
        for path in paths:
            shutil.copy2(ROOT / path, tree / path)

        survivors = []
        for mutant in todo:
            (tree / mutant.path).write_text(mutated_source(mutant, mutant.path))
            killed = not _pytest(tree)
            shutil.copy2(ROOT / mutant.path, tree / mutant.path)
            if not killed:
                survivors.append(mutant)
            log(f"{'killed  ' if killed else 'SURVIVED'} {mutant.path}:{mutant.line}: {mutant.what}")
        return survivors
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        signal.signal(signal.SIGTERM, previous)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--module", default="", help="keep only the module with this file stem, e.g. group; empty keeps every module"
    )
    parser.add_argument("--list", action="store_true", help="list and compile the mutants; run no tests")
    parser.add_argument("--json", help="write the per-module ratios and the survivors here")
    args = parser.parse_args(argv)

    todo = mutants(args.module)
    if not todo:
        parser.error(f"no mutation site in a module named {args.module!r}")
    if args.list:
        for m in todo:
            compile(mutated_source(m, m.path), str(m.path), "exec")  # each mutant still builds
            print(f"{m.path}:{m.line}: {m.what}")
        print(f"{len(todo)} mutants")
        return 0

    start = time.monotonic()
    survivors = sweep(todo, lambda line: print(line, flush=True))
    per_module = {}
    for m in todo:
        row = per_module.setdefault(m.path.stem, {"killed": 0, "total": 0, "compare": [0, 0], "int": [0, 0]})
        killed = m not in survivors
        row["killed"] += killed
        row["total"] += 1
        row[m.kind][0] += killed  # [killed, total] for one kind of mutant
        row[m.kind][1] += 1
    print()
    for name, row in per_module.items():
        print(
            f"{name}: {row['killed']}/{row['total']} killed "
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
