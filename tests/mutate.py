"""Mutation audit: which one-token changes to a module do the tests miss?

    PYTHONPATH=src python tests/mutate.py core \\
        --functions Instance.__post_init__ _cuts _weights _blocking parse_matching _rank_maps

Each mutant makes one change inside the named functions (all of the module's
functions when none is named):
- one comparison swapped: < and <=, > and >=, == and !=;
- one + turned into - or back, in an expression or an augmented assignment;
- one integer constant 0, 1 or 2 raised by 1.

The mutated module is written with `ast.unparse` into a copy of `src/`, and
the test files (`--tests`, by default `tests/test_<module>.py`) run against
it with `pytest -x`, each mutant under a time limit, since a mutant can loop
forever; a mutant that runs out of time counts as killed. Every mutant that
survives is run again against all of `tests/`, and those that survive that
too are printed: each needs a test that kills it, or a reason why it is
equivalent to the original. The exit code is 1 when any survives tier-1.

This is a script, not a test: it is slow, and pytest does not collect it.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Add: ast.Sub, ast.Sub: ast.Add}
SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
          ast.NotEq: "!=", ast.Add: "+", ast.Sub: "-"}


def _functions(tree: ast.Module, names: list[str]) -> list[ast.AST]:
    """The function nodes named (a method as `Class.method`), or every
    function of the module when no name is given."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    found[f"{node.name}.{item.name}"] = item
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found[node.name] = node
    missing = [n for n in names if n not in found]
    if missing:
        sys.exit(f"no function {', '.join(missing)} in the module")
    return [found[n] for n in names] if names else list(found.values())


def _sites(functions: list[ast.AST]):
    """(description, apply) for each mutation site; `apply` makes the change
    on the node it was found on and returns the undo."""
    for fn in functions:
        for node in ast.walk(fn):
            line = f"{getattr(node, 'lineno', '?')}:{getattr(node, 'col_offset', '?')}"
            if isinstance(node, ast.Compare):
                for i, op in enumerate(node.ops):
                    if type(op) in SWAPS:
                        where = line if len(node.ops) == 1 else f"{line} #{i + 1}"
                        yield (f"line {where}: {SYMBOL[type(op)]} -> {SYMBOL[SWAPS[type(op)]]}",
                               _setter(node.ops, i, SWAPS[type(op)]()))
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
                yield (f"line {line}: {SYMBOL[type(node.op)]} -> {SYMBOL[SWAPS[type(node.op)]]}",
                       _setter(node, "op", SWAPS[type(node.op)]()))
            elif (isinstance(node, ast.Constant) and type(node.value) is int
                    and node.value in (0, 1, 2)):
                yield (f"line {line}: {node.value} -> {node.value + 1}",
                       _setter(node, "value", node.value + 1))


def _setter(target, key, value):
    def apply():
        if isinstance(target, list):
            old, target[key] = target[key], value
            return lambda: target.__setitem__(key, old)
        old = getattr(target, key)
        setattr(target, key, value)
        return lambda: setattr(target, key, old)
    return apply


def _run(src: Path, tests: list[str], timeout: float) -> str:
    """"killed", "timeout" or "survived"."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(ROOT / "tests")]),
           "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               *tests], cwd=ROOT, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if proc.returncode == 0 else "killed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="a module of src/popmax, such as core")
    parser.add_argument("--functions", nargs="*", default=[])
    parser.add_argument("--tests", nargs="*", help="test files run on every mutant")
    parser.add_argument("--timeout", type=float, default=120.0, help="seconds per mutant run")
    parser.add_argument("--list", action="store_true", help="print the mutants and run none")
    args = parser.parse_args(argv)
    path = ROOT / "src" / "popmax" / f"{args.module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    sites = list(_sites(_functions(tree, args.functions)))
    if args.list:
        for description, _ in sites:
            print(description)
        return 0
    tests = args.tests or [f"tests/test_{args.module}.py"]
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        target = src / "popmax" / path.name

        def write():
            target.write_text(ast.unparse(tree) + "\n", encoding="utf-8")

        write()
        if _run(src, tests, args.timeout) != "survived":
            sys.exit("the tests fail on the unmutated module as ast.unparse writes it")
        for k, (description, apply) in enumerate(sites, 1):
            undo = apply()
            write()
            outcome = _run(src, tests, args.timeout)
            if outcome == "survived" and tests != ["tests/"]:
                outcome = _run(src, ["tests/"], 10 * args.timeout)
                outcome = "survived tier-1" if outcome == "survived" else f"{outcome} by tier-1"
            undo()
            print(f"[{k}/{len(sites)}] {description}: {outcome}", flush=True)
            if outcome.startswith("survived"):
                survivors.append(description)
    print(f"{len(survivors)} of {len(sites)} mutants survive:")
    for description in survivors:
        print(f"  {description}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
