"""Mutation audit: which one-token changes to a module do the tests miss?

    PYTHONPATH=src python tests/mutate.py core \\
        --functions Instance.__post_init__ _cuts _weights _blocking parse_matching _rank_maps

Each mutant makes one change inside the named functions (all of the module's
functions when none is named), of one of these kinds (`--kinds` picks some):
- compare: one comparison swapped: < and <=, > and >=, == and !=;
- arith: one + turned into - or back, in an expression or an augmented
  assignment;
- const: one integer constant 0, 1 or 2 raised by 1;
- negate: the test of one `if`, `while` or conditional expression, or one
  `if` filter of a comprehension or generator expression, negated: wrapped
  in `not`, or stripped of the `not` it has;
- delete: one call made as a statement, such as `gc.disable()`, replaced by
  `pass`;
- flip: one keyword argument given as True or False, such as
  `sort_keys=True`, given the other.
`--list` prints one line per mutant, naming its line and column and what it
changes (the code itself for the last three kinds), and runs none.

The mutated module is written with `ast.unparse` into a copy of `src/`, and
the test files (`--tests`, by default `tests/test_<module>.py`) run against
it with `pytest -x`, each mutant under a time limit, since a mutant can loop
forever: `--timeout` seconds, or by default max(10 s, 5 x the wall time of
the run on the unmutated module that is made first), which is printed; a
rerun against all of `tests/` gets 10 x the limit. The runs load this file
as a pytest plugin (`-p mutate`), which notes each test as it starts and the
first one that fails, so every kill is printed with the node id of the test
that made it and how it failed: by an assertion, by another exception
(named), or by running out of time while that test ran. That one test is
then run again against a second copy of `src/`, holding the unmutated module
as `ast.unparse` writes it; if it fails there too, the kill is reported as
flaky and not counted. Every mutant that is not killed is run again against
all of `tests/`, and those that survive that too are printed: each needs a
test that kills it, or a reason why it is equivalent to the original. The
exit code is 1 when any survives tier-1 or is left with only a flaky kill.

This is a script, not a test: it is slow, and pytest does not collect it.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Add: ast.Sub, ast.Sub: ast.Add}
SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
          ast.NotEq: "!=", ast.Add: "+", ast.Sub: "-"}
KEYWORD = {ast.If: "if", ast.While: "while", ast.IfExp: "if-else"}
KINDS = ("compare", "arith", "const", "negate", "delete", "flip")


def _code(node: ast.AST) -> str:
    """The source of `node` as `ast.unparse` writes it, cut to one short line."""
    text = " ".join(ast.unparse(node).split())
    return text if len(text) <= 48 else text[:45] + "..."


def _negation(where: str, kind: str, test: ast.expr):
    """(description, the test negated) for a test: wrapped in `not`, or
    stripped of the `not` it has."""
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return f"line {where}: {kind} {_code(test)} -> {_code(test.operand)}", test.operand
    return f"line {where}: {kind} {_code(test)} -> not ...", ast.UnaryOp(ast.Not(), test)


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
    """(kind, description, apply) for each mutation site; `apply` makes the
    change on the node it was found on and returns the undo."""
    for fn in functions:
        for node in ast.walk(fn):
            line = f"{getattr(node, 'lineno', '?')}:{getattr(node, 'col_offset', '?')}"
            for field in ("body", "orelse", "finalbody"):
                stmts = getattr(node, field, None)
                for i, stmt in enumerate(stmts if isinstance(stmts, list) else ()):
                    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
                        yield ("delete", f"line {stmt.lineno}:{stmt.col_offset}: delete {_code(stmt)}",
                               _setter(stmts, i, ast.Pass()))
            if isinstance(node, ast.Compare):
                for i, op in enumerate(node.ops):
                    if type(op) in SWAPS:
                        where = line if len(node.ops) == 1 else f"{line} #{i + 1}"
                        yield ("compare", f"line {where}: {SYMBOL[type(op)]} -> {SYMBOL[SWAPS[type(op)]]}",
                               _setter(node.ops, i, SWAPS[type(op)]()))
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
                yield ("arith", f"line {line}: {SYMBOL[type(node.op)]} -> {SYMBOL[SWAPS[type(node.op)]]}",
                       _setter(node, "op", SWAPS[type(node.op)]()))
            elif (isinstance(node, ast.Constant) and type(node.value) is int
                    and node.value in (0, 1, 2)):
                yield ("const", f"line {line}: {node.value} -> {node.value + 1}",
                       _setter(node, "value", node.value + 1))
            elif isinstance(node, (ast.If, ast.While, ast.IfExp)):
                description, test = _negation(line, KEYWORD[type(node)], node.test)
                yield "negate", description, _setter(node, "test", test)
            elif isinstance(node, ast.comprehension):
                for i, cond in enumerate(node.ifs):
                    description, test = _negation(f"{cond.lineno}:{cond.col_offset}", "filter if", cond)
                    yield "negate", description, _setter(node.ifs, i, test)
            elif (isinstance(node, ast.keyword) and isinstance(node.value, ast.Constant)
                    and type(node.value.value) is bool):
                flipped = not node.value.value
                yield ("flip", f"line {line}: {node.arg}={node.value.value} -> {flipped}",
                       _setter(node, "value", ast.Constant(flipped)))


def _setter(target, key, value):
    def apply():
        if isinstance(target, list):
            old, target[key] = target[key], value
            return lambda: target.__setitem__(key, old)
        old = getattr(target, key)
        setattr(target, key, value)
        return lambda: setattr(target, key, old)
    return apply


LOG = "MUTATE_LOG"  # the file the plugin hooks below append their notes to


def _note(*fields: str) -> None:
    with open(os.environ[LOG], "a", encoding="utf-8") as fh:
        fh.write("\t".join(fields) + "\n")


def pytest_runtest_logstart(nodeid, location):
    """Plugin hook: note each test as it starts, so that a run cut off by
    its time limit names the test that was running."""
    _note("start", nodeid)


def pytest_exception_interact(node, call, report):
    """Plugin hook: note a test (or a test file, when collecting it) that
    fails, and how."""
    exc = call.excinfo
    _note("fail", node.nodeid, "assertion" if exc.errisinstance(AssertionError)
          else f"exception {exc.typename}")


def _run(src: Path, tests: list[str], timeout: float) -> tuple[str | None, str] | None:
    """None when the tests pass; otherwise the node id of the first test
    that failed (None if no test is to blame) and how it failed:
    "assertion", "exception <type>", "timeout" or "pytest exit <code>"."""
    log = src.parent / "notes.txt"
    log.write_text("", encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(ROOT / "tests")]),
           "PYTHONDONTWRITEBYTECODE": "1", LOG: str(log)}
    # its own session, so that a timeout also ends the processes the tests started
    proc = subprocess.Popen([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                             "-p", "mutate", *tests], cwd=ROOT, env=env, start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        code = None
    if code == 0:
        return None
    notes = [line.split("\t") for line in log.read_text(encoding="utf-8").splitlines()]
    failed = [note[1:] for note in notes if note[0] == "fail"]
    if failed:
        return failed[0][0], failed[0][1]
    if code is None:
        started = [note[1] for note in notes if note[0] == "start"]
        return (started[-1] if started else None), "timeout"
    return None, f"pytest exit {code}"


def _judge(src: Path, clean: Path, tests: list[str], timeout: float) -> tuple[str, str]:
    """("survived", ""), ("killed", why) or ("flaky", why): a failure is
    flaky when the test that failed (all of `tests` if none is named) fails
    on the unmutated source too."""
    failure = _run(src, tests, timeout)
    if failure is None:
        return "survived", ""
    nodeid, how = failure
    why = f"{nodeid or ' '.join(tests)} ({how})"
    if _run(clean, [nodeid] if nodeid else tests, timeout) is not None:
        return "flaky", why + ", which fails on the unmutated source too"
    return "killed", why


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="a module of src/popmax, such as core")
    parser.add_argument("--functions", nargs="*", default=[])
    parser.add_argument("--tests", nargs="*", help="test files run on every mutant")
    parser.add_argument("--timeout", type=float,
                        help="seconds per mutant run (default: max(10, 5 x the clean run's time))")
    parser.add_argument("--kinds", nargs="+", choices=KINDS, default=KINDS, help="the mutant kinds made")
    parser.add_argument("--list", action="store_true", help="print the mutants and run none")
    args = parser.parse_args(argv)
    path = ROOT / "src" / "popmax" / f"{args.module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    sites = [(description, apply) for kind, description, apply in _sites(_functions(tree, args.functions))
             if kind in args.kinds]
    if args.list:
        for description, _ in sites:
            print(description)
        return 0
    tests = args.tests or [f"tests/test_{args.module}.py"]
    outcomes: dict[str, list[str]] = {"killed": [], "flaky": [], "survived": []}
    with tempfile.TemporaryDirectory() as tmp:
        src, clean = (Path(tmp) / name / "src" for name in ("mutant", "clean"))

        def write(copy: Path) -> None:
            (copy / "popmax" / path.name).write_text(ast.unparse(tree) + "\n", encoding="utf-8")

        for copy in (src, clean):
            shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
            write(copy)
        started = time.monotonic()
        failure = _run(clean, tests, args.timeout)
        if failure is not None:
            sys.exit(f"the tests fail on the unmutated module as ast.unparse writes it: {failure}")
        timeout = args.timeout or max(10.0, 5 * (time.monotonic() - started))
        print(f"time limit per mutant run: {timeout:.0f} s ({10 * timeout:.0f} s against all of tests/)",
              flush=True)
        for k, (description, apply) in enumerate(sites, 1):
            undo = apply()
            write(src)
            outcome, why = _judge(src, clean, tests, timeout)
            if outcome != "killed" and tests != ["tests/"]:
                outcome, why = _judge(src, clean, ["tests/"], 10 * timeout)
                why = f"tier-1: {why}" if why else "tier-1"
            undo()
            line = f"{description}: {outcome} ({why})" if why else f"{description}: {outcome}"
            print(f"[{k}/{len(sites)}] {line}", flush=True)
            outcomes[outcome].append(line)
    print(f"{len(sites)} mutants: {len(outcomes['killed'])} killed, "
          f"{len(outcomes['flaky'])} killed only by a flaky test, {len(outcomes['survived'])} survive")
    for line in outcomes["flaky"] + outcomes["survived"]:
        print(f"  {line}")
    return 1 if outcomes["flaky"] or outcomes["survived"] else 0

if __name__ == "__main__":
    sys.exit(main())
