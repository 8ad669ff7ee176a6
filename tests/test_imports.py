"""The package's module import graph has no cycle, the package root and the
CLI load layers only when they are used, the CLI's file commands never load
argparse and load `json` only for `--json`, no module imports `dataclasses`,
only `gstar` knows the layout of the derived instance and reads it in one
place, `mincost` holds no stable-matching enumerator, and the
stable-matching layer has one configuration."""

from __future__ import annotations

import ast
import inspect
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import popmax

from conftest import I3_TEXT

PACKAGE = Path(popmax.__file__).parent

# the names the package root exported, by defining module, when it imported
# every module eagerly
EXPORTED = {module: names.split() for module, names in {
    "certificates": "CertificateReport DualCertificate certify_popular_max extract_certificate "
                    "lift parse_certificate serialize_certificate verify_certificate",
    "core": "Edge Instance Matching VoteTally compare is_maximum make_matching matching_cost "
            "matching_to_json parse_instance parse_matching random_instance "
            "serialize_instance serialize_matching wt_edge",
    "errors": "BoundExceededError CertificateError InputError InternalError NotMaximumError "
              "NotPopularError NotStableError ParseError PopmaxError UnsupportedClauseError "
              "ValidationError",
    "gstar": "GStarInstance build_gstar level_proposals levels place popular_max_matching project",
    "hardness": "CnfFormula GadgetInstance ReductionReport assignment_to_matching brute_sat "
                "build_gadget_instance check_reduction matching_to_assignment "
                "pad_unit_clauses parse_dimacs to_dimacs transform_formula",
    "mincost": "FlowNetwork MaxFlowResult MinCostResult RotationPoset emit_lp find_rotations "
               "max_flow min_cost_popular_max min_cost_stable",
    "oracle": "closed_subsets eliminate enumerate_stable matching_of_closed_subset",
    "popularity": "AlternatingDigraph ParetoVerdict PopularityVerdict Witness apply_witness "
                  "build_alternating_digraph format_witness is_pareto_optimal verify_popular_max",
    "stable": "blocking_edges gale_shapley is_stable",
}.items()}
ALL = sorted(name for names in EXPORTED.values() for name in names)
SUBMODULES = ("certificates", "cli", "core", "errors", "gstar", "hardness", "mincost",
              "oracle", "popularity", "stable")


def _relative_imports(path: Path, modules: set[str]) -> set[str]:
    """Sibling modules a module imports, at top level or inside functions."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(a.name if a.name in modules else "__init__" for a in node.names)
    return found


def test_module_import_graph_is_acyclic():
    paths = {p.stem: p for p in PACKAGE.glob("*.py")}
    graph = {name: _relative_imports(p, set(paths)) for name, p in paths.items()}
    state: dict[str, int] = {}  # 1 on the current path, 2 done

    def visit(name: str, trail: list[str]) -> None:
        state[name] = 1
        for dep in sorted(graph.get(name, ())):
            assert state.get(dep) != 1, f"import cycle: {' -> '.join(trail + [dep])}"
            if dep not in state:
                visit(dep, trail + [dep])
        state[name] = 2

    for name in sorted(graph):
        if name not in state:
            visit(name, [name])


def test_only_gstar_names_derived_nodes():
    helpers = {"copy_name", "dummy_name", "image_name"}
    for path in PACKAGE.glob("*.py"):
        if path.stem == "gstar":
            continue
        tree = ast.parse(path.read_text())
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        assert not names & helpers, f"{path.name} names {sorted(names & helpers)}"


def test_lattice_enumerator_lives_in_oracle():
    """`mincost` holds only the production route; the stable-matching
    enumerator and its helpers are `oracle`'s, re-exported by the package."""
    for name in ("closed_subsets", "matching_of_closed_subset", "enumerate_stable", "eliminate"):
        assert not hasattr(popmax.mincost, name), name
        assert getattr(popmax, name) is getattr(popmax.oracle, name)
    assert not hasattr(popmax.mincost, "Rotation")


def test_stable_layer_has_one_configuration():
    """`gale_shapley` always proposes from side A, the lattice enumerator
    has no limit, and a rotation is its cycle, with no wrapper type."""
    assert list(inspect.signature(popmax.gale_shapley).parameters) == ["inst"]
    for fn in (popmax.oracle.closed_subsets, popmax.oracle.enumerate_stable):
        assert "limit" not in inspect.signature(fn).parameters, fn.__name__
    for module in (popmax.errors, popmax.mincost, popmax):
        for name in ("LimitExceededError", "Rotation"):
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_derived_instance_has_one_reader():
    """`GStarTables.read` is the one inverse of `place`: no second
    projection, no name-to-origin copy, and certificates are extracted from
    the derived instance alone, whose source cannot disagree with it."""
    assert not hasattr(popmax.gstar, "_collapse")
    assert not hasattr(popmax.gstar.GStarTables, "project")
    fields = popmax.gstar.GStarInstance._fields
    assert "origin" not in fields and "ids" in fields
    assert list(inspect.signature(popmax.extract_certificate).parameters) == ["gs", "s"]


def test_no_module_imports_dataclasses():
    """`dataclasses` (and `inspect` under it) cost more to import than the
    records they would build; the value types use __slots__ or NamedTuple."""
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module.split(".")[0]]
            else:
                continue
            assert "dataclasses" not in names, f"{path.name}:{node.lineno} imports dataclasses"


def _loaded_by(code: str, tmp_path: Path) -> set[str]:
    """The modules a fresh `python -S` interpreter holds after running `code`
    that it did not hold when the code began. The script imports nothing
    before the code, and prints the names as one line of words."""
    script = ("import sys; before = set(sys.modules)\n" + code +
              "\nprint(*sorted(set(sys.modules) - before))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          env=env, cwd=tmp_path, check=True)
    return set(proc.stdout.splitlines()[-1].split())


def _run_loaded(argv: list[str], tmp_path: Path) -> set[str]:
    """The modules `popmax.cli.main(argv)` loads, on a small instance, the
    matching a1 b1 and a two-clause formula, its output discarded."""
    (tmp_path / "i.txt").write_text(I3_TEXT)
    (tmp_path / "m.txt").write_text("a1 b1\n")
    (tmp_path / "f.cnf").write_text("p cnf 3 2\n1 2 3 0\n-1 -2 0\n")
    code = ("import contextlib, io, popmax.cli\n"
            f"with contextlib.redirect_stdout(io.StringIO()): popmax.cli.main({argv!r})")
    return _loaded_by(code, tmp_path)


LAYERS = {f"popmax.{m}" for m in SUBMODULES} - {"popmax.cli", "popmax.core", "popmax.errors"}


def test_importing_the_cli_loads_no_layer(tmp_path):
    """Nor argparse: the file commands never build a parser. Nor `json`,
    which only `--json` output and JSON matching files need, nor `random`,
    which only `gen-random` needs."""
    loaded = _loaded_by("import popmax.cli", tmp_path)
    assert {"popmax.cli", "popmax.core", "popmax.errors"} <= loaded
    assert not loaded & (LAYERS | {"argparse", "dataclasses", "fractions", "inspect", "json", "random"})


_POPULARITY = {"popmax.popularity"}
_LEVELS = {"popmax.gstar", "popmax.stable"}


@pytest.mark.parametrize("argv, layers", [
    (["verify", "i.txt", "m.txt"], _POPULARITY),
    (["pareto", "i.txt", "m.txt"], _POPULARITY),
    (["certify", "i.txt", "m.txt"], _POPULARITY | {"popmax.certificates"}),
    (["solve", "i.txt"], _LEVELS),
    (["gstar", "i.txt"], _LEVELS),
    (["mincost", "i.txt"], _LEVELS | {"popmax.certificates", "popmax.mincost"}),
    (["--json", "emit-lp", "i.txt"], _LEVELS | {"popmax.mincost"}),
    (["gen-random", "--na", "2", "--nb", "2", "--density", "1", "--seed", "1"], {"argparse"}),
    (["gen-hardness", "f.cnf"], {"argparse", "popmax.hardness"}),
    (["check-reduction", "f.cnf"], {"argparse", "popmax.hardness"} | _POPULARITY),
])
def test_each_command_loads_only_its_layers(tmp_path, argv, layers):
    """A file command loads no argparse; a command with options does.
    `certify` reads potentials and `emit-lp` the table layout, so neither
    loads the other's layers, `mincost` reads its certificate off its own
    levels and loads no `popularity`, and `gen-hardness` checks no Pareto
    verdict."""
    assert _run_loaded(argv, tmp_path) & (LAYERS | {"argparse"}) == layers


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("command", sorted(popmax.cli.FILE_COMMANDS))
def test_only_json_output_loads_json(tmp_path, command, as_json):
    """The text form of a file command loads no `json`; its `--json` form
    loads it to write the envelope."""
    files = {"instance": "i.txt", "matching": "m.txt"}
    argv = ["--json"] * as_json + [command] + [files[f] for f in popmax.cli.FILE_COMMANDS[command][0]]
    assert ("json" in _run_loaded(argv, tmp_path)) == as_json


def test_package_root_exports_the_same_names():
    assert sorted(popmax.__all__) == ALL and len(ALL) == 78
    for module, names in EXPORTED.items():
        for name in names:
            value = getattr(popmax, name)
            assert value is getattr(import_module(f"popmax.{module}"), name), name
            if getattr(value, "__module__", "").startswith("popmax."):  # not Edge
                assert value.__module__ == f"popmax.{module}", name
    assert set(ALL) | set(SUBMODULES) <= set(dir(popmax))


def test_package_root_rejects_unknown_names():
    with pytest.raises(AttributeError, match="no attribute 'LimitExceededError'"):
        popmax.LimitExceededError  # noqa: B018
    assert not hasattr(popmax, "unpopularity_ratio")


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from popmax import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == ALL
