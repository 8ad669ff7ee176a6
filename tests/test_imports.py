"""The package's module import graph has no cycle, only `gstar` knows the
layout of the derived instance and reads it in one place, `mincost` holds
no stable-matching enumerator, and the stable-matching layer has one
configuration."""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import popmax

PACKAGE = Path(popmax.__file__).parent


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
    fields = popmax.gstar.GStarInstance.__dataclass_fields__
    assert "origin" not in fields and "ids" in fields
    assert list(inspect.signature(popmax.extract_certificate).parameters) == ["gs", "s"]
