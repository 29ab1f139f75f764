"""What the package imports and exports: every name a library module
imports is used in it, the package exports each API module's __all__
and nothing else, each scheme node class states its shape once, and
the command line loads no heavy stdlib module."""
from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
import types

import pytest

import wittlinear
from helpers import SRC

HERE = os.path.dirname(os.path.abspath(__file__))

PACKAGE = os.path.join(SRC, "wittlinear")
MODULES = sorted(name for name in os.listdir(PACKAGE)
                 if name.endswith(".py") and name != "__init__.py")


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_from_imports(name):
    with open(os.path.join(PACKAGE, name)) as fh:
        tree = ast.parse(fh.read(), name)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [
        "line %d: %s" % (node.lineno, alias.asname or alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
        if (alias.asname or alias.name) not in used
    ]
    assert not unused, unused


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_plain_imports(name):
    # import a.b binds a; import a.b as c binds c
    with open(os.path.join(PACKAGE, name)) as fh:
        tree = ast.parse(fh.read(), name)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = [
        "line %d: %s" % (node.lineno, alias.asname or alias.name.partition(".")[0])
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if (alias.asname or alias.name.partition(".")[0]) not in read
    ]
    assert not unused, unused


def test_ranges_imports_nothing_from_cells():
    # ranges reads a torus cell's shifts off its shape; it builds no cell sum
    with open(os.path.join(PACKAGE, "ranges.py")) as fh:
        tree = ast.parse(fh.read(), "ranges.py")
    parts = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts.update((node.module or "").split("."))
            if node.module is None:  # from . import cells
                parts.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            parts.update(p for alias in node.names for p in alias.name.split("."))
    assert "cells" not in parts


@pytest.mark.parametrize("name", [m for m in MODULES + ["__init__.py"] if m != "schemes.py"])
def test_tree_folds_go_through_the_derivation_table(name):
    # a printer or rule fold outside schemes reads derivation() rows; a
    # walk of its own through fold_tree or kind_of would be a second path
    with open(os.path.join(PACKAGE, name)) as fh:
        tree = ast.parse(fh.read(), name)
    calls = [
        "line %d: %s" % (node.lineno, ast.unparse(node.func))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
        in ("fold_tree", "kind_of")
    ]
    assert not calls, calls


def _class_bodies(module: str) -> list[tuple[str, ast.stmt]]:
    """(class name, statement) for every statement of every class body
    of a package module."""
    with open(os.path.join(PACKAGE, module)) as fh:
        tree = ast.parse(fh.read(), module)
    return [(cls.name, stmt) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for stmt in cls.body]


def _binds(stmt: ast.stmt) -> set[str]:
    """The names a class-body statement defines or assigns."""
    if isinstance(stmt, ast.FunctionDef):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return {t.id for t in targets if isinstance(t, ast.Name)}


@pytest.mark.parametrize("name,owners", [
    # every node's children() is built from its _subtrees
    ("children", ["SchemeExpr"]),
    # smooth is a plain attribute that _set_shape stores
    ("smooth", []),
], ids=["children", "smooth"])
def test_scheme_classes_that_define(name, owners):
    assert [cls for cls, stmt in _class_bodies("schemes.py") if name in _binds(stmt)] == owners


def test_smooth_flag_is_stored_only_by_the_base_node():
    stores = sorted(
        "%s.%s" % (cls, stmt.name)
        for cls, stmt in _class_bodies("schemes.py") if isinstance(stmt, ast.FunctionDef)
        for node in ast.walk(stmt)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "set_field"
        and any(isinstance(a, ast.Constant) and a.value == "smooth_flag" for a in node.args)
    )
    assert stores == ["SchemeExpr.__init__", "SchemeExpr._set_shape"]


def _top_level_names(tree: ast.Module) -> dict[str, int]:
    """The names a module's own defs, classes and assignments bind at
    top level, each with its line."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    defined[target.id] = node.lineno
    return defined


@pytest.mark.parametrize("name", MODULES + ["__init__.py"])
def test_no_orphaned_private_names(name):
    # a module-level _name that nothing in its module reads is dead code
    with open(os.path.join(PACKAGE, name)) as fh:
        tree = ast.parse(fh.read(), name)
    defined = _top_level_names(tree)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    orphans = ["line %d: %s" % (line, n) for n, line in sorted(defined.items())
               if n.startswith("_") and not n.startswith("__") and n not in read]
    assert not orphans, orphans


# the modules whose __all__ the package re-exports
API_MODULES = ("cells", "grammar", "ranges", "schemes", "shifted", "witt")


def _all_of(module: str) -> list[str]:
    return importlib.import_module("wittlinear." + module).__all__


def test_package_exports_exactly_the_api_modules_all():
    public = {name for name, value in vars(wittlinear).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == {name for module in API_MODULES for name in _all_of(module)}


def test_no_name_is_in_two_all_lists():
    owners = {}
    for module in API_MODULES:
        for name in _all_of(module):
            owners.setdefault(name, []).append(module)
    assert {name: mods for name, mods in owners.items() if len(mods) > 1} == {}


@pytest.mark.parametrize("module", API_MODULES + ("cli", "_frozen"))
def test_every_all_entry_is_defined_in_its_module(module):
    with open(os.path.join(PACKAGE, module + ".py")) as fh:
        defined = _top_level_names(ast.parse(fh.read(), module))
    assert [name for name in _all_of(module) if name not in defined] == []


def test_init_binds_api_names_only_by_star_imports():
    with open(os.path.join(PACKAGE, "__init__.py")) as fh:
        tree = ast.parse(fh.read(), "__init__.py")
    starred, other = [], []
    for node in tree.body:
        if (isinstance(node, ast.ImportFrom) and node.level == 1
                and [alias.name for alias in node.names] == ["*"]):
            starred.append(node.module)
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # the docstring
        elif not (isinstance(node, ast.Assign) and all(
                isinstance(t, ast.Name) and t.id.startswith("__") for t in node.targets)):
            other.append("line %d: %s" % (node.lineno, ast.unparse(node)))
    assert other == []
    assert sorted(starred) == sorted(API_MODULES)


# dataclasses and fractions, and what dataclasses imports: the command
# line needs none of them
HEAVY = ("dataclasses", "inspect", "ast", "dis", "fractions")
SUBMODULES = ("cells", "cli", "grammar", "ranges", "schemes", "shifted", "witt")


def test_subcommands_load_no_heavy_stdlib_modules(tmp_path):
    realization = tmp_path / "realization.json"
    realization.write_text(json.dumps({"schema_version": 1, "ground": ["a", "b"],
                                       "pieces": [["a"], ["b"]], "closure": [[0], [0, 1]]}))
    argvs = [
        ["linlevel", "open(A^2, A^0) * Gm"],
        ["range", "A^0 * Gm^3", "--smooth", "--i", "0"],
        ["cohomology", "P^2 @O(3) * Gm^3", "--j", "2"],
        ["rccm", "Gm^3", "--i", "0", "--format", "json"],
        ["cokernel", "P^2 @O(3) * Gm^3", "--i", "2", "--j0", "2"],
        ["stratify", "strat(A^0, A^1, Gm; 0<1, 0<2)"],
        ["stratify", "--file", str(realization)],
        ["venn", "3", "--file", os.path.join(HERE, "data", "generic3.json")],
    ]
    code = "\n".join([
        "import contextlib, io, json, sys",
        "import wittlinear.cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    codes = [wittlinear.cli.main(argv) for argv in %r]" % (argvs,),
        "print(json.dumps({'codes': codes, 'modules': sorted(sys.modules)}))",
    ])
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * len(argvs)
    assert [m for m in HEAVY if m in result["modules"]] == []
    # every module stays loaded, since the benchmark's tracer patches them all
    assert [m for m in SUBMODULES if "wittlinear." + m not in result["modules"]] == []
