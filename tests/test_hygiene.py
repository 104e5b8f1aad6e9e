"""Source checks that keep the package free of mutable module globals and
keep the zero-vertex rule in one place.

Every ``src/gcanon/*.py`` is parsed with ``ast``; a ``global`` statement, or
an assignment (plain, augmented, annotated, ``del`` or ``setattr``) to an
attribute of an imported module, fails the test.  Scoped state belongs in a
``contextvars.ContextVar`` or an explicit parameter instead.  Outside
``core.py``, a ``raise ZeroVertexError`` fails too: ``Graph`` and every count
entry point reject 0 through ``core.check_vertex_count``, so no other module
needs the rule.  So does taking an underscore name from a sibling module,
whether imported (``from .x import _y``) or read as an attribute of it
(``x._y``): what a module keeps private (such as the connectivity flow in
``core`` or the search record in ``canon``) is reached through its public
functions only.  Finally, every function and class that ``src/gcanon``
defines must be named somewhere in ``src``, ``tests``, ``perfbench`` or
``tools`` besides its own definition; one that is not is dead code.  A
module-level one that ``gcanon.__all__`` does not export must be named in
``src``, ``perfbench`` or ``tools``: a helper that only tests call is an
oracle, and belongs in ``tests/conftest.py``, where it cannot share code
with what it checks.
"""

from __future__ import annotations

import ast
import importlib
import types
from pathlib import Path

import pytest

import gcanon

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "gcanon").glob("*.py"))


def _module_names(tree: ast.Module) -> set[str]:
    """Names that an import statement anywhere in the file binds to a module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "gcanon" if node.level else ""
            source = ".".join(part for part in (base, node.module) if part)
            parent = importlib.import_module(source)
            for alias in node.names:
                if isinstance(getattr(parent, alias.name, None), types.ModuleType):
                    names.add(alias.asname or alias.name)
    return names


def _calls(node: ast.AST, *names: str) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in names


def _written_attributes(tree: ast.Module) -> list[ast.Attribute]:
    written = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif _calls(node, "setattr", "delattr") and node.args:
            targets = [ast.Attribute(value=node.args[0], attr="?", lineno=node.lineno)]
        else:
            continue
        for target in targets:
            written += [t for t in ast.walk(target) if isinstance(t, ast.Attribute)]
    return written


def module_global_writes(source: str) -> list[str]:
    """Line-numbered descriptions of every forbidden statement in ``source``."""
    tree = ast.parse(source)
    modules = _module_names(tree)
    found = [f"line {n.lineno}: global {', '.join(n.names)}" for n in ast.walk(tree) if isinstance(n, ast.Global)]
    for attr in _written_attributes(tree):
        if isinstance(attr.value, ast.Name) and attr.value.id in modules:
            found.append(f"line {attr.lineno}: writes {attr.value.id}.{attr.attr}")
    return found


def zero_vertex_raises(source: str) -> list[str]:
    """Line-numbered ``raise`` statements in ``source`` that raise ``ZeroVertexError``."""
    raises = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Raise) and node.exc]
    found = []
    for node in sorted(raises, key=lambda node: node.lineno):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if getattr(exc, "id", getattr(exc, "attr", None)) == "ZeroVertexError":
            found.append(f"line {node.lineno}: raise {ast.unparse(exc)}")
    return found


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "core.py"], ids=lambda p: p.name)
def test_only_core_raises_zero_vertex_error(path):
    assert zero_vertex_raises(path.read_text()) == []


def test_zero_vertex_check_catches_every_form():
    source = """
from . import core
from .core import ZeroVertexError

def f(n):
    if n == 0:
        raise ZeroVertexError("zero")
    raise core.ZeroVertexError
    raise ValueError("zero")
"""
    assert zero_vertex_raises(source) == ["line 7: raise ZeroVertexError", "line 8: raise core.ZeroVertexError"]


def private_sibling_names(source: str, module: str) -> list[str]:
    """Line-numbered underscore names that ``source``, the file of ``module``, takes from a sibling.

    Both forms count: ``from .x import _y``, and ``x._y`` read through any
    name that ``from . import x`` (or ``... as alias``) binds, for every
    sibling x other than ``module`` itself; dunders are exempt.
    """
    tree = ast.parse(source)
    found = []
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module not in (None, module):
            found += [(alias.lineno, alias.name) for alias in node.names if alias.name.startswith("_")]
        elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
            aliases.update(alias.asname or alias.name for alias in node.names if alias.name != module)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            if node.attr.startswith("_") and not node.attr.startswith("__"):
                found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return [f"line {lineno}: {name}" for lineno, name in sorted(found)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_takes_a_siblings_private_names(path):
    assert private_sibling_names(path.read_text(), path.stem) == []


def test_private_name_check_catches_every_form():
    source = """
from . import core
from .core import Graph, _connectivity_at_most, bits
from .canon import _canon_key
from .core import (
    _local_connectivity as flow,
    check_vertex_count,
)
from . import canon, core as c, filters
from .filters import _matches

layers = core._layers(rows, 1, 1)
flows = c._local_connectivity, canon._search, core.component_masks, core.__name__
own = filters._PROPERTY_VALUES
"""
    assert private_sibling_names(source, "filters") == [
        "line 3: _connectivity_at_most",
        "line 4: _canon_key",
        "line 6: _local_connectivity",
        "line 12: core._layers",
        "line 13: c._local_connectivity",
        "line 13: canon._search",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_mutable_module_globals(path):
    assert module_global_writes(path.read_text()) == []


def test_hygiene_check_catches_the_forbidden_forms():
    source = """
from . import core
import os as o

def f():
    global X
    core.VERTEX_CAP = 3
    o.sep += "/"
    setattr(core, "VERTEX_CAP", 4)
    core.CAP_OVERRIDE.set(5)
"""
    assert module_global_writes(source) == [
        "line 6: global X",
        "line 7: writes core.VERTEX_CAP",
        "line 8: writes o.sep",
        "line 9: writes core.?",
    ]


def _docstrings(tree: ast.Module) -> set[int]:
    """Ids of the docstring nodes of the module, its classes and its functions."""
    holders = [tree] + [n for n in ast.walk(tree) if isinstance(n, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))]
    return {
        id(h.body[0].value)
        for h in holders
        if h.body and isinstance(h.body[0], ast.Expr) and isinstance(h.body[0].value, ast.Constant)
    }


def unnamed_definitions(defining: dict[str, str], others: list[str], exported: frozenset[str] | None = None) -> list[str]:
    """Functions and classes defined in ``defining`` (file name -> source) that no source names.

    A name counts where it is read as a variable or an attribute, imported,
    or spelled as a whole string outside a docstring (``setattr(m, "f", g)``);
    a definition alone does not count, and dunders are exempt.  Given
    ``exported``, only module-level definitions are checked, and those whose
    names it holds are exempt.
    """
    trees = {name: ast.parse(source) for name, source in defining.items()}
    named: set[str] = set()
    for tree in [*trees.values(), *(ast.parse(source) for source in others)]:
        docstrings = _docstrings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.update(node.name.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
                named.add(node.value)
    found = []
    for file_name, tree in trees.items():
        for node in ast.walk(tree) if exported is None else tree.body:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                exempt = node.name in (exported or ()) or (node.name.startswith("__") and node.name.endswith("__"))
                if node.name not in named and not exempt:
                    found.append(f"{file_name} line {node.lineno}: {node.name}")
    return sorted(found)


def _sources(*dirs: str) -> list[str]:
    return [p.read_text() for d in dirs for p in sorted((ROOT / d).rglob("*.py"))]


def test_every_definition_is_named_somewhere():
    defining = {p.name: p.read_text() for p in SOURCES}
    assert unnamed_definitions(defining, _sources("tests", "perfbench", "tools")) == []


def test_library_definitions_have_a_library_caller():
    defining = {p.name: p.read_text() for p in SOURCES}
    assert unnamed_definitions(defining, _sources("perfbench", "tools"), frozenset(gcanon.__all__)) == []


def test_unnamed_definition_check_catches_dead_code():
    source = '''
"""Mentions dead_in_docstring, which does not count."""

class Used:
    def __repr__(self):
        return "Used"

    def read(self):
        return helper()

    def is_dead(self):
        """dead_in_docstring"""


def helper():
    return 1


def patched():
    pass


def dead_in_docstring():
    pass


class Dead:
    pass


def only_tests_call():
    pass
'''
    test_caller = '''
from gcanon.mod import Used, only_tests_call

Used().read()
only_tests_call()
monkeypatch.setattr(mod, "patched", None)
'''
    assert unnamed_definitions({"mod.py": source}, [test_caller]) == [
        "mod.py line 11: is_dead",
        "mod.py line 23: dead_in_docstring",
        "mod.py line 27: Dead",
    ]
    # Without the test callers, the unexported module-level definitions that
    # only they name fail too; the method is_dead is not checked at all.
    assert unnamed_definitions({"mod.py": source}, [], frozenset({"Used"})) == [
        "mod.py line 19: patched",
        "mod.py line 23: dead_in_docstring",
        "mod.py line 27: Dead",
        "mod.py line 31: only_tests_call",
    ]
