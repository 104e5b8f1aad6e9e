"""Source checks that keep the package free of mutable module globals and
keep the zero-vertex rule in one place.

Every ``src/gcanon/*.py`` is parsed with ``ast``; a ``global`` statement, or
an assignment (plain, augmented, annotated, ``del`` or ``setattr``) to an
attribute of an imported module, fails the test; state belongs in an
explicit parameter instead.  A read of the process environment
(``os.environ``, ``os.environb``, ``os.getenv`` or ``os.getenvb``) fails
too: an environment knob is a setting that no test or benchmark covers by
default.  Outside
``core.py``, a ``raise ZeroVertexError`` fails too: ``Graph`` and every count
entry point reject 0 through ``core.check_vertex_count``, so no other module
needs the rule.  So does taking an underscore name from a sibling module,
whether imported (``from .x import _y``) or read as an attribute of it
(``x._y``): what a module keeps private (such as the connectivity flow in
``core`` or the search record in ``canon``) is reached through its public
functions only.  Every name that a module imports must be read in it,
except the re-exports that ``__init__`` lists in ``__all__`` and ``from
__future__`` imports: an import that a change leaves behind is dead code.
Finally, every function and class that ``src/gcanon``
defines must be named somewhere in ``src``, ``tests``, ``perfbench`` or
``tools`` besides its own definition; one that is not is dead code.  A
module-level one that ``gcanon.__all__`` does not export must be named in
``src``, ``perfbench`` or ``tools``: a helper that only tests call is an
oracle, and belongs in ``tests/conftest.py``, where it cannot share code
with what it checks.  The same holds one level down: every instance method
and property of a ``src/gcanon`` class (dunders, classmethods and
staticmethods aside) must be read as an attribute, ``x.name``, in ``src``,
``perfbench`` or ``tools``, and every keyword-only parameter of a
``src/gcanon`` function must be passed by name at a call of that function
there.  A member or a keyword that only tests use is a second path that
only tests walk.  No ``tests/*.py`` writes ``VERTEX_CAP`` either, by
assignment or through ``setattr``, ``delattr`` or ``monkeypatch.setattr``:
the cap is a constant, and the library runs only up to it.
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
TESTS = sorted((ROOT / "tests").glob("*.py"))


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
"""
    assert module_global_writes(source) == [
        "line 6: global X",
        "line 7: writes core.VERTEX_CAP",
        "line 8: writes o.sep",
        "line 9: writes core.?",
    ]


def vertex_cap_writes(source: str) -> list[str]:
    """Line-numbered writes of an attribute named ``VERTEX_CAP`` in ``source``.

    An assignment (plain, augmented, annotated or ``del``) to such an
    attribute counts, and so does a ``setattr`` or ``delattr`` call, plain or
    a method such as ``monkeypatch.setattr``, whose name argument is
    ``"VERTEX_CAP"`` or a dotted target string that ends in it.
    """
    tree = ast.parse(source)
    found = [attr.lineno for attr in _written_attributes(tree) if attr.attr == "VERTEX_CAP"]
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) in ("setattr", "delattr"):
            names = [arg.value for arg in node.args[:2] if isinstance(arg, ast.Constant) and isinstance(arg.value, str)]
            if any(name.rpartition(".")[2] == "VERTEX_CAP" for name in names):
                found.append(node.lineno)
    return [f"line {lineno}: writes VERTEX_CAP" for lineno in sorted(found)]


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.name)
def test_no_test_writes_the_vertex_cap(path):
    assert vertex_cap_writes(path.read_text()) == []


def test_vertex_cap_write_check_catches_every_form():
    source = """
from gcanon import core
import gcanon.core as c

def test_raised(monkeypatch):
    core.VERTEX_CAP = 129
    c.VERTEX_CAP += 1
    del core.VERTEX_CAP
    core.VERTEX_CAP: int = 5
    setattr(core, "VERTEX_CAP", 4)
    delattr(c, "VERTEX_CAP")
    monkeypatch.setattr(core, "VERTEX_CAP", 70)
    monkeypatch.setattr("gcanon.core.VERTEX_CAP", 70)
    monkeypatch.setenv("GCANON_VERTEX_CAP", "70")
    cap = core.VERTEX_CAP + 1
    check_vertex_count(core.VERTEX_CAP)
    "core.VERTEX_CAP = 3"
"""
    assert vertex_cap_writes(source) == [f"line {n}: writes VERTEX_CAP" for n in range(6, 14)]


ENVIRONMENT_READS = frozenset({"environ", "environb", "getenv", "getenvb"})


def environment_reads(source: str) -> list[str]:
    """Line-numbered reads of the process environment in ``source``.

    Both forms count: ``os.environ``, ``os.environb``, ``os.getenv`` or
    ``os.getenvb`` read through any name that an import binds to ``os``, and
    any of them imported by name (``from os import environ``).
    """
    tree = ast.parse(source)
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "os" or (alias.asname is None and alias.name.startswith("os.")):
                    aliases.add(alias.asname or "os")
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os" and not node.level:
            found += [(alias.lineno, f"os.{alias.name}") for alias in node.names if alias.name in ENVIRONMENT_READS]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            if node.attr in ENVIRONMENT_READS:
                found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return [f"line {lineno}: {name}" for lineno, name in sorted(found)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_reads_the_environment(path):
    assert environment_reads(path.read_text()) == []


def test_environment_read_check_catches_every_form():
    source = """
import os
import os.path
import os.path as osp
import os as system
from os import environ, getenv as read_env, sep


def f():
    cap = os.environ.get("CAP")
    system.getenv("CAP")
    osp.join(os.sep, sep, "environ", osp.environ)
    return os.environb, environ["X"], read_env("Y")
"""
    assert environment_reads(source) == [
        "line 6: os.environ",
        "line 6: os.getenv",
        "line 10: os.environ",
        "line 11: system.getenv",
        "line 13: os.environb",
    ]


def unread_imports(source: str) -> list[str]:
    """Line-numbered names that an import in ``source`` binds and the module never reads.

    A name is read where it is loaded as a variable, annotations included;
    a docstring or a string does not count.  ``from __future__`` imports and
    the names that ``__all__`` lists (the re-exports of ``__init__``) are
    exempt.
    """
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [(alias.lineno, alias.asname or alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [(alias.lineno, alias.asname or alias.name) for alias in node.names]
        else:
            continue
        found += [(lineno, name) for lineno, name in bound if name not in read]
    return [f"line {lineno}: {name}" for lineno, name in sorted(found)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unread_imports(path.read_text()) == []


def test_unread_import_check_catches_every_form():
    source = '''
"""Names Sequence in a docstring, which does not count."""
from __future__ import annotations

import os.path
import sys as system
from typing import Iterable, Sequence
from . import codec, core as c
from .core import (
    Graph,
    permute_mask,
)
from .canon import refine

__all__ = ["refine"]


def f(rows: Iterable[int]) -> Graph:
    permute_mask = c.bits
    return os.path.join("codec", "system", "permute_mask")
'''
    assert unread_imports(source) == [
        "line 6: system",
        "line 7: Sequence",
        "line 8: codec",
        "line 11: permute_mask",
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


def _exempt_method(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Dunders, and the classmethods and staticmethods that name no instance member."""
    named = {getattr(d, "id", None) for d in node.decorator_list}
    return (node.name.startswith("__") and node.name.endswith("__")) or bool(named & {"classmethod", "staticmethod"})


def unread_methods(defining: dict[str, str], others: list[str]) -> list[str]:
    """Instance methods and properties of the classes in ``defining`` (file name -> source) that no source reads.

    Only an attribute read, ``x.name`` in any source given (``defining``
    included), counts; a string naming the method does not, and neither
    does the definition.  Dunders, classmethods and staticmethods are exempt.
    """
    trees = {name: ast.parse(source) for name, source in defining.items()}
    read = {
        node.attr
        for tree in [*trees.values(), *(ast.parse(source) for source in others)]
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    found = []
    for file_name, tree in trees.items():
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _exempt_method(node):
                    if node.name not in read:
                        found.append((file_name, node.lineno, f"{cls.name}.{node.name}"))
    return [f"{file_name} line {lineno}: {name}" for file_name, lineno, name in sorted(found)]


def unpassed_keywords(defining: dict[str, str], others: list[str]) -> list[str]:
    """Keyword-only parameters of the functions in ``defining`` that no call passes by name.

    A parameter p of a function f counts as passed where some call in any
    source given (``defining`` included) names f, plainly or as an attribute,
    and spells ``p=``; a ``**mapping`` at the call does not count.
    """
    trees = {name: ast.parse(source) for name, source in defining.items()}
    passed = set()
    for tree in [*trees.values(), *(ast.parse(source) for source in others)]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                passed.update((callee, k.arg) for k in node.keywords if k.arg)
    found = []
    for file_name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for arg in node.args.kwonlyargs:
                    if (node.name, arg.arg) not in passed:
                        found.append((file_name, arg.lineno, f"{node.name}({arg.arg}=)"))
    return [f"{file_name} line {lineno}: {name}" for file_name, lineno, name in sorted(found)]


def test_library_methods_have_a_library_reader():
    defining = {p.name: p.read_text() for p in SOURCES}
    assert unread_methods(defining, _sources("perfbench", "tools")) == []


def test_library_keywords_have_a_library_caller():
    defining = {p.name: p.read_text() for p in SOURCES}
    assert unpassed_keywords(defining, _sources("perfbench", "tools")) == []


def test_unread_method_check_catches_test_only_members():
    source = '''
class Shape:
    def __init__(self, n):
        self.n = n

    def __call__(self, v):
        return v

    @classmethod
    def unit(cls, n):
        return cls(n)

    @staticmethod
    def helper():
        return 0

    @property
    def size(self):
        return self.area()

    def area(self):
        return self.n

    def degree(self, v):
        """Read as degree only in this docstring."""
        return v

    @property
    def label(self):
        return "label"


def degree(shape):
    return shape.n
'''
    library = '''
totals = {"label": 1, "degree": 2}
shape.size = 3
width = degree(shape)
'''
    assert unread_methods({"mod.py": source}, [library]) == [
        "mod.py line 18: Shape.size",
        "mod.py line 24: Shape.degree",
        "mod.py line 29: Shape.label",
    ]
    assert unread_methods({"mod.py": source}, [library, "shape.degree(1), shape.label, shape.size"]) == []


def test_unpassed_keyword_check_catches_test_only_keywords():
    source = '''
def search(rows, cells=None, *, prune=True, known=()):
    return rows


def walk(rows, *, depth=0, **options):
    return search(rows, prune=depth > 0)


class Tree:
    def grow(self, *, height=1):
        return height
'''
    library = '''
from mod import Tree, search, walk

search(rows, known=[], cells=None)
walk(rows, **{"depth": 1})
other(height=2)
search(rows, None, True)
'''
    assert unpassed_keywords({"mod.py": source}, [library]) == [
        "mod.py line 6: walk(depth=)",
        "mod.py line 11: grow(height=)",
    ]
    # The call inside walk is what passes prune.
    assert unpassed_keywords({"mod.py": source.replace("prune=depth > 0", "depth > 0")}, [library]) == [
        "mod.py line 2: search(prune=)",
        "mod.py line 6: walk(depth=)",
        "mod.py line 11: grow(height=)",
    ]
