"""Source hygiene: no module of the package imports a name it never reads,
and no module keeps a functools cache outside the two constant tables.

A deletion that leaves its import behind shows here.  A name counts as read
when it is loaded anywhere in the module (annotations included) or listed in
the module's __all__; a name imported only for other modules to take from
this one is listed in _REEXPORTS.

Caches are owned by an explicit object (an EvalCache, a step-table owner,
the formula that keeps its fold, the gadget formula that keeps the
EvalCache its verify_gadget calls borrow), not by module globals.  functools.cache
and functools.lru_cache may decorate only the functions in _CONSTANT_TABLES,
which take names, not data, so their tables stay bounded.
"""

import ast
from pathlib import Path

import pytest

import ghyltl

_SRC = Path(ghyltl.__file__).parent

# (module, name): imported to be read from the module, not in it
_REEXPORTS = {("semantics", "ParseError")}  # tests read it as hy.ParseError


def _unread_imports(tree: ast.Module, module: str) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
            and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [f"{module}.py:{line}: {name}" for name, line in sorted(imported.items())
            if name not in read and (module, name) not in _REEXPORTS]


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unread_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _unread_imports(tree, path.stem) == []


def test_an_unread_import_is_flagged():
    tree = ast.parse("from .semantics import Gamma, Hyper\n"
                     "__all__ = ['f']\n"
                     "from .x import f\n"
                     "def g(n: Hyper) -> None:\n    pass\n")
    assert _unread_imports(tree, "transform") == ["transform.py:1: Gamma"]


_CONSTANT_TABLES = {("cli", "build_parser"), ("arith", "gadget_formula")}
_CACHES = {"cache", "lru_cache"}


def _cache_uses(tree: ast.Module, module: str) -> list[str]:
    """Every functools.cache or lru_cache in the module, as module.py:line,
    except a decorator of a function in _CONSTANT_TABLES.  The names count
    however they are reached: functools.cache, an alias of the module, or
    the name imported from it."""
    modules, names = {"functools"}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "functools"}
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {a.asname or a.name for a in node.names if a.name in _CACHES}
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and (module, node.name) in _CONSTANT_TABLES:
            allowed |= {id(n) for d in node.decorator_list for n in ast.walk(d)}
    lines = sorted({node.lineno for node in ast.walk(tree) if id(node) not in allowed
                    and (isinstance(node, ast.Attribute) and node.attr in _CACHES
                         and isinstance(node.value, ast.Name) and node.value.id in modules
                         or isinstance(node, ast.Name) and node.id in names)})
    return [f"{module}.py:{line}" for line in lines]


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")), ids=lambda p: p.name)
def test_functools_caches_only_on_constant_tables(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _cache_uses(tree, path.stem) == []


def test_the_constant_tables_are_cached():
    seen = set()
    for path in sorted(_SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and (path.stem, node.name) in _CONSTANT_TABLES \
                    and any("cache" in ast.unparse(d) for d in node.decorator_list):
                seen.add((path.stem, node.name))
    assert seen == _CONSTANT_TABLES


def test_a_stray_cache_is_flagged():
    tree = ast.parse("import functools\n"
                     "import functools as ft\n"
                     "from functools import lru_cache as lru\n"
                     "@functools.cache\n"
                     "def gadget_formula():\n    pass\n"
                     "@functools.lru_cache(maxsize=8)\n"
                     "def profile():\n    pass\n"
                     "memo = ft.cache(len)\n"
                     "@lru\n"
                     "def fold():\n    pass\n")
    assert _cache_uses(tree, "arith") == ["arith.py:7", "arith.py:10", "arith.py:11"]
