"""Source hygiene: no module of the package imports a name it never reads.

A deletion that leaves its import behind shows here.  A name counts as read
when it is loaded anywhere in the module (annotations included) or listed in
the module's __all__; a name imported only for other modules to take from
this one is listed in _REEXPORTS.
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
