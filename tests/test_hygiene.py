"""Source hygiene of the package: no module imports a name it never reads."""

import ast
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src" / "hkr"


def unused_imports(source: str):
    """The names a module binds by import but never reads.

    A name counts as read where it occurs as a loaded ``Name`` anywhere in
    the module (annotations included) or is listed in ``__all__``.
    ``from __future__`` imports bind nothing and are skipped.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_the_scan_finds_an_unused_import():
    source = ("from typing import Dict, List\nimport os\nimport os.path\n"
              "from . import linalg as la\n"
              "def f(x: List[int]):\n    return la.rank(x)\n")
    assert unused_imports(source) == [(1, "Dict"), (3, "os")]


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
