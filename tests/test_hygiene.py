"""Source hygiene of the package: no module imports a name it never reads,
and no public top-level name goes unread by the library and the benchmark."""

import ast
from collections import Counter
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src" / "hkr"


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


def _reads(node):
    """Counter of the names read under an AST node: loaded ``Name`` ids,
    attribute names, and string constants that are identifiers (the
    benchmark's tracer names the functions it wraps by string)."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and sub.value.isidentifier()):
            out[sub.value] += 1
    return out


def _public_definitions(tree):
    """(name, line, node) of each public top-level def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if not name.startswith("_"):
                yield name, node.lineno, node


def unread_public_names(modules, readers=()):
    """The public top-level names of `modules` that nothing reads.

    `modules` maps a module name to its source, and `readers` lists further
    sources that may read them.  A name is read where it occurs in any of
    these sources (see ``_reads``) outside its own definition.
    """
    trees = {name: ast.parse(src) for name, src in modules.items()}
    total = Counter()
    for tree in list(trees.values()) + [ast.parse(src) for src in readers]:
        total += _reads(tree)
    out = []
    for mod, tree in trees.items():
        for name, line, node in _public_definitions(tree):
            if total[name] - _reads(node)[name] <= 0:
                out.append((mod, line, name))
    return sorted(out)


def test_the_scan_finds_an_unread_public_name():
    lib = {"a": ("def used():\n    return 1\n"
                 "def unused():\n    return unused()\n"
                 "def traced():\n    pass\n"
                 "LIMIT = 3\nSpare = int\n"
                 "def _private():\n    return used() + LIMIT\n"),
           "b": "from .a import used\nprint(used)\n"}
    bench = ['SPANNED = [("a", None, ["traced"])]\n']
    assert unread_public_names(lib, bench) == [("a", 3, "unused"),
                                               ("a", 8, "Spare")]


def test_every_public_name_is_read():
    modules = {p.stem: p.read_text() for p in sorted(_SRC.glob("*.py"))}
    bench = [p.read_text() for p in sorted((_ROOT / "bench").glob("*.py"))]
    assert unread_public_names(modules, bench) == []
