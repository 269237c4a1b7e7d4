"""Source hygiene of the package: no module imports a name it never reads,
no public top-level name goes unread by the library and the benchmark, no
private top-level name goes unread by its module, no parameter default goes
unpassed, no module calls a name kept only for the benchmark, only
``scalars`` reads the slots of a Scalar, only ``catalog`` and ``cli`` read
the family and parameters of a form, and importing the package generates
no code."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from hkr.catalog import FAMILIES

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


def _bound_names(node):
    """The names a top-level def, class or assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _public_definitions(tree):
    """(name, line, node) of each public top-level def, class or assignment,
    and of each public method or property of a top-level class, named
    ``Class.method``."""
    for node in tree.body:
        for name in _bound_names(node):
            if not name.startswith("_"):
                yield name, node.lineno, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if (isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not sub.name.startswith("_")):
                    yield "%s.%s" % (node.name, sub.name), sub.lineno, sub


def unread_public_names(modules, readers=()):
    """The public top-level names and public class members of `modules`
    that nothing reads.

    `modules` maps a module name to its source, and `readers` lists further
    sources that may read them.  A name is read where it occurs in any of
    these sources (see ``_reads``) outside its own definition; a member
    ``Class.method`` is read where ``method`` is, under any class.
    """
    trees = {name: ast.parse(src) for name, src in modules.items()}
    total = Counter()
    for tree in list(trees.values()) + [ast.parse(src) for src in readers]:
        total += _reads(tree)
    out = []
    for mod, tree in trees.items():
        for name, line, node in _public_definitions(tree):
            key = name.rsplit(".", 1)[-1]
            if total[key] - _reads(node)[key] <= 0:
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


def test_the_scan_finds_an_unread_public_method():
    lib = {"a": ("class C:\n"
                 "    def used(self):\n        return self.size\n"
                 "    def unused(self):\n        return self.unused()\n"
                 "    @property\n    def size(self):\n        return 0\n"
                 "    @property\n    def spare(self):\n        return 1\n"
                 "    @staticmethod\n    def of(x):\n        return x\n"
                 "    def traced(self):\n        pass\n"
                 "    def _private(self):\n        return C.of(1)\n"),
           "b": "from .a import C\nC().used()\n"}
    bench = ['SPANNED = [("a", "C", ["traced"])]\n']
    assert unread_public_names(lib, bench) == [("a", 4, "C.unused"),
                                               ("a", 10, "C.spare")]
    assert unread_public_names(lib) == [("a", 4, "C.unused"),
                                        ("a", 10, "C.spare"),
                                        ("a", 15, "C.traced")]


def test_every_public_name_is_read():
    modules = {p.stem: p.read_text() for p in sorted(_SRC.glob("*.py"))}
    bench = [p.read_text() for p in sorted((_ROOT / "bench").glob("*.py"))]
    assert unread_public_names(modules, bench) == []


def unread_private_names(source: str):
    """(line, name) of each private top-level def, class or assignment of a
    module (one leading ``_``, not a dunder) that the module does not read
    outside its own definition (see ``_reads``)."""
    tree = ast.parse(source)
    total = _reads(tree)
    return sorted((node.lineno, name) for node in tree.body
                  for name in _bound_names(node)
                  if name.startswith("_") and not name.startswith("__")
                  and total[name] - _reads(node)[name] <= 0)


def test_the_scan_finds_an_unread_private_name():
    source = ("_LIMIT = 3\n_SPARE = 4\n__all__ = ['f']\n"
              "def _recursive(n):\n    return _recursive(n - 1)\n"
              "class _Point:\n    pass\n"
              "def _used():\n    return _LIMIT, _Point\n"
              "def f():\n    return _used()\n")
    assert unread_private_names(source) == [(2, "_SPARE"),
                                            (4, "_recursive")]


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_private_name_is_read(path):
    assert unread_private_names(path.read_text()) == []


def _defaults(tree):
    """(callee, line, parameter, position) of each parameter default.

    The callee is the name a call uses: the function's, or the class's for
    an ``__init__``.  The position counts the call's positional arguments,
    so a method's ``self`` or ``cls`` is left out; it is None for a
    keyword-only parameter.
    """
    def visit(body, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from visit(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in node.decorator_list)
                shift = 1 if cls is not None and not static else 0
                callee = cls if cls and node.name == "__init__" else node.name
                for i in range(len(positional) - len(args.defaults),
                               len(positional)):
                    yield callee, node.lineno, positional[i].arg, i - shift
                for a, d in zip(args.kwonlyargs, args.kw_defaults):
                    if d is not None:
                        yield callee, node.lineno, a.arg, None
                yield from visit(node.body, None)
    return visit(tree.body, None)


def _calls(tree):
    """{callee: [(positional count, keyword names)]} of the calls ``f(...)``
    and ``x.f(...)``; a ``*`` splat counts as every position, and a ``**``
    splat adds the keyword name None."""
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        callee = func.id if isinstance(func, ast.Name) else getattr(
            func, "attr", None)
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        out.setdefault(callee, []).append(
            (float("inf") if starred else len(node.args),
             {k.arg for k in node.keywords}))
    return out


def dead_defaults(modules, readers=()):
    """The parameter defaults of `modules` that no call passes.

    `modules` maps a module name to its source, and `readers` lists further
    sources whose calls count.  A call passes a parameter when it has the
    callee's name (see ``_defaults``) and reaches the parameter's position,
    names it as a keyword, or splats ``**`` keywords.  Calls are matched by
    name alone, so a call of another function of that name also counts.
    """
    trees = {name: ast.parse(src) for name, src in modules.items()}
    calls = {}
    for tree in list(trees.values()) + [ast.parse(src) for src in readers]:
        for callee, found in _calls(tree).items():
            calls.setdefault(callee, []).extend(found)
    out = []
    for mod, tree in trees.items():
        for callee, line, param, pos in _defaults(tree):
            if not any((pos is not None and count > pos)
                       or param in names or None in names
                       for count, names in calls.get(callee, ())):
                out.append((mod, line, callee, param))
    return sorted(out)


def test_the_scan_finds_a_dead_default():
    lib = {"a": ("def f(x, y=1, *, z=2):\n    return x\n"
                 "def g(x, y=1, z=2):\n    return x\n"
                 "class C:\n"
                 "    def __init__(self, v=()):\n        pass\n"
                 "    def m(self, w=0, u=1):\n        return w\n"
                 "def h(x, k=3):\n    return x\n"),
           "b": "f(1)\ng(1, z=5)\nC(())\nC().m(1)\nh(**{})\n"}
    bench = ["def run(*args):\n    return g(*args)\n"]
    assert dead_defaults(lib) == [("a", 1, "f", "y"), ("a", 1, "f", "z"),
                                  ("a", 3, "g", "y"), ("a", 8, "m", "u")]
    assert dead_defaults(lib, bench) == [("a", 1, "f", "y"),
                                         ("a", 1, "f", "z"),
                                         ("a", 8, "m", "u")]


def test_every_parameter_default_is_passed():
    modules = {p.stem: p.read_text() for p in sorted(_SRC.glob("*.py"))}
    bench = [p.read_text() for p in sorted((_ROOT / "bench").glob("*.py"))]
    assert dead_defaults(modules, bench) == []


# Names the library keeps only because bench/ wraps or calls them; ROADMAP
# item 2 deletes them with the benchmark change, so no module may call one.
BENCH_ONLY = {"ad_frac", "centralizer_frac", "classify_type"}


def bench_only_calls(source: str):
    """The names in BENCH_ONLY that the module calls, as ``f(...)`` or
    ``x.f(...)``; defining one is not a call."""
    return sorted(BENCH_ONLY & set(_calls(ast.parse(source))))


def test_the_scan_finds_a_bench_only_call():
    source = ("def ad_frac(i):\n    return i\n"
              "def f(S, data):\n"
              "    return S.ad_frac(0), classify_type(data), S.ad_matrix(0)\n")
    assert bench_only_calls(source) == ["ad_frac", "classify_type"]


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_calls_a_bench_only_name(path):
    assert bench_only_calls(path.read_text()) == []


# The slots of a Scalar (see hkr.scalars); the slot layout stays behind the
# one module that defines it.
SCALAR_SLOTS = {"_t", "_re", "_im", "_r", "_d", "_hash"}


def slot_reads(source: str):
    """(line, name) of each attribute access ``x._t``, ``x._re``, ... of a
    Scalar slot, whatever ``x`` is."""
    tree = ast.parse(source)
    return sorted((node.lineno, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr in SCALAR_SLOTS)


def test_the_scan_finds_a_slot_read():
    source = ("def f(x, y):\n    if x._t is None:\n        return y._d\n"
              "    x._hash = None\n"
              "    return x._tail, x.d, getattr(x, '_re'), x._rr, y._r\n")
    assert slot_reads(source) == [(2, "_t"), (3, "_d"), (4, "_hash"),
                                  (5, "_r")]


@pytest.mark.parametrize("path", sorted(p for p in _SRC.glob("*.py")
                                        if p.stem != "scalars"),
                         ids=lambda p: p.name)
def test_only_scalars_reads_scalar_slots(path):
    assert slot_reads(path.read_text()) == []


# The fields of a FormId; past ``catalog``, which builds a structure with its
# Table 1 row, and the CLI, which parses and lists forms, the analysis chain
# reads that row and never a family or its parameters.
FORM_ID_FIELDS = {"family", "params"}


def form_id_reads(source: str, families):
    """(line, name) of each attribute access ``x.family`` or ``x.params``,
    whatever ``x`` is, and of each string constant among `families`."""
    tree = ast.parse(source)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in FORM_ID_FIELDS:
            out.append((node.lineno, node.attr))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value in families):
            out.append((node.lineno, node.value))
    return sorted(out)


def test_the_scan_finds_a_form_id_read():
    source = ("def f(S, fid):\n    if S.family == 'so_star':\n"
              "        return fid.params['n'], S.name, S.table_row\n"
              "    return 'so_star_lemma', S.families, {'family': 'sl_R'}\n")
    assert form_id_reads(source, ("so_star", "sl_R")) == [
        (2, "family"), (2, "so_star"), (3, "params"), (4, "sl_R")]


@pytest.mark.parametrize("path", sorted(p for p in _SRC.glob("*.py")
                                        if p.stem not in ("catalog", "cli")),
                         ids=lambda p: p.name)
def test_only_catalog_and_cli_read_a_form_id(path):
    assert form_id_reads(path.read_text(), FAMILIES) == []


# The record classes are written out: importing the package runs no
# generated code and loads no code generator.
CODE_GENERATORS = ("dataclasses",)


def code_generation(source: str):
    """(line, name) of each import of a module of ``CODE_GENERATORS``, by
    ``import`` or ``from ... import``, and of each call of ``exec``."""
    tree = ast.parse(source)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(node.lineno, a.name) for a in node.names
                    if a.name.split(".")[0] in CODE_GENERATORS]
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[0] in CODE_GENERATORS):
            out.append((node.lineno, node.module))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "exec"):
            out.append((node.lineno, "exec"))
    return sorted(out)


def test_the_scan_finds_code_generation():
    source = ("import os, dataclasses\nfrom dataclasses import field\n"
              "def f(src):\n    import dataclasses as dc\n"
              "    exec(src)\n    return dc, os.exec, field\n"
              "from . import records\n")
    assert code_generation(source) == [(1, "dataclasses"), (2, "dataclasses"),
                                       (4, "dataclasses"), (5, "exec")]


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_generates_code(path):
    assert code_generation(path.read_text()) == []


def _loaded_modules(code: str):
    """The names in sys.modules after `code` runs in a fresh interpreter
    with the package's sources on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_SRC.parent), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint(*sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60, check=True)
    return set(proc.stdout.split())


def test_importing_the_package_loads_no_code_generator():
    bare = _loaded_modules("")
    loaded = _loaded_modules("import hkr.catalog, hkr.dimensions, hkr.roots, "
                             "hkr.verify, hkr.cli")
    assert "hkr.cli" in loaded
    assert {"dataclasses", "inspect"} & (loaded - bare) == set()


# The library computes in exact arithmetic only.  The one place a float may
# appear is the wall-clock timing of a verify row: its ``CheckResult`` and
# ``_run``, which reads ``time.perf_counter``.
FLOAT_ALLOWED = {("verify", "CheckResult"), ("verify", "_run")}


def float_uses(source: str):
    """(line, top-level definition, text) of each float or complex literal
    and each call of ``float``; module-level statements have the name ''."""
    tree = ast.parse(source)
    out = []
    for top in tree.body:
        owner = getattr(top, "name", "")
        for node in ast.walk(top):
            if (isinstance(node, ast.Constant)
                    and isinstance(node.value, (float, complex))):
                out.append((node.lineno, owner, repr(node.value)))
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == "float"):
                out.append((node.lineno, owner, "float()"))
    return sorted(out)


def test_the_scan_finds_a_float_literal():
    source = ("HALF = 0.5\n"
              "def f(x: float = 1, y='2.5'):\n    return float(x) / 2\n"
              "class C:\n    def g(self):\n"
              "        return 1e3, 2j, math.floor(3)\n")
    assert float_uses(source) == [(1, "", "0.5"), (3, "f", "float()"),
                                  (6, "C", "1000.0"), (6, "C", "2j")]


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_computes_with_floats(path):
    assert [use for use in float_uses(path.read_text())
            if (path.stem, use[1]) not in FLOAT_ALLOWED] == []
