"""Checks on the package source itself."""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
PACKAGE = sorted((ROOT / "src" / "quper").glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
# Where a package name may be used: the package, its tests and benchmarks.
SOURCES = sorted(p for d in ("src", "tests", "benchmarks") for p in (ROOT / d).rglob("*.py"))

CACHE_MAKERS = ("cache", "lru_cache", "cached_property")

# Every functools cache in the package, each kept for what it saves: a new
# one is added here with its measured reason (ROADMAP.md, item 4).
KEPT_CACHES = {
    "circuits.solver_ansatz",  # each level's circuit and workspace, built once
    "circuits.Circuit._workspace",  # the step table both walks read
    "optimizer._slot_map",  # two _slot_keys walks at every level change
    "projection._linear_sum_assignment",  # scipy.optimize unloaded at import
    "cli._parser",  # the argparse tree, built once per process
}


def unused_imports(source: str) -> list[str]:
    """The names a module's imports bind that the module never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - read)


def test_the_check_sees_each_import_form():
    source = (
        "from __future__ import annotations\n"
        "import os\nimport numpy as np\nimport scipy.optimize\n"
        "from math import pi, tau as t\nfrom .gf2 import (Permutation,)\n"
        "def f(p: Permutation):\n    return np.zeros(1), scipy.optimize\n"
    )
    assert unused_imports(source) == ["os", "pi", "t"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# Modules the package does not import, each with its measured reason.
BARRED_IMPORTS = {
    # A frozen dataclass exec-compiles five or six methods as its class is
    # made: 0.5 ms a class on Python 3.11 (timeit, best of 5), against
    # 0.05-0.06 ms for a named tuple, paid by every process that imports
    # quper, and the module itself takes 1.3-1.7 ms to import after numpy.
    "dataclasses",
}


def imported_modules(source: str) -> set[str]:
    """The top-level names of the modules a text imports, anywhere in it;
    relative imports aside."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_the_import_guard_sees_each_form():
    source = (
        "import os.path as p\nfrom dataclasses import dataclass\n"
        "from . import gf2\nfrom .dsm import x\ndef f():\n    import json\n"
    )
    assert imported_modules(source) == {"dataclasses", "json", "os"}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_barred_imports(path):
    assert imported_modules(path.read_text()) & BARRED_IMPORTS == set()


def test_the_package_binds_no_names():
    # A name lives only in the module that defines it, and is imported from
    # there: __init__.py is its docstring alone, not a second list of the API.
    tree = ast.parse((ROOT / "src" / "quper" / "__init__.py").read_text())
    assert ast.get_docstring(tree)
    assert len(tree.body) == 1


def cache_sites(source: str, module: str) -> list[str]:
    """What a module caches through functools, by qualified name: each
    function or property under a cache decorator, and each name bound to a
    cache call (the call's own text where it is bound to none)."""
    tree = ast.parse(source)
    makers = {f"functools.{m}" for m in CACHE_MAKERS} | {
        a.asname or a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for a in node.names
        if a.name in CACHE_MAKERS
    }
    sites = []

    def visit(node, scope, target=None):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
            for d in node.decorator_list:  # @maker or @maker(...)
                if ast.unparse(d.func if isinstance(d, ast.Call) else d) in makers:
                    sites.append(scope)
            children = node.body
        else:
            if isinstance(node, ast.Call) and ast.unparse(node.func) in makers:
                sites.append(f"{scope}.{target or ast.unparse(node)}")
            if isinstance(node, ast.Assign):
                target = ast.unparse(node.targets[0])
            children = ast.iter_child_nodes(node)
        for child in children:
            visit(child, scope, target)

    visit(tree, module)
    return sorted(sites)


def test_the_cache_check_sees_each_form():
    source = (
        "import functools\nfrom functools import lru_cache as lru, cached_property\n"
        "@functools.cache\ndef a(): pass\n"
        "@functools.lru_cache(maxsize=4)\ndef b(): pass\n"
        "@lru\ndef c(): pass\n"
        "class K:\n    @cached_property\n    def d(self): pass\n"
        "    @property\n    def e(self): pass\n"
        "f = functools.cache(a)\ng = functools.lru_cache(maxsize=2)(a)\n"
        "def h():\n    return functools.cache(a)\n"
        "@functools.wraps(a)\ndef i(): return functools.partial(a)\n"
    )
    assert cache_sites(source, "m") == [
        "m.K.d", "m.a", "m.b", "m.c", "m.f", "m.g", "m.h.functools.cache(a)",
    ]


def test_the_kept_caches_are_the_only_ones():
    found = [site for p in PACKAGE for site in cache_sites(p.read_text(), p.stem)]
    assert sorted(found) == sorted(KEPT_CACHES)


# Every defaulted parameter that no call in the package or the benchmarks
# sets, each kept for a caller outside them; any other such parameter is a
# constant of its module.
KEPT_DEFAULTS = {
    "optimizer.fd_gradient.h": "criterion 12 halves it",
    "projection.project_random_order.trials": (
        "criterion 9 passes it, and the benchmark's distinct note binds it by name"
    ),
}


def unset_defaults(package: dict[str, str], callers: list[str]) -> list[str]:
    """The defaulted parameters of the functions and methods in the package
    texts (by module name), as module.qualified_name.parameter, that no call
    in the caller texts sets: by keyword, by position, or through *args or
    **kwargs.  A call is matched to every function of its name, and a call
    of a class K to K's __init__ and __new__; a method's positions start
    after self or cls, unless it is a staticmethod."""
    defaults = []  # (label, called name, parameter, position or None)

    def visit(node, scope, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{scope}.{child.name}", child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a, label = child.args, f"{scope}.{child.name}"
                bound = cls is not None and not any(
                    ast.unparse(d) == "staticmethod" for d in child.decorator_list
                )
                name = child.name
                if bound and name in ("__init__", "__new__"):
                    name = cls  # a call of the class sets them
                positional = a.posonlyargs + a.args
                first = len(positional) - len(a.defaults)
                for at, arg in enumerate(positional[first:], first):
                    defaults.append((label, name, arg.arg, at - bound))
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        defaults.append((label, name, arg.arg, None))
                visit(child, label, None)
            else:
                visit(child, scope, cls)

    for module, text in package.items():
        visit(ast.parse(text), module, None)
    calls = [
        node
        for text in callers
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Call)
    ]

    def sets(call, name, param, at):
        func = call.func
        if getattr(func, "id", None) != name and getattr(func, "attr", None) != name:
            return False
        starred = any(isinstance(arg, ast.Starred) for arg in call.args)
        by_position = at is not None and (starred or len(call.args) > at)
        return by_position or any(kw.arg in (None, param) for kw in call.keywords)

    return sorted(
        f"{label}.{param}"
        for label, name, param, at in defaults
        if not any(sets(call, name, param, at) for call in calls)
    )


def test_the_default_check_sees_each_form():
    package = {"m": (
        "def f(a, b=1, c=2, *, d=3, e=4): pass\n"
        "def g(x=0): pass\ndef h(y=0): pass\n"
        "def lone(z=0):\n    def inner(w=1): pass\n"
        "class K:\n    def meth(self, u=0, v=1): pass\n"
        "    @staticmethod\n    def stat(s=0, t=1): pass\n"
        "class R:\n    def __init__(self, a, b=0, c=1): pass\n"
        "class N:\n    def __new__(cls, a=0, b=1): pass\n"
    )}
    callers = [
        "f(0, 1, d=5)\ng(*xs)\nh(**kw)\nK().meth(2)\nK.stat(1)\n"
        "x = lone\nobj.inner(w=2)\nR(0, 1)\nN(b=2)\n"
    ]
    assert unset_defaults(package, callers) == [
        "m.K.meth.v", "m.K.stat.t", "m.N.__new__.a", "m.R.__init__.c", "m.f.c",
        "m.f.e", "m.lone.z",
    ]


def test_every_default_is_set_by_a_caller():
    package = {p.stem: p.read_text() for p in PACKAGE}
    callers = [
        p.read_text()
        for d in ("src", "benchmarks")
        for p in sorted((ROOT / d).rglob("*.py"))
    ]
    assert unset_defaults(package, callers) == sorted(KEPT_DEFAULTS)


def unused_names(package: list[str], sources: list[str]) -> list[str]:
    """The functions, classes and methods defined in the package texts,
    dunders aside, whose names appear as a word in the source texts only
    where they are defined."""
    defined = Counter(
        node.name
        for text in package
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not re.fullmatch(r"__\w+__", node.name)
    )
    words = Counter(w for text in sources for w in re.findall(r"\w+", text))
    return sorted(name for name, count in defined.items() if words[name] <= count)


def test_the_unused_name_check_catches_a_planted_name():
    package = (
        "def used(): pass\ndef planted(): pass\n"
        "class Kept:\n    def __init__(self): pass\n    def method(self): pass\n"
        "    def lone(self): pass\n"
        "class Twice:\n    def lone(self): pass\n"
    )
    sources = [package, "used(); Kept().method(); x = Twice\n"]
    assert unused_names([package], sources) == ["lone", "planted"]
    assert unused_names([package], sources + ["planted; lone"]) == []


def test_every_package_name_is_used():
    texts = {p: p.read_text() for p in SOURCES}
    assert unused_names([texts[p] for p in PACKAGE], list(texts.values())) == []


def unresolved_references(text: str) -> list[str]:
    """The backticked `module.name` and `module.Class.attr` references in
    text, optionally prefixed `quper.` and called, whose module is one of
    the package's and which do not resolve to an attribute of it."""
    modules = "|".join(p.stem for p in MODULES)
    pattern = rf"`(?:quper\.)?((?:{modules})(?:\.\w+)+)[`(]"
    missing = []
    for ref in re.findall(pattern, text):
        module, *attrs = ref.split(".")
        obj = importlib.import_module(f"quper.{module}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(ref)
    return missing


def test_the_reference_check_catches_a_planted_name():
    text = ("`circuits.forward` `quper.dsm.extract_dsm(c, m, t)` `gf2.Gf2Matrix.identity`"
            " `quper.gf2` `numpy.gone` `optimizer.gone` `cli.main.gone(x)`")
    assert unresolved_references(text) == ["optimizer.gone", "cli.main.gone"]


def test_every_readme_reference_resolves():
    text = (ROOT / "README.md").read_text()
    assert re.search(r"`(?:quper\.)?circuits\.\w+`", text)
    assert unresolved_references(text) == []
