"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

MODULES = sorted(
    p for p in (Path(__file__).parents[1] / "src" / "quper").glob("*.py")
    if p.name != "__init__.py"
)


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
