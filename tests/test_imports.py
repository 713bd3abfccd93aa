"""Import hygiene: every name a module imports is read somewhere in it.

Each module in ``src/bellbound/`` and ``tests/`` is parsed with ``ast``.
A name bound by ``import`` or ``from ... import`` that no expression in
the module loads fails the test. Package ``__init__.py`` files are
skipped, because their imports are the package's re-exports, and so is
``from __future__``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for folder in (ROOT / "src" / "bellbound", ROOT / "tests")
    for path in folder.rglob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names the module imports but never loads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``.
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in imported if name not in read]


def test_scan_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import itertools\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import pi, tau\n"
        "def f(x: np.ndarray) -> float:\n"
        "    return os.path.sep + pi\n"
    )
    assert unused_imports(source) == ["itertools", "tau"]


def test_modules_found():
    names = {path.name for path in MODULES}
    assert {"bounds.py", "cli.py", "test_imports.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
