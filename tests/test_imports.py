"""Import hygiene, and one output path for the CLI.

Every name a module imports is read somewhere in it.

Each module in ``src/bellbound/`` and ``tests/`` is parsed with ``ast``.
A name bound by ``import`` or ``from ... import`` that no expression in
the module loads fails the test. Package ``__init__.py`` files are
skipped, because their imports are the package's re-exports, and so is
``from __future__``.

No module under ``src/`` calls ``json.dumps``, imports ``csv`` or writes
a ``.12g`` format outside ``model.sig12``: the CLI's one JSON writer, for
documents and one-line summaries alike, its CSV writer and that one
rounding rule are the only output path.
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


SRC_MODULES = [path for path in MODULES if "src" in path.relative_to(ROOT).parts]
ROUNDING_HELPER = ("model.py", "sig12")


def second_output_paths(source: str, filename: str) -> list[str]:
    """Calls of ``json.dumps``, imports of ``csv`` and ``.12g`` formats outside the helper."""
    tree = ast.parse(source)
    helper_lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and (filename, node.name) == ROUNDING_HELPER:
            helper_lines.update(range(node.lineno, node.end_lineno + 1))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(alias.name == "csv" for alias in node.names):
            found.append((node.lineno, "import csv"))
        elif isinstance(node, ast.ImportFrom) and node.module == "csv":
            found.append((node.lineno, "from csv import"))
        elif isinstance(node, ast.Call) and ast.unparse(node.func) in ("json.dumps", "dumps"):
            found.append((node.lineno, "json.dumps"))
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and ".12g" in node.value
            and node.lineno not in helper_lines
        ):
            found.append((node.lineno, ".12g format"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_output_guard_finds_second_paths():
    source = (
        "import csv\n"
        "import json\n"
        "from json import dumps\n"
        "def sig12(x):\n"
        "    return f'{x:.12g}'\n"
        "def emit(x):\n"
        "    return json.dumps(x, indent=2) + dumps(x, indent=None) + json.dumps(x)\n"
        "def message(x):\n"
        "    return f'got {x:.12g}' + '%.12g' % x\n"
    )
    assert second_output_paths(source, "cli.py") == [
        "line 1: import csv",
        "line 5: .12g format",
        "line 7: json.dumps",
        "line 7: json.dumps",
        "line 7: json.dumps",
        "line 9: .12g format",
        "line 9: .12g format",
    ]
    assert "line 5: .12g format" not in second_output_paths(source, "model.py")


def test_rounding_helper_exists_once():
    helpers = [
        path.name
        for path in SRC_MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == ROUNDING_HELPER[1]
    ]
    assert helpers == [ROUNDING_HELPER[0]]


@pytest.mark.parametrize("path", SRC_MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_second_output_path(path):
    assert second_output_paths(path.read_text(), path.name) == []
