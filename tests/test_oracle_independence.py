"""The oracle imports nothing from the closed forms that it certifies.

``oracle.py`` holds the search, and it must share only the expectation
formula with the bounds: no SVD or Procrustes shortcut, no closed form.
The audits that compare the two live in ``optimize.py``, which imports
both sides. So the boundary is the oracle's import list: every ``import``
and ``from ... import`` statement in ``oracle.py``, at any nesting depth,
is read with ``ast`` and followed through the bellbound modules it names.
The chain must reach only ``model``, ``chsh``, ``linalg`` and ``errors``,
and so never ``bounds``, ``construct``, ``optimize`` or ``cli``. A name
imported from the package itself (``from bellbound import s0_bound``)
counts as an import of ``__init__``, which imports all but ``cli``.

The search's closure ``refine`` is not in ``oracle.py`` as code: its
factory is rendered from text templates at import into
``oracle._OBJECTIVE_SOURCE`` (and the scenario's directions into
``oracle._DIRECTIONS_SOURCE``). That text may load only the names it
binds itself and ``cos``, ``sin``, ``sqrt`` and ``abs``, and it runs in a
namespace that holds nothing else, so it cannot reach the closed forms
either.
"""

import ast
import inspect
import linecache
import traceback
from pathlib import Path

import pytest

from bellbound import OptimizeSpec, StrengthQuad, oracle, singlet

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bellbound"
CLOSED_FORM_SIDE = {"bounds", "construct", "optimize", "cli"}


def imported_modules(source: str) -> set[str]:
    """The bellbound modules that ``source``, a module of the package, imports anywhere in its body."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ("bellbound" if node.level else "", node.module)))
            names = [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".") + ["__init__"]
            if parts[0] == "bellbound":
                # bellbound.<module>, or a name that __init__ re-exports.
                found.add(parts[1] if (PACKAGE / f"{parts[1]}.py").exists() else "__init__")
    return found


def reached(sources: dict[str, str], root: str = "oracle") -> set[str]:
    """The modules that ``root`` reaches through imports, ``root`` included."""
    seen, todo = set(), [root]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo += imported_modules(sources[name])
    return seen


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}


def test_imported_modules_reads_every_import_form():
    source = (
        "import numpy, bellbound.linalg\n"
        "from bellbound.chsh import chsh\n"
        "from . import model as M\n"
        "def f():\n"
        "    if M:\n"
        "        from bellbound import s0_bound\n"
    )
    assert imported_modules(source) == {"linalg", "chsh", "model", "__init__"}


def test_guard_flags_planted_imports():
    sources = package_sources()
    oracle_source = sources["oracle"]
    nested = "\n\ndef _planted(p):\n    if p:\n        from .bounds import s0_bound\n\n        return s0_bound\n"
    assert CLOSED_FORM_SIDE & reached({**sources, "oracle": oracle_source + nested}) == {"bounds"}
    planted = oracle_source + "\nfrom . import construct\n"
    assert CLOSED_FORM_SIDE & reached({**sources, "oracle": planted}) == {"construct", "bounds"}
    # A module the oracle imports that imports a closed form is flagged too,
    # and so is the package itself, which imports every module but cli.
    through = sources["model"] + "\nfrom .bounds import j_max\n"
    assert CLOSED_FORM_SIDE & reached({**sources, "model": through}) == {"bounds"}
    package = oracle_source + "\nimport bellbound\n"
    assert CLOSED_FORM_SIDE & reached({**sources, "oracle": package}) == {"bounds", "construct", "optimize"}


def test_oracle_imports_no_closed_form():
    assert reached(package_sources()) == {"oracle", "model", "chsh", "linalg", "errors"}


RENDERED_GLOBALS = {"cos", "sin", "sqrt", "abs"}


def unbound_loads(source: str) -> set[str]:
    """Names that ``source`` loads without binding them, other than ``RENDERED_GLOBALS``.

    An import binds nothing here: every name it imports is reported.
    """
    bound, loads = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            (loads if isinstance(node.ctx, ast.Load) else bound).add(node.id)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, ast.FunctionDef):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            loads.update(alias.asname or alias.name for alias in node.names)
    return loads - bound - RENDERED_GLOBALS


def test_unbound_loads_flags_outside_names():
    named = oracle._OBJECTIVE_SOURCE.replace("val = abs(g)", "val = s0_bound(g)", 1)
    assert unbound_loads(named) == {"s0_bound"}
    imported = "def f(p):\n    from .bounds import s0_bound\n    return s0_bound(p)\n"
    assert unbound_loads(imported) == {"s0_bound"}
    assert unbound_loads("def f(p):\n    return max(p)\n") == {"max"}


@pytest.mark.parametrize("name", ["_OBJECTIVE_SOURCE", "_DIRECTIONS_SOURCE"])
def test_rendered_text_loads_only_its_own_names(name):
    assert unbound_loads(getattr(oracle, name)) == set()


@pytest.mark.parametrize("function", ["_objective_factory", "_directions"])
def test_rendered_functions_see_only_cos_sin_sqrt(function):
    assert set(getattr(oracle, function).__globals__) == {"__builtins__", "cos", "sin", "sqrt", function}


def _refine():
    problem = oracle._Problem(OptimizeSpec(singlet(), StrengthQuad(0.9, 0.6, 0.8, 0.5), fixed_angles=(1.1, 2.3)))
    return problem.make_refine()


def test_rendered_closures_have_source():
    assert inspect.getsource(_refine()).lstrip().startswith("def refine(p, tol, step):")


def _traceback_of_short_p(refine) -> str:
    # p is too short: B's block, the first thing refine evaluates, reads p[4].
    with pytest.raises(IndexError) as info:
        refine([0.0] * 4, 1e-8, 0.8)
    return "".join(traceback.format_exception(info.value))


def test_traceback_shows_the_rendered_line():
    text = _traceback_of_short_p(_refine())
    assert 'File "<bellbound.oracle _objective_factory>", line ' in text
    assert ", in refine\n    w1 = p[4]\n" in text


def test_rendered_source_survives_a_cleared_linecache():
    linecache.clearcache()
    refine = _refine()
    assert inspect.getsource(refine).lstrip().startswith("def refine(p, tol, step):")
    assert ", in refine\n    w1 = p[4]\n" in _traceback_of_short_p(refine)
    assert inspect.getsource(oracle._directions).startswith("def _directions(p, theta, phi):")
