"""The oracle loads nothing from the closed forms that it certifies.

``optimize.py`` imports the bounds and constructions for its audits, but
the search must not use them: it shares only the expectation formula with
them. ``optimize.py`` is parsed with ``ast``; starting at ``maximize_chsh``,
every top-level definition (function, class or constant) that a reached
definition names is reached in turn. A reached definition that loads a
name ``optimize.py`` imports from ``.bounds`` or ``.construct``, or imports
from them itself, fails the test.

The objective's closures are not in ``optimize.py`` as code: they are
rendered from text templates at import into ``optimize._OBJECTIVE_SOURCE``
(and the scenario's directions into ``optimize._DIRECTIONS_SOURCE``). That
text may load only the names it binds itself and ``cos``, ``sin``,
``sqrt`` and ``abs``, and it runs in a namespace that holds nothing else,
so it cannot reach the closed forms either.
"""

import ast
import inspect
import traceback
from pathlib import Path

import pytest

from bellbound import OptimizeSpec, StrengthQuad, optimize, singlet

OPTIMIZE = Path(__file__).resolve().parent.parent / "src" / "bellbound" / "optimize.py"
CLOSED_FORMS = ("bounds", "construct")


def _closed_form_names(node) -> set[str]:
    """Names that an import node binds from the closed-form modules."""
    if not isinstance(node, ast.ImportFrom):
        return set()
    if node.module is None:  # from . import bounds
        return {a.asname or a.name for a in node.names if a.name in CLOSED_FORMS}
    if node.module.split(".")[-1] in CLOSED_FORMS:
        return {a.asname or a.name for a in node.names}
    return set()


def closed_form_loads(source: str, root: str) -> dict[str, list[str]]:
    """Each top-level definition reachable from ``root``, with the closed-form names it uses."""
    tree = ast.parse(source)
    forbidden = set().union(*(_closed_form_names(node) for node in tree.body))
    definitions = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            definitions[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        definitions[name.id] = node
    found = {}
    todo = [root]
    while todo:
        name = todo.pop()
        inner = list(ast.walk(definitions[name]))
        loads = {n.id for n in inner if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        local_imports = set().union(*(_closed_form_names(n) for n in inner))
        found[name] = sorted(loads & forbidden | local_imports)
        todo += sorted((loads & definitions.keys()) - found.keys() - set(todo))
    return found


def test_scan_follows_definitions():
    source = (
        "from .bounds import s0_bound, j_max\n"
        "from . import construct as C\n"
        "from .chsh import chsh\n"
        "LIMIT = j_max\n"
        "def unreached():\n"
        "    return s0_bound\n"
        "def helper(x):\n"
        "    from .bounds import horodecki\n"
        "    return chsh(LIMIT)\n"
        "class Search:\n"
        "    def run(self):\n"
        "        return C.achieve\n"
        "def entry():\n"
        "    return helper(1), Search()\n"
    )
    assert closed_form_loads(source, "entry") == {
        "entry": [],
        "helper": ["horodecki"],
        "LIMIT": ["j_max"],
        "Search": ["C"],
    }


def test_oracle_loads_no_closed_form():
    reached = closed_form_loads(OPTIMIZE.read_text(), "maximize_chsh")
    assert {"_Problem", "_run_starts", "_coordinate_refine", "_maximize_extremal", "_finalize"} <= reached.keys()
    assert {"_objective_factory", "_OBJECTIVE_SOURCE", "_directions", "_DIRECTIONS_SOURCE"} <= reached.keys()
    assert {name: names for name, names in reached.items() if names} == {}


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
    named = optimize._OBJECTIVE_SOURCE.replace("return abs(g)", "return s0_bound(g)", 1)
    assert unbound_loads(named) == {"s0_bound"}
    imported = "def f(p):\n    from .bounds import s0_bound\n    return s0_bound(p)\n"
    assert unbound_loads(imported) == {"s0_bound"}
    assert unbound_loads("def f(p):\n    return max(p)\n") == {"max"}


@pytest.mark.parametrize("name", ["_OBJECTIVE_SOURCE", "_DIRECTIONS_SOURCE"])
def test_rendered_text_loads_only_its_own_names(name):
    assert unbound_loads(getattr(optimize, name)) == set()


@pytest.mark.parametrize("function", ["_objective_factory", "_directions"])
def test_rendered_functions_see_only_cos_sin_sqrt(function):
    assert set(getattr(optimize, function).__globals__) == {"__builtins__", "cos", "sin", "sqrt", function}


def _moves():
    problem = optimize._Problem(OptimizeSpec(singlet(), StrengthQuad(0.9, 0.6, 0.8, 0.5)))
    return problem.make_objective()[1]


def test_rendered_closures_have_source():
    assert inspect.getsource(_moves()[0]).lstrip().startswith("def move_a(p):")


def test_traceback_shows_the_rendered_line():
    with pytest.raises(IndexError) as info:
        _moves()[0]([0.0])
    text = "".join(traceback.format_exception(info.value))
    assert 'File "<bellbound.optimize _objective_factory>", line ' in text
    assert ", in move_a\n    w1 = p[1]\n" in text
