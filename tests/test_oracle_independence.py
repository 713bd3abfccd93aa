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

The rendered text is also held to its own economy: a candidate point forms
each product once, and the unbounded rotation searches never clamp. The
pattern step follows the same rules, and its points reuse the start's
full-point evaluation rather than a second rendered copy of it.
"""

import ast
import inspect
import linecache
import textwrap
import traceback
from collections import Counter
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


def repeated_products(nodes) -> dict[str, int]:
    """Each product (``Mult``) that ``nodes`` form more than once, by ``ast.unparse`` text, with its count."""
    texts = Counter(
        ast.unparse(node)
        for root in nodes
        for node in ast.walk(root)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
    )
    return {text: count for text, count in texts.items() if count > 1}


def _objective_tree():
    return ast.parse(oracle._OBJECTIVE_SOURCE)


def _coordinate_loops(tree) -> dict[str, ast.For]:
    """The search's ``for i in <coords>`` loops, by the text of their coordinates."""
    return {
        ast.unparse(node.iter): node
        for node in ast.walk(tree)
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name) and node.target.id == "i"
    }


def test_repeated_products_flags_a_product_formed_twice():
    tree = ast.parse("x = r00 * c + r01 * s\nxp = r00 * c - r01 * s\nh = 0.5 * a\n")
    assert repeated_products([tree]) == {"r00 * c": 2, "r01 * s": 2}


def test_each_candidate_forms_each_product_once():
    loops = [
        node
        for node in ast.walk(_objective_tree())
        if isinstance(node, ast.While) and isinstance(node.test, ast.Constant) and node.test.value is True
    ]
    # A's rotation, B's rotation, theta, phi and the biases.
    assert len(loops) == 5
    for loop in loops:
        assert repeated_products([loop]) == {}


def test_each_side_of_the_directions_forms_each_product_once():
    # Both sides reuse the rotation's scratch names, so each side is checked
    # on its own: A's statements end with its last direction, xp2.
    body = ast.parse(oracle._DIRECTIONS_SOURCE).body[0].body
    last_a = next(
        k for k, stmt in enumerate(body)
        if isinstance(stmt, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "xp2" for t in stmt.targets)
    )
    for side in (body[: last_a + 1], body[last_a + 1 :]):
        assert repeated_products(side) == {}


BOUND_NAMES = {"lo", "hi", "lo_i", "hi_i"}


def test_only_bounded_searches_clamp():
    loops = _coordinate_loops(_objective_tree())
    assert set(loops) == {"(0, 1, 2)", "(3, 4, 5)", "(6,)", "(7,)", "(nb, nb + 1, nb + 2, nb + 3)"}

    def bound_names(loop):
        return {node.id for node in ast.walk(loop) if isinstance(node, ast.Name) and node.id in BOUND_NAMES}

    # Rotation coordinates are unbounded; the angles and biases keep their bounds.
    for coords, loop in loops.items():
        assert bound_names(loop) == (set() if coords in ("(0, 1, 2)", "(3, 4, 5)") else BOUND_NAMES), coords


def _pattern_step(source: str) -> dict[str, list[ast.stmt]]:
    """The pattern step's statements: the body of ``if stride:`` (keep the point, then move
    it) and of ``if pattern:`` (the sweep's net displacement), by their test's name."""
    return {
        node.test.id: node.body
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id in ("stride", "pattern")
    }


def test_each_pattern_point_forms_each_product_once():
    step = _pattern_step(oracle._OBJECTIVE_SOURCE)
    assert set(step) == {"stride", "pattern"}
    assert repeated_products(step["stride"] + step["pattern"]) == {}
    # A move that forms a coordinate's stride * m twice is flagged.
    planted = _pattern_step(oracle._OBJECTIVE_SOURCE.replace("p[6] = cand\n", "p[6] = p[6] + stride * m6\n", 1))
    assert repeated_products(planted["stride"]) == {"stride * m6": 2}


def pattern_moves(source: str) -> dict[str, tuple[set[str], int, set[str]]]:
    """Per coordinate group of the pattern step's move (rotations, then the ``free_angles`` and
    ``free_bias`` blocks): the places of p it stores, its clamps, and the bound names it uses."""
    move = _pattern_step(source)["stride"]
    flagged = [stmt for stmt in move if isinstance(stmt, ast.If) and isinstance(stmt.test, ast.Name)]
    groups = {"rotations": [stmt for stmt in move if stmt not in flagged]}
    groups.update((stmt.test.id, stmt.body) for stmt in flagged)

    def summary(stmts):
        nodes = [node for stmt in stmts for node in ast.walk(stmt)]
        stored = {
            ast.unparse(node) for node in nodes
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store) and ast.unparse(node.value) == "p"
        }
        clamps = sum(isinstance(node, ast.If) and ast.unparse(node.test) == "cand > hi_i" for node in nodes)
        bounds = {node.id for node in nodes if isinstance(node, ast.Name) and node.id in BOUND_NAMES}
        return stored, clamps, bounds

    return {name: summary(stmts) for name, stmts in groups.items()}


def test_pattern_step_clamps_angles_and_biases_never_rotations():
    want = {
        "rotations": ({f"p[{i}]" for i in range(6)}, 0, set()),
        "free_angles": ({"p[6]", "p[7]"}, 2, BOUND_NAMES),
        "free_bias": ({"p[nb]", "p[nb + 1]", "p[nb + 2]", "p[nb + 3]"}, 4, BOUND_NAMES),
    }
    assert pattern_moves(oracle._OBJECTIVE_SOURCE) == want
    # A clamped rotation, or an unclamped angle, is flagged.
    rendered = oracle._per_coordinate(oracle._MOVE, oracle._CLAMPED_MOVE, 4)
    clamped = oracle._per_coordinate(oracle._CLAMPED_MOVE, oracle._CLAMPED_MOVE, 4)
    unclamped = oracle._per_coordinate(oracle._MOVE, oracle._MOVE, 4)
    assert pattern_moves(oracle._OBJECTIVE_SOURCE.replace(rendered, clamped))["rotations"][1:] == (6, BOUND_NAMES)
    assert pattern_moves(oracle._OBJECTIVE_SOURCE.replace(rendered, unclamped))["free_angles"][1:] == (0, set())


def occurrences(source: str, text: str) -> int:
    """How often ``text``'s statements appear in a row in one statement list of ``source``."""
    want = [ast.unparse(stmt) for stmt in ast.parse(text).body]
    count = 0
    for node in ast.walk(ast.parse(source)):
        for stmts in (getattr(node, "body", None), getattr(node, "orelse", None)):
            have = [ast.unparse(stmt) for stmt in stmts] if isinstance(stmts, list) else []
            count += sum(have[k : k + len(want)] == want for k in range(len(have)))
    return count


def test_full_point_evaluation_is_rendered_once():
    # The start of refine and every pattern point run the same text.
    assert occurrences(oracle._OBJECTIVE_SOURCE, oracle._POINT) == 1
    second = oracle._OBJECTIVE_SOURCE.replace(
        "            if stride:\n", "            if stride:\n" + textwrap.indent(oracle._POINT, " " * 16), 1
    )
    assert occurrences(second, oracle._POINT) == 2
