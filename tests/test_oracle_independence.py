"""The oracle loads nothing from the closed forms that it certifies.

``optimize.py`` imports the bounds and constructions for its audits, but
the search must not use them: it shares only the expectation formula with
them. ``optimize.py`` is parsed with ``ast``; starting at ``maximize_chsh``,
every top-level definition (function, class or constant) that a reached
definition names is reached in turn. A reached definition that loads a
name ``optimize.py`` imports from ``.bounds`` or ``.construct``, or imports
from them itself, fails the test.
"""

import ast
from pathlib import Path

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
    assert {name: names for name, names in reached.items() if names} == {}
