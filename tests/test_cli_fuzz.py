"""Property test: no input document makes the CLI end in a traceback.

Documents are drawn as valid scenario files, as valid files with one
value replaced by arbitrary JSON or one key removed, and as arbitrary
JSON. ``bound`` and ``achieve`` must end with a documented exit code:
0, 2 (input error), 3 (unphysical state) or 4 (construction failure).
"""

import copy
import json
import math

from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from bellbound.cli import main

json_leaf = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4)
)
json_value = st.recursive(
    json_leaf,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)

# Strengths and angles reach 2e-12 past their intervals, so the clamped
# band (1e-12) and the rejected values just beyond it are both drawn.
unit = st.floats(-2e-12, 1 + 2e-12)
angle = st.floats(-2e-12, math.pi + 2e-12)
small = st.floats(-0.1, 0.1)


def _triple(element):
    return st.lists(element, min_size=3, max_size=3)


def _direction(raw):
    norm = math.sqrt(sum(c * c for c in raw))
    return [c / norm for c in raw] if norm > 1e-3 else [0.0, 0.0, 1.0]


# Every state here is physical: small Fano components keep the density
# matrix positive, and Bell-diagonal entries within 1/3 stay inside the
# tetrahedron.
state = st.one_of(
    st.fixed_dictionaries({"kind": st.just("singlet")}),
    st.fixed_dictionaries({"kind": st.just("werner"), "w": st.floats(-1 / 3, 1.0)}),
    st.fixed_dictionaries({"kind": st.just("bell_diagonal"), "t": _triple(st.floats(-1 / 3, 1 / 3))}),
    st.fixed_dictionaries(
        {"kind": st.just("fano"), "a": _triple(small), "b": _triple(small), "t": _triple(_triple(small))}
    ),
)
strengths = st.lists(unit, min_size=4, max_size=4) | st.builds(
    lambda sa, sb: [sa, sa, sb, sb], unit, unit
)
observable = st.fixed_dictionaries(
    {"strength": unit, "direction": st.builds(_direction, _triple(st.floats(-1.0, 1.0)))},
    optional={"bias": st.floats(-0.2, 0.2)},
)
parameters = st.fixed_dictionaries(
    {"state": state, "strengths": strengths},
    optional={
        "angles": st.fixed_dictionaries({"theta": angle, "phi": angle}),
        "biases": st.lists(st.floats(-0.2, 0.2), min_size=4, max_size=4),
    },
)
explicit = st.fixed_dictionaries(
    {
        "state": state,
        "scenario": st.fixed_dictionaries({"x": observable, "xp": observable, "y": observable, "yp": observable}),
    }
)
valid = parameters | explicit


def _paths(doc, prefix=()):
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


@st.composite
def damaged(draw):
    doc = copy.deepcopy(draw(valid))
    path = draw(st.sampled_from(sorted(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(json_value)
    return doc


document = valid | damaged() | json_value
command = st.sampled_from(
    [["bound"]] + [["achieve", "--criterion", c] for c in ("thm1", "thm2", "cor1", "cor4", "thm3", "thm4")]
)


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    # The explain phase re-runs every failing example with tracing, which
    # takes minutes here; shrinking alone gives a readable example.
    phases=[Phase.explicit, Phase.generate, Phase.shrink],
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(doc=document, cmd=command)
def test_scenario_file_exit_codes(tmp_path, capsys, doc, cmd):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = main([cmd[0], "--input", str(path), *cmd[1:]])
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4)
    if code != 0:
        assert err.startswith("error: ")
