"""Property test: no input document or ``scan`` argument makes the CLI end in a traceback.

Documents are drawn as valid scenario (or ``compat``) files, as valid
files with one value replaced by arbitrary JSON or one key removed, and
as arbitrary JSON. ``bound`` and ``achieve`` must end with a documented
exit code: 0, 2 (input error), 3 (unphysical state) or 4 (construction
failure); ``compat`` with 0 or 2. ``scan`` arguments are drawn around the
range edges, as non-finite values and as text that is not a number, with
or without an input document; ``scan`` ends with 0, 2 or 3, and a
success writes one line per step after the header.
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
def damaged(draw, documents):
    doc = copy.deepcopy(draw(documents))
    path = draw(st.sampled_from(sorted(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(json_value)
    return doc


document = valid | damaged(valid) | json_value
compat_valid = st.fixed_dictionaries({"x": observable, "xp": observable})
compat_document = compat_valid | damaged(compat_valid) | json_value
command = st.sampled_from(
    [["bound"]] + [["achieve", "--criterion", c] for c in ("thm1", "thm2", "cor1", "cor4", "thm3", "thm4")]
)


def _fuzz_settings(max_examples):
    return settings(
        max_examples=max_examples,
        deadline=None,
        derandomize=True,
        database=None,
        # The explain phase re-runs every failing example with tracing, which
        # takes minutes here; shrinking alone gives a readable example.
        phases=[Phase.explicit, Phase.generate, Phase.shrink],
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )


def _main(argv, capsys):
    """Exit code, stdout and stderr of one ``main`` call.

    An argparse usage error counts as its ``SystemExit`` code, and its
    stderr as the "error: ..." part of the "prog: error: ..." last line.
    """
    try:
        code = main(argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err.splitlines()[-1].partition(": ")[2]
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_with_document(tmp_path, capsys, doc, cmd):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return _main([cmd[0], "--input", str(path), *cmd[1:]], capsys)


@_fuzz_settings(300)
@given(doc=document, cmd=command)
def test_scenario_file_exit_codes(tmp_path, capsys, doc, cmd):
    code, _, err = _run_with_document(tmp_path, capsys, doc, cmd)
    assert code in (0, 2, 3, 4)
    if code != 0:
        assert err.startswith("error: ")


@_fuzz_settings(100)
@given(doc=compat_document)
def test_compat_file_exit_codes(tmp_path, capsys, doc):
    code, _, err = _run_with_document(tmp_path, capsys, doc, ["compat"])
    assert code in (0, 2)
    if code != 0:
        assert err.startswith("error: ")


# Range ends of the three families, values in and just past the clamped
# band, spans whose difference overflows, and non-finite values.
range_edge = st.sampled_from(
    [0.0, -0.0, 1.0, math.pi, -1 / 3, -5e-13, 1 + 5e-13, math.pi + 5e-13, -1 / 3 - 5e-13,
     -2e-12, 1 + 2e-12, math.pi + 2e-12, 1e308, -1.7e308, 1.7e308, math.nan, math.inf, -math.inf]
)
scan_value = (
    range_edge.map(repr)
    | st.floats(-0.5, 3.5).map(repr)
    | st.floats(allow_nan=True, allow_infinity=True).map(repr)
    | st.text(alphabet="0123456789.e+-naif", max_size=5)
)


# Half the spans run upward from a finite start, most of them inside a
# family's range; the rest pair two arbitrary tokens.
upward = st.tuples(range_edge.filter(math.isfinite) | st.floats(-0.4, 1.0), st.floats(1e-9, 1.0)).map(
    lambda pair: (repr(pair[0]), repr(pair[0] + pair[1]))
)
scan_span = upward | st.tuples(scan_value, scan_value)


@_fuzz_settings(200)
@given(
    family=st.sampled_from(["strength-sweep", "werner-sweep", "angle-sweep"]),
    span=scan_span,
    steps=st.integers(-2, 400),
    doc=st.none() | valid | document,
)
def test_scan_argument_exit_codes(tmp_path, capsys, family, span, steps, doc):
    cmd = ["scan", "--family", family, "--start", span[0], "--stop", span[1], "--steps", str(steps)]
    if doc is None:
        code, out, err = _main(cmd, capsys)
    else:
        code, out, err = _run_with_document(tmp_path, capsys, doc, cmd)
    assert code in (0, 2, 3)
    if code == 0:
        assert out.count("\n") == steps + 1
    else:
        assert out == "" and err.startswith("error: ")
