"""One range rule for angles, strengths and Werner weights, at every entry point.

An angle must lie in [0, pi], a strength in [0, 1], a bias in [-1, 1] and
a Werner weight (of a ``werner`` state or of ``scan werner-sweep``) in
[-1/3, 1]. A finite value at
most ``model.RANGE_SLACK`` (1e-12) outside its interval is clamped into it
and gives the result at that end; anything else is an input error
(``InvalidInputError``, exit code 2 at the CLI). The rule lives in
``model.check_angle``, ``model.check_strength`` and
``model.check_werner_weight``; the last test fails if a copy of the angle
slack appears in another module.
"""

import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

from bellbound import (
    InvalidInputError,
    OptimizeSpec,
    StrengthQuad,
    cor1_bound,
    cor4_bound,
    maximize_chsh,
    reference_frames,
    s0_bound,
    singlet,
)
from bellbound.cli import main
from bellbound.model import bell_diagonal, make_observable, werner

# (value in the clamped band, the end it is clamped to)
ANGLES_CLAMPED = [(-1e-13, 0.0), (math.pi + 5e-13, math.pi)]
ANGLES_REJECTED = [-2e-12, math.pi + 2e-12, math.nan]
STRENGTHS_CLAMPED = [(-1e-13, 0.0), (1 + 5e-13, 1.0)]
STRENGTHS_REJECTED = [-2e-12, 1 + 2e-12, math.nan]

STATE = {"kind": "bell_diagonal", "t": [0.9, -0.3, 0.3]}
Q = (0.9, 0.7, 0.8, 0.6)


def _run(tmp_path, capsys, command, doc=None, *args):
    argv = [command, *args]
    if doc is not None:
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        argv += ["--input", str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _angle_doc(theta, phi):
    return {"state": STATE, "strengths": list(Q), "angles": {"theta": theta, "phi": phi}}


def _scan(tmp_path, capsys, family, start, stop, doc=None):
    args = ["--family", family, f"--start={start!r}", f"--stop={stop!r}", "--steps", "2"]
    return _run(tmp_path, capsys, "scan", doc, *args)


def _bound_columns(csv_text):
    return [line.split(",")[1:] for line in csv_text.splitlines()]


@pytest.mark.parametrize("value, end", ANGLES_CLAMPED)
@pytest.mark.parametrize("which", ["theta", "phi"])
def test_angle_in_band_acts_as_its_end(tmp_path, capsys, which, value, end):
    def angles(v):
        return (v, 1.2) if which == "theta" else (1.2, v)

    for command in (["bound"], ["achieve", "--criterion", "thm1"]):
        got = _run(tmp_path, capsys, command[0], _angle_doc(*angles(value)), *command[1:])
        want = _run(tmp_path, capsys, command[0], _angle_doc(*angles(end)), *command[1:])
        assert got[0] == 0 and got == want, command
    state, q = bell_diagonal(0.9, -0.3, 0.3), StrengthQuad(*Q)
    assert s0_bound(state, q, *angles(value)).value == s0_bound(state, q, *angles(end)).value
    for got, want in zip(reference_frames(*angles(value)), reference_frames(*angles(end))):
        assert np.array_equal(got, want)
    spec = OptimizeSpec(state=state, strengths=q, fixed_angles=angles(value), restarts=1)
    assert spec.fixed_angles == angles(end)
    at_end = OptimizeSpec(state=state, strengths=q, fixed_angles=angles(end), restarts=1)
    assert maximize_chsh(spec).best_value == maximize_chsh(at_end).best_value


@pytest.mark.parametrize("value, end", ANGLES_CLAMPED)
def test_angle_sweep_end_in_band_acts_as_its_end(tmp_path, capsys, value, end):
    doc = {"state": STATE, "strengths": list(Q)}
    span = (value, 1.0) if end == 0.0 else (3.0, value)
    at_end = (end, 1.0) if end == 0.0 else (3.0, end)
    code, out, _ = _scan(tmp_path, capsys, "angle-sweep", *span, doc=doc)
    assert code == 0
    # The angle column keeps the given value; the bound is the one at the end.
    assert out.splitlines()[1 if end == 0.0 else 2].split(",")[0] == repr(value)
    assert _bound_columns(out) == _bound_columns(_scan(tmp_path, capsys, "angle-sweep", *at_end, doc=doc)[1])


@pytest.mark.parametrize("value", ANGLES_REJECTED)
@pytest.mark.parametrize("which", ["theta", "phi"])
def test_angle_past_band_is_rejected(tmp_path, capsys, which, value):
    angles = (value, 1.2) if which == "theta" else (1.2, value)
    for command in (["bound"], ["achieve", "--criterion", "thm1"]):
        code, _, err = _run(tmp_path, capsys, command[0], _angle_doc(*angles), *command[1:])
        assert code == 2 and "must lie in [0, pi] (radians)" in err, command
    state, q = bell_diagonal(0.9, -0.3, 0.3), StrengthQuad(*Q)
    with pytest.raises(InvalidInputError):
        s0_bound(state, q, *angles)
    with pytest.raises(InvalidInputError):
        reference_frames(*angles)
    with pytest.raises(InvalidInputError):
        OptimizeSpec(state=state, strengths=q, fixed_angles=angles)


@pytest.mark.parametrize("value", ANGLES_REJECTED)
def test_angle_sweep_end_past_band_is_rejected(tmp_path, capsys, value):
    doc = {"state": STATE, "strengths": list(Q)}
    for span in ((value, 1.0), (3.0, value)):
        code, _, err = _scan(tmp_path, capsys, "angle-sweep", *span, doc=doc)
        assert code == 2 and err.startswith("error: "), span


@pytest.mark.parametrize("value, end", STRENGTHS_CLAMPED)
def test_strength_in_band_acts_as_its_end(tmp_path, capsys, value, end):
    assert StrengthQuad(value, 0.5, value, 0.25).as_tuple() == (end, 0.5, end, 0.25)
    assert make_observable(0.0, value, [0, 0, 1]).strength == end
    # No angles: bound builds its sgen reference scenario from the strengths.
    for angles in (None, {"theta": 1.2, "phi": 0.4}):
        docs = [{"state": {"kind": "singlet"}, "strengths": [s, 1, 1, 1]} for s in (value, end)]
        if angles:
            for doc in docs:
                doc["angles"] = angles
        got, want = (_run(tmp_path, capsys, "bound", doc) for doc in docs)
        assert got[0] == 0 and got == want


def test_bias_follows_the_same_rule():
    assert make_observable(-1 - 5e-13, 0.0, [0, 0, 1]).bias == -1.0
    assert make_observable(1 + 5e-13, 0.0, [0, 0, 1]).bias == 1.0
    for bias in (-1 - 2e-12, 1 + 2e-12, math.nan):
        with pytest.raises(InvalidInputError, match=r"bias must lie in \[-1, 1\]"):
            make_observable(bias, 0.0, [0, 0, 1])


def test_strength_quad_keeps_values_inside_the_interval():
    given = (1, np.float64(0.5), 0.0, 0.25)
    q = StrengthQuad(*given)
    assert all(a is b for a, b in zip(q.as_tuple(), given))


@pytest.mark.parametrize("value, end", STRENGTHS_CLAMPED)
def test_strength_sweep_end_in_band_acts_as_its_end(tmp_path, capsys, value, end):
    span = (value, 0.5) if end == 0.0 else (0.5, value)
    at_end = (end, 0.5) if end == 0.0 else (0.5, end)
    code, out, _ = _scan(tmp_path, capsys, "strength-sweep", *span)
    assert code == 0
    assert out.splitlines()[1 if end == 0.0 else 2].split(",")[0] == repr(value)
    assert _bound_columns(out) == _bound_columns(_scan(tmp_path, capsys, "strength-sweep", *at_end)[1])


@pytest.mark.parametrize("value", STRENGTHS_REJECTED)
def test_strength_past_band_is_rejected(tmp_path, capsys, value):
    with pytest.raises(InvalidInputError):
        StrengthQuad(0.5, value, 0.5, 0.5)
    with pytest.raises(InvalidInputError):
        make_observable(0.0, value, [0, 0, 1])
    code, _, err = _run(tmp_path, capsys, "bound", {"state": {"kind": "singlet"}, "strengths": [1, value, 1, 1]})
    assert code == 2 and "must lie in [0, 1]" in err
    for span in ((value, 0.5), (0.5, value)):
        code, _, err = _scan(tmp_path, capsys, "strength-sweep", *span)
        assert code == 2 and err.startswith("error: "), span


@pytest.mark.parametrize("value, end", STRENGTHS_CLAMPED + [(1 + 1e-13, 1.0)])
@pytest.mark.parametrize("bound", [cor1_bound, cor4_bound], ids=lambda f: f.__name__)
def test_equal_strength_bounds_clamp_in_band(bound, value, end):
    state = singlet()
    for args, at_end in (((value, 0.5), (end, 0.5)), ((0.5, value), (0.5, end))):
        assert bound(state, *args).value == bound(state, *at_end).value
        array_args = [np.array([v, 0.25]) for v in args]
        array_end = [np.array([v, 0.25]) for v in at_end]
        assert np.array_equal(bound(state, *array_args).value, bound(state, *array_end).value)


@pytest.mark.parametrize("value", STRENGTHS_REJECTED + [1.5])
@pytest.mark.parametrize("bound", [cor1_bound, cor4_bound], ids=lambda f: f.__name__)
def test_equal_strength_bounds_reject_past_band(bound, value):
    state = singlet()
    for args in ((value, 1.0), (1.0, value), (np.array([0.5, value]), 1.0)):
        with pytest.raises(InvalidInputError, match=r"must lie in \[0, 1\]"):
            bound(state, *args)


WERNER_CLAMPED = [(-1 / 3 - 5e-13, -1 / 3), (1 + 5e-13, 1.0), (1 + 1e-13, 1.0)]
WERNER_REJECTED = [-0.34, -1 / 3 - 2e-12, 1 + 2e-12]


def _werner_doc(w_text):
    return '{"state": {"kind": "werner", "w": %s}, "strengths": [0.9, 0.9, 0.8, 0.8]}' % w_text


@pytest.mark.parametrize("value, end", WERNER_CLAMPED)
def test_werner_state_weight_in_band_acts_as_its_end(tmp_path, capsys, value, end):
    assert np.array_equal(werner(value).t, werner(end).t)
    path = tmp_path / "in.json"
    outputs = []
    for w in (value, end):
        path.write_text(_werner_doc(repr(w)))
        outputs.append((main(["bound", "--input", str(path)]), *capsys.readouterr()))
    assert outputs[0][0] == 0 and outputs[0] == outputs[1]


@pytest.mark.parametrize("text", ["1.5", "-0.34", "1.000000000002", "1e400", "NaN"])
def test_werner_state_weight_past_band_is_rejected(tmp_path, capsys, text):
    with pytest.raises(InvalidInputError):
        werner(float(text))
    path = tmp_path / "in.json"
    path.write_text(_werner_doc(text))
    code = main(["bound", "--input", str(path)])
    out, err = capsys.readouterr()
    # One line on stderr: no numpy warning before the error.
    assert (code, out) == (2, "") and err == f"error: w must lie in [-1/3, 1], got {float(text)!r}\n"


@pytest.mark.parametrize("value, end", WERNER_CLAMPED)
def test_werner_sweep_end_in_band_acts_as_its_end(tmp_path, capsys, value, end):
    span = (value, 0.5) if end < 0.0 else (0.5, value)
    at_end = (end, 0.5) if end < 0.0 else (0.5, end)
    code, out, _ = _scan(tmp_path, capsys, "werner-sweep", *span)
    assert code == 0
    assert out.splitlines()[1 if end < 0.0 else 2].split(",")[0] == repr(value)
    assert _bound_columns(out) == _bound_columns(_scan(tmp_path, capsys, "werner-sweep", *at_end)[1])


@pytest.mark.parametrize("value", WERNER_REJECTED)
def test_werner_weight_past_band_is_rejected(tmp_path, capsys, value):
    span = (value, 0.5) if value < 0.0 else (0.5, value)
    code, _, err = _scan(tmp_path, capsys, "werner-sweep", *span)
    assert code == 2 and err == f"error: w must lie in [-1/3, 1], got {value!r}\n"


# ---------------------------------------------------------------------------
# Guard: the angle slack is written once, in model.py

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "bellbound").glob("*.py"))


def angle_slack_sums(source: str) -> list[int]:
    """Lines where ``pi + 1e-12`` (either order, any ``pi``) is written."""
    def is_pi(node):
        return (isinstance(node, ast.Attribute) and node.attr == "pi") or (
            isinstance(node, ast.Name) and node.id == "pi"
        )

    def is_slack(node):
        return isinstance(node, ast.Constant) and node.value == 1e-12

    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Add)
        and ((is_pi(node.left) and is_slack(node.right)) or (is_slack(node.left) and is_pi(node.right)))
    ]


def test_guard_finds_the_slack():
    source = (
        "import math\n"
        "import numpy as np\n"
        "from math import pi\n"
        "a = math.pi + 1e-12\n"
        "b = 1e-12 + np.pi\n"
        "c = pi + 1e-12\n"
        "d = math.pi + 1e-10\n"
    )
    assert angle_slack_sums(source) == [4, 5, 6]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "model.py"], ids=lambda p: p.name)
def test_angle_slack_only_in_model(path):
    assert angle_slack_sums(path.read_text()) == []
