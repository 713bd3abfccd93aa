import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from bellbound import DomainError, StrengthQuad, bounds, cli, construct
from bellbound.model import correlation_singular_values, random_rotation, random_state
from bellbound.cli import main
from bellbound.construct import ACHIEVABLE

SQ2 = math.sqrt(2.0)
PI2 = math.pi / 2


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _singlet_doc(strengths=(1, 1, 1, 1), angles=(PI2, PI2)):
    doc = {"state": {"kind": "singlet"}, "strengths": list(strengths)}
    if angles is not None:
        doc["angles"] = {"theta": angles[0], "phi": angles[1]}
    return doc


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _criterion(report, cid):
    matches = [c for c in report["criteria"] if c["criterion_id"] == cid]
    assert matches, f"criterion {cid} missing from report"
    return matches[0]


def test_bound_singlet_projective(tmp_path, capsys):
    path = _write(tmp_path, "in.json", _singlet_doc())
    code, out, _ = _run(capsys, ["bound", "--input", path])
    assert code == 0
    report = json.loads(out)
    horo = _criterion(report, "horodecki")
    assert abs(horo["value"] - 2.8284271247) < 1e-9
    assert horo["violated"]
    thm1 = _criterion(report, "thm1")
    assert abs(thm1["value"] - 2.8284271247) < 1e-9
    thm2 = _criterion(report, "thm2")
    assert abs(thm2["value"] - thm1["value"]) < 1e-9


def test_bound_werner_not_violated(tmp_path, capsys):
    doc = {"state": {"kind": "werner", "w": 0.6}, "strengths": [1, 1, 1, 1],
           "angles": {"theta": PI2, "phi": PI2}}
    path = _write(tmp_path, "in.json", doc)
    code, out, _ = _run(capsys, ["bound", "--input", path])
    assert code == 0
    report = json.loads(out)
    horo = _criterion(report, "horodecki")
    assert abs(horo["value"] - 2 * SQ2 * 0.6) < 1e-9
    assert not horo["violated"]


def test_bound_biased_window(tmp_path, capsys):
    # Common strength 0.835 on the singlet: only the biased bound violates.
    path = _write(tmp_path, "in.json", _singlet_doc(strengths=[0.835] * 4, angles=None))
    code, out, _ = _run(capsys, ["bound", "--input", path])
    assert code == 0
    report = json.loads(out)
    thm1 = _criterion(report, "thm1")
    assert thm1["applicable"] and not thm1["violated"]
    assert thm1["angle_source"] == "thm4"
    thm2 = _criterion(report, "thm2")
    assert thm2["violated"] and thm2["value"] > 2.02


def test_bound_evaluates_each_closed_form_once(tmp_path, capsys, monkeypatch):
    # A Werner state is a T-state with s1 = s2: thm2, cor6 and thm4+bias all apply.
    calls = []

    def counted(name):
        original = getattr(bounds, name)
        monkeypatch.setattr(bounds, name, lambda *args, **kwargs: calls.append(name) or original(*args, **kwargs))

    for name in ("s0_bound", "s0_tilde", "with_bias_term"):
        counted(name)
    doc = {"state": {"kind": "werner", "w": 0.8}, "strengths": [0.9, 0.8, 0.7, 0.6], "angles": {"theta": 1.0, "phi": 2.0}}
    code, out, _ = _run(capsys, ["bound", "--input", _write(tmp_path, "in.json", doc)])
    assert code == 0
    # cor2 and thm1 each evaluate thm1's closed form; thm2 and cor6 reuse thm1's and cor3's.
    assert sorted(calls) == ["s0_bound", "s0_bound", "s0_tilde", "with_bias_term", "with_bias_term", "with_bias_term"]
    report = json.loads(out)
    jmax = bounds.j_max(StrengthQuad(0.9, 0.8, 0.7, 0.6))
    for biased, unbiased in (("thm2", "thm1"), ("cor6", "cor3")):
        assert abs(_criterion(report, biased)["value"] - _criterion(report, unbiased)["value"] - jmax) < 1e-9
    assert [c.get("criterion_variant") for c in report["criteria"]].count("thm4+bias") == 1


def test_bound_unphysical_state_exit_code(tmp_path, capsys):
    doc = {"state": {"kind": "fano", "a": [0, 0, 0], "b": [0, 0, 0],
                     "t": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
           "strengths": [1, 1, 1, 1]}
    path = _write(tmp_path, "in.json", doc)
    code, _, err = _run(capsys, ["bound", "--input", path])
    assert code == 3
    assert "unphysical" in err


def test_bound_parse_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = _run(capsys, ["bound", "--input", str(bad)])
    assert code == 2
    path = _write(tmp_path, "kind.json", {"state": {"kind": "thermal"}, "strengths": [1, 1, 1, 1]})
    code, _, err = _run(capsys, ["bound", "--input", path])
    assert code == 2 and "kind" in err
    # Degrees are not radians: out-of-range angles are rejected.
    doc = _singlet_doc()
    doc["angles"] = {"theta": 90.0, "phi": 90.0}
    path = _write(tmp_path, "deg.json", doc)
    code, _, err = _run(capsys, ["bound", "--input", path])
    assert code == 2 and "radians" in err


def test_achieve_and_roundtrip(tmp_path, capsys):
    path = _write(tmp_path, "in.json", _singlet_doc())
    code, out, _ = _run(capsys, ["achieve", "--input", path, "--criterion", "thm1"])
    assert code == 0
    achieved = json.loads(out)
    assert abs(achieved["attained_chsh"] - 2 * SQ2) < 1e-9
    assert abs(achieved["target_bound"] - 2 * SQ2) < 1e-9
    # Feed the explicit scenario back through `bound`.
    roundtrip = {"state": {"kind": "singlet"}, "scenario": achieved["scenario"]}
    path2 = _write(tmp_path, "rt.json", roundtrip)
    code, out, _ = _run(capsys, ["bound", "--input", path2])
    assert code == 0
    report = json.loads(out)
    assert abs(report["chsh"]["canonical"] - achieved["attained_chsh"]) < 1e-9
    sgen = _criterion(report, "sgen")
    assert sgen["value"] >= report["chsh"]["canonical"] - 1e-9


def test_achieve_tstate_precondition(tmp_path, capsys):
    doc = {"state": {"kind": "fano", "a": [0, 0, 0.3], "b": [0, 0, 0],
                     "t": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]},
           "strengths": [0.9, 0.9, 0.9, 0.9],
           "angles": {"theta": PI2, "phi": PI2}}
    path = _write(tmp_path, "in.json", doc)
    code, _, err = _run(capsys, ["achieve", "--input", path, "--criterion", "thm2"])
    assert code == 2
    assert "T-state" in err


_LOCAL_A = {"kind": "fano", "a": [0, 0, 0.3], "b": [0, 0, 0], "t": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}


@pytest.mark.parametrize(
    "criterion, doc, message",
    [
        ("thm1", _singlet_doc(angles=None), "criterion thm1 needs angles{theta, phi} in the input"),
        ("cor1", _singlet_doc(strengths=[1, 0.9, 1, 1]), "criterion cor1 requires equal strengths on each side"),
        ("cor4", _singlet_doc(strengths=[1, 1, 1, 0.9]), "criterion cor4 requires equal strengths on each side"),
        (
            "thm3",
            _singlet_doc(strengths=[1, 0.9, 1, 0.8]),
            "criterion thm3 requires equal strengths on one side (sx = sxp or sy = syp)",
        ),
        (
            "cor4",
            {"state": _LOCAL_A, "strengths": [0.9, 0.9, 0.9, 0.9]},
            "cor4 requires a T-state (|a| and |b| below 1e-10); got |a| = 3.000e-01, |b| = 0.000e+00",
        ),
    ],
    ids=["thm1-without-angles", "cor1-unequal", "cor4-unequal", "thm3-unequal-a", "cor4-not-tstate"],
)
def test_achieve_precondition_exits_2(tmp_path, capsys, criterion, doc, message):
    path = _write(tmp_path, "in.json", doc)
    code, out, err = _run(capsys, ["achieve", "--input", path, "--criterion", criterion])
    assert code == 2
    assert err == f"error: {message}\n"
    assert out == ""


_T_DOC = {"state": {"kind": "bell_diagonal", "t": [0.6, -0.4, 0.2]}, "strengths": [0.9, 0.8, 0.7, 0.6]}


@pytest.mark.parametrize("command", [["bound"], ["achieve", "--criterion", "thm1"]], ids=["bound", "achieve"])
@pytest.mark.parametrize("angles", [None, {"theta": 1.0, "phi": 2.0}], ids=["no-angles", "angles"])
@pytest.mark.parametrize(
    "biases, message",
    [([5, 0, 0, 0], "bias must lie in [-1, 1], got 5.0"), ([0, 0, 0, -0.5], "strength + |bias| = 1.1 exceeds 1")],
    ids=["out-of-range", "over-strength"],
)
def test_biases_are_checked_with_or_without_angles(tmp_path, capsys, command, angles, biases, message):
    doc = dict(_T_DOC, biases=biases, **({} if angles is None else {"angles": angles}))
    code, out, err = _run(capsys, [*command, "--input", _write(tmp_path, "in.json", doc)])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_biases_at_their_limit_are_accepted(tmp_path, capsys):
    doc = dict(_T_DOC, biases=[0.1, -0.2, 0.3, -0.4], angles={"theta": 1.0, "phi": 2.0})
    path = _write(tmp_path, "in.json", doc)
    assert _run(capsys, ["bound", "--input", path])[0] == 0
    assert _run(capsys, ["achieve", "--criterion", "thm1", "--input", path])[0] == 0


_SCENARIO = {
    "x": {"bias": 0.0, "strength": 0.9, "direction": [1, 0, 0]},
    "xp": {"bias": 0.0, "strength": 0.8, "direction": [0, 1, 0]},
    "y": {"bias": 0.0, "strength": 0.7, "direction": [0.6, 0.8, 0]},
    "yp": {"bias": 0.0, "strength": 0.6, "direction": [0.8, -0.6, 0]},
}


@pytest.mark.parametrize(
    "extra, ignored",
    [
        ({"biases": [0.1, -0.2, 0.3, -0.4], "angles": {"theta": 1.0, "phi": 2.0}}, True),
        ({"angles": {"theta": 1.0, "phi": 2.0}}, False),
        ({"biases": [0, 0, 0, 0], "angles": {"theta": 1.0, "phi": 2.0}}, False),
        ({"scenario": dict(_SCENARIO, y=dict(_SCENARIO["y"], bias=-0.3))}, True),
        ({"scenario": _SCENARIO}, False),
    ],
    ids=["biases", "no-biases", "zero-biases", "scenario-biases", "scenario-unbiased"],
)
def test_achieve_says_when_it_ignores_the_biases(tmp_path, capsys, extra, ignored):
    # A scenario carries its own strengths.
    doc = dict({"state": _T_DOC["state"]} if "scenario" in extra else _T_DOC, **extra)
    code, out, _ = _run(capsys, ["achieve", "--criterion", "thm1", "--input", _write(tmp_path, "in.json", doc)])
    assert code == 0
    achieved = json.loads(out)
    assert achieved.get("biases_ignored") is (True if ignored else None)
    assert all(o["bias"] == 0.0 for o in achieved["scenario"].values())


def _equal_strength_boundary() -> tuple[tuple[float, float], tuple[float, float]]:
    """Two strength pairs: the widest float gap within EQUAL_STRENGTH_TOL, and the next float wider."""
    sx = 0.6
    sxp = sx + bounds.EQUAL_STRENGTH_TOL
    while abs(sx - sxp) > bounds.EQUAL_STRENGTH_TOL:
        sxp = math.nextafter(sxp, 0.0)
    while abs(sx - math.nextafter(sxp, 1.0)) <= bounds.EQUAL_STRENGTH_TOL:
        sxp = math.nextafter(sxp, 1.0)
    return (sx, sxp), (sx, math.nextafter(sxp, 1.0))


@pytest.mark.parametrize("within", [True, False], ids=["within-tol", "next-float-above"])
@pytest.mark.parametrize("side", ["a", "b", "both"])
def test_equal_strength_rule_agrees_across_bound_and_achieve(tmp_path, capsys, within, side):
    pair = _equal_strength_boundary()[0 if within else 1]
    assert (abs(pair[0] - pair[1]) <= bounds.EQUAL_STRENGTH_TOL) is within
    strengths = {"a": [*pair, 0.9, 0.5], "b": [0.9, 0.5, *pair], "both": [*pair, *pair]}[side]
    doc = {"state": {"kind": "werner", "w": 0.8}, "strengths": strengths}
    parsed = cli.ScenarioFile(doc)
    state, q = parsed.state, parsed.strengths
    equal = bounds.equal_sides(q)
    assert equal == {"a": (within, False), "b": (False, within), "both": (within, within)}[side]
    code, out, _ = _run(capsys, ["bound", "--input", _write(tmp_path, "in.json", doc)])
    assert code == 0
    report = json.loads(out)
    checks = (
        (any(equal), "thm3", lambda: bounds.thm3_bound(state, q)),
        (any(equal), "thm3", lambda: construct.thm3_achieving(state, q)),
        (all(equal), "cor1", lambda: construct.achieve("cor1", state, q)),
    )
    for applies, criterion_id, call in checks:
        assert _criterion(report, criterion_id)["applicable"] is applies
        if applies:
            call()
        else:
            with pytest.raises(DomainError):
                call()


def _equal_singular_value_boundary():
    """Second singular values of T just within and the next float just beyond the thm4 rule, with s1 = 0.6."""
    s1 = 0.6
    s2 = s1 - bounds.EQUAL_SINGULAR_VALUE_TOL
    while s1 - s2 > bounds.EQUAL_SINGULAR_VALUE_TOL:
        s2 = math.nextafter(s2, 1.0)
    while s1 - math.nextafter(s2, 0.0) <= bounds.EQUAL_SINGULAR_VALUE_TOL:
        s2 = math.nextafter(s2, 0.0)
    return s2, math.nextafter(s2, 0.0)


@pytest.mark.parametrize("within", [True, False], ids=["within-tol", "next-float-below"])
def test_equal_singular_value_rule_agrees_across_bound_and_thm4(tmp_path, capsys, within):
    s2 = _equal_singular_value_boundary()[0 if within else 1]
    doc = {"state": {"kind": "bell_diagonal", "t": [0.6, -s2, 0.3]}, "strengths": [0.9, 0.5, 0.7, 0.6]}
    parsed = cli.ScenarioFile(doc)
    state, q = parsed.state, parsed.strengths
    assert correlation_singular_values(state)[:2] == (0.6, s2)
    assert bounds.equal_singular_values(0.6, s2) is within
    code, out, _ = _run(capsys, ["bound", "--input", _write(tmp_path, "in.json", doc)])
    assert code == 0
    assert _criterion(json.loads(out), "thm4")["applicable"] is within
    if within:
        bounds.thm4_bound(state, q)
    else:
        with pytest.raises(DomainError, match="requires s1"):
            bounds.thm4_bound(state, q)


def test_achieve_thm3(tmp_path, capsys):
    path = _write(tmp_path, "in.json", _singlet_doc(strengths=[1, 1, 1, 0.5], angles=None))
    code, out, _ = _run(capsys, ["achieve", "--input", path, "--criterion", "thm3"])
    assert code == 0
    achieved = json.loads(out)
    assert abs(achieved["attained_chsh"] - 2 * math.sqrt(1.25)) < 1e-9
    assert abs(achieved["angles"]["phi"] - PI2) < 1e-9


def test_achieve_thm3_on_equal_b_side_attains_bound_thm3(tmp_path, capsys):
    path = _write(tmp_path, "in.json", {"state": {"kind": "werner", "w": 0.8}, "strengths": [0.9, 0.5, 0.7, 0.7]})
    code, out, _ = _run(capsys, ["achieve", "--input", path, "--criterion", "thm3"])
    assert code == 0
    achieved = json.loads(out)
    code, out, _ = _run(capsys, ["bound", "--input", path])
    assert code == 0
    thm3 = _criterion(json.loads(out), "thm3")
    assert thm3["notes"] == "sides exchanged (equal strengths on side B)"
    assert achieved["target_bound"] == achieved["attained_chsh"] == thm3["value"] == 1.15311057579
    assert achieved["angles"] == thm3["optimal_angles"]
    assert [achieved["scenario"][k]["strength"] for k in ("x", "xp", "y", "yp")] == [0.9, 0.5, 0.7, 0.7]


@pytest.mark.parametrize(
    "state",
    [
        {"kind": "werner", "w": 0},
        {"kind": "bell_diagonal", "t": [0, 0, 0]},
        # Local Bloch vectors but no correlations.
        {"kind": "fano", "a": [0.3, 0, 0], "b": [0, 0.4, 0.2], "t": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]},
    ],
)
@pytest.mark.parametrize("strengths", [[0.5, 0.5, 0.9, 0.4], [0.5, 0.5, 0.4, 0.9], [1, 1, 0, 0]])
def test_bound_and_achieve_thm3_agree_on_zero_correlations(tmp_path, capsys, state, strengths):
    # The bound is 0, and every unbiased scenario attains it.
    path = _write(tmp_path, "in.json", {"state": state, "strengths": strengths})
    code, out, _ = _run(capsys, ["bound", "--input", path])
    assert code == 0
    thm3 = _criterion(json.loads(out), "thm3")
    assert thm3["applicable"] and thm3["value"] == 0.0
    angles = thm3["optimal_angles"]
    # 12-digit output rounds pi up.
    assert all(0.0 <= angles[k] <= 3.14159265359 for k in ("theta", "phi"))
    code, out, _ = _run(capsys, ["achieve", "--input", path, "--criterion", "thm3"])
    assert code == 0
    achieved = json.loads(out)
    assert achieved["target_bound"] == thm3["value"]
    assert abs(achieved["attained_chsh"]) < 1e-12
    assert achieved["angles"] == angles
    observables = [achieved["scenario"][k] for k in ("x", "xp", "y", "yp")]
    assert [o["strength"] for o in observables] == [float(s) for s in strengths]
    assert all(o["bias"] == 0.0 for o in observables)


def _state_doc(rng, kind):
    if kind == "werner":
        return {"kind": "werner", "w": float(rng.uniform(0.2, 1.0))}
    if kind == "rotated-werner":
        # s1(T) = s2(T) = s3(T) = w with no diagonal structure.
        t = -float(rng.uniform(0.2, 1.0)) * random_rotation(rng)
        return {"kind": "fano", "a": [0.0] * 3, "b": [0.0] * 3, "t": t.tolist()}
    return {"kind": "fano", **random_state(rng, kind).to_dict()}


_STATE_KINDS = ("general", "tstate", "pure", "werner", "rotated-werner")


def test_default_angles_attain_their_source_bound(tmp_path, capsys):
    # Without input angles, thm1 at the reported angles must reach the bound
    # that supplied them, whatever the order of the unequal side's strengths.
    rng = np.random.default_rng(2026)
    seen = set()
    for k in range(150):
        kind = _STATE_KINDS[k % len(_STATE_KINDS)]
        q = [float(v) for v in rng.uniform(0.2, 1.0, 4)]
        pattern = k // len(_STATE_KINDS) % 3
        if pattern == 0:
            q[1] = q[0]
        elif pattern == 1:
            q[3] = q[2]
        path = _write(tmp_path, "in.json", {"state": _state_doc(rng, kind), "strengths": q})
        code, out, _ = _run(capsys, ["bound", "--input", path])
        assert code == 0
        report = json.loads(out)
        thm1 = _criterion(report, "thm1")
        source = thm1.get("angle_source")
        if source is None:
            continue
        want = _criterion(report, "thm4" if source == "thm4" else "thm3")
        assert abs(thm1["value"] - want["value"]) <= 1e-12, (k, source, q)
        reversed_order = q[2] < q[3] if source == "thm3" else q[0] < q[1]
        seen.add((source, reversed_order))
    assert seen >= {
        ("thm3", False), ("thm3", True),
        ("thm3-sides-exchanged", False), ("thm3-sides-exchanged", True),
        ("thm4", False), ("thm4", True),
    }


def test_achieve_keeps_input_strength_order(tmp_path, capsys):
    rng = np.random.default_rng(2027)
    kinds = {"thm1": _STATE_KINDS, "thm2": ("tstate", "werner"), "cor1": _STATE_KINDS,
             "cor4": ("tstate", "werner"), "thm3": _STATE_KINDS, "thm4": ("werner", "rotated-werner")}
    for k in range(120):
        criterion = ACHIEVABLE[k % len(ACHIEVABLE)]
        choices = kinds[criterion]
        q = [float(v) for v in rng.uniform(0.2, 1.0, 4)]
        if criterion in ("cor1", "cor4"):
            q[1], q[3] = q[0], q[2]
        elif criterion == "thm3":
            q[1] = q[0]
        doc = {"state": _state_doc(rng, choices[k // len(ACHIEVABLE) % len(choices)]), "strengths": q}
        if criterion in ("thm1", "thm2"):
            doc["angles"] = {"theta": float(rng.uniform(0, math.pi)), "phi": float(rng.uniform(0, math.pi))}
        path = _write(tmp_path, "in.json", doc)
        code, out, err = _run(capsys, ["achieve", "--input", path, "--criterion", criterion])
        assert code == 0, err
        achieved = json.loads(out)
        scenario = achieved["scenario"]
        got = [scenario[name]["strength"] for name in ("x", "xp", "y", "yp")]
        assert np.allclose(got, q, rtol=1e-11, atol=0), (criterion, got, q)
        assert abs(achieved["attained_chsh"] - achieved["target_bound"]) <= 1e-9


def test_verify_passes_and_is_reproducible(tmp_path, capsys):
    argv = ["verify", "--criterion", "jmax", "--trials", "50", "--seed", "7"]
    code1, out1, err1 = _run(capsys, argv)
    code2, out2, _ = _run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical CSV
    rows = list(csv.reader(io.StringIO(out1)))
    assert rows[0] == ["trial", "bound", "oracle", "gap"]
    assert len(rows) == 51
    summary = json.loads(err1.splitlines()[-1])
    assert summary["passed"] is True


@pytest.mark.parametrize("criterion", ["thm1", "sgen", "horodecki-upper", "jmax"])
def test_verify_summary_names_worst_trials(capsys, criterion):
    code, out, err = _run(capsys, ["verify", "--criterion", criterion, "--trials", "6", "--seed", "3", "--restarts", "2"])
    assert code == 0
    rows = [(int(t), float(b), float(o), float(g)) for t, b, o, g in list(csv.reader(io.StringIO(out)))[1:]]
    summary = json.loads(err.splitlines()[-1])
    # The first trial with the largest oracle - bound, and with the largest gap.
    assert summary["worst_overshoot_trial"] == max(rows, key=lambda r: r[2] - r[1])[0]
    if summary["tightness_claimed"]:
        assert summary["worst_undershoot_trial"] == max(rows, key=lambda r: r[3])[0]
    else:
        assert "worst_undershoot_trial" not in summary


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_verify_rejects_threads_below_one(capsys, threads):
    # Like --trials and --restarts below 1: exit 2 with an input error, not
    # a silent run on one worker.
    code, out, err = _run(capsys, ["verify", "--criterion", "jmax", "--trials", "2", "--threads", threads])
    assert code == 2 and out == ""
    assert err == f"error: threads must be >= 1, got {threads}\n"


def test_verify_thm1_small(tmp_path, capsys):
    out_path = tmp_path / "gaps.csv"
    code, _, err = _run(
        capsys,
        ["verify", "--criterion", "thm1", "--trials", "5", "--seed", "7",
         "--restarts", "3", "--output", str(out_path)],
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out_path.read_text())))
    assert len(rows) == 6
    for row in rows[1:]:
        assert float(row[3]) >= -1e-9
    summary = json.loads(err.splitlines()[-1])
    assert summary["evaluations"] > 0
    assert summary["not_converged"] == []


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--seed", "-1", "seed must be >= 0, got -1"),
        ("--tolerance", "nan", "tolerance must be finite and >= 0, got nan"),
        ("--tolerance", "inf", "tolerance must be finite and >= 0, got inf"),
        ("--tolerance", "-1", "tolerance must be finite and >= 0, got -1.0"),
    ],
)
def test_verify_rejects_negative_seed_and_bad_tolerance(option, value, message):
    code, out, err, _ = _call_in_process(["verify", "--criterion", "jmax", "--trials", "2", option, value])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_scan_strength_sweep(tmp_path, capsys):
    code, out, err = _run(
        capsys,
        ["scan", "--family", "strength-sweep", "--start", "0.8", "--stop", "0.86", "--steps", "7"],
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "strength"
    summary = json.loads(err.splitlines()[-1])
    assert abs(summary["unbiased_crossing"] - 2 ** (-0.25)) < 1e-6
    assert abs(summary["biased_crossing"] - 2 / (1 + SQ2)) < 1e-6
    # The window between the two thresholds violates only when biased.
    row = rows[6]  # strength 0.85 > both thresholds
    assert row[3] == "True" and row[4] == "True"
    row = rows[5]  # strength 0.84: biased only
    assert row[3] == "False" and row[4] == "True"


def test_scan_werner_sweep(capsys):
    code, out, err = _run(
        capsys, ["scan", "--family", "werner-sweep", "--start", "0", "--stop", "1", "--steps", "11"]
    )
    assert code == 0
    summary = json.loads(err.splitlines()[-1])
    assert abs(summary["violation_onset"] - 1 / SQ2) < 1e-6


@pytest.mark.parametrize("text", [json.dumps(_singlet_doc()), "{not json"], ids=["valid", "malformed"])
def test_scan_werner_sweep_rejects_input(tmp_path, capsys, text):
    # werner-sweep reads no state, so a file given to it is an error
    # whatever it holds, and is not opened.
    path = tmp_path / "in.json"
    path.write_text(text)
    code, out, err = _run(
        capsys,
        ["scan", "--family", "werner-sweep", "--start", "0", "--stop", "1", "--steps", "3", "--input", str(path)],
    )
    assert (code, out) == (2, "")
    assert err == "error: scan --family werner-sweep reads no state or strengths; drop --input\n"


def test_scan_angle_sweep(tmp_path, capsys):
    doc = {"state": {"kind": "bell_diagonal", "t": [0.9, -0.3, 0.3]}, "strengths": [1, 1, 1, 1]}
    path = _write(tmp_path, "in.json", doc)
    code, out, _ = _run(
        capsys,
        ["scan", "--family", "angle-sweep", "--start", "0", "--stop", str(math.pi),
         "--steps", "321", "--input", path],
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    values = [float(r[1]) for r in rows]
    top = max(range(len(values)), key=values.__getitem__)
    # Peak location matches the equal-angle optimum sin(t)^2 = 2 s1 s2 / (s1^2 + s2^2).
    expected = math.asin(math.sqrt(2 * 0.9 * 0.3 / 0.90))
    angle_at_top = float(rows[top][0])
    grid = math.pi / 320
    assert min(abs(angle_at_top - expected), abs(angle_at_top - (math.pi - expected))) < grid
    assert abs(max(values) - 2 * math.sqrt(0.90)) < 1e-4


def test_scan_angle_sweep_clamps_stop_just_past_pi(tmp_path, capsys):
    # --stop may exceed pi by up to 1e-12: the row keeps the given grid
    # value, and its bound is the bound at pi.
    doc = {"state": {"kind": "bell_diagonal", "t": [0.9, -0.3, 0.3]}, "strengths": [0.9, 0.7, 0.8, 0.6]}
    path = _write(tmp_path, "in.json", doc)
    stop = math.pi + 5e-13
    code, out, _ = _run(
        capsys,
        ["scan", "--family", "angle-sweep", "--start", "3.0", "--stop", repr(stop),
         "--steps", "3", "--input", path],
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [r[0] for r in rows] == [repr(x) for x in cli._grid(3.0, stop, 3)]
    assert rows[-1][0] == repr(stop)
    state = cli._parse_state(doc["state"])
    at_pi = bounds.s0_bound(state, StrengthQuad(0.9, 0.7, 0.8, 0.6), math.pi, math.pi)
    assert abs(float(rows[-1][1]) - at_pi.value) <= 1e-15
    assert rows[-1][2] == str(at_pi.violated)


def test_scan_bad_range(capsys):
    code, _, err = _run(
        capsys, ["scan", "--family", "werner-sweep", "--start", "1", "--stop", "0", "--steps", "5"]
    )
    assert code == 2


@pytest.mark.parametrize(
    "option, value, other",
    [
        ("--start", "-7.08682677163508e-05", ["--stop", "0.5"]),
        # A werner-sweep start drawn by the sweep benchmark at seed 6, op 1631.
        ("--start", "-3.657519059996339e-05", ["--stop", "0.5"]),
        ("--stop", "-1e-05", ["--start", "-0.2"]),
    ],
)
def test_scan_negative_exponent_value_parses_like_equals_form(option, value, other):
    head = ["scan", "--family", "werner-sweep", "--steps", "7"]
    spaced = _call_in_process(head + [option, value] + other)
    joined = _call_in_process(head + [f"{option}={value}"] + other)
    assert spaced == joined
    assert spaced[0] == 0
    row = spaced[1].splitlines()[1 if option == "--start" else -1]
    assert abs(float(row.split(",")[0]) - float(value)) < 1e-15


@pytest.mark.parametrize(
    "start, stop, steps", [("-1e-5", "0.5", "2"), ("-0.2", "-1e-05", "7")]
)
def test_scan_last_row_is_exactly_stop(start, stop, steps):
    # start + (stop - start) * k / (steps - 1) at k = steps - 1 can miss stop
    # by an ulp (0.49999999999999994 for the first case).
    code, out, _, _ = _call_in_process(
        ["scan", "--family", "werner-sweep", "--start", start, "--stop", stop, "--steps", steps]
    )
    assert code == 0
    assert out.splitlines()[-1].split(",")[0] == repr(float(stop))


def _grid_formula(start, stop, steps):
    # README: row k is start + (stop - start) * k / (steps - 1), the last row exactly stop.
    return [start + (stop - start) * k / (steps - 1) for k in range(steps - 1)] + [stop]


def _grid_cases():
    rng = np.random.default_rng(2109)
    # Products that overflow to inf, and a span that is inf (row 0 is nan), without a warning.
    cases = [(0.0, 1e308, 300), (-1.7e308, 1.7e308, 3)]
    for steps in (2, 3, 300, 10**4):
        start = float(rng.uniform(-2.0, 1.0))
        cases.append((start, start + float(rng.uniform(1e-6, 4.0)), steps))
        tiny = float(rng.uniform(-5e-300, 5e-300))
        cases.append((tiny, tiny + float(rng.uniform(1e-301, 1e-299)), steps))
    return cases


@pytest.mark.parametrize("start, stop, steps", _grid_cases())
def test_grid_is_the_readme_formula_bit_for_bit(start, stop, steps):
    grid = cli._grid(start, stop, steps)
    assert all(type(x) is float for x in grid)
    assert [x.hex() for x in grid] == [x.hex() for x in _grid_formula(start, stop, steps)]


def test_strength_sweep_crossings_are_those_of_bisecting_the_bounds():
    rng = np.random.default_rng(2110)
    checked = 0
    while checked < 12:
        state = random_state(rng, "tstate")
        s1, s2, _ = correlation_singular_values(state)
        if math.hypot(s1, s2) <= 1.0:
            continue
        _, summary = cli.strength_sweep(state, 0.0, 1.0, 2)
        unbiased = cli.bisect_root(lambda s: bounds.cor1_bound(state, s, s).value - 2.0, 0.0, 1.0)
        biased = cli.bisect_root(lambda s: bounds.cor4_bound(state, s, s).value - 2.0, 0.01, 1.0)
        assert summary["unbiased_crossing"].hex() == unbiased.hex()
        assert summary["biased_crossing"].hex() == biased.hex()
        checked += 1


@pytest.mark.parametrize("family", ["angle-sweep", "werner-sweep", "strength-sweep"])
def test_scan_overflowing_span_exits_2_naming_start_and_stop(family):
    # stop - start is inf, so row 0 would be start + inf * 0 = nan.
    code, out, err, _ = _call_in_process(
        ["scan", "--family", family, "--start=-1.7e308", "--stop", "1.7e308", "--steps", "3"]
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: --start -1.7e+308 to --stop 1.7e+308 spans more than the largest float; narrow the range\n"
    )


def test_scan_missing_start_value_still_a_usage_error():
    code, out, err, _ = _call_in_process(
        ["scan", "--family", "werner-sweep", "--start", "--stop", "1", "--steps", "5"]
    )
    assert code == ("SystemExit", 2) and out == ""
    assert err.rstrip().endswith("error: argument --start: expected one argument")


def test_scan_negative_infinite_start_exits_2():
    code, out, err, _ = _call_in_process(
        ["scan", "--family", "werner-sweep", "--start", "-inf", "--stop", "1", "--steps", "5"]
    )
    assert (code, out, err) == (2, "", "error: need start < stop\n")


def test_compat_boundary_pair(tmp_path, capsys):
    s = 1 / SQ2
    doc = {"x": {"bias": 0, "strength": s, "direction": [1, 0, 0]},
           "xp": {"bias": 0, "strength": s, "direction": [0, 1, 0]}}
    path = _write(tmp_path, "pair.json", doc)
    code, out, _ = _run(capsys, ["compat", "--input", path])
    assert code == 0
    verdicts = json.loads(out)
    assert verdicts["busch"] and verdicts["necessary"] and verdicts["full"]


def test_compat_projective_orthogonal(tmp_path, capsys):
    doc = {"x": {"bias": 0, "strength": 1, "direction": [1, 0, 0]},
           "xp": {"bias": 0, "strength": 1, "direction": [0, 1, 0]}}
    path = _write(tmp_path, "pair.json", doc)
    code, out, _ = _run(capsys, ["compat", "--input", path])
    assert code == 0
    verdicts = json.loads(out)
    assert not verdicts["busch"] and not verdicts["necessary"] and not verdicts["full"]
    assert verdicts["max_reversibility"]["x"] == 0.0


def test_compat_biased_pair(tmp_path, capsys):
    doc = {"x": {"bias": 0.5, "strength": 0.3, "direction": [1, 0, 0]},
           "xp": {"bias": -0.2, "strength": 0.6, "direction": [0, 0, 1]}}
    path = _write(tmp_path, "pair.json", doc)
    code, out, _ = _run(capsys, ["compat", "--input", path])
    assert code == 0
    verdicts = json.loads(out)
    assert verdicts["busch"] is None and not verdicts["busch_applicable"]
    assert isinstance(verdicts["necessary"], bool) and isinstance(verdicts["full"], bool)


@pytest.mark.parametrize("key", ["x", "xp"])
@pytest.mark.parametrize("bias, applicable", [(1e-12, False), (-1e-12, False), (0.99e-12, True), (-0.99e-12, True)])
def test_compat_busch_applies_below_its_bias_threshold(tmp_path, capsys, key, bias, applicable):
    # compat_busch's DomainError rule alone decides whether 'busch' is given.
    doc = {"x": {"bias": 0, "strength": 0.6, "direction": [1, 0, 0]},
           "xp": {"bias": 0, "strength": 0.7, "direction": [0, 1, 0]}}
    doc[key]["bias"] = bias
    code, out, _ = _run(capsys, ["compat", "--input", _write(tmp_path, "pair.json", doc)])
    assert code == 0
    verdicts = json.loads(out)
    assert verdicts["busch_applicable"] is applicable
    if applicable:
        assert isinstance(verdicts["busch"], bool) and "busch_note" not in verdicts
    else:
        assert verdicts["busch"] is None and "busch_note" in verdicts


def test_console_entry_point(tmp_path):
    doc = _singlet_doc()
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "bellbound.cli", "bound", "--input", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    json.loads(proc.stdout)


@pytest.mark.parametrize(
    "doc",
    [
        {"state": {"kind": "werner", "w": "x"}, "strengths": [1, 1, 1, 1]},
        {"state": {"kind": "singlet"}, "strengths": 0.7},
        {"state": {"kind": "bell_diagonal", "t": 0.5}, "strengths": [1, 1, 1, 1]},
        {"state": {"kind": "bell_diagonal", "t": ["a", 0, 0]}, "strengths": [1, 1, 1, 1]},
        {"state": {"kind": "fano", "a": [0, 0, 0], "b": [0, 0, 0], "t": [[0, 0, 0], [0, 0]]},
         "strengths": [1, 1, 1, 1]},
        {"state": {"kind": "singlet"}, "strengths": [1, 1, 1, 1], "biases": 0.1},
        {"state": {"kind": "singlet"}, "strengths": [1, 1, 1, 1], "biases": [0, 0, "0", 0]},
        {"state": {"kind": "singlet"}, "strengths": [1, 1, 1, 1], "angles": [1, 1]},
        {"state": {"kind": "singlet"}, "strengths": [1, 1, 1, 1], "angles": {"theta": True, "phi": 1}},
        {"state": {"kind": "singlet"}, "strengths": [10**400, 1, 1, 1]},
        {"state": {"kind": "singlet"}, "scenario": [1, 2]},
        {"state": {"kind": "singlet"},
         "scenario": {"x": {"strength": 1, "direction": "up"}, "xp": {}, "y": {}, "yp": {}}},
    ],
    ids=[
        "werner-w-not-numeric",
        "scalar-strengths",
        "scalar-bell-diagonal-t",
        "string-in-bell-diagonal-t",
        "ragged-fano-t",
        "scalar-biases",
        "string-in-biases",
        "angles-not-an-object",
        "boolean-angle",
        "integer-too-large",
        "scenario-not-an-object",
        "string-direction",
    ],
)
def test_bound_malformed_input_exits_2(tmp_path, capsys, doc):
    path = _write(tmp_path, "bad.json", doc)
    code, out, err = _run(capsys, ["bound", "--input", path])
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("doc", [[1, 2], 3, {"x": 1, "xp": {"strength": 1, "direction": [1, 0, 0]}}])
def test_compat_malformed_input_exits_2(tmp_path, capsys, doc):
    path = _write(tmp_path, "pair.json", doc)
    code, _, err = _run(capsys, ["compat", "--input", path])
    assert code == 2 and err.startswith("error: ")


@pytest.mark.parametrize("command", ["compat", "bound"])
def test_huge_direction_component_exits_2_with_one_error_line(tmp_path, capsys, command):
    # |direction|^2 overflows to inf, which the unit-vector check rejects; no
    # overflow RuntimeWarning may come first (the suite makes it an error).
    huge = {"bias": 0.0, "strength": 1.0, "direction": [1e200, 0, 0]}
    unit = {"bias": 0.0, "strength": 1.0, "direction": [0, 1, 0]}
    pair = {"x": huge, "xp": unit}
    doc = pair if command == "compat" else {"state": {"kind": "singlet"}, "scenario": {**pair, "y": unit, "yp": unit}}
    code, out, err = _run(capsys, [command, "--input", _write(tmp_path, "huge.json", doc)])
    assert (code, out) == (2, "")
    assert err.startswith("error: direction must be a unit vector") and err.count("\n") == 1


def _call_in_process(argv, output=None):
    """Exit code, stdout, stderr and the ``--output`` file of one ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    written = None
    if output is not None and os.path.exists(output):
        with open(output) as fh:
            written = fh.read()
        os.remove(output)
    return code, out.getvalue(), err.getvalue(), written


def test_parser_built_once_gives_fresh_parser_outputs(tmp_path, monkeypatch):
    good = _write(tmp_path, "in.json", _singlet_doc(strengths=[0.9, 0.9, 0.8, 0.6], angles=None))
    angles = _write(tmp_path, "angles.json", _singlet_doc(strengths=[0.9, 0.7, 0.8, 0.6]))
    pair = _write(tmp_path, "pair.json", {"x": {"bias": 0.1, "strength": 0.6, "direction": [1, 0, 0]},
                                          "xp": {"bias": -0.2, "strength": 0.7, "direction": [0, 1, 0]}})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    unphysical = _write(tmp_path, "unphysical.json", {"state": {"kind": "bell_diagonal", "t": [1, 1, 1]},
                                                      "strengths": [1, 1, 1, 1]})
    output = str(tmp_path / "out.txt")
    calls = [
        (["bound", "--input", good], None),
        (["bound", "--input", angles, "--output", output], None),
        (["achieve", "--input", angles, "--criterion", "thm1"], None),
        (["achieve", "--input", good, "--criterion", "thm3", "--output", output], None),
        (["verify", "--criterion", "jmax", "--trials", "3", "--seed", "1"], None),
        (["verify", "--criterion", "sgen", "--trials", "2", "--threads", "1", "--output", output], None),
        (["scan", "--family", "werner-sweep", "--start", "0", "--stop", "1", "--steps", "5"], None),
        (["scan", "--family", "angle-sweep", "--start", "0", "--stop", "1", "--steps", "4",
          "--input", good, "--output", output], None),
        (["compat", "--input", pair], None),
        # argparse errors and help
        ([], None),
        (["frobnicate"], None),
        (["bound"], None),
        (["achieve", "--input", good, "--criterion", "thm9"], None),
        (["verify", "--criterion", "thm1", "--trials", "many"], None),
        (["bound", "--input", good, "--unknown"], None),
        (["--help"], None),
        (["achieve", "--help"], None),
        # handler errors: exit 2, 3 and 4
        (["bound", "--input", str(bad)], None),
        (["achieve", "--input", good, "--criterion", "thm1"], None),
        (["bound", "--input", unphysical], None),
        (["achieve", "--input", angles, "--criterion", "thm1"], "fail-construction"),
    ]
    # Wider than any help line, so the help text does not depend on the terminal.
    monkeypatch.setenv("COLUMNS", "200")

    def run(argv, mode):
        with monkeypatch.context() as patch:
            if mode == "fail-construction":
                patch.setattr(construct, "_ATTAIN_TOL", -1.0)
            return _call_in_process(argv, output)

    fresh = []
    for argv, mode in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(argv, mode))
    codes = {result[0] if isinstance(result[0], int) else result[0][1] for result in fresh}
    assert {0, 2, 3, 4} <= codes
    assert ("SystemExit", 0) in [result[0] for result in fresh]
    cli.build_parser.cache_clear()
    for _ in range(2):
        for (argv, mode), want in zip(calls, fresh):
            assert run(argv, mode) == want, argv
    assert cli.build_parser.cache_info().misses == 1


def _unreadable_inputs(tmp_path):
    invalid_utf8 = tmp_path / "invalid_utf8.json"
    invalid_utf8.write_bytes(b'{"state": "\xff\xfe"}')
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    return {"invalid_utf8": str(invalid_utf8), "deep": str(deep)}


@pytest.mark.parametrize("command", ["bound", "compat"])
@pytest.mark.parametrize("case, reason", [("invalid_utf8", "codec can't decode"), ("deep", "recursion")])
def test_unreadable_input_exits_2(tmp_path, command, case, reason):
    path = _unreadable_inputs(tmp_path)[case]
    code, out, err, _ = _call_in_process([command, "--input", path])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: could not parse {path}: ") and reason in err


def test_integer_past_the_conversion_limit_exits_2(tmp_path):
    # json raises ValueError for integers of more than 4300 digits (Python's
    # int conversion limit, where the interpreter has one).
    path = tmp_path / "long.json"
    path.write_text('{"state": {"kind": "werner", "w": ' + "1" * 5000 + '}, "strengths": [1, 1, 1, 1]}')
    code, out, err, _ = _call_in_process(["bound", "--input", str(path)])
    assert (code, out) == (2, "") and err.startswith("error: ")


@pytest.mark.parametrize("steps", [str(10**6 + 1), str(10**20)])
def test_scan_steps_above_the_limit_exit_2(steps):
    code, out, err, _ = _call_in_process(
        ["scan", "--family", "werner-sweep", "--start", "0", "--stop", "1", "--steps", steps]
    )
    assert (code, out, err) == (2, "", f"error: steps must be <= 1000000, got {steps}\n")


@pytest.mark.parametrize("steps", ["1", "0", "-3"])
def test_scan_steps_below_two_exit_2(steps):
    code, out, err, _ = _call_in_process(
        ["scan", "--family", "werner-sweep", "--start", "0", "--stop", "1", "--steps", steps]
    )
    assert (code, out, err) == (2, "", f"error: steps must be >= 2, got {steps}\n")


def test_verify_trials_above_the_limit_exit_2_before_any_trial(monkeypatch):
    import concurrent.futures

    from bellbound import optimize

    def fail(*args, **kwargs):
        raise AssertionError("the audit started")

    monkeypatch.setattr(optimize, "_audit_one", fail)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", fail)
    code, out, err, _ = _call_in_process(["verify", "--criterion", "jmax", "--trials", str(10**6 + 1)])
    assert (code, out, err) == (2, "", "error: trials must be <= 1000000, got 1000001\n")


@pytest.mark.parametrize("value, shown", [("-1e-3", "-0.001"), ("-inf", "-inf")])
def test_verify_negative_tolerance_parses_like_equals_form(value, shown):
    head = ["verify", "--criterion", "jmax", "--trials", "2"]
    spaced = _call_in_process(head + ["--tolerance", value])
    assert spaced == _call_in_process(head + [f"--tolerance={value}"])
    assert spaced[:3] == (2, "", f"error: tolerance must be finite and >= 0, got {shown}\n")


def test_join_negative_numbers_leaves_help_and_non_numbers_alone():
    join = cli._join_negative_numbers
    assert join(["scan", "--start", "-1e-05", "--stop", "-inf"]) == ["scan", "--start=-1e-05", "--stop=-inf"]
    assert join(["--help", "-1", "--", "-2", "--start=-1", "-3"]) == ["--help", "-1", "--", "-2", "--start=-1", "-3"]
    assert join(["--start", "--stop", "1"]) == ["--start", "--stop", "1"]
