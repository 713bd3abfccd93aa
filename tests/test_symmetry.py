"""Relabelling symmetries of ``bellbound bound`` and ``achieve``, as a regression guard.

Three defects once broke a relabelling symmetry of the report: the sign
of the compatibility bias product, thm3's default angles, and thm3's
y/y' order. Here every bound value (within 1e-10) and every entry's
``applicable`` flag and ``reason`` (exactly) must stay the same when a
document is

* rotated locally: (a, b, T) -> (R_A a, R_B b, R_A T R_B^T);
* exchanged between the sides: a <-> b, T -> T^T, (sx, sxp) <-> (sy, syp)
  and theta <-> phi;
* relabelled within one side, x <-> x' or y <-> y', when it gives no
  angles.

The documents are seeded: general, T-state, pure and rotated Werner
states, with equal strengths on both sides, on one side or on neither,
with and without angles.

``achieve`` gets seeded documents inside each criterion's domain. Its
``target_bound`` and ``attained_chsh`` must stay the same (within 1e-10)
under local rotations, and for thm3 (equal strengths on side A or on side
B) also when y and y' are exchanged or the parties are, with the emitted
observables in the input's strength order.
"""

import json

import numpy as np
import pytest

from bellbound.cli import main
from bellbound.construct import ACHIEVABLE
from bellbound.model import random_rotation, random_state

N_DOCS = 40
VALUE_TOL = 1e-10
KINDS = ("general", "tstate", "pure", "werner")
PATTERNS = ("equal", "equal-a", "equal-b", "unequal")


def _state(rng, kind):
    if kind == "werner":
        t = -rng.uniform(-1.0 / 3.0, 1.0) * random_rotation(rng) @ random_rotation(rng).T
        return np.zeros(3), np.zeros(3), t
    state = random_state(rng, kind)
    return state.a, state.b, state.t


def _strengths(rng, pattern):
    sx, sxp, sy, syp = rng.uniform(0.3, 1.0, 4).tolist()
    if pattern in ("equal", "equal-a"):
        sxp = sx
    if pattern in ("equal", "equal-b"):
        syp = sy
    return (sx, sxp, sy, syp)


def _cases():
    """``N_DOCS`` seeded (a, b, t, strengths, angles or None) cases, cycling kind, angles and pattern."""
    rng = np.random.default_rng(20_211_019)
    cases = []
    for k in range(N_DOCS):
        a, b, t = _state(rng, KINDS[k % 4])
        q = _strengths(rng, PATTERNS[(k // 8) % 4])
        angles = tuple(rng.uniform(0.1, np.pi - 0.1, 2).tolist()) if (k // 4) % 2 else None
        cases.append((a, b, t, q, angles))
    return cases


def _rotate(case, rng):
    a, b, t, q, angles = case
    r_a, r_b = random_rotation(rng), random_rotation(rng)
    return r_a @ a, r_b @ b, r_a @ t @ r_b.T, q, angles


def _exchange_sides(case, rng):
    a, b, t, (sx, sxp, sy, syp), angles = case
    return b, a, t.T, (sy, syp, sx, sxp), angles and angles[::-1]


def _swap_x(case, rng):
    a, b, t, (sx, sxp, sy, syp), _ = case
    return a, b, t, (sxp, sx, sy, syp), None


def _swap_y(case, rng):
    a, b, t, (sx, sxp, sy, syp), _ = case
    return a, b, t, (sx, sxp, syp, sy), None


def _run(tmp_path, capsys, case, *command):
    """The parsed JSON output of ``command`` on the case's document; the command must succeed."""
    a, b, t, q, angles = case
    doc = {
        "state": {"kind": "fano", "a": np.asarray(a).tolist(), "b": np.asarray(b).tolist(), "t": np.asarray(t).tolist()},
        "strengths": list(q),
    }
    if angles is not None:
        doc["angles"] = {"theta": angles[0], "phi": angles[1]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    assert main([command[0], "--input", str(path), *command[1:]]) == 0
    return json.loads(capsys.readouterr().out)


def _report(tmp_path, capsys, case):
    report = _run(tmp_path, capsys, case, "bound")
    return report["correlation_singular_values"], {
        (entry["criterion_id"], entry.get("criterion_variant")): entry for entry in report["criteria"]
    }


@pytest.mark.parametrize("transform", [_rotate, _exchange_sides, _swap_x, _swap_y], ids=lambda f: f.__name__[1:])
def test_bound_report_is_invariant(transform, tmp_path, capsys):
    rng = np.random.default_rng(20_211_020)
    for k, case in enumerate(_cases()):
        if transform in (_swap_x, _swap_y):
            case = (*case[:4], None)
        svals, entries = _report(tmp_path, capsys, case)
        svals_moved, moved = _report(tmp_path, capsys, transform(case, rng))
        where = f"document {k}"
        assert np.allclose(svals_moved, svals, rtol=0.0, atol=VALUE_TOL), where
        assert moved.keys() == entries.keys(), where
        for key, entry in entries.items():
            got = moved[key]
            assert (got["applicable"], got.get("reason")) == (entry["applicable"], entry.get("reason")), (where, key)
            if entry["applicable"]:
                assert abs(got["value"] - entry["value"]) <= VALUE_TOL, (where, key, got["value"], entry["value"])


# ---------------------------------------------------------------------------
# achieve

N_ACHIEVE_DOCS = 12
# Each criterion's domain: (state kinds, strength patterns, angles given).
ACHIEVE_DOMAINS = {
    "thm1": (KINDS, ("unequal",), True),
    "thm2": (("tstate", "werner"), ("unequal",), True),
    "cor1": (KINDS, ("equal",), False),
    "cor4": (("tstate", "werner"), ("equal",), False),
    "thm3": (KINDS, ("equal-a", "equal-b"), False),
    "thm4": (("werner",), ("unequal",), False),
}


def _achieve_cases(criterion):
    """``N_ACHIEVE_DOCS`` seeded cases inside the criterion's domain, every pattern on every kind."""
    kinds, patterns, with_angles = ACHIEVE_DOMAINS[criterion]
    rng = np.random.default_rng([20_211_021, ACHIEVABLE.index(criterion)])
    cases = []
    for k in range(N_ACHIEVE_DOCS):
        a, b, t = _state(rng, kinds[k % len(kinds)])
        q = _strengths(rng, patterns[k // len(kinds) % len(patterns)])
        angles = tuple(rng.uniform(0.1, np.pi - 0.1, 2).tolist()) if with_angles else None
        cases.append((a, b, t, q, angles))
    return cases


def _achieved(tmp_path, capsys, case, criterion):
    out = _run(tmp_path, capsys, case, "achieve", "--criterion", criterion)
    return out["target_bound"], out["attained_chsh"], out["scenario"]


@pytest.mark.parametrize("criterion", ACHIEVABLE)
def test_achieve_is_invariant_under_local_rotations(criterion, tmp_path, capsys):
    rng = np.random.default_rng(20_211_022)
    for k, case in enumerate(_achieve_cases(criterion)):
        values = _achieved(tmp_path, capsys, case, criterion)[:2]
        moved = _achieved(tmp_path, capsys, _rotate(case, rng), criterion)[:2]
        assert np.allclose(moved, values, rtol=0.0, atol=VALUE_TOL), (f"document {k}", moved, values)


def test_achieve_thm3_is_invariant_under_exchanging_y_and_yp(tmp_path, capsys):
    orders = set()
    for k, case in enumerate(_achieve_cases("thm3")):
        swapped = _swap_y(case, None)
        got = _achieved(tmp_path, capsys, case, "thm3")
        moved = _achieved(tmp_path, capsys, swapped, "thm3")
        assert np.allclose(moved[:2], got[:2], rtol=0.0, atol=VALUE_TOL), (f"document {k}", moved[:2], got[:2])
        for (_, _, _, q, _), (_, _, scenario) in ((case, got), (swapped, moved)):
            strengths = [scenario[name]["strength"] for name in ("x", "xp", "y", "yp")]
            assert np.allclose(strengths, q, rtol=0.0, atol=1e-12), (f"document {k}", strengths, q)
        orders.add(case[3][2] < case[3][3])
    assert orders == {False, True}


def test_achieve_thm3_is_invariant_under_exchanging_parties(tmp_path, capsys):
    sides = set()
    for k, case in enumerate(_achieve_cases("thm3")):
        exchanged = _exchange_sides(case, None)
        got = _achieved(tmp_path, capsys, case, "thm3")
        moved = _achieved(tmp_path, capsys, exchanged, "thm3")
        assert np.allclose(moved[:2], got[:2], rtol=0.0, atol=VALUE_TOL), (f"document {k}", moved[:2], got[:2])
        for (_, _, _, q, _), (_, _, scenario) in ((case, got), (exchanged, moved)):
            strengths = [scenario[name]["strength"] for name in ("x", "xp", "y", "yp")]
            assert np.allclose(strengths, q, rtol=0.0, atol=1e-12), (f"document {k}", strengths, q)
        sides.add("a" if case[3][0] == case[3][1] else "b")
    assert sides == {"a", "b"}
