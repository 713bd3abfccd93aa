"""CLI outputs against the recorded golden corpus (tests/golden/cli_corpus.json).

Numbers must match within 1e-12 and everything else exactly. For
``achieve`` the target bound, the attained CHSH value, the angles, each
observable's strength and bias, the labels and the ``biases_ignored`` flag
are compared, but not the directions: with degenerate correlation singular
values, different sign and rotation choices for the directions are equally
valid. For ``verify``
the bounds must match within 1e-12, the oracle values and everything
derived from them within 1e-9 (the oracle is a numerical search), and the
pass/fail verdicts exactly; summary keys added after recording are not
compared.
"""

import csv
import io
import json
import pathlib
import re

import pytest

from bellbound.cli import main
from bellbound.optimize import AUDIT_CRITERIA

CORPUS = json.loads((pathlib.Path(__file__).parent / "golden" / "cli_corpus.json").read_text())
README = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
NUM_TOL = 1e-12
ORACLE_TOL = 1e-9


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _assert_match(got, want, where="$", tol=NUM_TOL):
    if _is_number(want):
        assert _is_number(got), f"{where}: expected a number, got {got!r}"
        assert abs(got - want) <= tol, f"{where}: {got!r} vs {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), f"{where}: keys differ"
        for key in want:
            _assert_match(got[key], want[key], f"{where}.{key}", tol)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: lengths differ"
        for k, (g, w) in enumerate(zip(got, want)):
            _assert_match(g, w, f"{where}[{k}]", tol)
    else:
        assert got == want, f"{where}: {got!r} vs {want!r}"


def _csv_cells(text: str) -> list:
    def cell(raw):
        try:
            return float(raw)
        except ValueError:
            return raw

    return [[cell(c) for c in row] for row in csv.reader(io.StringIO(text))]


def _json_lines(text: str) -> list:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


@pytest.fixture
def corpus_dir(tmp_path, monkeypatch):
    for name, doc in CORPUS["inputs"].items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _assert_verify_match(out, err, cmd):
    got_rows, want_rows = _csv_cells(out), _csv_cells(cmd["stdout"])
    assert got_rows[0] == want_rows[0] == ["trial", "bound", "oracle", "gap"]
    assert len(got_rows) == len(want_rows)
    for got, want in zip(got_rows[1:], want_rows[1:]):
        where = f"trial {want[0]}"
        assert got[0] == want[0], where
        _assert_match(got[1], want[1], f"{where}.bound")
        _assert_match(got[2:], want[2:], f"{where}.oracle,gap", ORACLE_TOL)
    (got,), (want,) = _json_lines(err), _json_lines(cmd["stderr"])
    assert set(want) <= set(got)
    assert got["passed"] is want["passed"]
    _assert_match({k: got[k] for k in want}, want, "summary", ORACLE_TOL)


@pytest.mark.parametrize(
    "cmd", CORPUS["commands"], ids=[f"{c['kind']}-{c['case']}" for c in CORPUS["commands"]]
)
def test_matches_golden(cmd, corpus_dir, capsys):
    code, out, err = _run(capsys, cmd["argv"])
    assert code == cmd["code"]
    if cmd["kind"] in ("bound", "compat"):
        _assert_match(json.loads(out), json.loads(cmd["stdout"]))
    elif cmd["kind"] == "achieve":
        got, want = json.loads(out), json.loads(cmd["stdout"])
        for key in ("target_bound", "attained_chsh", "angles"):
            _assert_match(got[key], want[key], key)
        assert sorted(got["scenario"]) == sorted(want["scenario"])
        for name, observable in want["scenario"].items():
            for key in ("strength", "bias"):
                _assert_match(got["scenario"][name][key], observable[key], f"{name}.{key}")
        for key in ("criterion", "recipe", "violated", "biases_ignored"):
            assert got.get(key) == want.get(key), key
    elif cmd["kind"] == "verify":
        _assert_verify_match(out, err, cmd)
    else:
        _assert_match(_csv_cells(out), _csv_cells(cmd["stdout"]))
        _assert_match(_json_lines(err), _json_lines(cmd["stderr"]))


def test_corpus_covers_every_family_and_input():
    kinds = {(c["kind"], c["case"]) for c in CORPUS["commands"]}
    assert {case for kind, case in kinds if kind == "scan"} == {
        "strength-sweep",
        "werner-sweep",
        "angle-sweep",
    }
    bound = {case for kind, case in kinds if kind == "bound"}
    compat = {case for kind, case in kinds if kind == "compat"}
    assert not bound & compat and bound | compat == set(CORPUS["inputs"])
    assert {case for kind, case in kinds if kind == "verify"} == set(AUDIT_CRITERIA)


def test_readme_lists_the_criteria_that_bound_prints_and_verify_audits():
    printed = {
        entry["criterion_id"]
        for cmd in CORPUS["commands"]
        if cmd["kind"] == "bound"
        for entry in json.loads(cmd["stdout"])["criteria"]
    }
    listed = re.search(r"\* `bound` emits JSON with one entry per criterion\s*\(([^)]*)\)", README).group(1)
    bound_ids = re.findall(r"`([^`]+)`", listed)
    assert len(bound_ids) == len(set(bound_ids)) and set(bound_ids) == printed
    verify_ids = re.search(r"Criteria:\s*`([^`]*)`", README).group(1).split()
    assert verify_ids == list(AUDIT_CRITERIA)
