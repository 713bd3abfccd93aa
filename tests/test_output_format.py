"""The CLI's JSON and CSV writers against the standard-library encoders, byte for byte.

With every float rounded by ``model.sig12``, ``cli._json_text`` must write
exactly what ``json.dumps(value, indent=2, sort_keys=True)`` writes, and
on one line (``newline=""``) what ``json.dumps(value, sort_keys=True)``
writes; ``cli._emit_csv`` must write exactly what
``csv.writer(lineterminator="\\n")`` writes for the same header and rows.
The documents come from the golden-corpus commands, the one-line summaries
from every ``verify`` criterion and ``scan`` family; the edge values are
the ones the float, string and container rules each have to get right.
The writer takes only the plain types payloads hold: numpy scalars and
arrays raise ``TypeError``.
"""

import csv
import io
import json
import math
import pathlib

import numpy as np
import pytest

from bellbound import cli
from bellbound.model import sig12
from bellbound.optimize import AUDIT_CRITERIA

CORPUS = json.loads((pathlib.Path(__file__).parent / "golden" / "cli_corpus.json").read_text())


def _rounded(value):
    """``value`` with every float rounded to 12 significant digits by ``sig12``."""
    if type(value) is float:
        return float(sig12(value))
    if type(value) is dict:
        return {k: _rounded(v) for k, v in value.items()}
    if type(value) in (list, tuple):
        return [_rounded(v) for v in value]
    return value


def _reference_json(value) -> str:
    return json.dumps(_rounded(value), indent=2, sort_keys=True)


def _reference_line(value) -> str:
    return json.dumps(_rounded(value), sort_keys=True)


def _assert_both_forms(value):
    assert cli._json_text(value) == _reference_json(value)
    assert cli._json_text(value, "") == _reference_line(value)


def _reference_csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _captured(monkeypatch, capsys, name, argv):
    """Run ``argv`` and return what it handed to ``cli.<name>`` and its stdout."""
    calls = []
    emit = getattr(cli, name)

    def spy(*args):
        calls.append(args[:-1])
        emit(*args)

    monkeypatch.setattr(cli, name, spy)
    assert cli.main(argv) == 0
    (call,) = calls
    return call, capsys.readouterr().out


DOCUMENT_COMMANDS = [c for c in CORPUS["commands"] if c["kind"] in ("bound", "achieve", "compat")]


@pytest.mark.parametrize(
    "cmd", DOCUMENT_COMMANDS, ids=[f"{c['kind']}-{c['case']}" for c in DOCUMENT_COMMANDS]
)
def test_json_writer_matches_json_dumps_on_corpus_payloads(cmd, corpus_dir, monkeypatch, capsys):
    (payload,), out = _captured(monkeypatch, capsys, "_emit_json", cmd["argv"])
    assert out == _reference_json(payload) + "\n"


EDGE_FLOATS = [
    math.nan,
    math.inf,
    -math.inf,
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072014e-308,
    1.7976931348623157e308,
    2.0,
    -3.0,
    1e12,
    123456789012.5,
    999999999999.5,
    1e15 + 0.3,
    9.999999999999e15,
    1e16,
    0.1,
    1 / 3,
    2 * math.sqrt(2.0),
    1e-4,
    1.23456789012345e-4,
    9.99999999999951e-5,
    1e-5,
    0.5 + 5e-13,
    1 - 1e-13,
]


def _random_floats(count):
    """Floats over 60 decades; half are 13-digit decimals ending in 5, on a 12-digit rounding tie."""
    rng = np.random.default_rng(20_211_017)
    spread = (rng.uniform(-10.0, 10.0, count // 2) * 10.0 ** rng.integers(-30, 30, count // 2)).tolist()
    ties = [
        float(f"{sign}{digits}5e{exponent}")
        for sign, digits, exponent in zip(
            rng.choice(["", "-"], count // 2),
            rng.integers(10**11, 10**12, count // 2),
            rng.integers(-40, 20, count // 2),
        )
    ]
    return spread + ties


@pytest.mark.parametrize("value", EDGE_FLOATS, ids=repr)
def test_json_writer_edge_floats(value):
    _assert_both_forms(value)
    _assert_both_forms([value, {"x": value}])


def test_json_writer_fixed_point_shortcut_on_random_floats():
    _assert_both_forms(_random_floats(2000))


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": [[], [{}]], "d": ({"e": (1, 2.5)},)},
        {"z": 1, "a": 2, "m": {"y": True, "b": False, "n": None}},
        (1, 2.0, "three", None, True),
        # Summary shapes: an empty and a non-empty not_converged list, a None trial.
        {"not_converged": [], "worst_overshoot_trial": None, "max_overshoot": 0.0},
        {"not_converged": [3, 17], "worst_overshoot_trial": 17, "evaluations": 28755},
        "café → ü",
        'quote " backslash \\ newline \n tab \t bell \x07 nul \x00 del \x7f',
        {"naïve key": " ", "\x01": "😀"},
        "",
        True,
        False,
        None,
        0,
        -12345678901234567890,
    ],
    ids=lambda v: type(v).__name__,
)
def test_json_writer_matches_json_dumps_on_edge_values(value):
    _assert_both_forms(value)


@pytest.mark.parametrize(
    "value",
    [{1, 2}, object(), b"bytes", 1j, np.bool_(True), {"a": [frozenset()]}, np.array(0.5)],
    ids=lambda v: type(v).__name__,
)
@pytest.mark.parametrize("newline", ["\n", ""], ids=["indented", "one-line"])
def test_json_writer_rejects_what_json_dumps_rejects(value, newline):
    with pytest.raises(TypeError):
        _reference_json(value)
    with pytest.raises(TypeError):
        cli._json_text(value, newline)


class _Float(float):
    pass


@pytest.mark.parametrize(
    "value",
    [
        np.float64(0.30000000000000004),
        np.float32(0.1),
        np.int64(7),
        [np.int64(-3), 2.0],
        {"value": np.float64(2.0)},
        np.array([[0.1, -0.0], [np.inf, 1e-300]]),
        np.array([], dtype=float),
        _Float(1.5),
    ],
    ids=lambda v: type(v).__name__,
)
@pytest.mark.parametrize("newline", ["\n", ""], ids=["indented", "one-line"])
def test_json_writer_rejects_numpy_values_and_float_subclasses(value, newline):
    # Payloads hold plain floats, ints and bools only; anything else is a bug upstream.
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli._json_text(value, newline)


@pytest.mark.parametrize("newline", ["\n", ""], ids=["indented", "one-line"])
def test_json_writer_takes_only_string_keys(newline):
    with pytest.raises(TypeError, match="keys must be str"):
        cli._json_text({1: 2.0}, newline)


@pytest.mark.parametrize("key", [1, True], ids=repr)
@pytest.mark.parametrize("newline", ["\n", ""], ids=["indented", "one-line"])
def test_json_writer_rejects_other_keys_after_caching_string_keys(key, newline):
    # Keys already written are remembered; no other key type may pass as one of them.
    cli._json_text({"1": 1.0, "True": 2.0, "value": 3.0}, newline)
    with pytest.raises(TypeError, match="keys must be str"):
        cli._json_text({key: 2.0}, newline)


@pytest.mark.parametrize("newline", ["\n", ""], ids=["indented", "one-line"])
def test_json_writer_writes_a_payload_the_same_twice(newline):
    payload = {"criteria": [{"criterion_id": "thm1", "value": 2.5, "naïve key": {"\x01": None}}], "input": "in.json"}
    reference = _reference_json(payload) if newline else _reference_line(payload)
    assert cli._json_text(payload, newline) == reference
    assert cli._json_text(payload, newline) == reference


# The corpus holds one scan per family (tests/test_golden_cli.py checks this).
CSV_COMMANDS = [c["argv"] for c in CORPUS["commands"] if c["kind"] == "scan"] + [
    ["verify", "--criterion", criterion, "--trials", "3", "--seed", "0"] for criterion in sorted(AUDIT_CRITERIA)
]


# A strength sweep on a T-state whose radius is below 1 has no crossings to report.
SUMMARY_COMMANDS = CSV_COMMANDS + [
    ["scan", "--family", "strength-sweep", "--start", "0", "--stop", "1", "--steps", "5",
     "--input", "rotated-tstate-no-angles.json"],
]


@pytest.mark.parametrize(
    "argv", SUMMARY_COMMANDS, ids=lambda a: a[2] + ("-input" if "--input" in a else "")
)
def test_summary_line_matches_json_dumps(argv, corpus_dir, monkeypatch, capsys):
    payloads = []
    write = cli._json_text

    def spy(payload, newline="\n"):
        payloads.append((payload, newline))
        return write(payload, newline)

    monkeypatch.setattr(cli, "_json_text", spy)
    assert cli.main(argv) == 0
    err = capsys.readouterr().err
    if argv[2] == "angle-sweep":
        # The angle sweep has no summary.
        assert (payloads, err) == ([], "")
        return
    ((summary, newline),) = payloads
    assert newline == ""
    assert err == _reference_line(summary) + "\n"


@pytest.mark.parametrize("argv", CSV_COMMANDS, ids=lambda a: a[2])
def test_csv_writer_matches_csv_module(argv, corpus_dir, monkeypatch, capsys):
    (header, rows), out = _captured(monkeypatch, capsys, "_emit_csv", argv)
    assert out == _reference_csv(header, rows)
    # The writer never quotes, so no cell may need it.
    for cell in [*header, *(c for row in rows for c in row)]:
        assert not set(str(cell)) & set(',"\r\n'), repr(cell)
