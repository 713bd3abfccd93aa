"""Command-line front end: bound, achieve, verify, scan, compat.

Exit codes: 0 success, 2 parse/input error, 3 unphysical state,
4 construction failure, 5 audit failure. All numeric JSON output is
rounded to 12 significant digits; CSV cells use the shortest
round-trip representation. Angles are radians in [0, pi], strengths
lie in [0, 1] and a Werner weight in [-1/3, 1]: a value at most 1e-12
outside its interval is clamped into it, and one further out exits 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import bounds as B
from .chsh import chsh, chsh_matrix_form
from .construct import ACHIEVABLE, achieve, reference_frames
from .errors import (
    BellboundError,
    ConstructionError,
    DomainError,
    InvalidInputError,
    UnphysicalStateError,
)
from .model import (
    FanoState,
    correlation_singular_values,
    Scenario,
    StrengthQuad,
    bell_diagonal,
    check_angle,
    check_bias,
    check_count,
    check_strength,
    check_werner_weight,
    number_from_json,
    numbers_from_json,
    observable_from_dict,
    scenario_from_dict,
    scenario_from_directions,
    sig12,
    singlet,
    state_from_fano,
    werner,
)
from .optimize import AUDIT_CRITERIA, audit_bound

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNPHYSICAL = 3
EXIT_CONSTRUCTION = 4
EXIT_AUDIT = 5

# Most rows a scan writes; its grid is built in memory at once.
_MAX_STEPS = 10**6


_JSON_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# The written form of each object key, ``"key": ``. Keys are the
# program's own field names, so this stays a few dozen entries.
_KEY_TEXT: dict[str, str] = {}


def _json_parts(value, out: list, newline: str) -> None:
    """Append the text of ``value`` to ``out``; containers open on ``newline``, or stay on one line if it is empty.

    Only the exact built-in types a payload holds are written; any other
    type, numpy scalars and float subclasses included, raises ``TypeError``.
    A float is rounded by ``sig12`` and written as the standard library's
    ``json`` encoder writes the rounded float.
    """
    kind = type(value)
    if kind is float:
        text = sig12(value)
        # A fixed-point decimal of at most 12 digits is already the
        # shortest repr of the float it names.
        out.append(text if "." in text and "e" not in text else _JSON_SPECIAL.get(text) or repr(float(text)))
    elif kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline and newline + "  "
        comma = "," + (inner or " ")
        out.append("{" + inner)
        for k, key in enumerate(sorted(value)):
            # No int, float, bool or None key equals a str, so such a key always misses.
            text = _KEY_TEXT.get(key)
            if text is None:
                if not isinstance(key, str):
                    raise TypeError(f"JSON keys must be str, not {type(key).__name__}")
                text = _KEY_TEXT[key] = encode_basestring_ascii(key) + ": "
            out.append((comma if k else "") + text)
            _json_parts(value[key], out, inner)
        out.append(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = newline and newline + "  "
        comma = "," + (inner or " ")
        out.append("[" + inner)
        for k, item in enumerate(value):
            if k:
                out.append(comma)
            _json_parts(item, out, inner)
        out.append(newline + "]")
    elif value is None:
        out.append("null")
    elif kind is bool:
        out.append("true" if value else "false")
    elif kind is int:
        out.append(repr(value))
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _json_text(payload, newline: str = "\n") -> str:
    """The standard library's ``dumps(payload, indent=2, sort_keys=True)``, every float rounded by ``sig12``, in one pass.

    With ``newline=""`` the text is on one line, as ``dumps(..., sort_keys=True)``
    writes it. Keys must be strings, which every payload's keys are.
    """
    out: list[str] = []
    _json_parts(payload, out, newline)
    return "".join(out)


def _write(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, output: str | None) -> None:
    _write(_json_text(payload) + "\n", output)


def _emit_csv(header: list[str], rows: list[tuple], output: str | None) -> None:
    """Comma-joined ``str`` cells: the bytes ``csv.writer`` writes for cells that need no quoting.

    Every row is a tuple as long as ``header``, formatted by one ``%s`` template.
    """
    template = ",".join(["%s"] * len(header)) + "\n"
    _write(template % tuple(header) + "".join(map(template.__mod__, rows)), output)


# ---------------------------------------------------------------------------
# Scenario file parsing


def _parse_state(data: dict) -> FanoState:
    if not isinstance(data, dict) or "kind" not in data:
        raise InvalidInputError("state must be an object with a 'kind' key")
    kind = data["kind"]
    if kind == "singlet":
        return singlet()
    if kind == "werner":
        if "w" not in data:
            raise InvalidInputError("state.w is required for kind 'werner'")
        return werner(number_from_json(data["w"], "state.w"))
    if kind == "bell_diagonal":
        if "t" not in data:
            raise InvalidInputError("state.t must hold three diagonal entries for kind 'bell_diagonal'")
        return bell_diagonal(*numbers_from_json(data["t"], "state.t", 3))
    if kind == "fano":
        for key in ("a", "b", "t"):
            if key not in data:
                raise InvalidInputError(f"state.{key} is required for kind 'fano'")
        if not isinstance(data["t"], list) or len(data["t"]) != 3:
            raise InvalidInputError("state.t must be a list of three rows")
        return state_from_fano(
            numbers_from_json(data["a"], "state.a", 3),
            numbers_from_json(data["b"], "state.b", 3),
            [numbers_from_json(row, f"state.t[{k}]", 3) for k, row in enumerate(data["t"])],
        )
    raise InvalidInputError(
        f"state.kind {kind!r} is not one of singlet, werner, bell_diagonal, fano"
    )


def _parse_angles(data: dict) -> tuple[float, float]:
    if not isinstance(data, dict):
        raise InvalidInputError("angles must be an object with keys theta and phi")
    angles = []
    for key in ("theta", "phi"):
        if key not in data:
            raise InvalidInputError(f"angles.{key} is required when angles are given")
        angles.append(check_angle(number_from_json(data[key], f"angles.{key}"), f"angles.{key}"))
    return (angles[0], angles[1])


class ScenarioFile:
    """Parsed input document: state plus either parameters or a full scenario."""

    def __init__(self, data: dict):
        if not isinstance(data, dict):
            raise InvalidInputError("input document must be a JSON object")
        if "state" not in data:
            raise InvalidInputError("input is missing the 'state' key")
        self.state = _parse_state(data["state"])
        self.scenario: Scenario | None = None
        self.strengths: StrengthQuad | None = None
        self.angles: tuple[float, float] | None = None
        self.biases: tuple[float, float, float, float] | None = None
        if "scenario" in data:
            for key in ("strengths", "angles", "biases"):
                if key in data:
                    raise InvalidInputError(
                        f"{key!r} conflicts with an explicit 'scenario'; give one or the other"
                    )
            self.scenario = scenario_from_dict(data["scenario"])
            self.strengths = self.scenario.strengths
            self.angles = (self.scenario.theta, self.scenario.phi)
            self.biases = self.scenario.biases
            return
        if "strengths" not in data:
            raise InvalidInputError("input needs 'strengths' [sx, sxp, sy, syp] or a 'scenario'")
        self.strengths = StrengthQuad(*numbers_from_json(data["strengths"], "strengths", 4))
        if "angles" in data:
            self.angles = _parse_angles(data["angles"])
        if "biases" in data:
            biases = numbers_from_json(data["biases"], "biases", 4)
            self.biases = tuple(check_bias(b, s) for b, s in zip(biases, self.strengths.as_tuple()))


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        # ValueError: malformed JSON, bytes that do not decode, integers past the digit limit;
        # RecursionError: nesting deeper than the parser recurses.
        raise InvalidInputError(f"could not parse {path}: {exc}") from exc
    except OSError as exc:
        raise InvalidInputError(f"could not read {path}: {exc}") from exc


def _load_input(path: str) -> ScenarioFile:
    return ScenarioFile(_read_json(path))


# ---------------------------------------------------------------------------
# bound


def _report_entry(report: B.BoundReport, **extra) -> dict:
    entry = {
        "criterion_id": report.criterion_id,
        "applicable": True,
        "value": report.value,
        "violated": report.violated,
    }
    if report.optimal_angles is not None:
        entry["optimal_angles"] = {
            "theta": report.optimal_angles[0],
            "phi": report.optimal_angles[1],
        }
    if report.notes:
        entry["notes"] = report.notes
    entry.update(extra)
    return entry


def _entry(criterion_id: str, reason: str | None, make, **extra) -> dict:
    """The entry of the report ``make()``, or an inapplicable one when ``reason`` is set."""
    if reason:
        return {"criterion_id": criterion_id, "applicable": False, "reason": reason}
    return _report_entry(make(), **extra)


def cmd_bound(args) -> int:
    doc = _load_input(args.input)
    state = doc.state
    q = doc.strengths
    s1, s2, s3 = correlation_singular_values(state)
    is_tstate = state.is_tstate()
    not_tstate = None if is_tstate else "not a T-state"
    equal_a, equal_b = B.equal_sides(q)
    thm4 = B.thm4_bound(state, q) if B.equal_singular_values(s1, s2) else None
    thm3 = B.thm3_bound(state, q) if equal_a or equal_b else None
    # thm3's only note is that it exchanged the sides.
    thm3_extra = {} if thm3 is None or thm3.notes else {"b_side_swapped": q.sy < q.syp}
    # Without input angles, the most specific family that fixes optimal
    # ones supplies them.
    angles, angle_source = doc.angles, "input"
    if angles is None and thm4 is not None:
        angles, angle_source = thm4.optimal_angles, "thm4"
    elif angles is None and thm3 is not None:
        angles, angle_source = thm3.optimal_angles, "thm3-sides-exchanged" if thm3.notes else "thm3"
    no_angles = "no angles given and no strength/state pattern fixes optimal ones" if angles is None else None
    at_angles = {} if angles is None else {
        "angles_used": {"theta": angles[0], "phi": angles[1]},
        "angle_source": angle_source,
    }
    unequal = None if equal_a and equal_b else "strengths are not equal on each side"
    # thm2 and cor6 are the biased forms of thm1 and cor3, so each of these is evaluated once.
    thm1 = None if no_angles else B.s0_bound(state, q, *angles)
    cor3 = None if no_angles else B.s0_tilde(state, q, *angles)
    entries = [
        _report_entry(B.BoundReport(value=B.horodecki(state), criterion_id="horodecki")),
        _report_entry(B.cor2_sufficient(state, q)),
        _entry("thm1", no_angles, lambda: thm1, **at_angles),
        _entry("cor3", no_angles, lambda: cor3, **at_angles),
        _entry("thm2", not_tstate or no_angles, lambda: B.with_bias_term(thm1, q, criterion_id="thm2"), **at_angles),
        _entry("cor6", not_tstate or no_angles, lambda: B.with_bias_term(cor3, q, criterion_id="cor6"), **at_angles),
        _entry("cor1", unequal, lambda: B.cor1_bound(state, q.sx, q.sy)),
        _entry("cor4", unequal or not_tstate, lambda: B.cor4_bound(state, q.sx, q.sy)),
        _entry("thm3", None if thm3 else "no side has equal strengths", lambda: thm3, **thm3_extra),
        _entry("thm4", None if thm4 else f"s1(T) != s2(T) ({s1:.6g} vs {s2:.6g})", lambda: thm4),
    ]
    if thm4 is not None and is_tstate:
        entries.append(_report_entry(B.with_bias_term(thm4, q), criterion_variant="thm4+bias"))
    payload = {
        "input": args.input,
        "state": state.to_dict(),
        "correlation_singular_values": [s1, s2, s3],
        "strengths": list(q.as_tuple()),
        "criteria": entries,
    }
    if doc.scenario is not None:
        variants = chsh(doc.scenario, state)
        payload["chsh"] = {
            "canonical": variants.canonical,
            "swap_x": variants.swap_x,
            "swap_y": variants.swap_y,
            "swap_both": variants.swap_both,
            "matrix_form": chsh_matrix_form(doc.scenario, state),
        }
        entries.append(_report_entry(B.sgen_bound(doc.scenario, state)))
    elif angles is not None:
        dirs = reference_frames(*angles)
        scenario = scenario_from_directions(q, dirs, doc.biases or (0.0, 0.0, 0.0, 0.0))
        entries.append(_report_entry(B.sgen_bound(scenario, state), notes="reference-frame directions"))
    else:
        entries.append(_entry("sgen", "needs an explicit scenario or angles", None))
    _emit_json(payload, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# achieve


def cmd_achieve(args) -> int:
    doc = _load_input(args.input)
    config = achieve(args.criterion, doc.state, doc.strengths, doc.angles)
    payload = {
        "criterion": args.criterion,
        "recipe": config.recipe_id,
        "target_bound": config.target_bound,
        "attained_chsh": config.attained_chsh,
        "violated": config.attained_chsh > 2.0,
        "state": doc.state.to_dict(),
        "scenario": config.scenario.to_dict(),
        "angles": {"theta": config.scenario.theta, "phi": config.scenario.phi},
    }
    if any(doc.biases or ()):
        # Every recipe builds its own biases; the document's are not used.
        payload["biases_ignored"] = True
    _emit_json(payload, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    report = audit_bound(
        args.criterion,
        trials=args.trials,
        seed=args.seed,
        tolerance=args.tolerance,
        restarts=args.restarts,
        threads=args.threads,
    )
    rows = [(r.trial, r.bound, r.oracle, r.gap) for r in report.rows]
    _emit_csv(["trial", "bound", "oracle", "gap"], rows, args.output)
    summary = {
        "criterion": report.criterion_id,
        "trials": report.trials,
        "seed": report.seed,
        "max_overshoot": report.max_overshoot,
        "max_undershoot": report.max_undershoot,
        "overshoot_tol": report.overshoot_tol,
        "undershoot_tol": report.undershoot_tol,
        "tightness_claimed": report.tightness_claimed,
        "passed": report.passed,
        "evaluations": sum(r.evaluations for r in report.rows),
        "not_converged": [r.trial for r in report.rows if not r.converged],
        "worst_overshoot_trial": report.worst_overshoot_trial,
    }
    if report.tightness_claimed:
        summary["worst_undershoot_trial"] = report.worst_undershoot_trial
    print(_json_text(summary, ""), file=sys.stderr)
    if not report.passed:
        print(
            "audit FAILED; reproduce failing trials with --seed "
            f"{report.seed} at trial indices {list(report.failed_trials)}",
            file=sys.stderr,
        )
        return EXIT_AUDIT
    return EXIT_OK


# ---------------------------------------------------------------------------
# scan


_BISECT_TOL = 1e-9


def bisect_root(fun, lo: float, hi: float) -> float:
    """Bisection for a sign change of ``fun`` on [lo, hi], to within ``_BISECT_TOL``."""
    flo = fun(lo)
    fhi = fun(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise InvalidInputError(f"no sign change on [{lo}, {hi}]")
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        fmid = fun(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo = mid
            flo = fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _grid(start: float, stop: float, steps: int) -> list[float]:
    """``steps`` evenly spaced points from ``start`` to exactly ``stop``.

    Point k < steps - 1 is ``start + (stop - start) * k / (steps - 1)``, each
    operation rounded as on Python floats; an overflowing product is inf.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        points = start + (stop - start) * np.arange(steps - 1) / (steps - 1)
    return points.tolist() + [stop]


def strength_sweep(state: FanoState, start: float, stop: float, steps: int):
    """Common-strength sweep rows of cor1 and cor4, one call each, and where each crosses 2.

    The crossings are bisected on floats through ``cor1_value`` and
    ``cor4_value``, which give the same values as the two bounds.
    """
    s1, s2, _ = correlation_singular_values(state)
    radius = math.hypot(s1, s2)
    grid = _grid(start, stop, steps)
    strengths = check_strength(np.array(grid), "strength")
    unbiased = B.cor1_bound(state, strengths, strengths)
    biased = B.cor4_bound(state, strengths, strengths)
    columns = (unbiased.value, biased.value, unbiased.violated, biased.violated)
    rows = list(zip(grid, *(column.tolist() for column in columns)))
    summary = {"radius": radius}
    if radius > 1.0:
        unbiased_cross = bisect_root(lambda s: B.cor1_value(s, s, radius) - 2.0, 0.0, 1.0)
        biased_cross = bisect_root(lambda s: B.cor4_value(s, s, radius) - 2.0, 0.01, 1.0)
        thresholds = B.strength_thresholds(radius)
        summary.update(
            {
                "unbiased_crossing": unbiased_cross,
                "biased_crossing": biased_cross,
                "unbiased_threshold_closed_form": thresholds[0],
                "biased_threshold_closed_form": thresholds[1],
            }
        )
    return rows, summary


def werner_sweep(start: float, stop: float, steps: int):
    grid = _grid(start, stop, steps)
    values = 2.0 * math.sqrt(2.0) * np.abs(check_werner_weight(np.array(grid), "w"))
    rows = list(zip(grid, values.tolist(), (values > 2.0).tolist()))
    onset = bisect_root(lambda w: 2.0 * math.sqrt(2.0) * w - 2.0, 0.0, 1.0)
    return rows, {"violation_onset": onset}


def angle_sweep(state: FanoState, q: StrengthQuad, start: float, stop: float, steps: int):
    """Rows of the thm1 bound at theta = phi, the whole grid in one ``s0_bound`` call."""
    grid = _grid(start, stop, steps)
    angles = check_angle(np.array(grid), "angle")
    report = B.s0_bound(state, q, angles, angles)
    return list(zip(grid, report.value.tolist(), report.violated.tolist())), {}


def cmd_scan(args) -> int:
    check_count(args.steps, "steps", 2)
    if args.steps > _MAX_STEPS:
        raise InvalidInputError(f"steps must be <= {_MAX_STEPS}, got {args.steps}")
    if not (math.isfinite(args.start) and math.isfinite(args.stop) and args.start < args.stop):
        raise InvalidInputError("need start < stop")
    if not math.isfinite(args.stop - args.start):
        raise InvalidInputError(
            f"--start {args.start!r} to --stop {args.stop!r} spans more than the largest float; narrow the range"
        )
    if args.family == "werner-sweep" and args.input:
        raise InvalidInputError("scan --family werner-sweep reads no state or strengths; drop --input")
    doc = _load_input(args.input) if args.input else None
    if args.family == "strength-sweep":
        state = doc.state if doc else singlet()
        if not state.is_tstate():
            raise DomainError("strength sweep compares the T-state bounds; needs a T-state")
        rows, summary = strength_sweep(state, args.start, args.stop, args.steps)
        header = ["strength", "unbiased_bound", "biased_bound", "unbiased_violated", "biased_violated"]
    elif args.family == "werner-sweep":
        rows, summary = werner_sweep(args.start, args.stop, args.steps)
        header = ["w", "horodecki", "violated"]
    elif args.family == "angle-sweep":
        state = doc.state if doc else singlet()
        q = doc.strengths if doc else StrengthQuad(1.0, 1.0, 1.0, 1.0)
        rows, summary = angle_sweep(state, q, args.start, args.stop, args.steps)
        header = ["angle", "bound", "violated"]
    else:
        raise InvalidInputError(f"unknown sweep family {args.family!r}")
    _emit_csv(header, rows, args.output)
    if summary:
        print(_json_text(summary, ""), file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# compat


def cmd_compat(args) -> int:
    data = _read_json(args.input)
    if not isinstance(data, dict) or "x" not in data or "xp" not in data:
        raise InvalidInputError("compat input needs observables under keys 'x' and 'xp'")
    x = observable_from_dict(data["x"], "x")
    xp = observable_from_dict(data["xp"], "xp")
    try:
        busch = B.compat_busch(x, xp)
    except DomainError:
        busch = None
    payload = {
        "x": x.to_dict(),
        "xp": xp.to_dict(),
        "relative_angle": math.acos(max(-1.0, min(1.0, float(x.direction @ xp.direction)))),
        "busch": busch,
        "busch_applicable": busch is not None,
        "necessary": B.compat_necessary(x, xp),
        "full": B.compat_full(x, xp),
        "max_reversibility": {
            "x": B.max_reversibility(x),
            "xp": B.max_reversibility(xp),
        },
    }
    if busch is None:
        payload["busch_note"] = "only defined for unbiased observables; see 'necessary' and 'full'"
    _emit_json(payload, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``bellbound`` argument parser, built once per process.

    Parsing leaves the parser unchanged and each call gets a fresh
    namespace, so ``main`` reuses it; callers must not modify it.
    """
    parser = argparse.ArgumentParser(
        prog="bellbound",
        description="CHSH bounds for qubit observables of arbitrary strength and bias.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="evaluate every applicable criterion for a scenario file")
    p_bound.add_argument("--input", required=True, help="scenario JSON file")
    p_bound.add_argument("--output", help="write the JSON report here instead of stdout")
    p_bound.set_defaults(handler=cmd_bound)

    p_achieve = sub.add_parser("achieve", help="construct measurements attaining a bound")
    p_achieve.add_argument("--input", required=True)
    p_achieve.add_argument(
        "--criterion",
        required=True,
        choices=ACHIEVABLE,
    )
    p_achieve.add_argument("--output")
    p_achieve.set_defaults(handler=cmd_achieve)

    p_verify = sub.add_parser("verify", help="audit a bound against the numerical oracle")
    p_verify.add_argument("--criterion", required=True, choices=sorted(AUDIT_CRITERIA))
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--tolerance", type=float, default=None, help="undershoot tolerance")
    p_verify.add_argument("--restarts", type=int, default=None)
    p_verify.add_argument(
        "--threads", type=int, default=1, help="worker processes for the trials, at most one per CPU"
    )
    p_verify.add_argument("--output", help="write the per-trial CSV here instead of stdout")
    p_verify.set_defaults(handler=cmd_verify)

    p_scan = sub.add_parser("scan", help="parameter sweeps with violation flags")
    p_scan.add_argument(
        "--family", required=True, choices=["strength-sweep", "werner-sweep", "angle-sweep"]
    )
    p_scan.add_argument("--start", type=float, required=True)
    p_scan.add_argument("--stop", type=float, required=True)
    p_scan.add_argument("--steps", type=int, required=True)
    p_scan.add_argument("--input", help="optional scenario file (state and strengths)")
    p_scan.add_argument("--output", help="write the CSV here instead of stdout")
    p_scan.set_defaults(handler=cmd_scan)

    p_compat = sub.add_parser("compat", help="joint-measurability verdicts for two observables")
    p_compat.add_argument("--input", required=True, help="JSON with observables 'x' and 'xp'")
    p_compat.add_argument("--output")
    p_compat.set_defaults(handler=cmd_compat)

    return parser


def _join_negative_numbers(argv: list[str]) -> list[str]:
    """Attach a negative number to the long option before it.

    argparse takes a token such as ``-1e-05`` or ``-inf`` for an option
    flag, because its negative-number pattern knows no exponent or
    infinity, so ``--tolerance -1e-05`` fails with "expected one argument".
    ``--tolerance=-1e-05`` parses the same value, so a long option (every
    one but ``--help`` takes a value) followed by such a token is rewritten
    to that form when ``float`` accepts the token.
    """
    out = []
    for token in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and prev not in ("--", "--help") and "=" not in prev and token.startswith("-"):
            try:
                float(token)
            except ValueError:
                pass
            else:
                out[-1] += "=" + token
                continue
        out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_numbers(sys.argv[1:] if argv is None else argv))
    try:
        return args.handler(args)
    except UnphysicalStateError as exc:
        print(f"error: unphysical state: {exc}", file=sys.stderr)
        return EXIT_UNPHYSICAL
    except ConstructionError as exc:
        print(f"error: construction failed: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    except BellboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
