"""Record the golden CLI corpus used by ``tests/test_golden_cli.py``.

Runs ``bound`` on a fixed set of input documents, ``achieve`` for the
criteria that apply to them, one ``scan`` per family, ``verify`` for
every audit criterion (seed 0, three trials, one process) and ``compat``
on a few observable pairs, and writes the
inputs, argument lists, exit codes and outputs to ``cli_corpus.json`` next
to this file. Recording is add-only: the inputs and commands already in the
file are kept byte for byte, and only commands whose (kind, case) is not in
it yet are run and appended. So a reference, once recorded, never moves.
Add new cases at the commit whose outputs are the reference:

    PYTHONPATH=src python tests/golden/record_cli_corpus.py

Every command runs in-process in a scratch directory that holds the input
files, so the ``input`` path echoed in the ``bound`` report is the bare
file name.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import pathlib
import tempfile

import numpy as np

from bellbound import random_observable
from bellbound.cli import main
from bellbound.optimize import AUDIT_CRITERIA

PI2 = math.pi / 2

GENERAL = {
    "kind": "fano",
    "a": [-0.17041069538867876, -0.20333427337722368, -0.374535359991796],
    "b": [0.32379603729011036, -0.2606542260324646, 0.020090094001274816],
    "t": [
        [0.09551320182939194, 0.14213384438588555, -0.3274810548275975],
        [0.23346892293692229, 0.258407705801722, 0.2667630837483652],
        [-0.5586428283899467, 0.1201132745823951, 0.0765624027322909],
    ],
}

# R1 diag(0.6, -0.4, 0.2) R2^T for two fixed proper rotations: a T-state
# whose correlation matrix has distinct singular values and no zero entries.
ROTATED_TSTATE = {
    "kind": "fano",
    "a": [0.0, 0.0, 0.0],
    "b": [0.0, 0.0, 0.0],
    "t": [
        [0.10225930419060471, -0.1542217950740622, 0.37164951502298627],
        [-0.2074524989734404, -0.18257961049744786, 0.2185182391419709],
        [0.11300907137576273, 0.49874754442790553, 0.04464384605133762],
    ],
}

INPUTS = {
    "singlet-angles": {
        "state": {"kind": "singlet"},
        "strengths": [1, 1, 1, 1],
        "angles": {"theta": PI2, "phi": PI2},
    },
    "werner-no-angles": {
        "state": {"kind": "werner", "w": 0.8},
        "strengths": [0.9, 0.9, 0.85, 0.85],
    },
    "bell-diagonal-angles-biases": {
        "state": {"kind": "bell_diagonal", "t": [0.9, -0.3, 0.3]},
        "strengths": [0.95, 0.7, 0.9, 0.6],
        "angles": {"theta": 1.1, "phi": 2.0},
        "biases": [0.02, -0.1, 0.05, 0.3],
    },
    "rotated-tstate-equal-a": {
        "state": ROTATED_TSTATE,
        "strengths": [0.8, 0.8, 0.95, 0.6],
    },
    "rotated-tstate-equal-b": {
        "state": ROTATED_TSTATE,
        "strengths": [0.9, 0.6, 0.75, 0.75],
    },
    "rotated-tstate-angles": {
        "state": ROTATED_TSTATE,
        "strengths": [0.85, 0.85, 0.9, 0.9],
        "angles": {"theta": 0.9, "phi": 1.3},
    },
    "general-scenario": {
        "state": GENERAL,
        "scenario": {
            "x": {"bias": 0.1, "strength": 0.8, "direction": [1, 0, 0]},
            "xp": {"bias": -0.05, "strength": 0.9, "direction": [0, 0.6, 0.8]},
            "y": {"bias": 0.0, "strength": 0.7, "direction": [0, 1, 0]},
            "yp": {"bias": 0.2, "strength": 0.75, "direction": [0.48, 0.6, 0.64]},
        },
    },
    "general-angles": {
        "state": GENERAL,
        "strengths": [0.95, 0.7, 0.9, 0.6],
        "angles": {"theta": 1.7, "phi": 0.6},
    },
    "general-no-angles": {
        "state": GENERAL,
        "strengths": [0.95, 0.7, 0.9, 0.6],
    },
    "general-equal-a": {
        "state": GENERAL,
        "strengths": [0.9, 0.9, 0.8, 0.5],
    },
    # No angles and no strength pattern that fixes them, on a T-state.
    "rotated-tstate-no-angles": {
        "state": ROTATED_TSTATE,
        "strengths": [0.95, 0.7, 0.9, 0.6],
    },
    # Equal A strengths with sy < syp: thm3 exchanges the B observables.
    "general-equal-a-swapped": {
        "state": GENERAL,
        "strengths": [0.9, 0.9, 0.5, 0.8],
    },
    # Equal strengths on both sides, but not a T-state.
    "general-equal-both": {
        "state": GENERAL,
        "strengths": [0.85, 0.85, 0.7, 0.7],
    },
    # s1(T) = s2(T) on a state with a local Bloch vector: thm4 without its
    # biased T-state variant.
    "werner-local-a": {
        "state": {
            "kind": "fano",
            "a": [0.1, 0.0, 0.0],
            "b": [0.0, 0.0, 0.0],
            "t": [[-0.5, 0.0, 0.0], [0.0, -0.5, 0.0], [0.0, 0.0, -0.5]],
        },
        "strengths": [0.9, 0.6, 0.8, 0.7],
    },
}


def seeded_pair(index: int, relabel_xp: bool = False) -> dict:
    """Pair ``index`` of ``random_observable`` draws (x, xp, x, xp, ...) at seed 2024.

    ``relabel_xp`` exchanges xp's outcomes: (B', n') -> (-B', -n'), which
    leaves joint measurability unchanged.
    """
    rng = np.random.default_rng(2024)
    for _ in range(2 * index):
        random_observable(rng)
    x, xp = random_observable(rng).to_dict(), random_observable(rng).to_dict()
    if relabel_xp:
        xp = dict(xp, bias=-xp["bias"], direction=[-c for c in xp["direction"]])
    return {"x": x, "xp": xp}


# Observable pairs for ``compat``, named by the signs of their two biases.
COMPAT_INPUTS = {
    "compat-unbiased-boundary": {
        "x": {"bias": 0.0, "strength": 0.5**0.5, "direction": [1.0, 0.0, 0.0]},
        "xp": {"bias": 0.0, "strength": 0.5**0.5, "direction": [0.0, 1.0, 0.0]},
    },
    "compat-positive-compatible": seeded_pair(9),
    "compat-positive-necessary-only": seeded_pair(77),
    "compat-negative-compatible": seeded_pair(1),
    "compat-negative-incompatible": seeded_pair(25),
    # Opposite signs, recorded after compat_full took the signed bias
    # product. Pair 117 has an explicit joint POVM; pair 43 has none.
    "compat-opposite-compatible": seeded_pair(117),
    "compat-opposite-incompatible": seeded_pair(43),
    "compat-opposite-relabelled-compatible": seeded_pair(9, relabel_xp=True),
    "compat-opposite-relabelled-necessary-only": seeded_pair(77, relabel_xp=True),
}

ACHIEVE = (
    ("singlet-angles", "thm1"),
    ("singlet-angles", "thm2"),
    ("werner-no-angles", "cor1"),
    ("werner-no-angles", "cor4"),
    ("werner-no-angles", "thm4"),
    ("bell-diagonal-angles-biases", "thm1"),
    ("bell-diagonal-angles-biases", "thm2"),
    ("rotated-tstate-equal-a", "thm3"),
    ("rotated-tstate-angles", "thm1"),
    ("rotated-tstate-angles", "thm2"),
    ("rotated-tstate-angles", "cor1"),
    ("rotated-tstate-angles", "cor4"),
    ("general-angles", "thm1"),
    ("general-equal-a", "thm3"),
    ("general-equal-a-swapped", "thm3"),
    ("werner-local-a", "thm4"),
)

SCANS = {
    "strength-sweep": ["--start", "0.8", "--stop", "0.86", "--steps", "7"],
    "werner-sweep": ["--start", "0", "--stop", "1", "--steps", "11"],
    "angle-sweep": [
        "--start", "0", "--stop", repr(math.pi), "--steps", "41",
        "--input", "rotated-tstate-angles.json",
    ],
}


VERIFY_ARGS = ["--trials", "3", "--seed", "0", "--threads", "1"]


def input_file(name: str) -> str:
    return f"{name}.json"


def commands() -> list[dict]:
    """Every recorded command: kind, case name and CLI argument list."""
    out = []
    for name in INPUTS:
        out.append({"kind": "bound", "case": name, "argv": ["bound", "--input", input_file(name)]})
    for name, criterion in ACHIEVE:
        out.append(
            {
                "kind": "achieve",
                "case": f"{name}:{criterion}",
                "argv": ["achieve", "--input", input_file(name), "--criterion", criterion],
            }
        )
    for family, extra in SCANS.items():
        out.append({"kind": "scan", "case": family, "argv": ["scan", "--family", family, *extra]})
    for criterion in sorted(AUDIT_CRITERIA):
        out.append(
            {
                "kind": "verify",
                "case": criterion,
                "argv": ["verify", "--criterion", criterion, *VERIFY_ARGS],
            }
        )
    for name in COMPAT_INPUTS:
        out.append({"kind": "compat", "case": name, "argv": ["compat", "--input", input_file(name)]})
    return out


def write_inputs(directory, inputs: dict) -> None:
    for name, doc in inputs.items():
        pathlib.Path(directory, input_file(name)).write_text(json.dumps(doc))


def run(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of one in-process CLI call."""
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def record(existing: dict) -> dict:
    """``existing`` plus the inputs and commands it does not hold yet."""
    inputs = {**INPUTS, **COMPAT_INPUTS, **existing["inputs"]}
    known = {(cmd["kind"], cmd["case"]) for cmd in existing["commands"]}
    new = [cmd for cmd in commands() if (cmd["kind"], cmd["case"]) not in known]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(tmp, inputs)
        os.chdir(tmp)
        try:
            results = [dict(cmd, **run(cmd["argv"])) for cmd in new]
        finally:
            os.chdir(cwd)
    return {"inputs": inputs, "commands": existing["commands"] + results}


if __name__ == "__main__":
    target = pathlib.Path(__file__).with_name("cli_corpus.json")
    existing = json.loads(target.read_text()) if target.exists() else {"inputs": {}, "commands": []}
    corpus = record(existing)
    target.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    added = len(corpus["commands"]) - len(existing["commands"])
    print(f"wrote {target}: {added} new commands")
