"""Smoke tests for the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

A tiny run of each workload must emit every metric that BENCHMARK.json
names, with its unit, and a deliberately corrupted program output must be
counted as a failed op.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402

run.import_program()

import bellbound.bounds as bounds  # noqa: E402
import bellbound.optimize as optimize  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    report = json.loads(proc.stdout.strip().splitlines()[-2])["report"]
    probes = {f"invalid:{name}" for name, _ in workloads.Requests.KNOWN_DEFECTS}
    assert set(report["known_defects"]) == (probes if workload == "requests" else set())
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def _off_by(report_fn, delta):
    def corrupted(*args, **kwargs):
        report = report_fn(*args, **kwargs)
        return dataclasses.replace(report, value=report.value + delta)

    return corrupted


@pytest.mark.parametrize("workload", ["requests", "sweep"])
def test_corrupted_bound_counts_as_failure(workload, tmp_path, monkeypatch):
    wl = run.set_up(workload, 5, str(tmp_path))
    clean = run.run_ops(wl, count=len(wl.cycle))
    assert clean.wrong_outputs == 0
    monkeypatch.setattr(bounds, "s0_bound", _off_by(bounds.s0_bound, 1e-6))
    corrupted = run.run_ops(wl, count=len(wl.cycle))
    assert corrupted.wrong_outputs > 0
    assert corrupted.failed / corrupted.attempted > clean.failed / clean.attempted


def test_corrupted_audit_bound_counts_as_failure(tmp_path, monkeypatch):
    wl = run.set_up("audit", 5, str(tmp_path))
    assert wl.cycle[0] == "thm1"
    monkeypatch.setattr(wl, "extra_ops", list)
    monkeypatch.setattr(optimize, "s0_bound", _off_by(optimize.s0_bound, 0.01))
    corrupted = run.run_ops(wl, count=1)
    assert corrupted.failed == 1 and corrupted.wrong_outputs == 1
