"""``tools/bench_record.py`` summarizes alternating runs, and the committed records are complete.

A ``BENCH_<n>.json`` at the root of the repository records the benchmark
runs behind a claimed speed-up: for each workload, the parent's and the
change's runs in alternating pairs, each side's median and quartiles of
every end-to-end metric that ``BENCHMARK.json`` names, and the pairs each
side won.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def _load_recorder():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_record = _load_recorder()

METRICS = [
    {"name": "ops_per_s", "better": "higher"},
    {"name": "op_p50_ms", "better": "lower"},
]


def _runs(parent, change):
    """Synthetic runs: pair k has ``parent[k]`` and ``change[k]``, each a (ops_per_s, op_p50_ms) tuple."""
    runs = []
    for side, values in (("parent", parent), ("change", change)):
        for pair, (ops, p50) in enumerate(values):
            runs.append({"pair": pair, "side": side, "metrics": {"ops_per_s": ops, "op_p50_ms": p50}})
    return runs


def test_summary_gives_medians_quartiles_and_wins():
    parent = [(50.0, 17.0), (52.0, 16.0), (51.0, 16.5), (49.0, 18.0), (53.0, 15.0)]
    change = [(54.0, 16.0), (52.0, 15.0), (55.0, 16.5), (53.0, 19.0), (56.0, 14.0)]
    summary = bench_record.summarize(_runs(parent, change), METRICS)
    # Five values: the quartiles are the second and fourth order statistics.
    assert summary["parent"]["ops_per_s"] == {"median": 51.0, "q1": 50.0, "q3": 52.0}
    assert summary["change"]["ops_per_s"] == {"median": 54.0, "q1": 53.0, "q3": 55.0}
    assert summary["parent"]["op_p50_ms"] == {"median": 16.5, "q1": 16.0, "q3": 17.0}
    # Pair 1 ties on ops_per_s, pair 2 on op_p50_ms: neither side gets them.
    assert summary["wins"]["ops_per_s"] == {"parent": 0, "change": 4, "ties": 1}
    # Lower is better for a latency: pairs 0, 1 and 4 go to the change, pair 3 to the parent.
    assert summary["wins"]["op_p50_ms"] == {"parent": 1, "change": 3, "ties": 1}


def test_quartiles_interpolate_between_order_statistics():
    assert bench_record.quartiles([1.0, 2.0, 3.0, 4.0]) == {"median": 2.5, "q1": 1.75, "q3": 3.25}
    assert bench_record.quartiles([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0}


def test_record_alternates_the_order_and_takes_one_seed_per_pair(monkeypatch):
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append((checkout, seed))
        value = 1.0 if checkout == "p" else 2.0
        return {"report": {"seed": seed}, "result": {"metrics": {m["name"]: {"value": value} for m in METRICS}}}

    monkeypatch.setattr(bench_record, "run_once", fake_run)
    entry = bench_record.record({"parent": "p", "change": "c"}, "audit", 3, 100, 1.0, METRICS)
    assert calls == [("p", 100), ("c", 100), ("c", 101), ("p", 101), ("p", 102), ("c", 102)]
    assert entry["seeds"] == [100, 101, 102]
    assert entry["order"] == [["parent", "change"], ["change", "parent"], ["parent", "change"]]
    assert [run["report"]["seed"] for run in entry["runs"]] == [100, 100, 101, 101, 102, 102]
    assert entry["wins"]["ops_per_s"] == {"parent": 0, "change": 3, "ties": 0}


def test_a_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_records_hold_every_end_to_end_metric_for_both_sides(path):
    doc = json.loads(path.read_text())
    assert set(doc["commits"]) == {"parent", "change"}
    assert doc["workloads"]
    for workload, entry in doc["workloads"].items():
        pairs = len(entry["seeds"])
        assert len(entry["order"]) == pairs and len(entry["runs"]) == 2 * pairs, workload
        for side in ("parent", "change"):
            for metric in END_TO_END:
                assert set(entry[side][metric["name"]]) == {"median", "q1", "q3"}, (workload, side, metric)
        for metric in END_TO_END:
            wins = entry["wins"][metric["name"]]
            assert wins["parent"] + wins["change"] + wins["ties"] == pairs, (workload, metric)
