#!/usr/bin/env python3
"""Record alternating benchmark runs of a parent and a change checkout.

    python3 tools/bench_record.py --parent DIR --change DIR --workload audit \
        --pairs 10 --first-seed 100 --output BENCH_<n>.json [--seconds S]

Each pair runs ``bench/run.py --trace 0`` once in each checkout at one seed
(pair k at ``--first-seed`` + k). The parent runs first in even pairs and
the change first in odd ones. ``--seconds`` defaults to ``run_seconds`` in
the change's ``BENCHMARK.json``, whose ``end_to_end`` list names the
metrics summarized.

The record keeps, per workload, each run's last stdout line (the metrics)
and the report line before it, the seeds and the pair order; for each side
the median and quartiles of each end-to-end metric; and per metric the
pairs each side won, by the metric's ``better`` direction, ties counting for
neither. An existing output file gains or replaces the workload's entry,
provided it was recorded from the same two commits.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def commit_of(checkout: Path) -> str | None:
    """The checkout's HEAD, with ``+dirty`` if its tracked files differ from it; None outside git."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True, check=True).stdout

    try:
        head = git("rev-parse", "HEAD").strip()
        dirty = git("status", "--porcelain", "--untracked-files=no").strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return head + ("+dirty" if dirty else "")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run in ``checkout``: its report line and its metrics line, parsed."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return {"report": json.loads(lines[-2])["report"], "result": json.loads(lines[-1])}


def quartiles(values: list[float]) -> dict:
    """Median and quartiles, interpolated between order statistics (numpy's default rule)."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per side, the median and quartiles of each metric; per metric, the pairs each side won.

    ``runs`` hold ``pair``, ``side`` and ``metrics`` (name to value);
    ``end_to_end`` is ``BENCHMARK.json``'s list, whose ``better`` says which
    way wins. A pair whose two values are equal counts for neither side.
    """
    values = {(run["pair"], run["side"]): run["metrics"] for run in runs}
    pairs = sorted({pair for pair, _ in values})
    summary = {side: {} for side in SIDES}
    wins = {}
    for metric in end_to_end:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        for side in SIDES:
            summary[side][name] = quartiles([values[pair, side][name] for pair in pairs])
        won = {side: 0 for side in SIDES}
        for pair in pairs:
            diff = sign * (values[pair, "change"][name] - values[pair, "parent"][name])
            if diff != 0.0:
                won["change" if diff > 0.0 else "parent"] += 1
        wins[name] = {**won, "ties": len(pairs) - won["change"] - won["parent"]}
    return {**summary, "wins": wins}


def record(checkouts: dict, workload: str, pairs: int, first_seed: int, seconds: float, end_to_end) -> dict:
    """Run ``pairs`` alternating pairs of ``workload`` and summarize them."""
    seeds = [first_seed + k for k in range(pairs)]
    order = [list(SIDES) if k % 2 == 0 else list(reversed(SIDES)) for k in range(pairs)]
    runs = []
    for pair, (seed, sides) in enumerate(zip(seeds, order)):
        for side in sides:
            out = run_once(checkouts[side], workload, seed, seconds)
            metrics = {name: entry["value"] for name, entry in out["result"]["metrics"].items()}
            runs.append({"pair": pair, "side": side, "seed": seed, "metrics": metrics, **out})
            print(f"{workload} pair {pair} seed {seed} {side}: {json.dumps(metrics)}", file=sys.stderr)
    return {"seconds": seconds, "seeds": seeds, "order": order, "runs": runs, **summarize(runs, end_to_end)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="record alternating parent/change benchmark runs")
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="run length (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--output", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.first_seed < 0:
        parser.error("--pairs must be >= 1 and --first-seed >= 0")
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in benchmark["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    seconds = benchmark["run_seconds"] if args.seconds is None else args.seconds
    commits = {side: commit_of(getattr(args, side)) for side in SIDES}
    doc = json.loads(args.output.read_text()) if args.output.exists() else {"commits": commits, "workloads": {}}
    if doc["commits"] != commits:
        raise SystemExit(f"error: {args.output} was recorded from {doc['commits']}, not {commits}")
    checkouts = {side: getattr(args, side) for side in SIDES}
    doc["workloads"][args.workload] = record(
        checkouts, args.workload, args.pairs, args.first_seed, seconds, benchmark["end_to_end"]
    )
    args.output.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
