#!/usr/bin/env python3
"""bellbound benchmark: one closed-loop client, one process, three workloads.

    python3 bench/run.py --workload {requests,sweep,audit} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced pass. The line before it is a JSON report with the facts behind
the metrics. Reports and spans are also written to ``.bench_out/``.
``bench/README.md`` says what each workload and metric is for.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported, here and in every child process: one
# client on shared cores, so no worker processes and no BLAS threads.
for _var in (
    "BELLBOUND_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict, deque  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"
WORKLOAD_NAMES = ("requests", "sweep", "audit")
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 120
TAIL_BEYOND = 10

# Op time is the process's CPU time over the program call: the ops run on
# one thread and never wait, so on an idle machine it equals wall time, but
# it leaves out the time other tenants' processes hold the core. The shared
# cores also change speed by up to 1.7x for seconds at a time. A fixed kernel
# of benchmark code is timed every REF_EVERY_S between ops, and each op's
# time is scaled by REF_NOMINAL_S over the median kernel time around it.
# Times are thus reported at the speed where the kernel takes REF_NOMINAL_S;
# the unscaled CPU and wall times are in the report line.
REF_EVERY_S = 0.025
REF_WINDOW_S = 0.25
REF_NOMINAL_S = 0.0005
# A run ends after --seconds of op time at the reference speed, or after
# WALL_CAP times --seconds of wall time on a machine slower than that.
WALL_CAP = 1.25


def reference_kernel() -> float:
    """CPU seconds for a fixed interpreter loop of integer and float arithmetic.

    Pure Python tracks the program's speed changes best: scaled by it, the
    oracle's time per evaluation varied 2% between 5 s windows where the
    wall time varied 11% (numpy calls in the kernel tracked worse).
    """
    cos, sin, sqrt = math.cos, math.sin, math.sqrt
    t0 = time.process_time()
    s = 0
    for i in range(3000):
        s += i * i
    x = 0.3
    for _ in range(1000):
        a = sqrt(x * x + 1.0)
        x = cos(a) * 0.3 + sin(x) * 0.5 + a * 0.01
    return time.process_time() - t0


def import_program() -> float:
    """Import ``bellbound.cli`` from this checkout; returns the import time."""
    sys.path.insert(0, str(SRC))
    t0 = time.process_time()
    import bellbound.cli  # noqa: F401

    elapsed = time.process_time() - t0
    import bellbound

    if Path(bellbound.__file__).resolve().parent != (SRC / "bellbound").resolve():
        raise SystemExit(f"error: imported bellbound from {bellbound.__file__}, not {SRC}")
    sys.path.insert(0, str(BENCH_DIR))
    return elapsed


def set_up(workload: str, seed: int, workdir: str):
    """Generate and validate the inputs, then warm up: everything before the first timed op."""
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed, workdir)
    wl.setup()
    for op in wl.warmup_ops():
        wl.prepare(op)
        reason = wl.check(op, wl.execute(op))
        if reason is not None and op.valid:
            raise SystemExit(f"error: warm-up op {op.kind} failed: {reason}")
    return wl


def probe_setup(workload: str, seed: int) -> dict:
    """Median set-up and import CPU time of fresh interpreters, at the reference speed.

    Each probe reports its CPU time since the process started, then times
    the reference kernel on its own core.
    """
    setup, imports, raw = [], [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--setup-probe"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        scale = REF_NOMINAL_S / probe["kernel_s"]
        raw.append(probe["setup_s"])
        setup.append(probe["setup_s"] * scale)
        imports.append(probe["import_s"] * scale)
    return {
        "setup_s": statistics.median(setup),
        "import_s": statistics.median(imports),
        "setup_s_raw": statistics.median(raw),
    }


class Pass:
    """Timings and failures of one pass over a run of ops.

    Ops that are not ``counted`` (the workload's extra ops) are timed,
    checked and reported by kind, but stay out of the op-time statistics.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.wall: list[float] = []
        self.raw: list[float] = []  # CPU seconds
        self.kinds: list[str] = []
        self.counted: list[bool] = []
        self.refs: list[tuple[float, float]] = []  # (time, kernel seconds)
        self.failures: Counter = Counter()
        self.wrong_outputs = 0  # failures on valid inputs
        self._scaled: list[float] | None = None

    @property
    def attempted(self) -> int:
        return len(self.raw)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def main_ops(self) -> int:
        return sum(self.counted)

    def scales(self) -> list[float]:
        """Per op: REF_NOMINAL_S over the median kernel time within REF_WINDOW_S of it."""
        times = [t for t, _ in self.refs]
        out = []
        for start, dur in zip(self.starts, self.wall):
            lo = bisect.bisect_left(times, start - REF_WINDOW_S)
            hi = bisect.bisect_right(times, start + dur + REF_WINDOW_S)
            near = [k for _, k in self.refs[lo:hi]] or [self.refs[min(lo, len(times) - 1)][1]]
            out.append(REF_NOMINAL_S / statistics.median(near))
        return out

    def scaled(self) -> list[float]:
        """CPU times of all ops at the reference speed."""
        if self._scaled is None:
            self._scaled = [d * s for d, s in zip(self.raw, self.scales())]
        return self._scaled

    def durations(self, raw: bool = False) -> list[float]:
        """CPU times of the counted ops, at the reference speed unless ``raw``."""
        return [d for d, c in zip(self.raw if raw else self.scaled(), self.counted) if c]

    def ops_per_s(self, raw: bool = False) -> float:
        return self.main_ops / sum(self.durations(raw))

    def per_kind_ms(self) -> dict[str, float]:
        by_kind = defaultdict(list)
        for kind, dur in zip(self.kinds, self.scaled()):
            by_kind[kind].append(dur)
        return {k: 1e3 * sum(v) / len(v) for k, v in sorted(by_kind.items())}


def run_ops(wl, seconds: float | None = None, count: int | None = None, tracer=None) -> Pass:
    """Run ops from op 0: whole cycles until ``seconds`` of op time, or exactly ``count`` ops.

    Then the workload's extra ops run. The op time counted toward
    ``seconds`` is at the reference speed, so a seed runs the same ops
    however fast the machine is at the time. Only the program call is
    timed. Input files are written before it and outputs checked after it,
    with the tracer paused.
    """
    result = Pass()
    recent = deque(maxlen=9)
    last_ref = -1.0

    def run_one(index: int, op, counted: bool) -> float:
        nonlocal last_ref
        if time.perf_counter() - last_ref >= REF_EVERY_S:
            result.refs.append((time.perf_counter(), reference_kernel()))
            recent.append(result.refs[-1][1])
            last_ref = time.perf_counter()
        wl.prepare(op)
        span = tracer.begin_op(index) if tracer else None
        t0 = time.perf_counter()
        c0 = time.process_time()
        try:
            outcome = wl.execute(op)
            error = None
        except Exception as exc:  # counted as a failed op, the run goes on
            outcome, error = None, f"uncaught {type(exc).__name__}"
        duration = time.process_time() - c0
        wall = time.perf_counter() - t0
        if tracer:
            tracer.end_op(span)
            tracer.paused = True
        reason = error if error is not None else wl.check(op, outcome)
        if tracer:
            tracer.paused = False
        result.starts.append(t0)
        result.wall.append(wall)
        result.raw.append(duration)
        result.kinds.append(op.kind)
        result.counted.append(counted)
        if reason is not None:
            result.failures[f"{op.kind}: {reason}"] += 1
            if op.valid:
                result.wrong_outputs += 1
        return duration * REF_NOMINAL_S / statistics.median(recent)

    cycle = len(wl.cycle)
    index = 0
    op_time = 0.0
    t_start = time.perf_counter()
    while True:
        if count is not None:
            if index >= count:
                break
        elif index > 0 and index % cycle == 0 and (
            op_time >= seconds or time.perf_counter() - t_start >= WALL_CAP * seconds
        ):
            break
        op_time += run_one(index, wl.op(index), True)
        index += 1
    for op in wl.extra_ops():
        run_one(index, op, False)
        index += 1
    result.refs.append((time.perf_counter(), reference_kernel()))
    return result


def probe_defects(wl) -> dict[str, str]:
    """Each known-defect input's failure reason, or "passes" once the program handles it."""
    outcomes = {}
    for op in wl.defect_probes():
        wl.prepare(op)
        outcomes[op.kind] = wl.check(op, wl.execute(op)) or "passes"
    return outcomes


def tail(durations: list[float]) -> tuple[float, float]:
    """The op time with exactly TAIL_BEYOND samples beyond it, and its percentile.

    This is the highest percentile with at least ten samples beyond it. In
    a run of eleven ops or fewer none has ten beyond it, and the smallest
    op time is returned.
    """
    ordered = sorted(durations)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, 1)
    return ordered[rank - 1], 100.0 * rank / n


def facts() -> dict:
    import numpy

    lines = {
        path.stem: sum(1 for _ in path.open())
        for path in sorted((SRC / "bellbound").glob("*.py"))
    }
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(measured: Pass, setup_s: float) -> dict:
    durations = measured.durations()
    return {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(measured.ops_per_s(), "1/s"),
        "op_p50_ms": metric(1e3 * statistics.median(durations), "ms"),
        "op_tail_ms": metric(1e3 * tail(durations)[0], "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


# Per-function metrics: (layer.function, report calls per op, unit of the per-call time).
PER_CALL = (
    ("linalg.svd", True, "us"),
    ("linalg.hermitian_eigenvalues_4", True, "us"),
    ("model.state_from_fano", True, "us"),
    ("model.correlation_singular_values", True, "us"),
    ("model.random_state", False, "us"),
    ("chsh.chsh", True, "us"),
    ("bounds.s0_bound", True, "us"),
    ("bounds.w_bundle", False, "us"),
    ("bounds.thm3_bound", False, "us"),
    ("bounds.thm4_bound", False, "us"),
    ("construct.achieving_directions", False, "us"),
    ("construct.achieving_scenario_tstate", False, "us"),
    ("construct.thm3_achieving", False, "us"),
    ("optimize.maximize_chsh", True, "ms"),
    ("cli.main", True, None),
)


def per_layer(tracer, traced: Pass, untraced: Pass, import_s: float, cycle: int) -> tuple[dict, dict]:
    """Per-layer metrics from the traced pass; times at the reference speed.

    A function that a workload never calls reports 0 calls and 0 time.
    """
    from tracing import LAYERS
    from workloads import Audit

    ops = traced.attempted
    stats = tracer.per_name(traced.scales())
    out = {}
    for name, with_calls, unit in PER_CALL:
        entry = stats[name]
        if with_calls:
            out[f"{name}.calls"] = metric(entry["calls"] / ops, "calls/op")
        if unit is not None:
            scale = 1e6 if unit == "us" else 1e3
            per_call = scale * entry["total_s"] / entry["calls"] if entry["calls"] else 0.0
            out[f"{name}.{unit}_per_call"] = metric(per_call, unit)
    layer_self = defaultdict(float)
    for name, entry in stats.items():
        layer_self[name.split(".")[0]] += entry["self_s"]
    for layer in LAYERS:
        out[f"{layer}.self_ms_per_op"] = metric(1e3 * layer_self[layer] / ops, "ms")

    # Evaluations per call are taken over the first cycle of ops only, a
    # fixed set, so they repeat exactly at a given seed on any machine.
    calls = tracer.oracle_calls
    first = [evals for sid, evals, _ in calls if tracer.op[sid] < cycle]
    total_evals = sum(evals for _, evals, _ in calls)
    oracle_s = stats["optimize.maximize_chsh"]["total_s"]
    out["optimize.evals_per_call"] = metric(sum(first) / len(first) if first else 0.0, "count")
    out["optimize.us_per_eval"] = metric(1e6 * oracle_s / total_evals if total_evals else 0.0, "us")
    out["optimize.converged_frac"] = metric(
        sum(1 for *_, conv in calls if conv) / len(calls) if calls else 0.0, "ratio"
    )
    kind_ms = untraced.per_kind_ms()
    for kind in Audit.KINDS:
        out[f"optimize.ms_per_trial.{kind}"] = metric(kind_ms.get(kind, 0.0), "ms")
    out["cli.import_s"] = metric(import_s, "s")
    out["trace.overhead_frac"] = metric(untraced.ops_per_s() / traced.ops_per_s() - 1.0, "ratio")

    evals_by_kind = Counter()
    for sid, evals, _ in calls:
        evals_by_kind[traced.kinds[tracer.op[sid]]] += evals
    extra = {
        "ops_per_s_untraced": untraced.ops_per_s(),
        "ops_per_s_traced": traced.ops_per_s(),
        "oracle_evaluations_by_kind": dict(evals_by_kind),
        "oracle_calls": len(calls),
        "spans": len(tracer.start),
    }
    return out, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bellbound benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "bellbound" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'bellbound'} not found; run from a bellbound checkout")

    WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        if args.setup_probe:
            import_s = import_program()
            set_up(args.workload, args.seed, workdir)
            setup_s = time.process_time()
            kernel_s = statistics.median(reference_kernel() for _ in range(5))
            print(json.dumps({"setup_s": setup_s, "import_s": import_s, "kernel_s": kernel_s}))
            return 0
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: str) -> int:
    import_program()
    probe = probe_setup(args.workload, args.seed)
    wl = set_up(args.workload, args.seed, workdir)
    # Objects alive after set-up (mostly the imported modules) are left out
    # of later full collections. A process that runs one CLI command never
    # rescans them; unfrozen, a full collection here adds about 8 ms to
    # whichever op triggers it, and those ops decide the tail.
    gc.freeze()
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "facts": facts()}

    if args.trace == 0:
        measured = run_ops(wl, seconds=args.seconds)
        metrics = end_to_end(measured, probe["setup_s"])
    else:
        from tracing import Tracer

        # The same ops twice, untraced and then traced, so that the
        # difference is the tracing overhead.
        untraced = run_ops(wl, seconds=args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            measured = run_ops(wl, count=untraced.main_ops, tracer=tracer)
        finally:
            tracer.uninstall()
        metrics, extra = per_layer(tracer, measured, untraced, probe["import_s"], len(wl.cycle))
        report.update(extra)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl.gz")

    known_defects = probe_defects(wl)
    for kind, outcome in known_defects.items():
        if outcome != "passes":
            print(f"known defect: {kind}: {outcome}", file=sys.stderr)
    tail_s, percentile = tail(measured.durations())
    report.update(
        known_defects=known_defects,
        attempted=measured.attempted,
        failed=measured.failed,
        fail_frac=measured.failed / measured.attempted,
        failures=dict(measured.failures),
        wrong_outputs=measured.wrong_outputs,
        tail_percentile=percentile,
        tail_samples_beyond=TAIL_BEYOND,
        ms_per_kind=measured.per_kind_ms(),
        raw={
            "setup_s": probe["setup_s_raw"],
            "ops_per_s": measured.ops_per_s(raw=True),
            "wall_ops_per_s": measured.main_ops / sum(
                w for w, c in zip(measured.wall, measured.counted) if c
            ),
            "op_p50_ms": 1e3 * statistics.median(measured.durations(raw=True)),
            "op_tail_ms": 1e3 * tail(measured.durations(raw=True))[0],
            "reference_kernel_ms": 1e3 * statistics.median(k for _, k in measured.refs),
        },
        setup=probe,
        metrics=metrics,
    )
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": measured.wrong_outputs == 0,
                "attempted": measured.attempted,
                "failed": measured.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
