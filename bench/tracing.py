"""In-memory call tracing of bellbound's public functions, from outside.

The tracer replaces each listed function with a wrapper in every
``bellbound`` module namespace that holds it, because callers resolve the
names they imported (``bounds.svd``, ``model.singular_values``,
``optimize.maximize_chsh``) in their own module. Each call becomes a span:
name, start and end in process CPU time, parent span and the op it belongs
to. Spans stay in compact arrays until the run ends; nothing in the program
is edited.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

# (layer, function) pairs; the layer is the module that defines the function.
# Functions without a metric of their own are traced too, so that their time
# counts toward their own layer's self time and not their caller's.
TRACED = (
    ("linalg", "svd"),
    ("linalg", "singular_values"),
    ("linalg", "hermitian_eigenvalues_4"),
    ("model", "state_from_fano"),
    ("model", "state_from_density"),
    ("model", "correlation_singular_values"),
    ("model", "random_state"),
    ("model", "make_observable"),
    ("chsh", "chsh"),
    ("chsh", "chsh_signed"),
    ("chsh", "chsh_matrix_form"),
    ("bounds", "horodecki"),
    ("bounds", "w_bundle"),
    ("bounds", "s0_bound"),
    ("bounds", "s0_tilde"),
    ("bounds", "st_bound"),
    ("bounds", "st_tilde"),
    ("bounds", "cor1_bound"),
    ("bounds", "cor2_sufficient"),
    ("bounds", "cor4_bound"),
    ("bounds", "thm3_bound"),
    ("bounds", "thm4_bound"),
    ("bounds", "sgen_bound"),
    ("bounds", "j_max"),
    ("bounds", "strength_thresholds"),
    ("bounds", "compat_busch"),
    ("bounds", "compat_necessary"),
    ("bounds", "compat_full"),
    ("construct", "achieving_directions"),
    ("construct", "achieving_scenario_tstate"),
    ("construct", "thm3_achieving"),
    ("construct", "optimal_transforms"),
    ("optimize", "maximize_chsh"),
    ("optimize", "audit_bound"),
    ("cli", "main"),
)

LAYERS = ("linalg", "model", "chsh", "bounds", "construct", "optimize", "cli")

# Name of the root span the benchmark opens around each op.
OP_SPAN = "bench.op"


class Tracer:
    """Span recorder; ``install`` patches the program, ``uninstall`` restores it."""

    def __init__(self):
        self.names: list[str] = [OP_SPAN]
        self.name_of = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_index = -1
        self.paused = False
        # (span id, evaluations, converged) for every maximize_chsh call.
        self.oracle_calls: list[tuple[int, int, bool]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_index)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(sid)
        return sid

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        record_oracle = name == "optimize.maximize_chsh"
        clock = time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            sid = self._open(name_id)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                self.start[sid] = t0
                self.stack.pop()
            if record_oracle:
                self.oracle_calls.append((sid, int(result.evaluations), bool(result.converged)))
            return result

        return traced

    def begin_op(self, index: int) -> int:
        self.op_index = index
        sid = self._open(0)
        self.start[sid] = time.process_time()
        return sid

    def end_op(self, sid: int) -> None:
        self.end[sid] = time.process_time()
        self.stack.pop()

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "bellbound" or n.startswith("bellbound.")]
        for layer, fname in TRACED:
            original = getattr(sys.modules[f"bellbound.{layer}"], fname)
            wrapper = self._wrap(f"{layer}.{fname}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= dur[sid]
        return own

    def per_name(self, op_scales) -> dict[str, dict[str, float]]:
        """calls, inclusive seconds and self seconds for every traced name.

        Each span's times are multiplied by ``op_scales[op]`` of its op.
        """
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        own = self.self_times()
        for sid, name_id in enumerate(self.name_of):
            scale = op_scales[self.op[sid]]
            entry = out[self.names[name_id]]
            entry["calls"] += 1
            entry["total_s"] += scale * (self.end[sid] - self.start[sid])
            entry["self_s"] += scale * own[sid]
        return out

    def write(self, path) -> None:
        """Spans as gzip JSON lines: id, name, parent, op, start and end in CPU seconds."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for sid in range(len(self.start)):
                fh.write(
                    json.dumps(
                        [
                            sid,
                            self.names[self.name_of[sid]],
                            self.parent[sid],
                            self.op[sid],
                            self.start[sid],
                            self.end[sid],
                        ]
                    )
                    + "\n"
                )
