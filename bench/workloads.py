"""The three benchmark workloads: input generation, op execution, output checks.

Every op's inputs come from ``numpy.random.default_rng((seed, index, tag,
stream))``, so op ``i`` is the same for a given seed however fast the
program runs and however many ops a run reaches. Ops repeat a fixed cycle of kinds, so the
mix does not depend on the seed. Expected values are computed here with
``numpy.linalg`` from the generated inputs, independently of the program's
own kernels, and every mismatch is an op failure.

bellbound is imported by ``run.py`` before this module is loaded; the
program is always called through its module attributes (``cli.main``,
``optimize.audit_bound``) so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

# By module path: the package re-exports functions under some module names.
chsh_mod = importlib.import_module("bellbound.chsh")
cli = importlib.import_module("bellbound.cli")
model = importlib.import_module("bellbound.model")
optimize = importlib.import_module("bellbound.optimize")

# Seed of the warm-up ops, fixed so that set-up time does not vary with --seed.
WARMUP_SEED = 20_210_917

_PAULI = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ]
)
_ID2 = np.eye(2)
_SIGMA4 = np.concatenate([_ID2[None], _PAULI])


@dataclass
class Op:
    index: int
    kind: str
    valid: bool = True
    argv: list[str] = field(default_factory=list)
    expected_code: int = 0
    data: dict = field(default_factory=dict)
    input_text: str | None = None


@dataclass
class CliResult:
    code: int | None
    stdout: str
    stderr: str
    exception: str | None


def call_cli(argv: list[str]) -> CliResult:
    """Run ``bellbound.cli.main`` in-process with stdout and stderr captured."""
    out = io.StringIO()
    err = io.StringIO()
    exception = None
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback, had this been a process
            exception = f"{type(exc).__name__}: {exc}"
    return CliResult(code, out.getvalue(), err.getvalue(), exception)


# ---------------------------------------------------------------------------
# Reference computations (numpy only)


def rho_from_fano(a, b, t) -> np.ndarray:
    theta = np.empty((4, 4))
    theta[0, 0] = 1.0
    theta[0, 1:] = b
    theta[1:, 0] = a
    theta[1:, 1:] = t
    return 0.25 * np.einsum("mn,mij,nkl->ikjl", theta, _SIGMA4, _SIGMA4).reshape(4, 4)


def fano_from_rho(rho: np.ndarray):
    r = rho.reshape(2, 2, 2, 2)
    theta = np.einsum("ikjl,mji,nlk->mn", r, _SIGMA4, _SIGMA4).real
    return theta[1:, 0].copy(), theta[0, 1:].copy(), theta[1:, 1:].copy()


def min_eigenvalue(a, b, t) -> float:
    return float(np.linalg.eigvalsh(rho_from_fano(a, b, t))[0])


def t_singular_values(t) -> np.ndarray:
    return np.linalg.svd(np.asarray(t, dtype=float), compute_uv=False)


def s0_reference(svals, q, theta: float, phi: float) -> float:
    """s1(T) s1(W) + s2(T) s2(W), W built from the reference directions."""
    sx, sxp, sy, syp = q
    x = np.array([math.cos(theta / 2), math.sin(theta / 2)])
    xp = np.array([math.cos(theta / 2), -math.sin(theta / 2)])
    y = np.array([math.cos(phi / 2), math.sin(phi / 2)])
    yp = np.array([math.cos(phi / 2), -math.sin(phi / 2)])
    w = (
        sx * sy * np.outer(x, y)
        + sx * syp * np.outer(x, yp)
        + sxp * sy * np.outer(xp, y)
        - sxp * syp * np.outer(xp, yp)
    )
    sw = np.linalg.svd(w, compute_uv=False)
    return float(svals[0] * sw[0] + svals[1] * sw[1])


def jmax_reference(q) -> float:
    """Largest bias-only term over the sixteen extremal sign patterns."""
    rooms = [1.0 - s for s in q]
    best = 0.0
    for mask in range(16):
        bx, bxp, by, byp = (r if mask >> k & 1 else -r for k, r in enumerate(rooms))
        best = max(best, abs(bx * by + bx * byp + bxp * by - bxp * byp))
    return best


def sgen_reference(a, b, t, u4s) -> float:
    """sum_j s_j(Theta) s_j(N): an upper bound on this scenario's CHSH value."""
    theta = np.empty((4, 4))
    theta[0, 0] = 1.0
    theta[0, 1:] = b
    theta[1:, 0] = a
    theta[1:, 1:] = t
    ux, uxp, uy, uyp = u4s
    n = np.outer(ux, uy) + np.outer(ux, uyp) + np.outer(uxp, uy) - np.outer(uxp, uyp)
    return float(np.linalg.svd(theta, compute_uv=False) @ np.linalg.svd(n, compute_uv=False))


def chsh_reference(a, b, t, u4s) -> float:
    theta = np.empty((4, 4))
    theta[0, 0] = 1.0
    theta[0, 1:] = b
    theta[1:, 0] = a
    theta[1:, 1:] = t
    ux, uxp, uy, uyp = u4s
    return abs(float(ux @ theta @ uy + ux @ theta @ uyp + uxp @ theta @ uy - uxp @ theta @ uyp))


# ---------------------------------------------------------------------------
# Input generation


def _rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def _tetrahedron(rng, margin: float = 0.0) -> np.ndarray:
    while True:
        t = rng.uniform(-1.0, 1.0, 3)
        lams = 1.0 + np.array(
            [-t[0] - t[1] - t[2], -t[0] + t[1] + t[2], t[0] - t[1] + t[2], t[0] + t[1] - t[2]]
        )
        if np.all(lams >= margin):
            return t


def _unit(rng) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _pair(rng) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors kept off parallel and antipodal, so angles are well-conditioned."""
    u = _unit(rng)
    while True:
        v = _unit(rng)
        if abs(float(u @ v)) <= 0.95:
            return u, v


STATE_KINDS = ("singlet", "werner", "bell_diagonal", "tstate", "general", "product", "pure")
TSTATE_KINDS = ("singlet", "werner", "bell_diagonal", "tstate")
EQUAL_SV_KINDS = ("singlet", "werner", "rotated_werner")


def make_state(rng, kind: str):
    """(state JSON, a, b, t) for one of the input state kinds; a, b, t are exact."""
    zero = np.zeros(3)
    if kind == "singlet":
        return {"kind": "singlet"}, zero, zero, -np.eye(3)
    if kind == "werner":
        w = float(rng.uniform(0.2, 1.0))
        return {"kind": "werner", "w": w}, zero, zero, -w * np.eye(3)
    if kind == "bell_diagonal":
        t = _tetrahedron(rng, margin=0.05)
        return {"kind": "bell_diagonal", "t": t.tolist()}, zero, zero, np.diag(t)
    if kind == "tstate":
        t = _rotation(rng) @ np.diag(_tetrahedron(rng, margin=0.05)) @ _rotation(rng).T
        a, b = zero, zero
    elif kind == "rotated_werner":
        w = float(rng.uniform(0.3, 1.0))
        t = _rotation(rng) @ (-w * np.eye(3)) @ _rotation(rng).T
        a, b = zero, zero
    elif kind == "general":
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = g @ g.conj().T
        a, b, t = fano_from_rho(rho / np.trace(rho).real)
    elif kind == "product":
        a = _unit(rng) * float(rng.uniform(0.1, 0.95))
        b = _unit(rng) * float(rng.uniform(0.1, 0.95))
        t = np.outer(a, b)
    elif kind == "pure":
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        a, b, t = fano_from_rho(np.outer(psi, psi.conj()))
    else:
        raise ValueError(kind)
    return {"kind": "fano", "a": a.tolist(), "b": b.tolist(), "t": t.tolist()}, a, b, t


def make_strengths(rng, pattern: str) -> list[float]:
    sa, sb = (float(v) for v in rng.uniform(0.2, 1.0, 2))
    if pattern == "equal":
        return [sa, sa, sb, sb]
    while True:
        sx, sxp, sy, syp = (float(v) for v in rng.uniform(0.2, 1.0, 4))
        if abs(sx - sxp) > 0.05 and abs(sy - syp) > 0.05:
            break
    if pattern == "equal-a":
        return [sa, sa, sy, syp]
    if pattern == "equal-b":
        return [sx, sxp, sb, sb]
    return [sx, sxp, sy, syp]


def make_observable_json(rng, strength: float, direction, biased: bool) -> dict:
    room = 1.0 - strength
    bias = float(rng.uniform(-0.9 * room, 0.9 * room)) if biased else 0.0
    return {"bias": bias, "strength": strength, "direction": direction.tolist()}


def u4(obs: dict) -> np.ndarray:
    d = np.asarray(obs["direction"], dtype=float)
    return np.concatenate(([obs["bias"]], obs["strength"] * d / np.linalg.norm(d)))


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """A deterministic op stream in fixed cycles of kinds."""

    name = ""
    cycle: tuple[str, ...] = ()
    tag = 0
    warmup_slots: tuple[int, ...] = ()

    def __init__(self, seed: int, workdir: str):
        self.seed = int(seed)
        self.workdir = workdir
        self.ops: dict[int, Op] = {}

    def rng(self, index: int, seed: int | None = None, stream: int = 0) -> np.random.Generator:
        seed = self.seed if seed is None else seed
        return np.random.default_rng((seed, index, self.tag, stream))

    def setup(self) -> None:
        # The first two cycles are made here; later ops are made as the run
        # reaches them, outside the timed calls, and not kept.
        for i in range(2 * len(self.cycle)):
            self.ops[i] = self._make(i)

    def op(self, index: int) -> Op:
        return self.ops[index] if index in self.ops else self._make(index)

    def _make(self, index: int) -> Op:
        return self.make(index, self.rng(index), self.cycle[index % len(self.cycle)])

    def extra_ops(self) -> list[Op]:
        """Ops run once after the timed cycles, outside the op-time statistics."""
        return []

    def defect_probes(self) -> list[Op]:
        """Inputs of known program defects, run once per run outside ``attempted`` and ``failed``."""
        return []

    def warmup_ops(self) -> list[Op]:
        """Ops at ``warmup_slots`` of the first cycle, drawn from WARMUP_SEED."""
        return [self.make(i, self.rng(i, WARMUP_SEED), self.cycle[i]) for i in self.warmup_slots]

    def input_path(self) -> str:
        return os.path.join(self.workdir, f"{self.name}-input.json")

    def prepare(self, op: Op) -> None:
        """Write the op's input file; every op reuses one path, rewritten before it runs."""
        if op.input_text is not None:
            with open(self.input_path(), "w") as fh:
                fh.write(op.input_text)

    def make(self, index: int, rng, kind: str) -> Op:
        raise NotImplementedError

    def execute(self, op: Op):
        return call_cli(op.argv)

    def check(self, op: Op, result) -> str | None:
        """None when the op's outputs are right, else the reason it failed."""
        if result.exception is not None:
            return f"uncaught {result.exception.split(':')[0]}"
        if result.code != op.expected_code:
            return f"exit {result.code}, expected {op.expected_code}"
        if not op.valid:
            return None if "Traceback" not in result.stderr else "traceback on stderr"
        return self.check_output(op, result)

    def check_output(self, op: Op, result) -> str | None:
        raise NotImplementedError


def _close(got, want, tol) -> bool:
    return got is not None and math.isfinite(got) and abs(got - want) <= tol


class Requests(Workload):
    """In-process ``bound``, ``achieve`` and ``compat`` calls, each on a fresh state."""

    name = "requests"
    tag = 1
    # 40 slots: 23 bound, 12 achieve, 4 compat, 1 invalid input.
    cycle = (
        ("bound",) * 23 + ("achieve",) * 12 + ("compat",) * 4 + ("invalid",)
    )
    ACHIEVE_CRITERIA = ("thm1", "thm2", "cor1", "cor4", "thm3", "thm4")
    BOUND_VARIANTS = ("angles", "no-angles", "scenario")
    PATTERNS = ("equal", "equal-a", "equal-b", "unequal")
    INVALID = (
        ("unknown-state-kind", 2),
        ("unphysical-state", 3),
        ("angle-out-of-range", 2),
        ("missing-strengths", 2),
    )
    # Malformed inputs that end in a traceback at the seed code (ROADMAP
    # item 5). They are not in the timed cycle, where their failures would
    # make ``failed`` depend on how many cycles a run reaches; every run
    # checks them once and reports the outcome beside the metrics.
    KNOWN_DEFECTS = (
        ("werner-w-not-numeric", 2),
        ("scalar-strengths", 2),
    )

    warmup_slots = (*range(8), 23, 24, 25, 26, 27, 28, 35)

    def make(self, index, rng, kind):
        slot = index % len(self.cycle)
        rnd = index // len(self.cycle)
        if kind == "bound":
            return self._bound(index, rng, slot + rnd)
        if kind == "achieve":
            return self._achieve(index, rng, slot - 23, rnd)
        if kind == "compat":
            return self._compat(index, rng, slot)
        return self._invalid(index, rng, *self.INVALID[rnd % len(self.INVALID)])

    def _doc_state(self, rng, kind):
        doc, a, b, t = make_state(rng, kind)
        if min_eigenvalue(a, b, t) < -1e-12:
            raise RuntimeError(f"generated an unphysical {kind} state")
        return doc, {"a": a, "b": b, "t": t, "svals": t_singular_values(t)}

    def _bound(self, index, rng, k):
        kind = STATE_KINDS[k % len(STATE_KINDS)]
        variant = self.BOUND_VARIANTS[k % len(self.BOUND_VARIANTS)]
        pattern = self.PATTERNS[k % len(self.PATTERNS)]
        state_doc, data = self._doc_state(rng, kind)
        q = make_strengths(rng, pattern)
        doc = {"state": state_doc}
        if variant == "scenario":
            x, xp = _pair(rng)
            y, yp = _pair(rng)
            biased = bool(k % 2)
            obs = {
                name: make_observable_json(rng, s, d, biased)
                for name, s, d in zip(("x", "xp", "y", "yp"), q, (x, xp, y, yp))
            }
            doc["scenario"] = obs
            data["angles"] = (
                math.acos(float(np.clip(x @ xp, -1.0, 1.0))),
                math.acos(float(np.clip(y @ yp, -1.0, 1.0))),
            )
        else:
            doc["strengths"] = q
            if variant == "angles":
                theta, phi = (float(v) for v in rng.uniform(0.1, math.pi - 0.1, 2))
                doc["angles"] = {"theta": theta, "phi": phi}
                data["angles"] = (theta, phi)
        data.update(q=q, tstate=kind in TSTATE_KINDS)
        return Op(
            index,
            "bound",
            argv=["bound", "--input", self.input_path()],
            data=data,
            input_text=json.dumps(doc),
        )

    def _achieve(self, index, rng, slot, rnd):
        criterion = self.ACHIEVE_CRITERIA[slot % len(self.ACHIEVE_CRITERIA)]
        k = slot // len(self.ACHIEVE_CRITERIA) + 2 * rnd
        if criterion in ("thm2", "cor4"):
            kinds = TSTATE_KINDS
        elif criterion == "thm4":
            kinds = EQUAL_SV_KINDS
        else:
            kinds = STATE_KINDS
        state_doc, data = self._doc_state(rng, kinds[k % len(kinds)])
        pattern = {"cor1": "equal", "cor4": "equal", "thm3": "equal-a"}.get(criterion, "unequal")
        doc = {"state": state_doc, "strengths": make_strengths(rng, pattern)}
        if criterion in ("thm1", "thm2"):
            theta, phi = (float(v) for v in rng.uniform(0.1, math.pi - 0.1, 2))
            doc["angles"] = {"theta": theta, "phi": phi}
        return Op(
            index,
            "achieve",
            argv=["achieve", "--input", self.input_path(), "--criterion", criterion],
            data=data,
            input_text=json.dumps(doc),
        )

    def _compat(self, index, rng, slot):
        x, xp = _pair(rng)
        sx, sxp = (float(v) for v in rng.uniform(0.1, 1.0, 2))
        biased = slot % 2 == 1
        doc = {
            "x": make_observable_json(rng, sx, x, biased),
            "xp": make_observable_json(rng, sxp, xp, biased),
        }
        data = {"angle": math.acos(float(np.clip(x @ xp, -1.0, 1.0)))}
        return Op(
            index,
            "compat",
            argv=["compat", "--input", self.input_path()],
            data=data,
            input_text=json.dumps(doc),
        )

    def defect_probes(self):
        return [
            self._invalid(k, self.rng(k, stream=1), name, code)
            for k, (name, code) in enumerate(self.KNOWN_DEFECTS)
        ]

    def _invalid(self, index, rng, name, code):
        q = make_strengths(rng, "unequal")
        doc = {"state": {"kind": "singlet"}, "strengths": q}
        if name == "werner-w-not-numeric":
            doc["state"] = {"kind": "werner", "w": "not-a-number"}
        elif name == "scalar-strengths":
            doc["strengths"] = q[0]
        elif name == "unknown-state-kind":
            doc["state"] = {"kind": "ghz"}
        elif name == "unphysical-state":
            # Diagonal correlations outside the Bell tetrahedron.
            while True:
                t = rng.uniform(-1.0, 1.0, 3)
                if min_eigenvalue(np.zeros(3), np.zeros(3), np.diag(t)) < -0.05:
                    break
            doc["state"] = {"kind": "bell_diagonal", "t": t.tolist()}
        elif name == "angle-out-of-range":
            doc["angles"] = {"theta": float(rng.uniform(3.5, 6.0)), "phi": 1.0}
        elif name == "missing-strengths":
            del doc["strengths"]
        return Op(
            index,
            f"invalid:{name}",
            valid=False,
            argv=["bound", "--input", self.input_path()],
            expected_code=code,
            input_text=json.dumps(doc),
        )

    def check_output(self, op, result):
        out = json.loads(result.stdout)
        if op.kind == "bound":
            return self._check_bound(op, out)
        if op.kind == "achieve":
            return self._check_achieve(op, out)
        return self._check_compat(op, out)

    def _check_bound(self, op, out):
        d = op.data
        svals = d["svals"]
        got = out["correlation_singular_values"]
        if any(not _close(g, w, 1e-9) for g, w in zip(got, svals)):
            return "correlation singular values differ from numpy"
        entries = {e["criterion_id"]: e for e in out["criteria"] if e.get("applicable")}
        thm1 = entries.get("thm1")
        if thm1 is None:
            if "angles" in d:
                return "thm1 missing although angles were given"
            return None
        angles = d.get("angles")
        if angles is None:
            used = thm1["angles_used"]
            angles = (used["theta"], used["phi"])
        s0 = s0_reference(svals, d["q"], *angles)
        if not _close(thm1["value"], s0, 1e-9):
            return f"thm1 {thm1['value']!r} differs from s1 s1(W) + s2 s2(W) = {s0!r}"
        if d["tstate"]:
            thm2 = entries.get("thm2")
            want = s0 + jmax_reference(d["q"])
            if thm2 is None or not _close(thm2["value"], want, 1e-9):
                return f"thm2 differs from the thm1 value plus the bias maximum ({want!r})"
        return None

    def _check_achieve(self, op, out):
        d = op.data
        state = model.state_from_fano(d["a"], d["b"], d["t"])
        scenario = model.scenario_from_dict(out["scenario"])
        value = chsh_mod.chsh(scenario, state).canonical
        if not _close(value, out["target_bound"], 1e-9):
            return f"emitted scenario gives CHSH {value!r}, target {out['target_bound']!r}"
        return None

    def _check_compat(self, op, out):
        if not _close(out["relative_angle"], op.data["angle"], 1e-9):
            return "relative angle differs from numpy"
        if out["full"] and not out["necessary"]:
            return "compatible by the full condition but not by the necessary one"
        return None


class Sweep(Workload):
    """``scan`` commands with fixed row counts, mostly ``angle-sweep``."""

    name = "sweep"
    tag = 2
    STEPS = 300
    # A dozen states per seed: the cost of a 300-row sweep depends on how
    # fast the state's SVD converges, and with four states that set most of
    # the run-to-run spread.
    N_STATES = 12
    cycle = ("angle-sweep",) * 6 + ("strength-sweep", "werner-sweep")
    warmup_slots = (0, 6, 7)

    def setup(self):
        # The seeded states that every angle-sweep reuses.
        rng = np.random.default_rng((self.seed, 2**31 - 1, self.tag))
        kinds = ("general", "tstate", "pure", "bell_diagonal")
        self.states = [make_state(rng, kinds[k % len(kinds)]) for k in range(self.N_STATES)]
        for doc, a, b, t in self.states:
            if min_eigenvalue(a, b, t) < -1e-12:
                raise RuntimeError("generated an unphysical state")
        super().setup()

    def make(self, index, rng, kind):
        steps = self.STEPS
        if kind == "werner-sweep":
            start, stop = float(rng.uniform(-1.0 / 3.0, 0.0)), float(rng.uniform(0.8, 1.0))
            argv = ["scan", "--family", kind]
            data = {}
            text = None
        elif kind == "strength-sweep":
            while True:
                t = _rotation(rng) @ np.diag(_tetrahedron(rng, margin=0.02)) @ _rotation(rng).T
                svals = t_singular_values(t)
                if math.hypot(svals[0], svals[1]) >= 1.1:
                    break
            start, stop = float(rng.uniform(0.0, 0.2)), float(rng.uniform(0.9, 1.0))
            doc = {
                "state": {"kind": "fano", "a": [0.0] * 3, "b": [0.0] * 3, "t": t.tolist()},
                "strengths": [1.0, 1.0, 1.0, 1.0],
            }
            argv = ["scan", "--family", kind, "--input", self.input_path()]
            data = {"svals": svals}
            text = json.dumps(doc)
        else:
            doc, a, b, t = self.states[(index // len(self.cycle) + index) % self.N_STATES]
            q = make_strengths(rng, "unequal" if index % 2 else "equal-a")
            start, stop = float(rng.uniform(0.0, 0.25)), float(rng.uniform(math.pi - 0.25, math.pi))
            argv = ["scan", "--family", kind, "--input", self.input_path()]
            data = {"svals": t_singular_values(t), "q": q}
            text = json.dumps({"state": doc, "strengths": q})
        argv += ["--start", repr(start), "--stop", repr(stop), "--steps", str(steps)]
        data.update(start=start, stop=stop, steps=steps)
        return Op(index, kind, argv=argv, data=data, input_text=text)

    def check_output(self, op, result):
        d = op.data
        rows = list(csv.reader(io.StringIO(result.stdout)))[1:]
        if len(rows) != d["steps"]:
            return f"{len(rows)} rows, expected {d['steps']}"
        span = d["stop"] - d["start"]
        xs = [d["start"] + span * k / (d["steps"] - 1) for k in range(d["steps"])]
        if op.kind == "angle-sweep":
            for x, row in zip(xs, rows):
                want = s0_reference(d["svals"], d["q"], x, x)
                if not _close(float(row[1]), want, 1e-9) or (row[2] == "True") != (want > 2.0):
                    return f"angle-sweep row at {x!r} differs from numpy ({row[1]} vs {want!r})"
            return None
        if op.kind == "werner-sweep":
            for x, row in zip(xs, rows):
                if not _close(float(row[1]), 2.0 * math.sqrt(2.0) * abs(x), 1e-12):
                    return "werner-sweep row differs from 2 sqrt(2) |w|"
            summary = json.loads(result.stderr.strip().splitlines()[-1])
            if not _close(summary["violation_onset"], 1.0 / math.sqrt(2.0), 1e-8):
                return "werner violation onset differs from 1/sqrt(2)"
            return None
        radius = math.hypot(d["svals"][0], d["svals"][1])
        for x, row in zip(xs, rows):
            if not _close(float(row[1]), 2.0 * x * x * radius, 1e-9):
                return "strength-sweep unbiased row differs from 2 s^2 r"
        summary = json.loads(result.stderr.strip().splitlines()[-1])
        if not _close(summary["unbiased_crossing"], 1.0 / math.sqrt(radius), 1e-8):
            return "bisected unbiased crossing differs from 1/sqrt(r)"
        if not _close(summary["biased_crossing"], 2.0 / (1.0 + radius), 1e-8):
            return "bisected biased crossing differs from 2/(1 + r)"
        return None


class Audit(Workload):
    """Sequential ``audit_bound`` trials plus free-extremal oracle calls on general states."""

    name = "audit"
    tag = 3
    CRITERIA = ("thm1", "thm2", "thm3", "thm4", "horodecki-upper", "zero-strength")
    KINDS = CRITERIA + ("extremal-general",)
    cycle = CRITERIA
    warmup_slots = (3,)
    # A few extremal-general calls per run, after the trials. Each costs 20k
    # to 190k evaluations at one restart, depending on the state, and they
    # are the slowest ops, so among the trials they would decide the tail
    # and most of the run-to-run spread of every op-time statistic.
    EXTREMAL_CALLS = 3
    EXTREMAL_RESTARTS = 1

    def extra_ops(self):
        kind = "extremal-general"
        return [self.make(k, self.rng(k, stream=1), kind) for k in range(self.EXTREMAL_CALLS)]

    def make(self, index, rng, kind):
        if kind in self.CRITERIA:
            seed = int(rng.integers(0, 2**31))
            return Op(index, kind, data={"seed": seed})
        _, a, b, t = make_state(rng, "general")
        if min_eigenvalue(a, b, t) < -1e-12:
            raise RuntimeError("generated an unphysical state")
        q = [float(v) for v in rng.uniform(0.1, 0.9, 4)]
        data = {"a": a, "b": b, "t": t, "q": q, "seed": int(rng.integers(0, 2**31))}
        return Op(index, kind, data=data)

    def execute(self, op):
        d = op.data
        if op.kind in self.CRITERIA:
            return optimize.audit_bound(op.kind, trials=1, seed=d["seed"])
        spec = optimize.OptimizeSpec(
            state=model.state_from_fano(d["a"], d["b"], d["t"]),
            strengths=model.StrengthQuad(*d["q"]),
            biases="free-extremal",
            restarts=self.EXTREMAL_RESTARTS,
            seed=d["seed"],
        )
        return optimize.maximize_chsh(spec)

    def check(self, op, result):
        if op.kind in self.CRITERIA:
            row = result.rows[0]
            if row.oracle - row.bound > result.overshoot_tol:
                return f"oracle exceeds the bound by {row.oracle - row.bound:.3e}"
            if result.tightness_claimed and row.gap > result.undershoot_tol:
                return f"oracle falls short of the tight bound by {row.gap:.3e}"
            if not result.passed:
                return "audit gate failed"
            return None
        d = op.data
        u4s = [u4(o.to_dict()) for o in result.best_scenario.observables()]
        for obs, s in zip(result.best_scenario.observables(), d["q"]):
            if abs(abs(obs.bias) - (1.0 - s)) > 1e-12:
                return "free-extremal bias is not at |bias| = 1 - strength"
        value = chsh_reference(d["a"], d["b"], d["t"], u4s)
        if not _close(result.best_value, value, 1e-9):
            return "oracle value differs from the CHSH value of its scenario"
        if result.best_value > sgen_reference(d["a"], d["b"], d["t"], u4s) + 1e-9:
            return "oracle value exceeds sum_j s_j(Theta) s_j(N)"
        svals = t_singular_values(d["t"])
        if result.best_value > max(2.0, 2.0 * math.hypot(svals[0], svals[1])) + 1e-9:
            return "oracle value exceeds max(2, horodecki)"
        return None


WORKLOADS = {cls.name: cls for cls in (Requests, Sweep, Audit)}
