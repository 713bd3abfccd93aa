"""Seeded audits of the closed-form bounds against the numerical oracle.

Each audit criterion samples trials in its bound's domain and compares
the closed form with the oracle's value on the same case: the search of
``oracle.maximize_chsh``, warm-started from the criterion's construction
where it has one, or an exact value (sgen, jmax). An overshoot of the
bound is a hard failure. This module joins the two sides: it imports
``bounds`` and ``construct`` as well as ``oracle``, while ``oracle``
imports neither.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .bounds import (
    cor1_bound,
    cor4_bound,
    horodecki,
    j_max,
    s0_bound,
    sgen_bound,
    st_bound,
    thm3_bound,
    thm4_branch,
    thm4_bound,
)
from .chsh import chsh_signed
from .construct import ACHIEVABLE, achieve
from .errors import InternalConsistencyError, InvalidInputError
from .model import (
    Scenario,
    StrengthQuad,
    check_count,
    correlation_singular_values,
    random_observable,
    random_rotation,
    random_state,
    state_from_fano,
)

# The audits keep this module's name because ``bench/`` reaches them, and the
# oracle names they call, as ``optimize.*``.
from .oracle import OptimizeSpec, exhaustive_bias_max, maximize_chsh

# Draw limits of the audit samplers that reject draws; running out is a
# sampler bug, not a pass.
_THM3_DRAWS = 500
_THM4_DRAWS = 1000


@dataclass(frozen=True)
class AuditRow:
    """One audit trial.

    ``evaluations`` and ``converged`` come from the oracle's search; they
    are 0 and True where the oracle value is exact (sgen, jmax).
    """

    trial: int
    bound: float
    oracle: float
    gap: float
    evaluations: int
    converged: bool


@dataclass(frozen=True)
class AuditReport:
    criterion_id: str
    trials: int
    seed: int
    overshoot_tol: float
    undershoot_tol: float
    tightness_claimed: bool
    rows: tuple[AuditRow, ...]
    max_overshoot: float = field(init=False)
    max_undershoot: float = field(init=False)
    worst_overshoot_trial: int | None = field(init=False)
    worst_undershoot_trial: int | None = field(init=False)
    failed_trials: tuple[int, ...] = field(init=False)
    passed: bool = field(init=False)

    def __post_init__(self):
        # The first trial with the largest oracle - bound, and with the largest gap.
        worst_over = max(self.rows, key=lambda r: r.oracle - r.bound, default=None)
        worst_under = max(self.rows, key=lambda r: r.gap, default=None)
        overshoot = 0.0 if worst_over is None else worst_over.oracle - worst_over.bound
        undershoot = 0.0 if worst_under is None else worst_under.gap
        object.__setattr__(self, "worst_overshoot_trial", None if worst_over is None else worst_over.trial)
        object.__setattr__(self, "worst_undershoot_trial", None if worst_under is None else worst_under.trial)
        failed = tuple(
            r.trial
            for r in self.rows
            if r.oracle - r.bound > self.overshoot_tol
            or (self.tightness_claimed and r.gap > self.undershoot_tol)
        )
        object.__setattr__(self, "max_overshoot", max(0.0, overshoot))
        object.__setattr__(self, "max_undershoot", max(0.0, undershoot))
        object.__setattr__(self, "failed_trials", failed)
        object.__setattr__(self, "passed", not failed)


def _opt_seed(seed: int, trial: int) -> int:
    return (int(seed) * 1_000_003 + trial * 7_919 + 13) % (2**63)


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng((int(seed), int(trial), 0xB311))


# State kinds the soundness audits cycle through.
_KINDS = ("tstate", "general", "pure")


def sample_thm1_trial(seed: int, trial: int, kind: str | None = None):
    # By default even trials draw T-states and odd trials general states.
    rng = _trial_rng(seed, trial)
    state = random_state(rng, kind or ("tstate" if trial % 2 == 0 else "general"))
    q = StrengthQuad(*rng.uniform(0.0, 1.0, 4))
    theta, phi = (float(v) for v in rng.uniform(0.0, math.pi, 2))
    return state, q, theta, phi


def _trial_fixed_angles(criterion: str, seed: int, trial: int):
    state, q, theta, phi = sample_thm1_trial(seed, trial, "tstate" if criterion == "thm2" else None)
    bound = (s0_bound if criterion == "thm1" else st_bound)(state, q, theta, phi).value
    return bound, (state, q, (theta, phi))


def sample_thm3_trial(seed: int, trial: int):
    # Correlations and strengths are kept away from the degenerate corners
    # (tiny s2, nearly equal B strengths) so the optimal angles are
    # well-conditioned and the oracle's angle estimates are meaningful.
    rng = _trial_rng(seed, trial)
    kind = "tstate" if trial % 2 == 0 else "pure"
    for _ in range(_THM3_DRAWS):
        state = random_state(rng, kind)
        s1, s2, _ = correlation_singular_values(state)
        if s1 >= 0.5 and s2 >= 0.3:
            break
    else:
        raise InternalConsistencyError(
            f"thm3 sampler found no state with s1 >= 0.5 and s2 >= 0.3 in {_THM3_DRAWS} draws "
            f"(seed {seed}, trial {trial})"
        )
    s_a = float(rng.uniform(0.5, 1.0))
    sy = float(rng.uniform(0.6, 1.0))
    syp = float(rng.uniform(0.3, sy - 0.25))
    return state, s_a, sy, syp


def _trial_thm3(seed: int, trial: int):
    state, s_a, sy, syp = sample_thm3_trial(seed, trial)
    q = StrengthQuad(s_a, s_a, sy, syp)
    return thm3_bound(state, q).value, (state, q, None)


def sample_thm4_trial(seed: int, trial: int):
    # Rotated Werner states (equal correlation singular values). Even
    # trials aim at the interior-angle branch, odd trials at the
    # extremal-angle branch, both kept clear of the branch boundary.
    rng = _trial_rng(seed, trial)
    w = float(rng.uniform(0.55, 1.0))
    left = random_rotation(rng)
    right = random_rotation(rng)
    state = state_from_fano(np.zeros(3), np.zeros(3), left @ (-w * np.eye(3)) @ right.T)
    for _ in range(_THM4_DRAWS):
        if trial % 2 == 0:
            sx, sxp, sy, syp = (float(v) for v in rng.uniform(0.45, 1.0, 4))
            if abs(sx - sxp) < 0.12 or abs(sy - syp) < 0.12:
                continue
        else:
            sx = float(rng.uniform(0.75, 1.0))
            sxp = float(rng.uniform(0.05, 0.25))
            sy = float(rng.uniform(0.75, 1.0))
            syp = float(rng.uniform(0.05, 0.25))
        q = StrengthQuad(sx, sxp, sy, syp)
        first, a, b, c = thm4_branch(q)
        ratio = abs(a * b) / (c * c) if c > 0.0 else math.inf
        if first and ratio <= 0.8:
            return state, q
        if not first and ratio >= 1.3:
            return state, q
    raise InternalConsistencyError(
        f"thm4 sampler found no strengths clear of the branch boundary in {_THM4_DRAWS} draws "
        f"(seed {seed}, trial {trial})"
    )


def _trial_thm4(seed: int, trial: int):
    state, q = sample_thm4_trial(seed, trial)
    return thm4_bound(state, q).value, (state, q, None)


def _trial_equal_strengths(criterion: str, seed: int, trial: int):
    # The bound is the corollary's closed form; the construction's target (thm1
    # or thm2 at the optimal angles) equals it only up to rounding.
    rng = _trial_rng(seed, trial)
    state = random_state(rng, "tstate" if criterion == "cor4" or trial % 2 == 0 else "general")
    s_a, s_b = (float(v) for v in rng.uniform(0.0, 1.0, 2))
    bound = (cor1_bound if criterion == "cor1" else cor4_bound)(state, s_a, s_b).value
    return bound, (state, StrengthQuad(s_a, s_a, s_b, s_b), None)


def _trial_sgen(seed: int, trial: int):
    rng = _trial_rng(seed, trial)
    state = random_state(rng, _KINDS[trial % 3])
    scenario = Scenario(*(random_observable(rng) for _ in range(4)))
    bound = sgen_bound(scenario, state).value
    # The bound is scenario-specific, so the matching "oracle" is the
    # exact CHSH value of that very scenario.
    return bound, abs(chsh_signed(scenario, state))


def _trial_horodecki_upper(seed: int, trial: int):
    rng = _trial_rng(seed, trial)
    state = random_state(rng, _KINDS[trial % 3])
    q = StrengthQuad(*rng.uniform(0.0, 1.0, 4))
    return max(2.0, horodecki(state)), (state, q, None)


def _trial_jmax(seed: int, trial: int):
    rng = _trial_rng(seed, trial)
    q = StrengthQuad(*rng.uniform(0.0, 1.0, 4))
    return j_max(q), exhaustive_bias_max(q)


def _trial_zero_strength(seed: int, trial: int):
    rng = _trial_rng(seed, trial)
    state = random_state(rng, _KINDS[trial % 3])
    sx, sxp, sy = (float(v) for v in rng.uniform(0.0, 1.0, 3))
    return 2.0, (state, StrengthQuad(sx, sxp, sy, 0.0), None)


@dataclass(frozen=True)
class _AuditCriterion:
    """One audit: its trial, the oracle's bias mode, its claim and tolerances.

    ``trial_fn(seed, trial)`` returns ``(bound, oracle)``: the exact oracle
    value where ``oracle_biases`` is None (sgen, jmax), otherwise the case
    that ``_audit_one`` searches, ``(state, strengths, fixed angles or None)``.
    """

    trial_fn: object
    oracle_biases: str | None
    tightness_claimed: bool
    overshoot_tol: float = 1e-9
    undershoot_tol: float = 1e-3
    restarts: int = 6


# The oracle searches with zero biases for the unbiased bounds, extremal
# ones for the biased T-state forms and continuous ones for soundness.
_AUDIT_REGISTRY: dict[str, _AuditCriterion] = {
    "thm1": _AuditCriterion(partial(_trial_fixed_angles, "thm1"), "fixed-zero", tightness_claimed=True),
    "thm2": _AuditCriterion(partial(_trial_fixed_angles, "thm2"), "free-extremal", tightness_claimed=True),
    "thm3": _AuditCriterion(_trial_thm3, "fixed-zero", tightness_claimed=True, restarts=8),
    "thm4": _AuditCriterion(_trial_thm4, "fixed-zero", tightness_claimed=True, restarts=8),
    "cor1": _AuditCriterion(partial(_trial_equal_strengths, "cor1"), "fixed-zero", tightness_claimed=True),
    "cor4": _AuditCriterion(partial(_trial_equal_strengths, "cor4"), "free-extremal", tightness_claimed=True),
    "sgen": _AuditCriterion(_trial_sgen, None, tightness_claimed=False),
    "horodecki-upper": _AuditCriterion(_trial_horodecki_upper, "free-continuous", tightness_claimed=False),
    "jmax": _AuditCriterion(_trial_jmax, None, tightness_claimed=True, overshoot_tol=1e-12, undershoot_tol=1e-12),
    "zero-strength": _AuditCriterion(
        _trial_zero_strength, "free-continuous", tightness_claimed=False, overshoot_tol=1e-6
    ),
}

AUDIT_CRITERIA = tuple(_AUDIT_REGISTRY)

# Most trials one audit runs; its job list is built in memory at once.
_MAX_TRIALS = 10**6
# Most random starts per trial: a restart costs about 2 ms, so this bounds a
# trial's search at tens of seconds.
_MAX_RESTARTS = 10**4


def _audit_one(args) -> AuditRow:
    criterion_id, seed, trial, restarts = args
    cfg = _AUDIT_REGISTRY[criterion_id]
    bound, oracle = cfg.trial_fn(seed, trial)
    evals, converged = 0, True
    if cfg.oracle_biases is not None:
        state, q, angles = oracle
        # A tight criterion's construction is the search's warm start.
        warm = (achieve(criterion_id, state, q, angles).scenario,) if criterion_id in ACHIEVABLE else ()
        spec = OptimizeSpec(
            state, q, angles, cfg.oracle_biases, restarts=restarts, seed=_opt_seed(seed, trial), warm_starts=warm
        )
        result = maximize_chsh(spec)
        oracle, evals, converged = result.best_value, result.evaluations, result.converged
    return AuditRow(
        trial=trial,
        bound=float(bound),
        oracle=float(oracle),
        gap=float(bound - oracle),
        evaluations=int(evals),
        converged=bool(converged),
    )


def worker_count(requested: int, trials: int, cpus: int | None) -> int:
    """Worker processes for an audit: the request, capped by the trials and the CPUs."""
    return max(1, min(int(requested), int(trials), cpus or 1))


def _usable_cpus() -> int | None:
    """CPUs this process may run on: its affinity set where the platform has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def audit_bound(
    criterion_id: str,
    trials: int,
    seed: int = 0,
    tolerance: float | None = None,
    restarts: int | None = None,
    threads: int = 1,
) -> AuditReport:
    """Compare a closed-form bound against the oracle over seeded trials.

    Per-trial seeds derive from (seed, trial index), so results do not
    depend on the execution order or the number of worker processes.
    ``threads`` (at least 1) asks for worker processes; at most one per CPU
    the process may run on and at most one per trial are started. ``tolerance``
    overrides the undershoot tolerance for tightness-claimed criteria.
    """
    if criterion_id not in _AUDIT_REGISTRY:
        raise InvalidInputError(
            f"unknown audit criterion {criterion_id!r}; known: {sorted(_AUDIT_REGISTRY)}"
        )
    cfg = _AUDIT_REGISTRY[criterion_id]
    trials = check_count(trials, "trials", 1)
    if trials > _MAX_TRIALS:
        raise InvalidInputError(f"trials must be <= {_MAX_TRIALS}, got {trials}")
    seed = check_count(seed, "seed", 0)
    restarts = cfg.restarts if restarts is None else check_count(restarts, "restarts", 1)
    if restarts > _MAX_RESTARTS:
        raise InvalidInputError(f"restarts must be <= {_MAX_RESTARTS}, got {restarts}")
    threads = check_count(threads, "threads", 1)
    if tolerance is not None and not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise InvalidInputError(f"tolerance must be finite and >= 0, got {tolerance}")
    undershoot_tol = cfg.undershoot_tol if tolerance is None else float(tolerance)
    jobs = [(criterion_id, seed, trial, restarts) for trial in range(trials)]
    workers = worker_count(threads, trials, _usable_cpus())
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = tuple(pool.map(_audit_one, jobs))
    else:
        rows = tuple(_audit_one(job) for job in jobs)
    return AuditReport(
        criterion_id=criterion_id,
        trials=trials,
        seed=seed,
        overshoot_tol=cfg.overshoot_tol,
        undershoot_tol=undershoot_tol,
        tightness_claimed=cfg.tightness_claimed,
        rows=rows,
    )
