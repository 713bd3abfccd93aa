import concurrent.futures
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from bellbound import (
    AUDIT_CRITERIA,
    InternalConsistencyError,
    InvalidInputError,
    OptimizeSpec,
    StrengthQuad,
    audit_bound,
    achieving_directions,
    chsh,
    chsh_signed,
    correlation_singular_values,
    exhaustive_bias_max,
    extremal_bias_patterns,
    j_max,
    maximize_chsh,
    random_state,
    s0_bound,
    singlet,
    st_bound,
)
from bellbound import optimize, oracle
from bellbound.optimize import sample_thm3_trial, worker_count

SQ2 = math.sqrt(2.0)
PI2 = math.pi / 2


def test_projective_singlet_reaches_tsirelson():
    spec = OptimizeSpec(state=singlet(), strengths=StrengthQuad(1, 1, 1, 1), restarts=8, seed=1)
    result = maximize_chsh(spec)
    assert abs(result.best_value - 2 * SQ2) < 1e-6
    assert result.converged


def test_biased_search_hits_tstate_bound():
    q = StrengthQuad(0.835, 0.835, 0.835, 0.835)
    spec = OptimizeSpec(
        state=singlet(), strengths=q, fixed_angles=(PI2, PI2), biases="free-extremal",
        restarts=6, seed=2,
    )
    result = maximize_chsh(spec)
    target = st_bound(singlet(), q, PI2, PI2).value
    assert abs(result.best_value - target) < 1e-5
    assert result.best_value > 2.0


def test_zero_strength_arm_capped_at_local_bound():
    rng = np.random.default_rng(3)
    for trial in range(10):
        state = random_state(rng, "tstate" if trial % 2 else "general")
        q = StrengthQuad(*rng.uniform(0, 1, 3), 0.0)
        spec = OptimizeSpec(state=state, strengths=q, biases="free-continuous", restarts=4, seed=trial)
        result = maximize_chsh(spec)
        assert result.best_value <= 2.0 + 1e-6


def test_result_value_matches_scenario():
    rng = np.random.default_rng(4)
    for trial in range(10):
        state = random_state(rng, "general")
        q = StrengthQuad(*rng.uniform(0, 1, 4))
        spec = OptimizeSpec(state=state, strengths=q, restarts=4, seed=trial)
        result = maximize_chsh(spec)
        assert abs(result.best_value - chsh(result.best_scenario, state).canonical) < 1e-12


def test_deterministic_per_seed():
    state = random_state(11, "general")
    spec = OptimizeSpec(state=state, strengths=StrengthQuad(0.9, 0.8, 0.7, 0.6), restarts=6, seed=9)
    r1 = maximize_chsh(spec)
    r2 = maximize_chsh(spec)
    assert r1.best_value == r2.best_value
    assert r1.evaluations == r2.evaluations
    for o1, o2 in zip(r1.best_scenario.observables(), r2.best_scenario.observables()):
        assert np.array_equal(o1.direction, o2.direction)


def test_free_extremal_general_states_pinned():
    # Free-extremal search on general states runs the sixteen sign patterns
    # as fixed-values problems; values, evaluation counts and the winning
    # biases are pinned bit for bit to results recorded with Python 3.11
    # and numpy 2.4 on x86-64.
    expected = [
        (1.5518053465162895, 41902,
         (-0.32102328423208215, 0.7882019562070719, -0.10690676489978568, 0.8609195493298832)),
        (1.320854398965548, 44615,
         (0.4875143407945103, -0.30073651936250667, 0.6467091094156436, 0.8804149722245846)),
        (1.5791140015271252, 31253,
         (0.469668075797011, -0.719803091873271, 0.21892306908432113, -0.8818629076340282)),
    ]
    rng = np.random.default_rng(2027)
    for k, (value, evaluations, biases) in enumerate(expected):
        state = random_state(rng, "general")
        q = StrengthQuad(*rng.uniform(0.1, 0.9, 4))
        spec = OptimizeSpec(state=state, strengths=q, biases="free-extremal", restarts=1, seed=k)
        result = maximize_chsh(spec)
        got = (result.best_value, result.evaluations, result.best_scenario.biases)
        assert got == (value, evaluations, biases)
        assert result.converged


def _pinned_specs():
    # Every bias mode, free and fixed angles, T-states and general states.
    rng = np.random.default_rng(4049)

    def quad(*fixed):
        return StrengthQuad(*(fixed or rng.uniform(0.1, 0.95, 4)))

    specs = [OptimizeSpec(random_state(rng, "tstate"), quad(), restarts=3, seed=1)]
    # Fixed angles, warm-started from the construction as the thm1 audit does.
    state, q = random_state(rng, "general"), quad()
    angles = tuple(float(v) for v in rng.uniform(0.0, math.pi, 2))
    warm = (achieving_directions(state, q, *angles).scenario,)
    specs.append(OptimizeSpec(state, q, angles, restarts=2, seed=2, warm_starts=warm))
    specs += [
        OptimizeSpec(random_state(rng, "general"), quad(0.9, 0.6, 0.8, 0.5), None, "fixed-values",
                     (0.05, -0.3, 0.1, 0.2), restarts=2, seed=3),
        # All four fixed values zero: an unbiased problem.
        OptimizeSpec(random_state(rng, "tstate"), quad(), (1.1, 2.3), "fixed-values",
                     (0.0, 0.0, 0.0, 0.0), restarts=2, seed=4),
        OptimizeSpec(random_state(rng, "pure"), quad(0.7, 0.5, 0.6, 0.9), (0.4, 2.9), "fixed-values",
                     (0.0, 0.25, -0.2, 0.0), restarts=2, seed=5),
        # Strength 1 leaves x no bias room; strength 0 leaves y' the most.
        OptimizeSpec(random_state(rng, "pure"), quad(1.0, 0.4, 0.7, 0.3), biases="free-continuous",
                     restarts=2, seed=6),
        OptimizeSpec(random_state(rng, "general"), quad(0.8, 0.3, 0.6, 0.0), (2.0, 0.7), "free-continuous",
                     restarts=2, seed=7),
        # A general state runs sixteen fixed-values problems, a T-state one unbiased one.
        OptimizeSpec(random_state(rng, "general"), quad(), biases="free-extremal", restarts=1, seed=8),
        OptimizeSpec(random_state(rng, "tstate"), quad(), (1.3, 1.9), "free-extremal", restarts=2, seed=9),
    ]
    return specs


def test_oracle_outputs_pinned():
    # Values (as float.hex), evaluation counts and convergence flags, bit
    # for bit, recorded with Python 3.11 and numpy 2.4 on x86-64. A change
    # to the objective's arithmetic or the search's step order moves them.
    expected = [
        ("0x1.5d544518358aep+0", 16476, True),
        ("0x1.612240acb9f6cp-2", 3295, True),
        ("0x1.2867881d1689cp+0", 2120, True),
        ("0x1.6dd282755ab56p-6", 1662, True),
        ("0x1.5e5b75007d4efp-1", 1058, True),
        ("0x1.fb91fc7d7a753p+0", 8556, True),
        ("0x1.c67e1738aed96p+0", 1100, True),
        ("0x1.7253a6b9acceap+0", 50412, True),
        ("0x1.29e09437c0143p-1", 1187, True),
    ]
    got = []
    for spec in _pinned_specs():
        result = maximize_chsh(spec)
        got.append((result.best_value.hex(), result.evaluations, result.converged))
    assert got == expected


def test_monotone_in_restarts():
    state = random_state(12, "tstate")
    q = StrengthQuad(0.9, 0.8, 0.7, 0.6)
    values = [
        maximize_chsh(OptimizeSpec(state=state, strengths=q, restarts=n, seed=5)).best_value
        for n in (1, 2, 4, 8)
    ]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-12


def test_warm_start_attains_bound():
    rng = np.random.default_rng(6)
    for trial in range(20):
        state = random_state(rng, "tstate" if trial % 2 else "general")
        q = StrengthQuad(*rng.uniform(0, 1, 4))
        theta, phi = rng.uniform(0, math.pi, 2)
        bound = s0_bound(state, q, theta, phi).value
        warm = achieving_directions(state, q, theta, phi).scenario
        spec = OptimizeSpec(
            state=state, strengths=q, fixed_angles=(theta, phi), restarts=2, seed=trial,
            warm_starts=(warm,),
        )
        result = maximize_chsh(spec)
        assert result.best_value >= bound - 1e-9
        assert result.best_value <= bound + 1e-9


def test_fixed_bias_values_respected():
    state = random_state(13, "tstate")
    q = StrengthQuad(0.5, 0.5, 0.5, 0.5)
    spec = OptimizeSpec(
        state=state, strengths=q, biases="fixed-values", bias_values=(0.5, -0.5, 0.25, 0.0),
        restarts=2, seed=0,
    )
    result = maximize_chsh(spec)
    assert result.best_scenario.biases == (0.5, -0.5, 0.25, 0.0)
    with pytest.raises(InvalidInputError):
        OptimizeSpec(state=state, strengths=q, biases="fixed-values", bias_values=(0.9, 0, 0, 0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_fixed_bias_values_must_be_finite(bad):
    # NaN passes every |bias| <= 1 - strength comparison, so it is tested for first.
    for k in range(4):
        values = [0.0, 0.0, 0.0, 0.0]
        values[k] = bad
        with pytest.raises(InvalidInputError, match="bias values must be finite"):
            OptimizeSpec(state=singlet(), strengths=StrengthQuad(0.5, 0.5, 0.5, 0.5), biases="fixed-values", bias_values=tuple(values))


def test_spec_validation():
    state = singlet()
    q = StrengthQuad(1, 1, 1, 1)
    with pytest.raises(InvalidInputError):
        OptimizeSpec(state=state, strengths=q, biases="sometimes")
    with pytest.raises(InvalidInputError):
        OptimizeSpec(state=state, strengths=q, restarts=0)
    with pytest.raises(InvalidInputError):
        OptimizeSpec(state=state, strengths=q, seed=-1)
    with pytest.raises(InvalidInputError):
        OptimizeSpec(state=state, strengths=q, fixed_angles=(4.0, 1.0))


def test_extremal_patterns():
    q = StrengthQuad(0.2, 0.4, 0.6, 0.8)
    patterns = extremal_bias_patterns(q)
    assert len(patterns) == 16
    for pattern in patterns:
        for bias, strength in zip(pattern, q.as_tuple()):
            assert abs(abs(bias) - (1 - strength)) < 1e-15
    assert abs(exhaustive_bias_max(q) - j_max(q)) < 1e-12


def test_audit_report_shape_and_pass():
    report = audit_bound("thm1", trials=10, seed=3)
    assert report.passed
    assert report.max_overshoot <= 1e-9
    assert len(report.rows) == 10
    assert report.rows[0].trial == 0
    assert report.rows[3].gap == report.rows[3].bound - report.rows[3].oracle


def test_audit_jmax_and_sgen():
    assert audit_bound("jmax", trials=100, seed=1).passed
    report = audit_bound("sgen", trials=50, seed=1)
    assert report.passed  # soundness only; undershoots are data
    assert report.max_undershoot > 0.0


def test_audit_unknown_criterion():
    with pytest.raises(InvalidInputError):
        audit_bound("thm9", trials=5)


@pytest.mark.parametrize("restarts", [0, -1])
@pytest.mark.parametrize("criterion", AUDIT_CRITERIA)
def test_audit_rejects_restarts_below_one(criterion, restarts, monkeypatch):
    # Also where the oracle value is exact and no search would read it, and
    # before any worker process starts.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
    with pytest.raises(InvalidInputError, match="restarts must be >= 1"):
        audit_bound(criterion, trials=2, restarts=restarts, threads=2)


@pytest.mark.parametrize("threads", [0, -3])
@pytest.mark.parametrize("criterion", ["jmax", "thm1"])
def test_audit_rejects_threads_below_one(criterion, threads, monkeypatch):
    # worker_count would run them on one worker; the audit refuses them
    # instead, before any trial runs or any worker process starts.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
    monkeypatch.setattr(optimize, "_audit_one", None)
    with pytest.raises(InvalidInputError, match=f"threads must be >= 1, got {threads}"):
        audit_bound(criterion, trials=2, threads=threads)


@pytest.mark.parametrize(
    "criterion", ["thm2", "thm3", "thm4", "cor1", "cor4", "horodecki-upper", "zero-strength"]
)
def test_audit_registry_small_runs(criterion):
    report = audit_bound(criterion, trials=4, seed=21, restarts=3)
    assert report.passed, (criterion, report.max_overshoot, report.max_undershoot)
    assert report.max_overshoot <= report.overshoot_tol


def test_audit_threads_deterministic():
    seq = audit_bound("jmax", trials=40, seed=9, threads=1)
    par = audit_bound("jmax", trials=40, seed=9, threads=2)
    assert seq.rows == par.rows


@pytest.mark.parametrize("criterion", ["thm1", "horodecki-upper"])
def test_searched_audit_rows_independent_of_worker_count(criterion, monkeypatch):
    # Whole rows (bound, oracle, gap, evaluations, converged), with two
    # worker processes even on a one-CPU machine.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    seq = audit_bound(criterion, trials=3, seed=9, threads=1)
    par = audit_bound(criterion, trials=3, seed=9, threads=2)
    assert seq.rows == par.rows


def test_worker_count_is_capped_without_starting_processes():
    assert worker_count(10**9, 10**9, 4) == 4
    assert worker_count(10**9, 3, 64) == 3
    assert worker_count(2, 10**6, 64) == 2
    assert worker_count(0, 10, 8) == 1
    assert worker_count(-5, 10, 8) == 1
    assert worker_count(16, 10, None) == 1


def test_workers_capped_by_usable_cpus(monkeypatch):
    # One CPU in the affinity set of a 64-CPU machine: threads=8 builds no pool.
    def no_pool(*args, **kwargs):
        pytest.fail("audit_bound started a process pool on one usable CPU")

    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert optimize._usable_cpus() == 1
    report = audit_bound("jmax", trials=8, seed=4, threads=8)
    assert report.passed and len(report.rows) == 8


def test_usable_cpus_without_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert optimize._usable_cpus() == 6


def test_thm3_sampler_draws_pass_its_filter():
    for trial in range(50):
        state, s_a, sy, syp = sample_thm3_trial(0, trial)
        s1, s2, _ = correlation_singular_values(state)
        assert s1 >= 0.5 and s2 >= 0.3


def test_audit_samplers_raise_when_out_of_draws(monkeypatch):
    monkeypatch.setattr(optimize, "_THM3_DRAWS", 0)
    monkeypatch.setattr(optimize, "_THM4_DRAWS", 0)
    with pytest.raises(InternalConsistencyError):
        optimize.sample_thm3_trial(0, 0)
    with pytest.raises(InternalConsistencyError):
        optimize.sample_thm4_trial(0, 0)


@pytest.mark.parametrize("kind", ["tstate", "general"])
@pytest.mark.parametrize("angles", [None, (1.1, 2.3)])
@pytest.mark.parametrize("biases", ["fixed-zero", "fixed-values", "free-extremal", "free-continuous"])
def test_objective_moves_match_full_evaluation(kind, angles, biases):
    # A random walk of accepted and rejected single-coordinate moves: every
    # moved value must equal a fresh full evaluation at the same point bit
    # for bit, and the exact CHSH value of the point's scenario.
    rng = np.random.default_rng(14)
    state = random_state(rng, kind)
    q = StrengthQuad(0.9, 0.6, 0.8, 0.5)
    spec = OptimizeSpec(
        state=state, strengths=q, fixed_angles=angles, biases=biases,
        bias_values=(0.05, -0.3, 0.1, 0.2) if biases == "fixed-values" else None,
    )
    if biases == "free-extremal":
        # The free-extremal search runs one fixed-values problem per sign pattern.
        spec = replace(spec, biases="fixed-values", bias_values=extremal_bias_patterns(q)[5])
    problem = oracle._Problem(spec)
    assert problem.dim == 6 + (2 if angles is None else 0) + (4 if biases == "free-continuous" else 0)
    value, moves, commit = problem.make_objective()
    p = problem.random_params(rng)
    value(p)
    accepted = 0
    for _ in range(400):
        i = int(rng.integers(problem.dim))
        old = p[i]
        p[i] = min(max(old + float(rng.normal(0.0, 0.7)), problem.lo[i]), problem.hi[i])
        moved = moves[i](p)
        assert moved == problem.make_objective()[0](p)
        assert abs(moved - abs(chsh_signed(problem.scenario(p), state))) < 1e-12
        if rng.random() < 0.5:
            commit()
            accepted += 1
        else:
            p[i] = old
    assert 100 < accepted < 300
    assert value(p) == problem.make_objective()[0](p)


def test_audit_rows_report_evaluations_and_convergence():
    for row in audit_bound("thm1", trials=2).rows:
        assert row.evaluations > 0
        assert row.converged
    for row in audit_bound("jmax", trials=2).rows:
        assert (row.evaluations, row.converged) == (0, True)
