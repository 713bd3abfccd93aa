import concurrent.futures
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from bellbound import (
    AUDIT_CRITERIA,
    ConstraintError,
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
    make_observable,
    maximize_chsh,
    random_state,
    s0_bound,
    singlet,
    st_bound,
    werner,
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
        (1.5518053465162895, 29845,
         (0.32102328423208215, -0.7882019562070719, 0.10690676489978568, -0.8609195493298832)),
        (1.3208543989655488, 25259,
         (-0.4875143407945103, 0.30073651936250667, 0.6467091094156436, 0.8804149722245846)),
        (1.5791140015271279, 16550,
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


def test_free_extremal_tstate_biases_extremal_without_bias_gain():
    # Projective A observables leave every sign pattern a zero bias term;
    # the biases are still extremal, and the value is the unbiased search's.
    q = StrengthQuad(1.0, 1.0, 0.5, 0.3)
    spec = OptimizeSpec(werner(0.8), q, None, "free-extremal", restarts=2, seed=0)
    result = maximize_chsh(spec)
    assert [abs(b) for b in result.best_scenario.biases] == [1.0 - s for s in q.as_tuple()]
    assert result.best_value == maximize_chsh(replace(spec, biases="fixed-zero")).best_value


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
        ("0x1.5d54eeff31f16p+0", 13851, True),
        ("0x1.612240acb9f6cp-2", 2593, True),
        ("0x1.2867881d168a2p+0", 1958, True),
        ("0x1.6dd282755ab96p-6", 1104, True),
        ("0x1.5e5b75007d4f2p-1", 1029, True),
        ("0x1.fb91fc7d7a824p+0", 5681, True),
        ("0x1.c67e1738aed96p+0", 1116, True),
        ("0x1.7253a6b9accf4p+0", 26573, True),
        ("0x1.29e09437c013ep-1", 1094, True),
    ]
    got = []
    for spec in _pinned_specs():
        result = maximize_chsh(spec)
        got.append((result.best_value.hex(), result.evaluations, result.converged))
    assert got == expected


# Per trial of each audit that searches, trials 0-2 at seeds 0 (first) and 1:
# the oracle value as float.hex, the evaluations and the convergence flag,
# recorded like the pins above. Any change to the search's steps moves them.
_AUDIT_PINS = {
    "thm1": (
        [("0x1.baab30f1e1c56p-2", 4719, True), ("0x1.bed3779224317p-1", 9019, True), ("0x1.77f05af80376cp-4", 5693, True)],
        [("0x1.30ac303983767p-1", 3925, True), ("0x1.dc104c1ef9ee7p-5", 5531, True), ("0x1.e90347bd775fep-2", 6887, True)],
    ),
    "thm2": (
        [("0x1.2f87f81815202p+0", 4735, True), ("0x1.4a62a939bcadap+0", 7100, True), ("0x1.b13280ac8c471p+0", 5708, True)],
        [("0x1.183d2e6326c27p+0", 3941, True), ("0x1.1d83c80bb6b48p+0", 4571, True), ("0x1.06cf2903e2dd3p+0", 6916, True)],
    ),
    "thm3": (
        [("0x1.36b6f02c6c2bap-1", 5771, True), ("0x1.f5cb5fe0c9db5p-1", 8800, True), ("0x1.37320403570b4p+0", 7071, True)],
        [("0x1.0ac341255d683p+0", 7115, True), ("0x1.d51e07f104a26p+0", 8063, True), ("0x1.5e9dea000e6dfp-1", 5777, True)],
    ),
    "thm4": (
        [("0x1.5ccf8f92238a7p+0", 3210, True), ("0x1.56ce4a5381fc9p-1", 3985, True), ("0x1.c57565aca8101p-1", 3032, True)],
        [("0x1.f304346714f18p-1", 2876, True), ("0x1.866d931f67608p-1", 3090, True), ("0x1.6ed13ed97a682p+0", 3818, True)],
    ),
    "cor1": (
        [("0x1.d40d22330f658p-4", 2654, True), ("0x1.3b5626b36c82ap-1", 5543, True), ("0x1.114e5875f94bfp-9", 3085, True)],
        [("0x1.6d8597703cc98p-1", 3092, True), ("0x1.b5c8acf8d0c19p-4", 3905, True), ("0x1.a7f2302a484fap-5", 2249, True)],
    ),
    "cor4": (
        [("0x1.5507124bbb0e2p-1", 2670, True), ("0x1.206d8dc45893ep-1", 3187, True), ("0x1.7ffd05d2d442ap-1", 3101, True)],
        [("0x1.b0adab2093730p-1", 3108, True), ("0x1.568701529c08cp+0", 3854, True), ("0x1.f520a606338e6p-1", 2265, True)],
    ),
    "horodecki-upper": (
        [("0x1.4a1164ffc9abap+0", 4414, True), ("0x1.4b093022e5582p+0", 14639, True), ("0x1.fdeb905c41a17p+0", 30051, True)],
        [("0x1.23c87d10e7086p+0", 6561, True), ("0x1.9c9461bde1657p+0", 4606, True), ("0x1.e063ffc454c4cp+0", 6938, True)],
    ),
    "zero-strength": (
        [("0x1.a3cb75f1e6c7cp+0", 3157, True), ("0x1.b1f7e373d6f61p+0", 7501, True), ("0x1.fdea48a34ffb8p+0", 10248, True)],
        [("0x1.44ec34648cbb4p+0", 3501, True), ("0x1.a57737c35a3cbp+0", 3701, True), ("0x1.e2511bcb10ea4p+0", 12460, True)],
    ),
}


@pytest.mark.parametrize("criterion", list(_AUDIT_PINS))
@pytest.mark.parametrize("seed", [0, 1])
def test_searched_audits_pinned(criterion, seed):
    rows = audit_bound(criterion, trials=3, seed=seed).rows
    assert [(r.oracle.hex(), r.evaluations, r.converged) for r in rows] == _AUDIT_PINS[criterion][seed]


def test_monotone_in_restarts():
    state = random_state(12, "tstate")
    q = StrengthQuad(0.9, 0.8, 0.7, 0.6)
    values = [
        maximize_chsh(OptimizeSpec(state=state, strengths=q, restarts=n, seed=5)).best_value
        for n in (1, 2, 4, 8)
    ]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-12


def _log_starts(monkeypatch) -> list:
    """The list that logs ("draw", start) per random start drawn and ("refine", tol) per refine run."""
    events = []
    draw = oracle._Problem.random_params
    make_refine = oracle._Problem.make_refine

    def logged_draw(self, rng):
        p = draw(self, rng)
        events.append(("draw", tuple(p)))
        return p

    def logged_make_refine(self):
        refine = make_refine(self)

        def logged_refine(p, tol, step):
            events.append(("refine", tol))
            return refine(p, tol, step)

        return logged_refine

    monkeypatch.setattr(oracle._Problem, "random_params", logged_draw)
    monkeypatch.setattr(oracle._Problem, "make_refine", logged_make_refine)
    return events


@pytest.mark.parametrize("biases", ["fixed-zero", "free-continuous"])
@pytest.mark.parametrize("warm_count", [0, 2])
def test_start_stream(biases, warm_count, monkeypatch):
    # Warm starts run first at full precision. Then each random start is
    # drawn only when it runs and is refined coarsely, then polished when it
    # leads; the draws of restarts=k are the first k of restarts=k + 1.
    state = random_state(21, "general")
    q = StrengthQuad(0.9, 0.8, 0.7, 0.6)
    angles = (1.1, 2.0) if biases == "fixed-zero" else None
    warm = (achieving_directions(state, q, 1.1, 2.0).scenario,) * warm_count
    events = _log_starts(monkeypatch)
    draws = []
    for restarts in (1, 2, 3, 4):
        events.clear()
        maximize_chsh(OptimizeSpec(state, q, angles, biases, restarts=restarts, seed=7, warm_starts=warm))
        assert events[:warm_count] == [("refine", oracle._REFINE_TOL)] * warm_count
        stream = events[warm_count:]
        polished = []
        while stream:
            assert stream[0][0] == "draw" and stream[1] == ("refine", oracle._COARSE_TOL)
            polished.append(stream[2:3] == [("refine", oracle._REFINE_TOL)])
            stream = stream[2 + polished[-1] :]
        assert len(polished) == restarts
        # With no warm start, the first random start leads and is polished.
        assert polished[0] or warm_count
        draws.append([start for kind, start in events if kind == "draw"])
    for shorter, longer in zip(draws, draws[1:]):
        assert shorter == longer[: len(shorter)]


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
    with pytest.raises(ConstraintError, match=r"strength \+ \|bias\| = 1.4 exceeds 1"):
        OptimizeSpec(state=state, strengths=q, biases="fixed-values", bias_values=(0.9, 0, 0, 0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_fixed_bias_values_must_be_finite(bad):
    # NaN passes every strength + |bias| <= 1 comparison, so it is tested for first.
    for k in range(4):
        values = [0.0, 0.0, 0.0, 0.0]
        values[k] = bad
        with pytest.raises(InvalidInputError, match=r"bias must lie in \[-1, 1\], got"):
            OptimizeSpec(state=singlet(), strengths=StrengthQuad(0.5, 0.5, 0.5, 0.5), biases="fixed-values", bias_values=tuple(values))


def test_fixed_bias_values_follow_the_observable_rule():
    # strength + |bias| is 1 + 1.0e-12 here: make_observable accepts the
    # observable, so the search must accept it as a fixed bias too.
    s, b = 0.6369616873214543, 0.3630383126795457
    make_observable(b, s, [1.0, 0.0, 0.0])
    q = StrengthQuad(s, 0.5, 0.5, 0.5)
    spec = OptimizeSpec(state=singlet(), strengths=q, biases="fixed-values", bias_values=(b, 0.0, 0.0, 0.0), restarts=1)
    assert maximize_chsh(spec).best_scenario.biases == (b, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("field", ["restarts", "seed"])
@pytest.mark.parametrize("value", [2.5, 1.0, "2", True, None])
def test_spec_counts_must_be_integers(field, value):
    with pytest.raises(InvalidInputError, match=f"{field} must be an integer"):
        OptimizeSpec(state=singlet(), strengths=StrengthQuad(1, 1, 1, 1), **{field: value})
    spec = OptimizeSpec(state=singlet(), strengths=StrengthQuad(1, 1, 1, 1), **{field: np.int64(2)})
    assert type(getattr(spec, field)) is int


@pytest.mark.parametrize("field", ["trials", "seed", "restarts", "threads"])
@pytest.mark.parametrize("value", [1.5, 2.0, True])
def test_audit_counts_must_be_integers(field, value, monkeypatch):
    # Rejected before any trial runs or any worker process starts.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
    monkeypatch.setattr(optimize, "_audit_one", None)
    with pytest.raises(InvalidInputError, match=f"{field} must be an integer"):
        audit_bound("thm1", **{"trials": 2, field: value})


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
def test_objective_moves_match_full_evaluation(kind, angles, biases, monkeypatch):
    # The search cut short after every few evaluations: the value that its
    # moves have reached must equal a fresh full evaluation at the point it
    # returns (a refine that runs no sweep) bit for bit, and the exact CHSH
    # value of the point's scenario.
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
    start = problem.random_params(rng)
    values, moved = set(), set()
    for budget in range(2, 300, 3):
        monkeypatch.setattr(oracle, "_EVAL_BUDGET", budget)
        best, p, evals, _ = problem.make_refine()(list(start), 1e-8, 0.8)
        assert evals >= budget
        monkeypatch.setattr(oracle, "_EVAL_BUDGET", 1)
        assert problem.make_refine()(list(p), 1e-8, 0.8) == (best, p, 1, False)
        assert abs(best - abs(chsh_signed(problem.scenario(p), state))) < 1e-12
        values.add(best)
        moved.update(i for i in range(problem.dim) if p[i] != start[i])
    # Accepted moves in every coordinate, checked at many points along the way.
    assert moved == set(range(problem.dim))
    assert len(values) > 10


def test_audit_rows_report_evaluations_and_convergence():
    for row in audit_bound("thm1", trials=2).rows:
        assert row.evaluations > 0
        assert row.converged
    for row in audit_bound("jmax", trials=2).rows:
        assert (row.evaluations, row.converged) == (0, True)
