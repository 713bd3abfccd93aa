"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime. Tolerances are pinned here and nowhere else."""

import math
import time

import numpy as np

from bellbound import (
    StrengthQuad,
    achieve,
    achieving_directions,
    audit_bound,
    compat_busch,
    compat_full,
    compat_necessary,
    exhaustive_bias_max,
    j_max,
    make_observable,
    maximize_chsh,
    OptimizeSpec,
    random_observable,
    random_rotation,
    s0_bound,
    singlet,
    st_bound,
    svd,
    thm3_bound,
    thm4_bound,
    thm4_branch,
)
from bellbound.cli import bisect_root
from bellbound.model import random_direction
from bellbound.optimize import sample_thm3_trial, sample_thm4_trial

SQ2 = math.sqrt(2.0)
PI2 = math.pi / 2


def _unbiased_observable(rng):
    # random_observable's draws in its order, direction then strength, with no bias.
    direction = random_direction(rng)
    return make_observable(0.0, rng.uniform(0.0, 1.0), direction)


class _Timer:
    """Times a criterion and prints its FAIL line if the body raises."""

    def __init__(self, budget_s, index=0, name=""):
        self.budget = budget_s
        self.index = index
        self.name = name

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.t0
        if exc_type is not None:
            print(f"FAIL criterion {self.index} ({self.name}): {exc} [{self.elapsed:.2f}s]")
        return False


def _report(index, name, timer, detail):
    print(f"PASS criterion {index} ({name}): {detail} [{timer.elapsed:.2f}s]")
    assert timer.elapsed < timer.budget, f"runtime {timer.elapsed:.2f}s over budget {timer.budget}s"


def test_criterion_1_horodecki_recovery():
    with _Timer(1.0, 1, "horodecki recovery") as timer:
        bound = s0_bound(singlet(), StrengthQuad(1, 1, 1, 1), PI2, PI2).value
        assert abs(bound - 2 * SQ2) < 1e-10
        config = achieving_directions(singlet(), StrengthQuad(1, 1, 1, 1), PI2, PI2)
        assert abs(config.attained_chsh - 2 * SQ2) < 1e-9
    _report(1, "horodecki recovery", timer, f"bound={bound:.12f} attained={config.attained_chsh:.12f}")


def test_criterion_2_thm1_tightness():
    with _Timer(120.0, 2, "thm1 tightness audit") as timer:
        report = audit_bound("thm1", trials=200, seed=2026, tolerance=1e-9)
        assert report.max_overshoot <= 1e-9, f"overshoot {report.max_overshoot}"
        assert report.max_undershoot <= 1e-9, f"undershoot {report.max_undershoot}"
        assert report.passed
    _report(
        2, "thm1 tightness audit", timer,
        f"200 trials, overshoot={report.max_overshoot:.2e} undershoot={report.max_undershoot:.2e}",
    )


def test_criterion_3_thm2_tightness():
    with _Timer(180.0, 3, "thm2 tightness audit") as timer:
        report = audit_bound("thm2", trials=200, seed=2026, tolerance=1e-9)
        assert report.max_overshoot <= 1e-9, f"overshoot {report.max_overshoot}"
        assert report.max_undershoot <= 1e-9, f"undershoot {report.max_undershoot}"
        assert report.passed
    _report(
        3, "thm2 tightness audit", timer,
        f"200 trials, overshoot={report.max_overshoot:.2e} undershoot={report.max_undershoot:.2e}",
    )


def test_criterion_4_biased_only_window():
    with _Timer(60.0, 4, "biased-only violation window") as timer:
        radius = SQ2  # singlet
        unbiased_cross = bisect_root(lambda s: 2 * s * s * radius - 2.0, 0.0, 1.0)
        biased_cross = bisect_root(
            lambda s: 2 * s * s * radius + 2 * (1 - s) ** 2 - 2.0, 0.01, 1.0
        )
        assert abs(unbiased_cross - 2 ** (-0.25)) < 1e-6
        assert abs(biased_cross - 2 / (1 + SQ2)) < 1e-6
        q = StrengthQuad(0.835, 0.835, 0.835, 0.835)
        biased_oracle = maximize_chsh(
            OptimizeSpec(state=singlet(), strengths=q, fixed_angles=(PI2, PI2),
                         biases="free-extremal", restarts=8, seed=4)
        ).best_value
        unbiased_oracle = maximize_chsh(
            OptimizeSpec(state=singlet(), strengths=q, biases="fixed-zero",
                         restarts=8, seed=4)
        ).best_value
        assert abs(biased_oracle - st_bound(singlet(), q, PI2, PI2).value) < 1e-5
        assert biased_oracle - 2.0 >= 0.02
        assert 2.0 - unbiased_oracle >= 0.02
    _report(
        4, "biased-only violation window", timer,
        f"crossings=({unbiased_cross:.8f}, {biased_cross:.8f}) "
        f"oracle(biased)={biased_oracle:.6f} oracle(unbiased)={unbiased_oracle:.6f}",
    )


def test_criterion_5_thm3_audit():
    with _Timer(120.0, 5, "thm3 audit") as timer:
        worst_under = worst_over = worst_phi = 0.0
        for trial in range(100):
            state, s_a, sy, syp = sample_thm3_trial(505, trial)
            q = StrengthQuad(s_a, s_a, sy, syp)
            bound = thm3_bound(state, q).value
            warm = achieve("thm3", state, q).scenario
            result = maximize_chsh(
                OptimizeSpec(state=state, strengths=q, restarts=8, seed=trial, warm_starts=(warm,))
            )
            worst_over = max(worst_over, result.best_value - bound)
            worst_under = max(worst_under, bound - result.best_value)
            assert sy - syp > 1e-6  # sampler keeps the B strengths apart
            worst_phi = max(worst_phi, abs(result.best_scenario.phi - PI2))
        assert worst_over <= 1e-9, f"overshoot {worst_over}"
        assert worst_under <= 1e-4, f"undershoot {worst_under}"
        assert worst_phi <= 1e-6, f"phi deviation {worst_phi}"
    _report(
        5, "thm3 audit", timer,
        f"100 trials, overshoot={worst_over:.2e} undershoot={worst_under:.2e} "
        f"max|phi-pi/2|={worst_phi:.2e}",
    )


def test_criterion_6_thm4_audit():
    with _Timer(120.0, 6, "thm4 audit") as timer:
        worst_under = worst_over = worst_angle = 0.0
        branch_counts = [0, 0]
        for trial in range(100):
            state, q = sample_thm4_trial(606, trial)
            report = thm4_bound(state, q)
            first, a, b, c = thm4_branch(q)
            branch_counts[0 if first else 1] += 1
            warm = achieve("thm4", state, q).scenario
            result = maximize_chsh(
                OptimizeSpec(state=state, strengths=q, restarts=8, seed=trial, warm_starts=(warm,))
            )
            worst_over = max(worst_over, result.best_value - report.value)
            worst_under = max(worst_under, report.value - result.best_value)
            worst_angle = max(
                worst_angle,
                abs(result.best_scenario.theta - report.optimal_angles[0]),
                abs(result.best_scenario.phi - report.optimal_angles[1]),
            )
            if first:
                # Branch dominance whenever both branches evaluate.
                from bellbound.bounds import coefficients_abcd

                s1 = float(svd(state.t).s[0])
                interior = s1 * math.sqrt(2 * (q.sx**2 + q.sxp**2) * (q.sy**2 + q.syp**2))
                extremal = s1 * max(abs(v) for v in coefficients_abcd(q))
                assert interior >= extremal - 1e-12
        assert branch_counts[0] > 0 and branch_counts[1] > 0
        assert worst_over <= 1e-9, f"overshoot {worst_over}"
        assert worst_under <= 1e-4, f"undershoot {worst_under}"
        assert worst_angle <= 1e-6, f"angle deviation {worst_angle}"
    _report(
        6, "thm4 audit", timer,
        f"100 trials ({branch_counts[0]} interior / {branch_counts[1]} extremal), "
        f"overshoot={worst_over:.2e} undershoot={worst_under:.2e} max-angle-dev={worst_angle:.2e}",
    )


def test_criterion_7_zero_strength_arm():
    with _Timer(60.0, 7, "zero-strength arm stays local") as timer:
        report = audit_bound("zero-strength", trials=100, seed=707)
        assert report.max_overshoot <= 1e-6, f"overshoot {report.max_overshoot}"
        assert report.passed
    _report(
        7, "zero-strength arm stays local", timer,
        f"100 trials, max oracle-over-2 = {report.max_overshoot:.2e}",
    )


def test_criterion_8_jmax_exhaustive():
    with _Timer(5.0, 8, "jmax equals exhaustive bias search") as timer:
        rng = np.random.default_rng(808)
        worst = 0.0
        for _ in range(500):
            q = StrengthQuad(*rng.uniform(0, 1, 4))
            worst = max(worst, abs(j_max(q) - exhaustive_bias_max(q)))
        assert worst <= 1e-12, f"deviation {worst}"
    _report(8, "jmax equals exhaustive bias search", timer, f"500 quads, max dev={worst:.2e}")


def test_criterion_9_compatibility_implications():
    with _Timer(30.0, 9, "compatibility implication audit") as timer:
        rng = np.random.default_rng(909)
        gap_pair_found = False
        for pair_index in range(10_000):
            unbiased = pair_index % 2 == 1
            draw = _unbiased_observable if unbiased else random_observable
            x = draw(rng)
            xp = draw(rng)
            necessary = compat_necessary(x, xp)
            full = compat_full(x, xp)
            if full:
                assert necessary, "full compatibility must imply the necessary condition"
            if unbiased:
                # Vector-norm and sine forms agree (checked inside compat_busch).
                assert compat_busch(x, xp) == necessary
            elif necessary and not full:
                gap_pair_found = True
        assert gap_pair_found, "expected a biased pair passing necessary but failing full"
    _report(9, "compatibility implication audit", timer, "10000 pairs, 0 implication violations")


def test_criterion_10_kernel_suite():
    with _Timer(5.0, 10, "kernel suite") as timer:
        rng = np.random.default_rng(1010)
        for trial in range(1000):
            n = (2, 3, 4)[trial % 3]
            m = rng.normal(size=(n, n))
            if trial % 11 == 0:
                m[:, trial % n] = 0.0
            fac = svd(m)
            assert np.max(np.abs(fac.u @ np.diag(fac.s) @ fac.v.T - m)) < 1e-12
            assert np.max(np.abs(fac.u.T @ fac.u - np.eye(n))) < 1e-12
            assert np.max(np.abs(fac.v.T @ fac.v - np.eye(n))) < 1e-12
            assert abs(np.trace(m.T @ m) - float(fac.s @ fac.s)) < 1e-10
            assert abs(np.trace(m)) <= float(np.sum(fac.s)) + 1e-10
            if n == 3 and trial % 5 == 0:
                rot_l = random_rotation(rng)
                rot_r = random_rotation(rng)
                assert np.max(np.abs(svd(rot_l @ m @ rot_r.T).s - fac.s)) < 1e-10
    _report(10, "kernel suite", timer, "1000 matrices, all identities within tolerance")
