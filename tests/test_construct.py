import itertools
import math

import numpy as np

from bellbound import (
    StrengthQuad,
    achieving_biases,
    achieving_directions,
    achieving_scenario_tstate,
    bias_combination,
    chsh,
    cor1_bound,
    correlation_singular_values,
    frame_from_pair,
    j_max,
    product_state,
    random_state,
    reference_frames,
    s0_bound,
    singlet,
    st_bound,
    svd,
    thm3_achieving,
    thm3_bound,
    w_bundle,
)

PI2 = math.pi / 2
SQ2 = math.sqrt(2.0)


def test_reference_frames_angles():
    for theta, phi in ((0.0, 1.0), (math.pi, 2.0), (PI2, PI2), (0.3, 2.9)):
        x, xp, y, yp = reference_frames(theta, phi)
        assert abs(float(x @ xp) - math.cos(theta)) < 1e-12
        assert abs(float(y @ yp) - math.cos(phi)) < 1e-12
    x, xp, _, _ = reference_frames(0.0, 1.0)
    assert np.allclose(x, xp)
    x, xp, _, _ = reference_frames(math.pi, 1.0)
    assert np.allclose(x, -xp)


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.sqrt(v @ v)


def test_achieving_directions_tsirelson():
    config = achieving_directions(singlet(), StrengthQuad(1, 1, 1, 1), PI2, PI2)
    assert abs(config.attained_chsh - 2 * SQ2) < 1e-12
    assert abs(config.target_bound - 2 * SQ2) < 1e-12


def test_achieving_directions_weak_strengths():
    q = StrengthQuad(0.9, 0.9, 0.9, 0.9)
    config = achieving_directions(singlet(), q, PI2, PI2)
    assert abs(config.attained_chsh - 2 * 0.81 * SQ2) < 1e-12


def test_achieving_directions_random_audit():
    rng = np.random.default_rng(62)
    for trial in range(1000):
        state = random_state(rng, "tstate" if trial % 2 else "general")
        q = StrengthQuad(*rng.uniform(0, 1, 4))
        theta, phi = rng.uniform(0, math.pi, 2)
        config = achieving_directions(state, q, theta, phi)
        assert abs(config.attained_chsh - config.target_bound) < 1e-9


def test_achieving_preserves_strengths_and_angles():
    rng = np.random.default_rng(63)
    for trial in range(200):
        state = random_state(rng, "tstate" if trial % 2 else "general")
        q = StrengthQuad(*rng.uniform(0, 1, 4))
        theta, phi = rng.uniform(0, math.pi, 2)
        scenario = achieving_directions(state, q, theta, phi).scenario
        assert scenario.strengths.as_tuple() == q.as_tuple()
        assert scenario.biases == (0.0, 0.0, 0.0, 0.0)
        assert abs(scenario.theta - theta) < 1e-10
        assert abs(scenario.phi - phi) < 1e-10
        for obs in scenario.observables():
            assert abs(float(obs.direction @ obs.direction) - 1.0) < 1e-12


def test_achieving_biases_examples():
    assert achieving_biases(StrengthQuad(1, 1, 1, 1)) == (0.0, 0.0, 0.0, 0.0)
    biases = achieving_biases(StrengthQuad(0, 0, 0, 0))
    assert bias_combination(*biases) == 2.0
    biases = achieving_biases(StrengthQuad(1, 0.5, 1, 0.5))
    assert abs(bias_combination(*biases) - 0.25) < 1e-15


def test_achieving_biases_match_exhaustive():
    rng = np.random.default_rng(64)
    for _ in range(500):
        q = StrengthQuad(*rng.uniform(0, 1, 4))
        best = max(
            abs(bias_combination(*[s * (1 - v) for s, v in zip(pattern, q.as_tuple())]))
            for pattern in itertools.product((1, -1), repeat=4)
        )
        got = bias_combination(*achieving_biases(q))
        assert abs(got - j_max(q)) < 1e-12
        assert abs(best - j_max(q)) < 1e-12


def test_achieving_biases_respect_constraint():
    rng = np.random.default_rng(65)
    for _ in range(200):
        q = StrengthQuad(*rng.uniform(0, 1, 4))
        for bias, strength in zip(achieving_biases(q), q.as_tuple()):
            assert abs(abs(bias) - (1 - strength)) < 1e-15


def test_achieving_scenario_tstate_examples():
    q = StrengthQuad(0.835, 0.835, 0.835, 0.835)
    config = achieving_scenario_tstate(singlet(), q, PI2, PI2)
    assert config.attained_chsh > 2.0
    assert abs(config.attained_chsh - (2 * 0.835**2 * SQ2 + 2 * 0.165**2)) < 1e-12
    unit = achieving_scenario_tstate(singlet(), StrengthQuad(1, 1, 1, 1), PI2, PI2)
    assert unit.scenario.biases == (0.0, 0.0, 0.0, 0.0)
    assert abs(unit.attained_chsh - 2 * SQ2) < 1e-12


def test_achieving_scenario_tstate_random_audit():
    rng = np.random.default_rng(66)
    for trial in range(1000):
        state = random_state(rng, "tstate")
        q = StrengthQuad(*rng.uniform(0, 1, 4))
        theta, phi = rng.uniform(0, math.pi, 2)
        config = achieving_scenario_tstate(state, q, theta, phi)
        assert abs(config.attained_chsh - config.target_bound) < 1e-9
        assert abs(config.target_bound - st_bound(state, q, theta, phi).value) < 1e-12


def test_thm3_achieving_examples():
    config = thm3_achieving(singlet(), 1.0, 1.0, 0.5)
    assert abs(config.attained_chsh - 2 * math.sqrt(1.25)) < 1e-12
    assert abs(config.scenario.phi - PI2) < 1e-10
    # Equal B strengths: lands in the equal-angle optimal family.
    config = thm3_achieving(singlet(), 1.0, 0.8, 0.8)
    assert abs(config.attained_chsh - cor1_bound(singlet(), 1.0, 0.8).value) < 1e-12
    assert abs(config.scenario.theta - PI2) < 1e-10


def test_thm3_achieving_random_audit():
    rng = np.random.default_rng(67)
    for trial in range(500):
        state = random_state(rng, "tstate" if trial % 2 else "general")
        if correlation_singular_values(state)[0] < 1e-6:
            continue
        s_a, sy, syp = rng.uniform(0, 1, 3)
        sy, syp = max(sy, syp), min(sy, syp)
        config = thm3_achieving(state, s_a, sy, syp)
        assert abs(config.attained_chsh - config.target_bound) < 1e-9
        assert abs(config.target_bound - thm3_bound(state, s_a, sy, syp).value) < 1e-12


def test_thm3_achieving_rank_one_state():
    prod = product_state([0, 0, 1.0], [1.0, 0, 0])
    config = thm3_achieving(prod, 1.0, 1.0, 0.0)
    assert abs(config.attained_chsh - 2.0) < 1e-9
    assert config.attained_chsh <= 2.0 + 1e-9
    # Degenerate y' direction with a live syp arm still attains the bound.
    config = thm3_achieving(prod, 1.0, 1.0, 0.7)
    assert abs(config.attained_chsh - config.target_bound) < 1e-9


def test_trace_pairing_bounded_by_singular_products():
    # Random frames respect the pairing bound; the aligning transforms
    # saturate it.
    rng = np.random.default_rng(68)
    for trial in range(300):
        state = random_state(rng, "tstate" if trial % 2 else "general")
        q = StrengthQuad(*rng.uniform(0, 1, 4))
        theta, phi = rng.uniform(0, math.pi, 2)
        wb = w_bundle(q, theta, phi)
        w_embedded = np.zeros((3, 3))
        w_embedded[:2, :2] = wb.w
        frame_a = frame_from_pair(_unit(rng), _unit(rng))
        frame_b = frame_from_pair(_unit(rng), _unit(rng))
        # T expressed between the two frames: M_jk = e_j^T T f_k.
        m = frame_a.as_matrix().T @ state.t @ frame_b.as_matrix()
        pairing = abs(np.sum(w_embedded * m))
        bound = s0_bound(state, q, theta, phi).value
        assert pairing <= bound + 1e-9
