import math

import numpy as np
import pytest

from bellbound import (
    ConstraintError,
    InvalidInputError,
    StrengthQuad,
    UnphysicalStateError,
    bell_diagonal,
    correlation_singular_values,
    hermitian_eigenvalues_4,
    horodecki,
    make_observable,
    product_state,
    random_observable,
    random_rotation,
    random_state,
    s0_bound,
    singlet,
    state_from_fano,
    thm3_bound,
    werner,
)


def test_make_observable_projective_and_coin():
    proj = make_observable(0.0, 1.0, [0.0, 0.0, 1.0])
    assert proj.strength == 1.0 and proj.bias == 0.0
    coin = make_observable(0.4, 0.0, [1.0, 0.0, 0.0])
    # Outcome probabilities of a coin are (1 +- bias) / 2.
    assert abs(0.5 * (1 + coin.bias) - 0.7) < 1e-15


def test_make_observable_rejects_constraint_violation():
    with pytest.raises(ConstraintError):
        make_observable(0.5, 0.6, [1.0, 0.0, 0.0])


def test_make_observable_direction_normalization():
    almost = np.array([1.0 + 5e-7, 0.0, 0.0])
    obs = make_observable(0.0, 1.0, almost)
    assert abs(np.linalg.norm(obs.direction) - 1.0) < 1e-15
    with pytest.raises(InvalidInputError):
        make_observable(0.0, 1.0, [1.1, 0.0, 0.0])


def test_singlet_spectrum():
    eig = hermitian_eigenvalues_4(singlet().density_matrix())
    assert np.allclose(eig, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_werner_half_spectrum():
    eig = hermitian_eigenvalues_4(werner(0.5).density_matrix())
    assert np.allclose(eig, [0.625, 0.125, 0.125, 0.125], atol=1e-12)


def test_identity_correlations_unphysical():
    with pytest.raises(UnphysicalStateError):
        state_from_fano(np.zeros(3), np.zeros(3), np.eye(3))


def test_correlation_singular_values_examples():
    assert np.allclose(correlation_singular_values(singlet()), [1.0, 1.0, 1.0], atol=1e-14)
    prod = product_state([0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
    assert np.allclose(correlation_singular_values(prod), [1.0, 0.0, 0.0], atol=1e-14)
    w = werner(0.37)
    assert np.allclose(correlation_singular_values(w), [0.37] * 3, atol=1e-14)


def test_bell_diagonal_vertex_is_pure():
    state = bell_diagonal(1.0, 1.0, -1.0)
    eig = hermitian_eigenvalues_4(state.density_matrix())
    assert np.allclose(eig, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_bell_diagonal_outside_tetrahedron_rejected():
    with pytest.raises(UnphysicalStateError):
        bell_diagonal(1.0, 1.0, 1.0)


def test_bell_diagonal_spectrum_formula():
    # Closed-form Bell-basis spectrum as an independent oracle.
    rng = np.random.default_rng(5)
    done = 0
    while done < 50:
        t1, t2, t3 = rng.uniform(-1, 1, 3)
        lams = 0.25 * np.array(
            [1 - t1 - t2 - t3, 1 - t1 + t2 + t3, 1 + t1 - t2 + t3, 1 + t1 + t2 - t3]
        )
        if np.any(lams < 0):
            continue
        state = bell_diagonal(t1, t2, t3)
        eig = hermitian_eigenvalues_4(state.density_matrix())
        assert np.max(np.abs(eig - np.sort(lams)[::-1])) < 1e-12
        done += 1


def test_werner_threshold():
    assert abs(horodecki(werner(1 / math.sqrt(2))) - 2.0) < 1e-12


def test_random_state_deterministic():
    for kind in ("tstate", "general", "pure"):
        s1 = random_state(1234, kind)
        s2 = random_state(1234, kind)
        assert np.array_equal(s1.t, s2.t)
        assert np.array_equal(s1.a, s2.a)
        assert np.array_equal(s1.b, s2.b)


def test_random_tstate_has_zero_marginals():
    for seed in range(20):
        state = random_state(seed, "tstate")
        assert np.all(state.a == 0.0) and np.all(state.b == 0.0)


def test_random_state_unknown_kind():
    with pytest.raises(InvalidInputError):
        random_state(0, "thermal")


def test_generated_states_pass_validation():
    # state_from_fano / state_from_density validate internally, so it is
    # enough that generation never raises. 10^4 seeded trials.
    rng = np.random.default_rng(99)
    kinds = ("tstate", "general", "pure")
    for trial in range(10_000):
        random_state(rng, kinds[trial % 3])


def test_correlation_svs_invariant_under_local_rotations():
    rng = np.random.default_rng(13)
    for _ in range(100):
        state = random_state(rng, "general")
        left = random_rotation(rng)
        right = random_rotation(rng)
        rotated = state_from_fano(left @ state.a, right @ state.b, left @ state.t @ right.T)
        s0 = correlation_singular_values(state)
        s1 = correlation_singular_values(rotated)
        assert np.max(np.abs(np.array(s0) - np.array(s1))) < 1e-10


def test_pure_product_states_rank_one():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.normal(size=3)
        a /= np.linalg.norm(a)
        b = rng.normal(size=3)
        b /= np.linalg.norm(b)
        s = correlation_singular_values(product_state(a, b))
        assert abs(s[0] - 1.0) < 1e-10 and abs(s[1]) < 1e-10 and abs(s[2]) < 1e-10


def test_random_observable_contracts():
    proj = random_observable(5, fixed_strength=1.0, unbiased=True)
    assert proj.strength == 1.0 and proj.bias == 0.0
    for seed in range(200):
        obs = random_observable(seed, fixed_strength=0.3)
        assert abs(obs.bias) <= 0.7 + 1e-15
        assert abs(np.linalg.norm(obs.direction) - 1.0) < 1e-12
    o1 = random_observable(42)
    o2 = random_observable(42)
    assert o1.bias == o2.bias and o1.strength == o2.strength
    assert np.array_equal(o1.direction, o2.direction)


def test_scenario_angles():
    from bellbound import Scenario

    sc = Scenario(
        x=make_observable(0, 1, [0, 0, 1]),
        xp=make_observable(0, 1, [1, 0, 0]),
        y=make_observable(0, 1, [0, 1, 0]),
        yp=make_observable(0, 1, [0, -1, 0]),
    )
    assert abs(sc.theta - math.pi / 2) < 1e-15
    assert abs(sc.phi - math.pi) < 1e-15


def test_state_arrays_are_read_only_copies():
    t = -0.5 * np.eye(3)
    state = state_from_fano(np.zeros(3), np.zeros(3), t)
    t[0, 0] = 0.9  # the caller's array is not the state's
    assert state.t[0, 0] == -0.5
    for arr in (state.a, state.b, state.t):
        with pytest.raises(ValueError):
            arr[0] = 0.1
    with pytest.raises(ValueError):
        state.t_svd.s[0] = 0.0


def test_correlation_singular_values_match_numpy_before_and_after_bounds():
    for seed in range(20):
        state = random_state(seed, ("tstate", "general", "pure")[seed % 3])
        want = np.linalg.svd(state.t, compute_uv=False)
        assert np.max(np.abs(np.array(correlation_singular_values(state)) - want)) < 1e-14
        s0_bound(state, StrengthQuad(0.9, 0.8, 0.7, 0.6), 1.0, 2.0)
        thm3_bound(state, 0.9, 0.8, 0.5)
        assert np.max(np.abs(np.array(correlation_singular_values(state)) - want)) < 1e-14
