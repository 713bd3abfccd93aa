import importlib
import math

import numpy as np

from bellbound import (
    Scenario,
    bias_combination,
    chsh,
    chsh_matrix_form,
    chsh_signed,
    expectation,
    horodecki,
    make_observable,
    n_matrix,
    random_observable,
    random_rotation,
    random_state,
    singlet,
    state_from_fano,
    sgen_bound,
)
from bellbound.model import random_direction

# The module; the package's name ``chsh`` is the function.
chsh_module = importlib.import_module("bellbound.chsh")

SQ2 = math.sqrt(2.0)


def _tsirelson_scenario():
    return Scenario(
        x=make_observable(0, 1, [0, 0, 1]),
        xp=make_observable(0, 1, [1, 0, 0]),
        y=make_observable(0, 1, np.array([-1.0, 0, -1.0]) / SQ2),
        yp=make_observable(0, 1, np.array([1.0, 0, -1.0]) / SQ2),
    )


def _coin_scenario(bias):
    coin = make_observable(bias, 0.0, [0, 0, 1])
    return Scenario(x=coin, xp=coin, y=coin, yp=coin)


def test_expectation_singlet_antiparallel():
    z = make_observable(0, 1, [0, 0, 1])
    assert abs(expectation(z, z, singlet()) + 1.0) < 1e-15


def test_expectation_coins():
    cx = make_observable(0.3, 0.0, [0, 0, 1])
    cy = make_observable(-0.8, 0.0, [0, 0, 1])
    zero_t = state_from_fano(np.zeros(3), np.zeros(3), np.zeros((3, 3)))
    assert abs(expectation(cx, cy, zero_t) - 0.3 * (-0.8)) < 1e-15


def _density_expectation(obs_a, obs_b, state):
    rho = state.density_matrix()
    op = np.kron(obs_a.operator(), obs_b.operator())
    return float(np.trace(rho @ op).real)


def test_expectation_density_matrix_oracle():
    rng = np.random.default_rng(21)
    kinds = ("tstate", "general", "pure")
    for trial in range(300):
        state = random_state(rng, kinds[trial % 3])
        obs_a = random_observable(rng)
        obs_b = random_observable(rng)
        mine = expectation(obs_a, obs_b, state)
        assert abs(mine - _density_expectation(obs_a, obs_b, state)) < 1e-10
        assert -1.0 - 1e-10 <= mine <= 1.0 + 1e-10


def test_chsh_tsirelson():
    assert abs(chsh(_tsirelson_scenario(), singlet()).canonical - 2 * SQ2) < 1e-12


def test_chsh_trivial_coins():
    zero_t = state_from_fano(np.zeros(3), np.zeros(3), np.zeros((3, 3)))
    assert abs(chsh(_coin_scenario(0.6), zero_t).canonical - 2 * 0.36) < 1e-15
    # Unit-bias coins reach the local bound exactly.
    assert abs(chsh(_coin_scenario(1.0), zero_t).canonical - 2.0) < 1e-15


def _outer_product_sum(scenario):
    ux, uxp, uy, uyp = (o.u4() for o in scenario.observables())
    return np.outer(ux, uy) + np.outer(ux, uyp) + np.outer(uxp, uy) - np.outer(uxp, uyp)


def test_chsh_matrix_form_agrees():
    # Also bit for bit, biased and unbiased: the canonical value is
    # |chsh_signed|, and n_matrix is the numpy outer-product sum.
    rng = np.random.default_rng(33)
    kinds = ("tstate", "general", "pure")
    worst = 0.0
    for trial in range(1000):
        state = random_state(rng, kinds[trial % 3])
        scenario = Scenario(*(random_observable(rng) for _ in range(4)))
        worst = max(
            worst, abs(chsh(scenario, state).canonical - chsh_matrix_form(scenario, state))
        )
        unbiased = Scenario(*(make_observable(0.0, o.strength, o.direction) for o in scenario.observables()))
        for case in (scenario, unbiased):
            assert abs(chsh_signed(case, state)) == chsh(case, state).canonical
            assert n_matrix(case).tobytes() == _outer_product_sum(case).tobytes()
    assert worst < 1e-12


def test_chsh_matrix_form_zero_observables():
    zero = make_observable(0.0, 0.0, [0, 0, 1])
    scenario = Scenario(zero, zero, zero, zero)
    assert chsh_matrix_form(scenario, singlet()) == 0.0


def test_variants_nonnegative_and_bounded():
    rng = np.random.default_rng(8)
    kinds = ("tstate", "general", "pure")
    for trial in range(300):
        state = random_state(rng, kinds[trial % 3])
        scenario = Scenario(*(random_observable(rng) for _ in range(4)))
        variants = chsh(scenario, state)
        cap = max(2.0, horodecki(state)) + 1e-9
        for value in (variants.canonical, variants.swap_x, variants.swap_y, variants.swap_both):
            assert 0.0 <= value <= cap


def test_chsh_invariant_under_local_rotations():
    rng = np.random.default_rng(44)
    for _ in range(100):
        state = random_state(rng, "general")
        scenario = Scenario(*(random_observable(rng) for _ in range(4)))
        left = random_rotation(rng)
        right = random_rotation(rng)
        rotated_state = state_from_fano(left @ state.a, right @ state.b, left @ state.t @ right.T)
        rotated = Scenario(
            x=make_observable(scenario.x.bias, scenario.x.strength, left @ scenario.x.direction),
            xp=make_observable(scenario.xp.bias, scenario.xp.strength, left @ scenario.xp.direction),
            y=make_observable(scenario.y.bias, scenario.y.strength, right @ scenario.y.direction),
            yp=make_observable(scenario.yp.bias, scenario.yp.strength, right @ scenario.yp.direction),
        )
        assert abs(chsh(scenario, state).canonical - chsh(rotated, rotated_state).canonical) < 1e-10


def test_tstate_splits_into_direction_and_bias_terms():
    rng = np.random.default_rng(55)
    for _ in range(200):
        state = random_state(rng, "tstate")
        scenario = Scenario(*(random_observable(rng) for _ in range(4)))
        unbiased = Scenario(
            *(make_observable(0.0, o.strength, o.direction) for o in scenario.observables())
        )
        split = chsh_signed(unbiased, state) + bias_combination(*scenario.biases)
        assert abs(chsh(scenario, state).canonical - abs(split)) < 1e-12


def test_sgen_dominates_chsh():
    rng = np.random.default_rng(66)
    kinds = ("tstate", "general", "pure")
    for trial in range(300):
        state = random_state(rng, kinds[trial % 3])
        scenario = Scenario(*(random_observable(rng) for _ in range(4)))
        assert chsh(scenario, state).canonical <= sgen_bound(scenario, state).value + 1e-9


def test_zero_strength_arm_respects_local_bound():
    rng = np.random.default_rng(77)
    kinds = ("tstate", "general", "pure")
    for trial in range(300):
        state = random_state(rng, kinds[trial % 3])
        x, xp, y = (random_observable(rng) for _ in range(3))
        direction = random_direction(rng)
        scenario = Scenario(x, xp, y, make_observable(rng.uniform(-1.0, 1.0), 0.0, direction))
        assert chsh(scenario, state).canonical <= 2.0 + 1e-9


def _sixteen_call_combination(x, xp, y, yp, state):
    # The canonical combination as four fresh expectation calls, the form
    # every variant was once evaluated in (sixteen calls per scenario).
    return (
        expectation(x, y, state)
        + expectation(x, yp, state)
        + expectation(xp, y, state)
        - expectation(xp, yp, state)
    )


def test_variants_equal_the_relabeled_sixteen_call_form_bit_for_bit():
    rng = np.random.default_rng(2301)
    kinds = ("tstate", "general", "pure")
    for trial in range(600):
        state = random_state(rng, kinds[trial % 3])
        scenario = Scenario(*(random_observable(rng) for _ in range(4)))
        x, xp, y, yp = scenario.observables()
        v = chsh(scenario, state)
        got = (v.canonical, v.swap_x, v.swap_y, v.swap_both, chsh_signed(scenario, state))
        want = (
            abs(_sixteen_call_combination(x, xp, y, yp, state)),
            abs(_sixteen_call_combination(xp, x, y, yp, state)),
            abs(_sixteen_call_combination(x, xp, yp, y, state)),
            abs(_sixteen_call_combination(xp, x, yp, y, state)),
            _sixteen_call_combination(x, xp, y, yp, state),
        )
        assert [g.hex() for g in got] == [w.hex() for w in want]


def test_chsh_evaluates_each_correlation_once(monkeypatch):
    calls = []
    original = chsh_module.expectation
    monkeypatch.setattr(chsh_module, "expectation", lambda *args: calls.append(args) or original(*args))
    chsh(_tsirelson_scenario(), singlet())
    assert len(calls) == 4
