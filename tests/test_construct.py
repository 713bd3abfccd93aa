import itertools
import math

import numpy as np
import pytest

from bellbound import (
    InvalidInputError,
    StrengthQuad,
    achieving_biases,
    achieving_directions,
    achieving_scenario_tstate,
    bell_diagonal,
    bias_combination,
    cor1_bound,
    correlation_singular_values,
    frame_from_pair,
    j_max,
    random_state,
    reference_frames,
    s0_bound,
    singlet,
    st_bound,
    state_from_fano,
    thm3_achieving,
    thm3_bound,
    w_bundle,
    werner,
)
from bellbound import bounds, construct
from bellbound.construct import _ATTAIN_TOL, achieve

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


def test_achieving_biases_combination_is_never_negative():
    # rx|ry + b'ryp| + rxp|ry - b'ryp| in exact arithmetic, and rounding keeps
    # the float sum at or above 0, so the biased recipe takes it as it is.
    rng = np.random.default_rng(66)
    quads = [rng.uniform(0, 1, 4).tolist() for _ in range(5000)]
    quads += itertools.product((0.0, 0.5, 1.0), repeat=4)
    for q in quads:
        assert bias_combination(*achieving_biases(StrengthQuad(*q))) >= 0.0, q


def test_achieve_without_a_construction_names_the_achievable_criteria():
    message = "criterion 'cor2' has no achieving construction (choose thm1, thm2, cor1, cor4, thm3 or thm4)"
    with pytest.raises(InvalidInputError) as info:
        achieve("cor2", singlet(), StrengthQuad(1, 1, 1, 1), (PI2, PI2))
    assert str(info.value) == message


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
    config = thm3_achieving(singlet(), StrengthQuad(1.0, 1.0, 1.0, 0.5))
    assert abs(config.attained_chsh - 2 * math.sqrt(1.25)) < 1e-12
    assert abs(config.scenario.phi - PI2) < 1e-10
    # Equal B strengths: lands in the equal-angle optimal family.
    config = thm3_achieving(singlet(), StrengthQuad(1.0, 1.0, 0.8, 0.8))
    assert abs(config.attained_chsh - cor1_bound(singlet(), 1.0, 0.8).value) < 1e-12
    assert abs(config.scenario.theta - PI2) < 1e-10


def test_thm3_achieving_random_audit():
    rng = np.random.default_rng(67)
    for trial in range(500):
        state = random_state(rng, "tstate" if trial % 2 else "general")
        if correlation_singular_values(state)[0] < 1e-6:
            continue
        s_a, sy, syp = rng.uniform(0, 1, 3)
        q = StrengthQuad(s_a, s_a, sy, syp)
        config = thm3_achieving(state, q)
        assert abs(config.attained_chsh - config.target_bound) < 1e-9
        assert abs(config.target_bound - thm3_bound(state, q).value) < 1e-12
        assert config.scenario.strengths == q


def test_thm3_achieving_side_b_attains_thm3_bound():
    rng = np.random.default_rng(70)
    kinds = ("tstate", "pure", "general")
    for trial in range(300):
        state = random_state(rng, kinds[trial % 3])
        sx, sxp, s_b = rng.uniform(0, 1, 3)
        q = StrengthQuad(sx, sxp, s_b, s_b)
        report = thm3_bound(state, q)
        assert report.notes == "sides exchanged (equal strengths on side B)"
        config = thm3_achieving(state, q)
        assert config.target_bound == report.value
        assert abs(config.attained_chsh - report.value) <= _ATTAIN_TOL
        assert config.scenario.strengths == q
        assert np.allclose((config.scenario.theta, config.scenario.phi), report.optimal_angles, rtol=0.0, atol=1e-9)


def test_thm3_achieving_rank_one_state():
    prod = state_from_fano([0, 0, 1.0], [1.0, 0, 0], np.outer([0, 0, 1.0], [1.0, 0, 0]))
    config = thm3_achieving(prod, StrengthQuad(1.0, 1.0, 1.0, 0.0))
    assert abs(config.attained_chsh - 2.0) < 1e-9
    assert config.attained_chsh <= 2.0 + 1e-9
    # Degenerate y' direction with a live syp arm still attains the bound.
    config = thm3_achieving(prod, StrengthQuad(1.0, 1.0, 1.0, 0.7))
    assert abs(config.attained_chsh - config.target_bound) < 1e-9


_THM3_CORNER_STATES = {
    "zero": werner(0.0),
    "rank-one": state_from_fano([0, 0, 1.0], [1.0, 0, 0], np.outer([0, 0, 1.0], [1.0, 0, 0])),
    "rank-one-tstate": bell_diagonal(0.6, 0.0, 0.0),
    "s1-equals-s2": werner(0.8),
}


@pytest.mark.parametrize("state_kind", list(_THM3_CORNER_STATES))
@pytest.mark.parametrize("other", [(1.0, 0.0), (0.0, 1.0), (0.7, 0.3), (0.3, 0.7), (1.0, 1.0), (0.0, 0.0), (0.5, 0.5)])
@pytest.mark.parametrize("s_a", [0.0, 1.0, 0.6])
@pytest.mark.parametrize("side", ["a", "b"])
def test_thm3_achieving_corners(side, s_a, other, state_kind):
    state = _THM3_CORNER_STATES[state_kind]
    q = StrengthQuad(s_a, s_a, *other) if side == "a" else StrengthQuad(*other, s_a, s_a)
    config = thm3_achieving(state, q)
    target = thm3_bound(state, q).value
    assert config.recipe_id == "thm3"
    assert config.target_bound == target
    assert config.attained_chsh >= target - 1e-12
    assert config.scenario.strengths == q


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
        m = frame_a.T @ state.t @ frame_b
        pairing = abs(np.sum(w_embedded * m))
        bound = s0_bound(state, q, theta, phi).value
        assert pairing <= bound + 1e-9


def _pinned_case(seed):
    rng = np.random.default_rng([2300, seed])
    state = random_state(rng, "tstate")
    sa, sb = rng.uniform(0.3, 1.0, 2)
    q = StrengthQuad(*rng.uniform(0.3, 1.0, 4)) if seed % 2 else StrengthQuad(sa, sa, sb, sb)
    return state, q, tuple(rng.uniform(0.2, math.pi - 0.2, 2))


# float.hex of target and attained, then bias, strength and direction of x,
# x', y and y'. The biased scenario takes the unbiased observables'
# (normalised) directions; building it from the raw transformed reference
# directions moves each of these cases by an ulp.
_TSTATE_PINS = {
    ("cor4", 0): (
        "0x1.accaff64510a0p-2 0x1.accaff64510a1p-2",
        "0x1.578d189bb3b68p-3 0x1.aa1cb9d913126p-1 -0x1.426b7c69d62b8p-2 0x1.9708cd91d69cep-1 0x1.097a4521c9b6cp-1",
        "0x1.578d189bb3b68p-3 0x1.aa1cb9d913126p-1 -0x1.3220252631cfap-1 -0x1.1ef6f901fd018p-1 0x1.2565e24740d60p-1",
        "0x1.1cc6939bb7e45p-1 0x1.c672d8c890376p-2 -0x1.0a937cb32f19bp-2 0x1.e564193921008p-1 0x1.76acf0b697fa8p-3",
        "0x1.1cc6939bb7e45p-1 0x1.c672d8c890376p-2 0x1.1ec12fbbfec43p-1 0x1.5da4db48e1a34p-2 -0x1.827654826d7afp-1",
    ),
    ("cor4", 4): (
        "0x1.865b698275993p+0 0x1.865b698275994p+0",
        "0x1.f123cc723a560p-5 0x1.e0edc338dc5aap-1 0x1.e4b15f29127dbp-1 -0x1.15d481360ec46p-5 0x1.481e23a3ad03cp-2",
        "0x1.f123cc723a560p-5 0x1.e0edc338dc5aap-1 0x1.699e41969d9c6p-4 -0x1.e88748d8bd794p-1 -0x1.24da5690e40e2p-2",
        "0x1.6e202f93c6764p-2 0x1.48efe8361cc4ep-1 0x1.84e0505417161p-1 -0x1.19c000d1a6f9ep-1 -0x1.632b33acd9c32p-2",
        "0x1.6e202f93c6764p-2 0x1.48efe8361cc4ep-1 0x1.8494bb2cddbb3p-2 0x1.92bdf892f344dp-1 -0x1.f2c64c98cd378p-2",
    ),
    ("thm2", 5): (
        "0x1.b1114959af666p-1 0x1.b1114959af664p-1",
        "-0x1.2840e183e5460p-4 0x1.daf7e3cf83574p-1 -0x1.3a5286bc2203ap-1 0x1.9198d3d57473ep-1 -0x1.6b90d02809dd4p-4",
        "0x1.b3224dbcaa070p-4 0x1.c99bb6486abf2p-1 0x1.dd542068238d9p-3 -0x1.4759c0db5f2d6p-1 -0x1.7729186534badp-1",
        "0x1.b3682de4b5860p-4 0x1.c992fa43694f4p-1 0x1.e2f1a00ffe0fdp-1 -0x1.f8c23c45da2a4p-3 0x1.c7d0658c4af27p-3",
        "-0x1.224ba30d6fcd1p-1 0x1.bb68b9e52065ep-2 0x1.cd71ccc8a0481p-1 0x1.83b3184995196p-3 0x1.8f176d71d390dp-2",
    ),
    ("thm2", 7): (
        "0x1.6c21631c5f342p+0 0x1.6c21631c5f343p+0",
        "0x1.0fc7912ccebb8p-1 0x1.e070dda66288fp-2 -0x1.f5e07fd2c8317p-5 0x1.d768a7586857ap-2 0x1.c56f6c9cf7f62p-1",
        "-0x1.09ee752e9ec20p-2 0x1.7b08c568b09f0p-1 -0x1.61f4626c37d55p-1 0x1.c8e8305311542p-2 0x1.22fac696b3440p-1",
        "0x1.6be23a73a1cc0p-5 0x1.e941dc58c5e34p-1 0x1.eec96e61c1ceep-1 -0x1.c095c578e07ecp-3 -0x1.13c61652e6beep-3",
        "0x1.59ad651e05deap-1 0x1.4ca535c3f442bp-2 -0x1.344435d7bfcfap-1 0x1.8e93b49440b08p-1 0x1.6b5dc87a1fbd5p-3",
    ),
}


@pytest.mark.parametrize("criterion, seed", sorted(_TSTATE_PINS))
def test_biased_constructions_are_pinned_bit_for_bit(criterion, seed):
    config = achieve(criterion, *_pinned_case(seed))
    values = [config.target_bound, config.attained_chsh]
    for o in config.scenario.observables():
        values += [o.bias, o.strength, *o.direction]
    want = " ".join(_TSTATE_PINS[criterion, seed]).split()
    assert [float(v).hex() for v in values] == want


def test_tstate_construction_evaluates_one_bound_and_one_check(monkeypatch):
    calls = []

    def counted(name):
        original = getattr(construct, name)
        monkeypatch.setattr(construct, name, lambda *args: calls.append(name) or original(*args))

    for name in ("bound_and_w", "thm3_bound", "_check_attainment", "chsh_signed"):
        counted(name)
    state, q, angles = _pinned_case(5)
    construct.achieving_scenario_tstate(state, q, *angles)
    assert sorted(calls) == ["_check_attainment", "bound_and_w", "chsh_signed", "chsh_signed"]
    calls.clear()
    construct.achieving_directions(state, q, *angles)
    assert sorted(calls) == ["_check_attainment", "bound_and_w", "chsh_signed"]
    calls.clear()
    # thm3 is checked once, against its own bound; no thm1 bound is evaluated.
    construct.thm3_achieving(state, StrengthQuad(q.sx, q.sxp, q.sy, q.sy))
    assert sorted(calls) == ["_check_attainment", "chsh_signed", "thm3_bound"]


@pytest.mark.parametrize("criterion", construct.ACHIEVABLE)
def test_each_construction_builds_w_once(criterion, monkeypatch):
    # W and its spectrum cross-check serve both the target and the frames.
    calls = []
    original = bounds.w_bundle

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(bounds, "w_bundle", counted)
    monkeypatch.setattr(construct, "w_bundle", counted)
    state, q, angles = _pinned_case(0)
    if criterion == "thm4":
        state = werner(0.9)
    config = achieve(criterion, state, q, angles)
    assert config.attained_chsh >= config.target_bound - _ATTAIN_TOL
    assert len(calls) == 1
