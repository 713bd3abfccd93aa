import math

import numpy as np
import pytest

from bellbound import bounds as bounds_module
from bellbound import (
    DomainError,
    InternalConsistencyError,
    InvalidInputError,
    OptimizeSpec,
    StrengthQuad,
    bell_diagonal,
    cor1_bound,
    cor2_sufficient,
    cor4_bound,
    correlation_singular_values,
    horodecki,
    j_max,
    maximize_chsh,
    random_rotation,
    random_state,
    s0_bound,
    s0_tilde,
    singlet,
    st_bound,
    st_tilde,
    state_from_fano,
    strength_thresholds,
    svd,
    thm3_bound,
    thm4_bound,
    thm4_branch,
    w_bundle,
    werner,
)

SQ2 = math.sqrt(2.0)
PI2 = math.pi / 2


def _i_pm_closed_form(q, theta, phi):
    # Explicit singular-value sum/difference of the strength/angle matrix,
    # recomputed here as an independent check of the SVD route.
    sx, sxp, sy, syp = q.as_tuple()
    base = (sx**2 + sxp**2) * (sy**2 + syp**2)
    tth = 2 * sx * sxp * (sy**2 - syp**2) * math.cos(theta)
    tph = 2 * sy * syp * (sx**2 - sxp**2) * math.cos(phi)
    cross = 4 * sx * sxp * sy * syp * math.sin(theta) * math.sin(phi)
    return (
        math.sqrt(max(0.0, base + tth + tph + cross)),
        math.sqrt(max(0.0, base + tth + tph - cross)),
    )


def _random_quad(rng):
    return StrengthQuad(*rng.uniform(0.0, 1.0, 4))


def test_horodecki_examples():
    assert abs(horodecki(singlet()) - 2 * SQ2) < 1e-14
    assert abs(horodecki(werner(0.5)) - SQ2) < 1e-14
    assert horodecki(bell_diagonal(0, 0, 0)) == 0.0


def test_horodecki_of_a_state_reads_its_cached_decomposition(monkeypatch):
    state = random_state(np.random.default_rng(31), "general")
    s = np.linalg.svd(state.t, compute_uv=False)
    expected = 2 * math.hypot(s[0], s[1])

    def no_second_decomposition(t):
        raise AssertionError("horodecki(state) decomposed t again")

    monkeypatch.setattr(bounds_module, "singular_values", no_second_decomposition)
    assert abs(horodecki(state) - expected) < 1e-15


def test_w_bundle_projective_right_angles():
    wb = w_bundle(StrengthQuad(1, 1, 1, 1), PI2, PI2)
    assert np.allclose(wb.w, [[1, 1], [1, -1]], atol=1e-14)
    assert bounds_module.coefficients_abcd(StrengthQuad(1, 1, 1, 1)) == (2, 2, 2, 2)
    assert abs(wb.i_plus - 2 * SQ2) < 1e-12
    assert abs(wb.i_minus) < 1e-12


def test_w_bundle_zero_strengths():
    wb = w_bundle(StrengthQuad(0, 0, 0, 0), 1.0, 2.0)
    assert wb.i_plus == 0.0 and wb.i_minus == 0.0


def test_w_bundle_routes_agree():
    rng = np.random.default_rng(11)
    for _ in range(300):
        q = _random_quad(rng)
        theta, phi = rng.uniform(0, math.pi, 2)
        wb = w_bundle(q, theta, phi)
        ip, im = _i_pm_closed_form(q, theta, phi)
        assert abs(wb.i_plus**2 - ip**2) < 1e-10
        assert abs(wb.i_minus**2 - im**2) < 1e-10
        # sum^2 - diff^2 = 4 |det W|
        det = abs(np.linalg.det(wb.w))
        assert abs(wb.i_plus**2 - wb.i_minus**2 - 4 * det) < 1e-10
        s = svd(wb.w).s
        assert abs(wb.i_plus - (s[0] + s[1])) < 1e-10
        assert abs(wb.i_minus - (s[0] - s[1])) < 1e-10


def _w_bundle_cases(rng):
    corner_angles = (0.0, PI2, math.pi)
    for theta in corner_angles:
        for phi in corner_angles:
            yield StrengthQuad(*rng.uniform(0, 1, 4)), theta, phi
    for corner in (0.0, 1.0):
        for k in range(4):
            strengths = list(rng.uniform(0, 1, 4))
            strengths[k] = corner
            yield StrengthQuad(*strengths), *rng.uniform(0, math.pi, 2)
        yield StrengthQuad(corner, corner, corner, corner), *rng.uniform(0, math.pi, 2)
    for _ in range(20):
        # Equal strengths per side at right angles: equal singular values.
        sa, sb = rng.uniform(0, 1, 2)
        yield StrengthQuad(sa, sa, sb, sb), PI2, PI2
    for _ in range(400):
        yield StrengthQuad(*rng.uniform(0, 1, 4)), *rng.uniform(0, math.pi, 2)


def _assert_spectrum_matches_svd(wb):
    s = np.linalg.svd(wb.w, compute_uv=False)
    assert abs(wb.i_plus - (s[0] + s[1])) < 1e-12
    assert abs(wb.i_minus - (s[0] - s[1])) < 1e-12
    assert abs(0.5 * (wb.i_plus + wb.i_minus) - s[0]) < 1e-12
    assert abs(0.5 * (wb.i_plus - wb.i_minus) - s[1]) < 1e-12


def test_w_bundle_spectrum_matches_numpy_svd():
    rng = np.random.default_rng(41)
    equal_singular_values = 0
    for q, theta, phi in _w_bundle_cases(rng):
        wb = w_bundle(q, theta, phi)
        # det W = -2 sx sxp sy syp sin(theta) sin(phi) <= 0 for valid strengths.
        assert np.linalg.det(wb.w) <= 1e-15
        _assert_spectrum_matches_svd(wb)
        equal_singular_values += wb.i_minus < 1e-15
    assert equal_singular_values >= 20


def test_w_bundle_spectrum_with_positive_determinant(monkeypatch):
    # Negating W's second row keeps its singular values and flips the sign
    # of det W, which valid strengths cannot reach.
    coefficients = bounds_module.coefficients_abcd

    def flipped(q):
        ca, cb, cc, cd = coefficients(q)
        return ca, cb, -cc, -cd

    monkeypatch.setattr(bounds_module, "coefficients_abcd", flipped)
    rng = np.random.default_rng(42)
    positive = 0
    for q, theta, phi in _w_bundle_cases(rng):
        wb = w_bundle(q, theta, phi)
        positive += np.linalg.det(wb.w) > 1e-12
        _assert_spectrum_matches_svd(wb)
    assert positive >= 300


_GRID_THETA = np.array([0.3, 1.1, 2.9])
_GRID_PHI = np.array([2.5, 2.0, 0.0])


@pytest.mark.parametrize(
    "shift, theta, phi",
    [
        pytest.param((1e-6, 0.0), 1.1, 2.0, id="sum"),
        pytest.param((0.0, 1e-6), 1.1, 2.0, id="difference"),
        pytest.param((1e-6, 0.0), _GRID_THETA, _GRID_PHI, id="sum-array"),
        pytest.param((0.0, 1e-6), _GRID_THETA, _GRID_PHI, id="difference-array"),
    ],
)
def test_w_bundle_cross_check_fires(monkeypatch, shift, theta, phi):
    closed_form = bounds_module._i_pm_squared

    def shifted(q, theta, phi, absolute, xp):
        # Off at theta = 1.1 only, so an array's error must name that point.
        plus, minus = closed_form(q, theta, phi, absolute, xp)
        at = np.asarray(theta) == 1.1
        return plus + shift[0] * at, minus + shift[1] * at

    monkeypatch.setattr(bounds_module, "_i_pm_squared", shifted)
    with pytest.raises(InternalConsistencyError, match="strength/angle closed form") as caught:
        w_bundle(StrengthQuad(0.9, 0.7, 0.8, 0.6), theta, phi)
    assert str(caught.value).endswith("at theta = 1.1, phi = 2.0")


def test_w_bundle_equal_strengths_eigenvalues():
    # Equal strengths per side: eigenvalues of W^T W collapse to
    # 2 sx^2 sy^2 (1 +- sqrt(1 - sin^2 theta sin^2 phi)).
    rng = np.random.default_rng(12)
    for _ in range(200):
        sa, sb = rng.uniform(0, 1, 2)
        theta, phi = rng.uniform(0, math.pi, 2)
        wb = w_bundle(StrengthQuad(sa, sa, sb, sb), theta, phi)
        root = math.sqrt(max(0.0, 1 - math.sin(theta) ** 2 * math.sin(phi) ** 2))
        s1 = 0.5 * (wb.i_plus + wb.i_minus)
        s2 = 0.5 * (wb.i_plus - wb.i_minus)
        assert abs(s1**2 - 2 * sa**2 * sb**2 * (1 + root)) < 1e-10
        assert abs(s2**2 - 2 * sa**2 * sb**2 * (1 - root)) < 1e-10


def test_w_bundle_rejects_bad_angles():
    with pytest.raises(InvalidInputError):
        w_bundle(StrengthQuad(1, 1, 1, 1), -0.1, 1.0)
    with pytest.raises(InvalidInputError):
        w_bundle(StrengthQuad(1, 1, 1, 1), 1.0, 3.5)


@pytest.mark.parametrize(
    "theta, phi, message",
    [
        (np.array([0.0, 1.0, 3.5, -0.1]), 1.0, "theta must lie in [0, pi] (radians), got 3.5"),
        (
            1.0,
            np.array([math.pi + 1e-12, math.pi + 1e-11]),
            "phi must lie in [0, pi] (radians), got 3.14159265359",
        ),
        (np.array([0.5, math.nan]), np.array([0.5, 0.5]), "theta must lie in [0, pi] (radians), got nan"),
    ],
    ids=["first-bad-named", "just-past-slack", "nan"],
)
def test_w_bundle_rejects_one_bad_angle_in_an_array(theta, phi, message):
    with pytest.raises(InvalidInputError) as caught:
        s0_bound(singlet(), StrengthQuad(1, 1, 1, 1), theta, phi)
    assert str(caught.value).startswith(message)


def _array_cases(rng):
    """States, strength quads and angle arrays for the array/float comparison."""
    corner_angles = [0.0, math.pi, math.pi + 1e-12, math.pi + 5e-13, PI2]
    for trial in range(60):
        state = random_state(rng, ("general", "tstate", "pure")[trial % 3])
        kind = trial % 5
        if kind == 0:
            q = _random_quad(rng)
        elif kind == 1:
            sa, sb = rng.uniform(0, 1, 2)
            q = StrengthQuad(sa, sa, sb, sb)
        elif kind == 2:
            q = StrengthQuad(*rng.choice([0.0, 1.0], 4))
        elif kind == 3:
            q = StrengthQuad(1.0, 1.0, 1.0, 1.0)
        else:
            strengths = list(rng.uniform(0, 1, 4))
            strengths[trial % 4] = float(trial % 2)
            q = StrengthQuad(*strengths)
        theta = np.concatenate([corner_angles, rng.uniform(0, math.pi, 40)])
        phi = np.concatenate([corner_angles[::-1], rng.uniform(0, math.pi, 40)])
        yield state, q, theta, phi


@pytest.mark.parametrize("bound", [s0_bound, s0_tilde], ids=["s0_bound", "s0_tilde"])
def test_array_angles_match_float_calls(bound):
    rng = np.random.default_rng(61)
    for state, q, theta, phi in _array_cases(rng):
        report = bound(state, q, theta, phi)
        assert report.value.shape == theta.shape == report.violated.shape
        for k in range(theta.size):
            single = bound(state, q, float(theta[k]), float(phi[k]))
            assert abs(report.value[k] - single.value) <= 1e-15
            assert bool(report.violated[k]) == single.violated
        # Angles up to 1e-12 past pi are clamped to pi.
        assert report.value[2] == report.value[1] and report.value[3] == report.value[1]
        # Arrays broadcast: a (theta, phi) grid in one call.
        grid = bound(state, q, theta[:, None], phi[None, :5]).value
        assert grid.shape == (theta.size, 5)
        assert abs(grid[7, 4] - bound(state, q, float(theta[7]), float(phi[4])).value) <= 1e-15


@pytest.mark.parametrize("bound", [cor1_bound, cor4_bound], ids=["cor1_bound", "cor4_bound"])
def test_array_strengths_match_float_calls(bound):
    # A strength grid in one call gives each point's float-call report exactly.
    rng = np.random.default_rng(62)
    for state in (singlet(), random_state(rng, "tstate")):
        s_a = np.concatenate([[0.0, 1.0, 0.835], rng.uniform(0, 1, 40)])
        s_b = np.concatenate([[1.0, 0.0, 0.835], rng.uniform(0, 1, 40)])
        report = bound(state, s_a, s_b)
        assert report.value.shape == report.violated.shape == s_a.shape
        for k in range(s_a.size):
            single = bound(state, float(s_a[k]), float(s_b[k]))
            assert report.value[k] == single.value and bool(report.violated[k]) == single.violated
            assert type(single.value) is float


def test_s0_examples():
    q1 = StrengthQuad(1, 1, 1, 1)
    assert abs(s0_bound(singlet(), q1, PI2, PI2).value - 2 * SQ2) < 1e-12
    qs = StrengthQuad(0.9, 0.9, 0.9, 0.9)
    assert abs(s0_bound(singlet(), qs, PI2, PI2).value - 2 * 0.81 * SQ2) < 1e-12
    assert s0_bound(singlet(), StrengthQuad(0, 0, 0, 0), PI2, PI2).value == 0.0


def test_s0_two_forms_agree():
    rng = np.random.default_rng(13)
    kinds = ("tstate", "general", "pure")
    for trial in range(200):
        state = random_state(rng, kinds[trial % 3])
        q = _random_quad(rng)
        theta, phi = rng.uniform(0, math.pi, 2)
        s1, s2, _ = correlation_singular_values(state)
        wb = w_bundle(q, theta, phi)
        product_form = s1 * 0.5 * (wb.i_plus + wb.i_minus) + s2 * 0.5 * (wb.i_plus - wb.i_minus)
        split_form = 0.5 * (s1 + s2) * wb.i_plus + 0.5 * (s1 - s2) * wb.i_minus
        value = s0_bound(state, q, theta, phi).value
        assert abs(value - product_form) < 1e-10
        assert abs(value - split_form) < 1e-10


def test_s0_tilde_relabeling_maximum():
    rng = np.random.default_rng(14)
    for trial in range(200):
        state = random_state(rng, "tstate" if trial % 2 else "general")
        q = _random_quad(rng)
        theta, phi = rng.uniform(0, math.pi, 2)
        tilde = s0_tilde(state, q, theta, phi).value
        variants = [
            s0_bound(state, quad, theta, phi).value
            for quad in (
                q,
                StrengthQuad(q.sxp, q.sx, q.sy, q.syp),
                StrengthQuad(q.sx, q.sxp, q.syp, q.sy),
                StrengthQuad(q.sxp, q.sx, q.syp, q.sy),
            )
        ]
        assert abs(tilde - max(variants)) < 1e-10
        assert tilde >= s0_bound(state, q, theta, phi).value - 1e-12


def test_s0_tilde_equal_strengths_collapse():
    rng = np.random.default_rng(15)
    for _ in range(50):
        sa, sb = rng.uniform(0, 1, 2)
        theta, phi = rng.uniform(0, math.pi, 2)
        state = random_state(rng, "general")
        q = StrengthQuad(sa, sa, sb, sb)
        assert abs(s0_tilde(state, q, theta, phi).value - s0_bound(state, q, theta, phi).value) < 1e-12


def test_s0_tilde_specific_example():
    q = StrengthQuad(1, 0.5, 1, 0.5)
    theta = 2 * math.pi / 3
    tilde = s0_tilde(singlet(), q, theta, PI2).value
    plain = s0_bound(singlet(), q, theta, PI2).value
    assert tilde >= plain + 1e-6  # |cos theta| strictly helps here


def test_j_max_examples():
    assert j_max(StrengthQuad(1, 1, 1, 1)) == 0.0
    assert j_max(StrengthQuad(0, 0, 0, 0)) == 2.0
    assert abs(j_max(StrengthQuad(1, 0.5, 1, 0.5)) - 0.25) < 1e-15


def test_j_max_monotone_nonincreasing_in_strengths():
    rng = np.random.default_rng(16)
    for _ in range(200):
        q = _random_quad(rng)
        base = j_max(q)
        for idx in range(4):
            vals = list(q.as_tuple())
            vals[idx] = min(1.0, vals[idx] + rng.uniform(0, 1 - vals[idx]) if vals[idx] < 1 else 1.0)
            assert j_max(StrengthQuad(*vals)) <= base + 1e-12


def test_st_examples():
    q = StrengthQuad(0.835, 0.835, 0.835, 0.835)
    report = st_bound(singlet(), q, PI2, PI2)
    expected = 2 * 0.835**2 * SQ2 + 2 * 0.165**2
    assert abs(report.value - expected) < 1e-12
    assert report.violated
    unbiased = s0_bound(singlet(), q, PI2, PI2)
    assert not unbiased.violated and unbiased.value < 2.0
    # Unit strengths: no bias contribution left.
    q1 = StrengthQuad(1, 1, 1, 1)
    assert st_bound(singlet(), q1, PI2, PI2).value == s0_bound(singlet(), q1, PI2, PI2).value


def test_st_requires_tstate():
    bloch = state_from_fano([0, 0, 0.4], np.zeros(3), np.zeros((3, 3)))
    with pytest.raises(DomainError):
        st_bound(bloch, StrengthQuad(1, 1, 1, 1), PI2, PI2)
    with pytest.raises(DomainError):
        st_tilde(bloch, StrengthQuad(1, 1, 1, 1), PI2, PI2)


def test_st_tilde_examples():
    rng = np.random.default_rng(17)
    state = random_state(rng, "tstate")
    q1 = StrengthQuad(1, 1, 1, 1)
    theta, phi = rng.uniform(0, math.pi, 2)
    assert abs(st_tilde(state, q1, theta, phi).value - s0_tilde(state, q1, theta, phi).value) < 1e-14
    zero = StrengthQuad(0, 0, 0, 0)
    report = st_tilde(state, zero, theta, phi)
    assert report.value == 2.0 and not report.violated


def test_cor1_examples():
    report = cor1_bound(singlet(), 1.0, 1.0)
    assert abs(report.value - 2 * SQ2) < 1e-14
    assert np.allclose(report.optimal_angles, [PI2, PI2], atol=1e-12)
    # s1 = 0.9, s2 = 0.3 diagonal T-state (signs chosen to stay inside
    # the Bell tetrahedron).
    state = bell_diagonal(0.9, -0.3, 0.3)
    report = cor1_bound(state, 1.0, 1.0)
    assert abs(report.value - 2 * math.sqrt(0.90)) < 1e-12
    expected_sin = math.sqrt(0.54 / 0.90)
    assert abs(math.sin(report.optimal_angles[0]) - expected_sin) < 1e-12
    attained = s0_bound(state, StrengthQuad(1, 1, 1, 1), *report.optimal_angles).value
    assert abs(attained - report.value) < 1e-10


def test_cor1_degenerate_optimal_family():
    rng = np.random.default_rng(18)
    for _ in range(100):
        state = random_state(rng, "tstate")
        s1, s2, _ = correlation_singular_values(state)
        if s1 < 1e-6:
            continue
        sa, sb = rng.uniform(0.1, 1.0, 2)
        target = 2 * sa * sb * math.hypot(s1, s2)
        product = 2 * s1 * s2 / (s1**2 + s2**2) if s1 > 0 else 0.0
        # Any angle pair with sin(theta) sin(phi) = product is optimal.
        sin_theta = rng.uniform(max(product, 1e-9), 1.0)
        sin_phi = product / sin_theta
        theta = math.asin(min(1.0, sin_theta))
        if rng.uniform() < 0.5:
            theta = math.pi - theta
        phi = math.asin(min(1.0, sin_phi))
        value = s0_bound(state, StrengthQuad(sa, sa, sb, sb), theta, phi).value
        assert abs(value - target) < 1e-10


def test_cor2_examples():
    assert abs(cor2_sufficient(singlet(), StrengthQuad(1, 1, 1, 1)).value - 2 * SQ2) < 1e-12
    rng = np.random.default_rng(19)
    for _ in range(100):
        sa, sb = rng.uniform(0, 1, 2)
        state = random_state(rng, "general")
        s1, s2, _ = correlation_singular_values(state)
        value = cor2_sufficient(state, StrengthQuad(sa, sa, sb, sb)).value
        # Equal strengths per side: the right-angle bound collapses to
        # sqrt(2) sa sb (s1 + s2).
        assert abs(value - SQ2 * sa * sb * (s1 + s2)) < 1e-12
    assert cor2_sufficient(singlet(), StrengthQuad(0, 0, 0, 0)).value == 0.0


def test_cor2_matches_right_angle_bound():
    # cor2 is thm1 at right angles; the paper also writes it with its own sum
    # and difference of W's singular values.
    rng = np.random.default_rng(20)
    for trial in range(200):
        state = random_state(rng, "tstate" if trial % 2 else "general")
        q = _random_quad(rng)
        sx, sxp, sy, syp = q.as_tuple()
        i_plus = math.hypot(sx * sy + sxp * syp, sx * syp + sxp * sy)
        i_minus = math.hypot(sx * sy - sxp * syp, sx * syp - sxp * sy)
        s1, s2, _ = correlation_singular_values(state)
        paper = 0.5 * (i_plus + i_minus) * s1 + 0.5 * (i_plus - i_minus) * s2
        value = cor2_sufficient(state, q).value
        assert value == s0_bound(state, q, PI2, PI2).value
        assert abs(value - paper) < 1e-12


def test_cor4_examples():
    assert abs(cor4_bound(singlet(), 1.0, 1.0).value - cor1_bound(singlet(), 1.0, 1.0).value) < 1e-14
    report = cor4_bound(singlet(), 0.835, 0.835)
    assert abs(report.value - (2 * 0.835**2 * SQ2 + 2 * 0.165**2)) < 1e-12
    assert cor4_bound(singlet(), 1.0, 0.0).value == 0.0
    bloch = state_from_fano([0, 0, 0.4], np.zeros(3), np.zeros((3, 3)))
    with pytest.raises(DomainError):
        cor4_bound(bloch, 0.5, 0.5)


def test_strength_thresholds():
    unb, bia = strength_thresholds(SQ2)
    assert abs(unb - 2 ** (-0.25)) < 1e-14
    assert abs(bia - 2 / (1 + SQ2)) < 1e-14
    assert strength_thresholds(1.0) == (1.0, 1.0)
    unb, bia = strength_thresholds(1.2)
    assert abs(unb - 1 / math.sqrt(1.2)) < 1e-14
    assert abs(bia - 2 / 2.2) < 1e-14
    assert bia < unb
    with pytest.raises(InvalidInputError):
        strength_thresholds(0.0)


def test_thm3_examples():
    report = thm3_bound(singlet(), StrengthQuad(1.0, 1.0, 1.0, 0.5))
    assert abs(report.value - 2 * math.sqrt(1.25)) < 1e-12
    assert abs(report.optimal_angles[0] - 2 * math.atan(0.5)) < 1e-12
    assert abs(report.optimal_angles[1] - PI2) < 1e-15
    #

    # sin(theta) matches the stated closed form.
    s1 = s2 = 1.0
    sy, syp = 1.0, 0.5
    sin_theta = 2 * s1 * s2 * sy * syp / (s1**2 * sy**2 + s2**2 * syp**2)
    assert abs(math.sin(report.optimal_angles[0]) - sin_theta) < 1e-12


def test_thm3_reduces_to_cor1():
    rng = np.random.default_rng(23)
    for _ in range(100):
        state = random_state(rng, "general")
        sa, sb = rng.uniform(0, 1, 2)
        assert abs(thm3_bound(state, StrengthQuad(sa, sa, sb, sb)).value - cor1_bound(state, sa, sb).value) < 1e-12


def test_thm3_weak_arm_limit():
    state = bell_diagonal(0.95, -0.2, 0.2)
    report = thm3_bound(state, StrengthQuad(1.0, 1.0, 1.0, 0.0))
    assert abs(report.value - 2 * 0.95) < 1e-12
    # Rank-one correlations with a vanishing arm never violate.
    from bellbound import product_state

    prod = product_state([0, 0, 1.0], [1.0, 0, 0])
    assert thm3_bound(prod, StrengthQuad(1.0, 1.0, 1.0, 0.0)).value <= 2.0 + 1e-12


def test_thm3_biased_tstate_variant():
    # The paper's biased T-state form, 2 s_a sqrt(s1^2 sy^2 + s2^2 syp^2)
    # + 2 (1 - s_a)(1 - syp), is thm3_bound plus the bias term j_max.
    report = thm3_bound(singlet(), StrengthQuad(0.9, 0.9, 0.8, 0.5))
    base = 2 * 0.9 * math.hypot(0.8, 0.5)
    assert abs(report.value + j_max(StrengthQuad(0.9, 0.9, 0.8, 0.5)) - (base + 2 * 0.1 * 0.5)) < 1e-12
    rng = np.random.default_rng(27)
    for _ in range(2000):
        state = random_state(rng, "tstate")
        s_a = float(rng.uniform(0, 1))
        sy, syp = sorted(rng.uniform(0, 1, 2), reverse=True)
        s1, s2, _ = correlation_singular_values(state)
        paper = 2 * s_a * math.hypot(s1 * sy, s2 * syp) + 2 * (1 - s_a) * (1 - syp)
        q = StrengthQuad(s_a, s_a, sy, syp)
        value = thm3_bound(state, q).value + j_max(q)
        assert abs(value - paper) < 1e-14


def test_thm3_takes_either_order_and_either_side():
    # Exchanging y and y' (or x and x') is the same as negating the equal
    # side's second observable: same value, that side's angle -> pi - angle.
    rng = np.random.default_rng(29)
    for _ in range(200):
        state = random_state(rng, "general")
        s_a, s_hi, s_lo = float(rng.uniform(0, 1)), *sorted(rng.uniform(0, 1, 2).tolist(), reverse=True)
        ordered = thm3_bound(state, StrengthQuad(s_a, s_a, s_hi, s_lo))
        reversed_b = thm3_bound(state, StrengthQuad(s_a, s_a, s_lo, s_hi))
        assert reversed_b.value == ordered.value and not ordered.notes and not reversed_b.notes
        theta, phi = ordered.optimal_angles
        assert reversed_b.optimal_angles == (math.pi - theta, phi)
        # Equal strengths on side B only: the sides are exchanged, angles swapped along.
        for q, angles in ((StrengthQuad(s_hi, s_lo, s_a, s_a), (phi, theta)), (StrengthQuad(s_lo, s_hi, s_a, s_a), (phi, math.pi - theta))):
            exchanged = thm3_bound(state, q)
            assert exchanged.value == ordered.value and exchanged.optimal_angles == angles
            assert exchanged.notes == "sides exchanged (equal strengths on side B)"
    # Equal within EQUAL_STRENGTH_TOL counts as equal; further apart on both sides does not.
    assert thm3_bound(singlet(), StrengthQuad(0.5, 0.5 + 5e-13, 0.9, 0.4)).notes == ""
    for q in (StrengthQuad(0.5, 0.6, 0.9, 0.4), StrengthQuad(0.5, 0.5 + 2e-12, 0.9, 0.9 - 2e-12)):
        with pytest.raises(DomainError, match="no side has equal strengths"):
            thm3_bound(singlet(), q)


def test_thm4_interior_example():
    q = StrengthQuad(1, 0.8, 1, 0.9)
    first, a, b, c = thm4_branch(q)
    assert first and abs(a * b) / c**2 < 0.03
    report = thm4_bound(singlet(), q)
    assert abs(report.value - math.sqrt(2 * 1.64 * 1.81)) < 1e-12
    assert abs(math.cos(report.optimal_angles[0]) - 1.64 * 0.19 / (2 * 0.8 * 1.81)) < 1e-12
    assert abs(math.cos(report.optimal_angles[1]) - 0.36 * 1.81 / (2 * 0.9 * 1.64)) < 1e-12


def test_thm4_unit_strengths():
    report = thm4_bound(singlet(), StrengthQuad(1, 1, 1, 1))
    assert abs(report.value - 2 * SQ2) < 1e-12
    assert np.allclose(report.optimal_angles, [PI2, PI2], atol=1e-12)


def test_thm4_zero_strength_uses_extremal_branch():
    q = StrengthQuad(0.9, 0.7, 0.8, 0.0)
    first, _, _, c = thm4_branch(q)
    assert c == 0.0 and not first
    report = thm4_bound(werner(0.9), q)
    assert report.value + j_max(q) <= 2.0 + 1e-12
    assert "extremal" in report.notes


def test_thm4_branch_dominance():
    rng = np.random.default_rng(24)
    checked = 0
    while checked < 200:
        q = _random_quad(rng)
        first, a, b, c = thm4_branch(q)
        if not first:
            continue
        s1 = 0.8
        interior = s1 * math.sqrt(2 * (q.sx**2 + q.sxp**2) * (q.sy**2 + q.syp**2))
        from bellbound.bounds import coefficients_abcd

        extremal = s1 * max(abs(v) for v in coefficients_abcd(q))
        assert interior >= extremal - 1e-12
        checked += 1


def test_thm4_sound_in_the_branch_band():
    # Strengths with 0.9 < |ab|/c^2 <= 1: the interior-angle branch applies,
    # but the thm4 audit sampler keeps clear of the branch boundary and never
    # draws them. A branch test at |ab| <= 0.9 c^2 lowers the bound here by
    # 3.6e-6 to 2e-4, and the free-angle oracle then overshoots it.
    rng = np.random.default_rng(2024)
    state = werner(0.9)
    quads = []
    while len(quads) < 6:
        q = StrengthQuad(*rng.uniform(0.3, 1.0, 4))
        _, a, b, c = thm4_branch(q)
        if 0.9 * c * c < abs(a * b) <= c * c:
            quads.append(q)
    for seed, q in enumerate(quads):
        oracle = maximize_chsh(OptimizeSpec(state, q, None, "fixed-zero", restarts=8, seed=seed)).best_value
        assert oracle <= thm4_bound(state, q).value + 1e-9


@pytest.mark.parametrize("stream, kind", enumerate(["tstate", "general", "pure"]))
def test_thm1_sound_at_strengths_0_1_and_angles_0_pi(stream, kind):
    # The thm1 audit draws strengths and angles uniformly, so it never lands
    # on their ends: here every strength is 0 or 1 and every angle 0 or pi
    # (x parallel or antiparallel to x').
    rng = np.random.default_rng((stream, 31))
    for seed in range(25):
        state = random_state(rng, kind)
        q = StrengthQuad(*(float(v) for v in rng.choice([0.0, 1.0], 4)))
        theta, phi = (float(v) for v in rng.choice([0.0, math.pi], 2))
        oracle = maximize_chsh(OptimizeSpec(state, q, (theta, phi), "fixed-zero", restarts=3, seed=seed)).best_value
        assert oracle <= s0_bound(state, q, theta, phi).value + 1e-9


@pytest.mark.parametrize("stream, kind", enumerate(["tstate", "general", "pure"]))
def test_thm3_sound_with_b_strengths_nearly_equal(stream, kind):
    # The thm3 audit keeps sy - syp >= 0.25. Here sy and syp are 1e-9 apart,
    # or 1e-13, within EQUAL_STRENGTH_TOL, so that both sides count as equal.
    rng = np.random.default_rng((stream, 37))
    for seed in range(3):
        state = random_state(rng, kind)
        s_a, sy = (float(v) for v in rng.uniform(0.2, 1.0, 2))
        for gap in (1e-9, 1e-13):
            q = StrengthQuad(s_a, s_a, sy, sy - gap if seed % 2 == 0 else sy + gap)
            oracle = maximize_chsh(OptimizeSpec(state, q, None, "fixed-zero", restarts=3, seed=seed)).best_value
            assert oracle <= thm3_bound(state, q).value + 1e-9


def _rotated_tstate(rng, s2):
    # Correlation singular values s1 > s2 >= s3 = s2 / 2, on random frames.
    s1 = float(rng.uniform(0.3, 0.95))
    t = random_rotation(rng) @ np.diag([-s1, -s2, -0.5 * s2]) @ random_rotation(rng).T
    return state_from_fano(np.zeros(3), np.zeros(3), t)


SMALL_S2 = (1e-6, 1e-9, 1e-13, 0.0)


@pytest.mark.parametrize("s2", SMALL_S2)
def test_thm1_sound_at_small_s2(s2):
    # The audits draw s2 away from 0; here the second singular value is tiny
    # or 0, and the oracle runs without the construction's warm start.
    rng = np.random.default_rng((41, SMALL_S2.index(s2)))
    for seed in range(3):
        state = _rotated_tstate(rng, s2)
        q = StrengthQuad(*rng.uniform(0.0, 1.0, 4))
        theta, phi = (float(v) for v in rng.uniform(0.0, math.pi, 2))
        oracle = maximize_chsh(OptimizeSpec(state, q, (theta, phi), "fixed-zero", restarts=6, seed=seed)).best_value
        assert oracle <= s0_bound(state, q, theta, phi).value + 1e-9


@pytest.mark.parametrize("s2", SMALL_S2)
def test_thm3_sound_at_small_s2(s2):
    rng = np.random.default_rng((43, SMALL_S2.index(s2)))
    for seed in range(3):
        state = _rotated_tstate(rng, s2)
        s_a, sy = (float(v) for v in rng.uniform(0.5, 1.0, 2))
        q = StrengthQuad(s_a, s_a, sy, float(rng.uniform(0.0, sy - 0.1)))
        oracle = maximize_chsh(OptimizeSpec(state, q, None, "fixed-zero", restarts=6, seed=seed)).best_value
        assert oracle <= thm3_bound(state, q).value + 1e-9


def test_thm4_requires_equal_singular_values():
    with pytest.raises(DomainError):
        thm4_bound(bell_diagonal(0.9, -0.3, 0.3), StrengthQuad(1, 1, 1, 1))


def test_schwarz_chain():
    rng = np.random.default_rng(25)
    for trial in range(200):
        state = random_state(rng, "tstate" if trial % 2 else "general")
        q = _random_quad(rng)
        theta, phi = rng.uniform(0, math.pi, 2)
        s1, s2, _ = correlation_singular_values(state)
        wb = w_bundle(q, theta, phi)
        middle = math.sqrt(np.trace(wb.w.T @ wb.w)) * math.hypot(s1, s2)
        value = s0_bound(state, q, theta, phi).value
        assert value <= middle + 1e-10
        assert middle <= horodecki(state) + 1e-10


def test_s0_monotone_in_strengths_at_right_angles():
    # Monotonicity in each strength holds at orthogonal relative angles.
    # It does NOT hold at arbitrary fixed angles: see the counterexample
    # test below, where a stronger observable cancels its partner.
    rng = np.random.default_rng(26)
    for _ in range(100):
        state = random_state(rng, "general")
        q = _random_quad(rng)
        base = s0_bound(state, q, PI2, PI2).value
        for idx in range(4):
            vals = list(q.as_tuple())
            vals[idx] = min(1.0, vals[idx] * 1.2 + 0.05)
            assert s0_bound(state, StrengthQuad(*vals), PI2, PI2).value >= base - 1e-12


def test_s0_not_monotone_at_antipodal_angles():
    # With x' forced antiparallel to x and a dead Y' arm, the X and X'
    # contributions cancel as their strengths approach each other.
    low = s0_bound(singlet(), StrengthQuad(0.0, 1.0, 1.0, 0.0), math.pi, 1.0).value
    high = s0_bound(singlet(), StrengthQuad(0.9, 1.0, 1.0, 0.0), math.pi, 1.0).value
    assert abs(low - 1.0) < 1e-12
    assert abs(high - 0.1) < 1e-12


def test_s0_side_exchange_symmetry():
    rng = np.random.default_rng(27)
    for _ in range(100):
        state = random_state(rng, "tstate")
        q = _random_quad(rng)
        theta, phi = rng.uniform(0, math.pi, 2)
        swapped = StrengthQuad(q.sy, q.syp, q.sx, q.sxp)
        assert abs(
            s0_bound(state, q, theta, phi).value - s0_bound(state, swapped, phi, theta).value
        ) < 1e-10
