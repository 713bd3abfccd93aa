import math

import numpy as np
import pytest

from bellbound import (
    InvalidInputError,
    complete_frame,
    frame_from_pair,
    hermitian_eigenvalues_4,
    matrix_to_axis_angle,
    random_rotation,
    svd,
)

RECON_TOL = 1e-12
ORTHO_TOL = 1e-12
SV_ROT_TOL = 1e-10
TRACE_TOL = 1e-10


def _check_factors(m, fac, recon_tol=RECON_TOL):
    n = m.shape[0]
    assert np.max(np.abs(fac.u @ np.diag(fac.s) @ fac.v.T - m)) < recon_tol
    assert np.max(np.abs(fac.u.T @ fac.u - np.eye(n))) < ORTHO_TOL
    assert np.max(np.abs(fac.v.T @ fac.v - np.eye(n))) < ORTHO_TOL
    assert np.all(np.diff(fac.s) <= 0)
    assert np.all(fac.s >= 0)


def test_svd_diagonal_signs():
    fac = svd(np.diag([3.0, -2.0, 1.0]))
    assert np.allclose(fac.s, [3.0, 2.0, 1.0], atol=1e-15)


def test_svd_2x2_hadamard_like():
    m = np.array([[1.0, 1.0], [1.0, -1.0]])
    fac = svd(m)
    assert np.allclose(fac.s, [math.sqrt(2)] * 2, atol=1e-15)
    _check_factors(m, fac)


def test_svd_reconstruction_random_3x3():
    rng = np.random.default_rng(101)
    for _ in range(100):
        m = rng.normal(size=(3, 3))
        _check_factors(m, svd(m))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_svd_all_sizes_random(n):
    rng = np.random.default_rng(50 + n)
    for k in range(200):
        m = rng.normal(size=(n, n))
        if k % 5 == 0:
            m[:, k % n] = 0.0
        if k % 7 == 0:
            m = m @ m.T
        _check_factors(m, svd(m))


def test_svd_zero_matrix():
    fac = svd(np.zeros((3, 3)))
    assert np.all(fac.s == 0)
    _check_factors(np.zeros((3, 3)), fac)


def test_svd_zero_singular_values_are_positive_zeros():
    # Werner w = 0 has t = -0.0 * identity; a -0.0 singular value would turn
    # atan2-based angles (thm3's) into -pi.
    fac = svd(-0.0 * np.eye(3))
    assert not np.any(np.signbit(fac.s))


def test_svd_rotation_invariance():
    rng = np.random.default_rng(7)
    flip = np.diag([1.0, 1.0, -1.0])
    for k in range(100):
        m = rng.normal(size=(3, 3))
        left = random_rotation(rng)
        right = random_rotation(rng)
        if k % 3 == 0:
            left = left @ flip  # improper orthogonal factors preserve s too
        s0 = svd(m).s
        s1 = svd(left @ m @ right.T).s
        assert np.max(np.abs(s0 - s1)) < SV_ROT_TOL


def test_svd_trace_identities():
    rng = np.random.default_rng(8)
    for n in (2, 3, 4):
        for _ in range(100):
            m = rng.normal(size=(n, n))
            s = svd(m).s
            assert abs(np.trace(m.T @ m) - np.sum(s * s)) < TRACE_TOL
            assert abs(np.trace(m)) <= np.sum(s) + TRACE_TOL


def test_svd_deterministic_and_tie_stable():
    m = np.eye(3)
    f1 = svd(m)
    f2 = svd(m)
    assert np.array_equal(f1.u, f2.u)
    assert np.array_equal(f1.v, f2.v)
    assert np.array_equal(f1.s, f2.s)
    # Degenerate singular values keep the input column order.
    assert np.allclose(f1.u, np.eye(3))


def test_svd_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        svd(np.full((3, 3), np.nan))
    with pytest.raises(InvalidInputError):
        svd(np.zeros((5, 5)))
    with pytest.raises(InvalidInputError):
        svd(np.zeros((2, 3)))


def _charpoly_eigs(h):
    # Newton's identities on power sums; roots of the quartic are an
    # independent route to the spectrum.
    p = [np.trace(np.linalg.matrix_power(h, k)).real for k in (1, 2, 3, 4)]
    e1 = p[0]
    e2 = (e1 * p[0] - p[1]) / 2.0
    e3 = (e2 * p[0] - e1 * p[1] + p[2]) / 3.0
    e4 = (e3 * p[0] - e2 * p[1] + e1 * p[2] - p[3]) / 4.0
    roots = np.roots([1.0, -e1, e2, -e3, e4])
    return np.sort(roots.real)[::-1]


def test_hermitian_eigs_uniform_and_pure():
    assert np.allclose(hermitian_eigenvalues_4(np.eye(4) / 4), [0.25] * 4, atol=1e-14)
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2)  # singlet
    rho = np.outer(psi, psi)
    assert np.allclose(hermitian_eigenvalues_4(rho), [1.0, 0.0, 0.0, 0.0], atol=1e-13)


def test_hermitian_eigs_charpoly_oracle():
    rng = np.random.default_rng(77)
    for _ in range(200):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = g + g.conj().T
        mine = hermitian_eigenvalues_4(h)
        assert np.max(np.abs(mine - _charpoly_eigs(h))) < 1e-9
        assert abs(np.sum(mine) - np.trace(h).real) < 1e-10


def test_hermitian_eigs_rejects_non_hermitian():
    bad = np.eye(4, dtype=complex)
    bad[0, 1] = 1e-6
    with pytest.raises(InvalidInputError):
        hermitian_eigenvalues_4(bad)


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.sqrt(v @ v)


def test_complete_frame_default_rule():
    f = complete_frame(np.array([0.0, 0.0, 1.0]))
    assert np.allclose(f[:, 1], [1.0, 0.0, 0.0], atol=1e-15)
    assert np.allclose(f[:, 2], [0.0, 1.0, 0.0], atol=1e-15)


def test_complete_frame_random_orthonormal():
    rng = np.random.default_rng(4)
    for _ in range(200):
        f = complete_frame(_unit(rng))
        assert np.max(np.abs(f.T @ f - np.eye(3))) < 1e-12
        assert np.max(np.abs(np.cross(f[:, 0], f[:, 1]) - f[:, 2])) < 1e-12


def test_complete_frame_rejects_zero():
    with pytest.raises(InvalidInputError):
        complete_frame(np.zeros(3))
    with pytest.raises(InvalidInputError):
        complete_frame(np.array([0.5, 0.0, 0.0]))


def test_frame_from_pair_is_a_rotation_on_every_branch():
    # Columns: the unit sum and difference of the pair and their cross
    # product; a parallel or antipodal pair completes its undefined axis.
    rng = np.random.default_rng(8)
    u = _unit(rng)
    for v in (_unit(rng), u, -u):
        f = frame_from_pair(u, v)
        assert f.shape == (3, 3)
        assert np.max(np.abs(f.T @ f - np.eye(3))) < 1e-12
        assert abs(np.linalg.det(f) - 1.0) < 1e-12
    assert np.allclose(frame_from_pair(u, u)[:, 0], u, atol=1e-15)
    assert np.allclose(frame_from_pair(u, -u)[:, 1], u, atol=1e-15)


def _rodrigues(w):
    # Reference rotation of an axis-angle vector, by Rodrigues' formula.
    angle = float(np.sqrt(w @ w))
    if angle == 0.0:
        return np.eye(3)
    k = w / angle
    kmat = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + math.sin(angle) * kmat + (1.0 - math.cos(angle)) * (kmat @ kmat)


def test_axis_angle_roundtrip():
    rng = np.random.default_rng(19)
    for _ in range(200):
        rot = random_rotation(rng)
        back = _rodrigues(matrix_to_axis_angle(rot))
        assert np.max(np.abs(back - rot)) < 1e-9
    # Near-pi rotations exercise the skew-free branch.
    rot = _rodrigues(np.array([0.0, 0.0, math.pi - 1e-9]))
    assert np.max(np.abs(_rodrigues(matrix_to_axis_angle(rot)) - rot)) < 1e-7


def test_svd_sign_convention():
    rng = np.random.default_rng(12)
    for n in (2, 3, 4):
        for _ in range(50):
            m = rng.normal(size=(n, n))
            fac = svd(m)
            _check_factors(m, fac)
            top = fac.u[np.argmax(np.abs(fac.u), axis=0), np.arange(n)]
            assert np.all(top > 0)
            flipped = svd(-m)
            assert np.allclose(flipped.u, fac.u, atol=1e-12)
            assert np.allclose(flipped.v, -fac.v, atol=1e-12)


def _reference_svd(m):
    """``svd``'s factors with the sign rule taken by numpy indexing: the reference for its loop over Python floats."""
    a = np.asarray(m, dtype=float)
    u, s, vt = np.linalg.svd(a)
    signs = np.sign(u[np.abs(u).argmax(axis=0), np.arange(a.shape[0])])
    return u * signs, s + 0.0, vt.T * signs


def _hex(arrays):
    return [float(x).hex() for a in arrays for x in np.ravel(a).tolist()]


_C45 = math.sqrt(0.5)
# Matrices whose u has several entries of largest magnitude in a column,
# some of opposite signs, so the pick among them decides the sign.
TIED_MATRICES = [
    np.array([[_C45, -_C45], [_C45, _C45]]),
    np.array([[1.0, 1.0], [1.0, -1.0]]),
    np.array([[_C45, -_C45, 0.0], [_C45, _C45, 0.0], [0.0, 0.0, 1.0]]),
    0.5 * np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float),
    np.eye(4)[[2, 0, 3, 1]],
    np.zeros((3, 3)),
]


def test_svd_sign_rule_matches_numpy_reference_bit_for_bit():
    rng = np.random.default_rng(2021)
    cases = [rng.standard_normal((n, n)) for n in (2, 3, 4) for _ in range(100)] + TIED_MATRICES
    for m in cases:
        fac = svd(m)
        assert _hex((fac.u, fac.s, fac.v)) == _hex(_reference_svd(m))
