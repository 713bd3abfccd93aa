"""Fixed-size linear algebra on top of ``numpy.linalg``.

Provides SVD for 2x2/3x3/4x4 real matrices with a fixed sign convention,
eigenvalues of complex Hermitian 4x4 matrices, and orthonormal-frame
utilities. Inputs are checked for shape, finiteness and (for the
eigenvalues) Hermiticity before LAPACK sees them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


@dataclass(frozen=True)
class SvdFactors:
    """Factors u, s, v with m = u @ diag(s) @ v.T, s descending and >= 0."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray


_SQUARE_SIZES = (2, 3, 4)


def _as_square(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] not in _SQUARE_SIZES:
        raise InvalidInputError(
            f"expected a square matrix of size {_SQUARE_SIZES}, got shape {a.shape}"
        )
    if not np.isfinite(a).all():
        raise InvalidInputError("matrix entries must be finite")
    return a


def svd(m) -> SvdFactors:
    """Singular value decomposition of a real 2x2, 3x3 or 4x4 matrix.

    Returns factors with ``m = u @ diag(s) @ v.T``, ``s`` sorted in
    decreasing order with all entries >= 0 and ``u``, ``v`` orthogonal
    (possibly with determinant -1). The largest-magnitude entry of each
    column of ``u`` is positive, with the matching column of ``v`` flipped
    along, so the factors do not depend on the LAPACK build's sign choices.
    """
    a = _as_square(m)
    u, s, vt = np.linalg.svd(a)
    # ``max`` keeps the first of equal magnitudes, as ``argmax`` does. A unit
    # column's largest-magnitude entry is never 0, so every sign is +-1.
    signs = np.array([1.0 if max(col, key=abs) > 0.0 else -1.0 for col in u.T.tolist()])
    # LAPACK returns -0.0 for the zero singular values of a matrix of -0.0
    # entries (Werner w = 0); adding 0.0 makes them +0.0.
    return SvdFactors(u=u * signs, s=s + 0.0, v=vt.T * signs)


def singular_values(m) -> np.ndarray:
    """Just the singular values of a 2x2/3x3/4x4 real matrix, descending."""
    return np.linalg.svd(_as_square(m), compute_uv=False)


def hermitian_eigenvalues_4(h) -> np.ndarray:
    """Eigenvalues of a complex Hermitian 4x4 matrix, descending.

    The input must be Hermitian to within 1e-12 (max-abs of h - h^dagger),
    otherwise InvalidInputError.
    """
    a = np.asarray(h, dtype=complex)
    if a.shape != (4, 4):
        raise InvalidInputError(f"expected a 4x4 matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("matrix entries must be finite")
    if float(np.max(np.abs(a - a.conj().T))) > 1e-12:
        raise InvalidInputError("matrix is not Hermitian within 1e-12")
    return np.linalg.eigvalsh(0.5 * (a + a.conj().T))[::-1].copy()


def complete_frame(e1) -> np.ndarray:
    """Extend a unit vector to a right-handed orthonormal frame.

    Returns the 3x3 matrix whose columns are e1, e2 and e3 = e1 x e2.
    e2 comes from orthogonalizing the standard basis vector with the
    smallest |component| along e1, which makes the completion
    deterministic.
    """
    v1 = np.asarray(e1, dtype=float)
    if v1.shape != (3,) or not np.all(np.isfinite(v1)):
        raise InvalidInputError("e1 must be a finite 3-vector")
    norm1 = float(np.sqrt(v1 @ v1))
    if abs(norm1 - 1.0) > 1e-10:
        raise InvalidInputError("e1 must be a unit vector within 1e-10")
    v1 = v1 / norm1
    idx = int(np.argmin(np.abs(v1)))
    basis = np.zeros(3)
    basis[idx] = 1.0
    ortho = basis - (basis @ v1) * v1
    v2 = ortho / float(np.sqrt(ortho @ ortho))
    v3 = np.cross(v1, v2)
    v3 = v3 / float(np.sqrt(v3 @ v3))
    return np.column_stack([v1, v2, v3])


def frame_from_pair(u, v) -> np.ndarray:
    """Right-handed frame (sum, difference, cross) of a unit-vector pair, as matrix columns.

    For parallel or antipodal pairs the undefined axis is completed
    deterministically; the completion leaves every angle-dependent bound
    unchanged.
    """
    vu = np.asarray(u, dtype=float)
    vv = np.asarray(v, dtype=float)
    total = vu + vv
    diff = vu - vv
    norm_sum = float(np.sqrt(total @ total))
    norm_diff = float(np.sqrt(diff @ diff))
    if norm_sum > 1e-8 and norm_diff > 1e-8:
        e1 = total / norm_sum
        ortho = diff - (diff @ e1) * e1
        e2 = ortho / float(np.sqrt(ortho @ ortho))
        e3 = np.cross(e1, e2)
        return np.column_stack([e1, e2, e3 / float(np.sqrt(e3 @ e3))])
    if norm_diff <= 1e-8:
        # Parallel pair: sum axis is the common direction.
        return complete_frame(vu / float(np.sqrt(vu @ vu)))
    # Antipodal pair: difference axis is defined, sum axis is free.
    e2 = diff / norm_diff
    e1 = complete_frame(e2)[:, 1]
    e3 = np.cross(e1, e2)
    return np.column_stack([e1, e2, e3 / float(np.sqrt(e3 @ e3))])


def matrix_to_axis_angle(rot) -> np.ndarray:
    """Axis-angle 3-vector (angle = |w|, in [0, pi]) of a proper rotation matrix."""
    r = np.asarray(rot, dtype=float)
    skew = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    sin_ang = 0.5 * float(np.sqrt(skew @ skew))
    cos_ang = 0.5 * (float(np.trace(r)) - 1.0)
    angle = math.atan2(sin_ang, cos_ang)
    if angle < 1e-12:
        return np.zeros(3)
    if sin_ang > 1e-7:
        axis = skew / (2.0 * sin_ang)
        return axis * angle
    # Near pi the skew part vanishes; recover the axis from (R + I) / 2,
    # whose columns are all proportional to it.
    b = 0.5 * (r + np.eye(3))
    k = int(np.argmax(np.diag(b)))
    axis = b[:, k] / math.sqrt(max(b[k, k], 1e-300))
    axis = axis / float(np.sqrt(axis @ axis))
    return axis * angle
