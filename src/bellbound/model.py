"""Domain types for two-valued qubit observables and two-qubit states.

An observable is parameterized as bias * identity + strength * sigma.dir
with strength + |bias| <= 1. States are kept in Fano form (a, b, t):
local Bloch vectors plus the 3x3 spin correlation matrix. The density
matrix is derived on demand, never stored.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConstraintError, InvalidInputError, UnphysicalStateError
from .linalg import SvdFactors, svd

# Minimum admissible eigenvalue of a reconstructed density matrix. Absorbs
# kernel roundoff without admitting meaningfully unphysical states.
PHYSICALITY_EIG_FLOOR = -1e-10
# A T-state's a and b have every |component| below this.
TSTATE_TOL = 1e-10

_PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)
_ID2 = np.eye(2, dtype=complex)
_SIGMA4 = (_ID2,) + _PAULI
# All sixteen sigma_mu (x) sigma_nu products, flattened for a single tensordot.
_KRON16 = np.stack([np.kron(_SIGMA4[mu], _SIGMA4[nu]) for mu in range(4) for nu in range(4)])
# The same products as the rows of one matrix, so rho is one vector-matrix product.
_KRON16_ROWS = _KRON16.reshape(16, 16)


def _density(theta_flat: np.ndarray) -> np.ndarray:
    """The 4x4 density operator of the row-major flattened Fano block matrix [[1, b^T], [a, t]]."""
    return 0.25 * (theta_flat @ _KRON16_ROWS).reshape(4, 4)


_UNIT_TOL = 1e-6


def _unit3(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    # nan, inf and components above 1e150 (|v|^2 overflows, and numpy warns, near 1e154) fail here.
    if arr.shape != (3,) or not all(abs(c) <= 1e150 for c in arr.tolist()):
        if arr.shape != (3,) or not np.all(np.isfinite(arr)):
            raise InvalidInputError(f"{name} must be a finite 3-vector")
        raise InvalidInputError(f"{name} must be a unit vector (|{name}| > 1e+150)")
    norm = float(np.sqrt(arr @ arr))
    if abs(norm - 1.0) > _UNIT_TOL:
        raise InvalidInputError(f"{name} must be a unit vector (|{name}| = {norm:.6g})")
    return arr / norm


# How far outside its interval an angle, strength or bias may lie and still
# be accepted, so that a caller's roundoff at an end is no input error.
RANGE_SLACK = 1e-12


def _clamped(value, name: str, low: float, high: float, interval: str):
    """``value``, or each value of an array, checked against [low, high] and clamped into it."""
    if isinstance(value, np.ndarray):
        inside = np.isfinite(value) & (value >= low - RANGE_SLACK) & (value <= high + RANGE_SLACK)
        if not inside.all():
            raise InvalidInputError(f"{name} must lie in {interval}, got {float(value[~inside][0])}")
        return np.minimum(np.maximum(value.astype(float), low), high)
    value = float(value)
    if not (math.isfinite(value) and low - RANGE_SLACK <= value <= high + RANGE_SLACK):
        raise InvalidInputError(f"{name} must lie in {interval}, got {value}")
    return low if value < low else high if value > high else value


def check_angle(angle, name: str):
    """The angle, or each angle of an array, checked and clamped to [0, pi]; errors name the first bad value."""
    return _clamped(angle, name, 0.0, math.pi, "[0, pi] (radians)")


def check_strength(strength, name: str):
    """The strength checked and clamped to [0, 1] by the rule of ``check_angle``."""
    return _clamped(strength, name, 0.0, 1.0, "[0, 1]")


def check_bias(bias, strength: float) -> float:
    """The bias checked and clamped to [-1, 1] by the rule of ``check_angle``, with strength + |bias| <= 1."""
    bias = _clamped(bias, "bias", -1.0, 1.0, "[-1, 1]")
    if strength + abs(bias) > 1.0 + 1e-12:
        raise ConstraintError(f"strength + |bias| = {float(strength + abs(bias))!r} exceeds 1")
    return bias


def check_count(value, name: str, low: int) -> int:
    """An integer (a bool is none) of at least ``low``, as an int."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise InvalidInputError(f"{name} must be >= {low}, got {value}")
    return int(value)


def check_werner_weight(w, name: str):
    """The Werner weight checked and clamped to [-1/3, 1] by the rule of ``check_angle``."""
    return _clamped(w, name, -1.0 / 3.0, 1.0, "[-1/3, 1]")


@dataclass(frozen=True, eq=False)
class Observable:
    """Two-valued qubit observable: bias, strength in [0, 1], unit direction."""

    bias: float
    strength: float
    direction: np.ndarray

    def u4(self) -> np.ndarray:
        """The 4-vector (bias, strength * direction)."""
        return np.concatenate(([self.bias], self.strength * self.direction))

    def operator(self) -> np.ndarray:
        """2x2 operator bias * I + strength * sigma . direction."""
        out = self.bias * _ID2.copy()
        for k in range(3):
            out += self.strength * self.direction[k] * _PAULI[k]
        return out

    def to_dict(self) -> dict:
        return {
            "bias": float(self.bias),
            "strength": float(self.strength),
            "direction": self.direction.tolist(),
        }


def make_observable(bias: float, strength: float, direction) -> Observable:
    """Validated observable; directions within 1e-6 of unit norm are renormalized."""
    strength = check_strength(strength, "strength")
    bias = check_bias(bias, strength)
    return Observable(
        bias=bias,
        strength=strength,
        direction=_unit3(direction, "direction"),
    )


def number_from_json(value, name: str) -> float:
    """A JSON number as a float; any other JSON value is an input error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidInputError(f"{name} must be a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError as exc:
        raise InvalidInputError(f"{name} is too large for a float") from exc


def sig12(value) -> str:
    """``value`` at 12 significant digits in ``%g`` form.

    The one 12-digit rounding rule: the CLI's JSON documents and summaries
    round every float through it, and error messages print numbers with it.
    """
    return f"{float(value):.12g}"


def numbers_from_json(value, name: str, count: int) -> list[float]:
    """A JSON array of exactly ``count`` numbers as floats."""
    if not isinstance(value, list) or len(value) != count:
        raise InvalidInputError(f"{name} must be a list of {count} numbers")
    return [number_from_json(v, f"{name}[{k}]") for k, v in enumerate(value)]


def observable_from_dict(data: dict, name: str = "observable") -> Observable:
    if not isinstance(data, dict):
        raise InvalidInputError(f"{name} must be an object with strength and direction")
    for key in ("strength", "direction"):
        if key not in data:
            raise InvalidInputError(f"{name} JSON is missing key {key!r}")
    return make_observable(
        number_from_json(data.get("bias", 0.0), f"{name}.bias"),
        number_from_json(data["strength"], f"{name}.strength"),
        numbers_from_json(data["direction"], f"{name}.direction", 3),
    )


@dataclass(frozen=True, eq=False)
class FanoState:
    """Two-qubit state as Bloch vectors a, b and spin correlation matrix t.

    ``state_from_fano`` stores read-only copies of the arrays, so the
    cached decomposition of t cannot go stale.
    """

    a: np.ndarray
    b: np.ndarray
    t: np.ndarray

    @cached_property
    def t_svd(self) -> SvdFactors:
        """SVD factors of t, computed on first use and kept with the state."""
        fac = svd(self.t)
        for arr in (fac.u, fac.s, fac.v):
            arr.setflags(write=False)
        return fac

    def theta_matrix(self) -> np.ndarray:
        """4x4 block matrix [[1, b^T], [a, t]]."""
        out = np.empty((4, 4))
        out[0, 0] = 1.0
        out[0, 1:] = self.b
        out[1:, 0] = self.a
        out[1:, 1:] = self.t
        return out

    def density_matrix(self) -> np.ndarray:
        """Reconstructed 4x4 density operator in the Pauli product basis."""
        return _density(self.theta_matrix().ravel())

    def is_tstate(self) -> bool:
        """Whether the marginals are maximally mixed, a = b = 0 within ``TSTATE_TOL``."""
        # On Python floats: thm2, cor6 and cor4 check this on every call.
        return max(map(abs, self.a.tolist())) < TSTATE_TOL and max(map(abs, self.b.tolist())) < TSTATE_TOL

    def to_dict(self) -> dict:
        return {
            "a": self.a.tolist(),
            "b": self.b.tolist(),
            "t": self.t.tolist(),
        }


def state_from_fano(a, b, t) -> FanoState:
    """Validated Fano state; raises UnphysicalStateError on a bad spectrum.

    The state holds read-only copies of a, b and t. The 15 numbers are
    checked once as Python floats; the density matrix is built once and
    its least eigenvalue taken with one ``eigvalsh`` call.
    """
    va = np.array(a, dtype=float)
    vb = np.array(b, dtype=float)
    mt = np.array(t, dtype=float)
    if va.shape != (3,) or vb.shape != (3,) or mt.shape != (3, 3):
        raise InvalidInputError("expected 3-vectors a, b and a 3x3 matrix t")
    a0, a1, a2 = va.tolist()
    b0, b1, b2 = vb.tolist()
    t0, t1, t2 = mt.tolist()
    t_vals = t0 + t1 + t2
    if not all(map(math.isfinite, [a0, a1, a2, b0, b1, b2, *t_vals])):
        raise InvalidInputError("state components must be finite")
    if a0 * a0 + a1 * a1 + a2 * a2 > 1.0 + 1e-10 or b0 * b0 + b1 * b1 + b2 * b2 > 1.0 + 1e-10:
        raise UnphysicalStateError("Bloch vector longer than 1")
    if max(map(abs, t_vals)) > 1.0 + 1e-12:
        raise UnphysicalStateError("correlation matrix entry outside [-1, 1]")
    # eigvalsh reads one triangle; the construction is Hermitian already.
    least = float(np.linalg.eigvalsh(_density(np.array([1.0, b0, b1, b2, a0, *t0, a1, *t1, a2, *t2])))[0])
    if least < PHYSICALITY_EIG_FLOOR:
        raise UnphysicalStateError(f"reconstructed density matrix has eigenvalue {least:.3e}")
    for arr in (va, vb, mt):
        arr.setflags(write=False)
    return FanoState(a=va, b=vb, t=mt)


def state_from_density(rho) -> FanoState:
    """Fano components of a 4x4 density matrix (trace-normalized input)."""
    dm = np.asarray(rho, dtype=complex)
    if dm.shape != (4, 4):
        raise InvalidInputError("density matrix must be 4x4")
    theta = np.tensordot(_KRON16, dm.T, axes=2).real.reshape(4, 4)
    return state_from_fano(theta[1:, 0], theta[0, 1:], theta[1:, 1:])


def correlation_singular_values(state: FanoState) -> tuple[float, float, float]:
    """Singular values of the spin correlation matrix, descending."""
    return tuple(state.t_svd.s.tolist())


@dataclass(frozen=True, eq=False)
class Scenario:
    """Four observables X, X', Y, Y' (x, xp on side A; y, yp on side B)."""

    x: Observable
    xp: Observable
    y: Observable
    yp: Observable

    @property
    def theta(self) -> float:
        """Angle in [0, pi] between the A-side directions."""
        dot = float(self.x.direction @ self.xp.direction)
        return math.acos(max(-1.0, min(1.0, dot)))

    @property
    def phi(self) -> float:
        """Angle in [0, pi] between the B-side directions."""
        dot = float(self.y.direction @ self.yp.direction)
        return math.acos(max(-1.0, min(1.0, dot)))

    @property
    def strengths(self) -> "StrengthQuad":
        return StrengthQuad(self.x.strength, self.xp.strength, self.y.strength, self.yp.strength)

    @property
    def biases(self) -> tuple[float, float, float, float]:
        return (self.x.bias, self.xp.bias, self.y.bias, self.yp.bias)

    def observables(self) -> tuple[Observable, Observable, Observable, Observable]:
        return (self.x, self.xp, self.y, self.yp)

    def to_dict(self) -> dict:
        return {k: o.to_dict() for k, o in zip(("x", "xp", "y", "yp"), self.observables())}


def scenario_from_directions(q: StrengthQuad, dirs, biases=(0.0, 0.0, 0.0, 0.0)) -> Scenario:
    """Scenario with strengths ``q``, directions (x, x', y, y') and ``biases``."""
    x, xp, y, yp = dirs
    return Scenario(
        x=make_observable(biases[0], q.sx, x),
        xp=make_observable(biases[1], q.sxp, xp),
        y=make_observable(biases[2], q.sy, y),
        yp=make_observable(biases[3], q.syp, yp),
    )


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise InvalidInputError("scenario must be an object with observables x, xp, y, yp")
    for key in ("x", "xp", "y", "yp"):
        if key not in data:
            raise InvalidInputError(f"scenario JSON is missing key {key!r}")
    return Scenario(**{key: observable_from_dict(data[key], key) for key in ("x", "xp", "y", "yp")})


@dataclass(frozen=True)
class StrengthQuad:
    """Measurement strengths (sx, sxp, sy, syp), each in [0, 1]."""

    sx: float
    sxp: float
    sy: float
    syp: float

    def __post_init__(self):
        # Values inside [0, 1] are kept as given, so an int stays an int.
        for name, val in zip(("sx", "sxp", "sy", "syp"), self.as_tuple()):
            clamped = check_strength(val, f"strength {name}")
            if clamped != val:
                object.__setattr__(self, name, clamped)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.sx, self.sxp, self.sy, self.syp)


# ---------------------------------------------------------------------------
# Canonical states


def singlet() -> FanoState:
    """The two-qubit singlet: a = b = 0, t = -identity."""
    return state_from_fano(np.zeros(3), np.zeros(3), -np.eye(3))


def werner(w: float) -> FanoState:
    """Werner state, a singlet mixed with white noise: t = -w * identity, w as ``check_werner_weight`` takes it."""
    return state_from_fano(np.zeros(3), np.zeros(3), -check_werner_weight(w, "w") * np.eye(3))


def bell_diagonal(t1: float, t2: float, t3: float) -> FanoState:
    """T-state with diagonal correlation matrix diag(t1, t2, t3).

    Physical exactly when (t1, t2, t3) lies in the tetrahedron with
    vertices (-1,-1,-1), (-1,1,1), (1,-1,1), (1,1,-1).
    """
    return state_from_fano(np.zeros(3), np.zeros(3), np.diag([float(t1), float(t2), float(t3)]))


# ---------------------------------------------------------------------------
# Seeded random generators (explicit seed state, no global RNG)


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_direction(seed) -> np.ndarray:
    """Unit 3-vector distributed uniformly on the sphere."""
    rng = _rng(seed)
    while True:
        v = rng.standard_normal(3)
        norm = float(np.sqrt(v @ v))
        if norm > 1e-12:
            return v / norm


def random_rotation(seed) -> np.ndarray:
    """Uniform proper rotation from a normalized random quaternion."""
    rng = _rng(seed)
    while True:
        quat = rng.standard_normal(4)
        norm = float(np.sqrt(quat @ quat))
        if norm > 1e-12:
            break
    qw, qx, qy, qz = quat / norm
    return np.array(
        [
            [1 - 2 * (qy * qy + qz * qz), 2 * (qx * qy - qz * qw), 2 * (qx * qz + qy * qw)],
            [2 * (qx * qy + qz * qw), 1 - 2 * (qx * qx + qz * qz), 2 * (qy * qz - qx * qw)],
            [2 * (qx * qz - qy * qw), 2 * (qy * qz + qx * qw), 1 - 2 * (qx * qx + qy * qy)],
        ]
    )


def _bell_tetrahedron_sample(rng: np.random.Generator) -> np.ndarray:
    while True:
        t = rng.uniform(-1.0, 1.0, size=3)
        lams = 0.25 * np.array(
            [
                1.0 - t[0] - t[1] - t[2],
                1.0 - t[0] + t[1] + t[2],
                1.0 + t[0] - t[1] + t[2],
                1.0 + t[0] + t[1] - t[2],
            ]
        )
        if np.all(lams >= 0.0):
            return t


def random_state(seed, kind: str = "general") -> FanoState:
    """Seeded random two-qubit state.

    kind:
      * ``tstate``: diagonal correlations sampled uniformly over the Bell
        tetrahedron, then conjugated by independent random rotations on
        each side (a = b = 0 exactly).
      * ``general``: normalized G @ G^dagger for a complex Gaussian G
        (Ginibre-induced measure).
      * ``pure``: projector onto a normalized complex Gaussian 4-vector.
    """
    rng = _rng(seed)
    if kind == "tstate":
        t = _bell_tetrahedron_sample(rng)
        left = random_rotation(rng)
        right = random_rotation(rng)
        return state_from_fano(np.zeros(3), np.zeros(3), left @ np.diag(t) @ right.T)
    if kind == "general":
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = g @ g.conj().T
        return state_from_density(rho / np.trace(rho).real)
    if kind == "pure":
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi = psi / np.sqrt(np.vdot(psi, psi).real)
        return state_from_density(np.outer(psi, psi.conj()))
    raise InvalidInputError(f"unknown state kind {kind!r}")


def random_observable(seed) -> Observable:
    """Seeded random observable with direction uniform on the sphere.

    The strength is uniform in [0, 1] and the bias uniform in
    [-(1 - strength), 1 - strength], drawn in that order after the
    direction.
    """
    rng = _rng(seed)
    direction = random_direction(rng)
    strength = float(rng.uniform(0.0, 1.0))
    room = 1.0 - strength
    return make_observable(float(rng.uniform(-room, room)), strength, direction)
