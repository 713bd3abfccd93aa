"""Closed-form CHSH bounds, violation thresholds and compatibility checks.

Every bound here is a function of the measurement strengths, the relative
angles on each side, and the singular values of the spin correlation
matrix. Evaluation routes are doubled where cheap: the spectrum of the
2x2 strength/angle matrix is computed both from W's entries and from the
paper's strength/angle closed form, and the two must agree or an
internal-consistency error is raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from types import ModuleType

import numpy as np

from .chsh import n_matrix
from .errors import DomainError, InternalConsistencyError, InvalidInputError
from .linalg import singular_values
from .model import TSTATE_TOL, FanoState, Observable, Scenario, StrengthQuad, check_angle, check_strength, correlation_singular_values, sig12

# Slack used when classifying boundary cases of the compatibility
# conditions, so that exactly-saturating pairs count as compatible.
COMPAT_SLACK = 1e-10
# Two strengths this close count as equal (cor1, cor4 and thm3 need equal ones).
EQUAL_STRENGTH_TOL = 1e-12
# s1(T) and s2(T) this close count as equal, as thm4 needs.
EQUAL_SINGULAR_VALUE_TOL = 1e-8

@dataclass(frozen=True)
class WBundle:
    """The 2x2 strength/angle matrix with the sum and difference of its
    two singular values, ``i_plus`` and ``i_minus``."""

    w: np.ndarray
    i_plus: float | np.ndarray
    i_minus: float | np.ndarray


@dataclass(frozen=True)
class BoundReport:
    """A computed bound with its criterion label and optional optimal angles.

    ``value``, and with it ``violated``, is an array when the bound was
    evaluated over an array of angles.
    """

    value: float | np.ndarray
    criterion_id: str
    violated: bool | np.ndarray = field(init=False)
    optimal_angles: tuple[float, float] | None = None
    notes: str = ""

    def __post_init__(self):
        # Strict comparison by design: near-threshold margins stay visible
        # in `value` instead of being absorbed by a tolerance.
        object.__setattr__(self, "violated", self.value > 2.0)


def _max2(a: float, b: float) -> float:
    return b if b > a else a


def _min2(a: float, b: float) -> float:
    return b if b < a else a


# The float counterparts of the numpy calls that the angle-dependent
# bounds make, so one expression serves a float angle and an array of
# angles. Single-point callers stay on Python floats: this is a module
# object because attribute loads from modules are the cheap ones, and
# ``_max2``/``_min2`` are builtin ``max``/``min`` of two values without
# their call overhead.
_FLOATS = ModuleType("bellbound.bounds.floats")
_FLOATS.__dict__.update(
    cos=math.cos,
    sin=math.sin,
    hypot=math.hypot,
    sqrt=math.sqrt,
    maximum=_max2,
    minimum=_min2,
    all=bool,
)


def _lib(theta, phi):
    """numpy when either angle is an array, the float functions otherwise."""
    return np if isinstance(theta, np.ndarray) or isinstance(phi, np.ndarray) else _FLOATS


def _require_tstate(state: FanoState, criterion: str) -> None:
    if not state.is_tstate():
        raise DomainError(
            f"{criterion} requires a T-state (|a| and |b| below {TSTATE_TOL:g}); "
            f"got |a| = {float(np.max(np.abs(state.a))):.3e}, "
            f"|b| = {float(np.max(np.abs(state.b))):.3e}"
        )


def horodecki(state: FanoState) -> float:
    """2 sqrt(s1^2 + s2^2) of the state's correlation matrix, in [0, 2 sqrt(2)]."""
    s1, s2, _ = correlation_singular_values(state)
    return 2.0 * math.hypot(s1, s2)


def coefficients_abcd(q: StrengthQuad) -> tuple[float, float, float, float]:
    """The four signed strength combinations filling the 2x2 matrix."""
    sx, sxp, sy, syp = q.as_tuple()
    return (
        sx * sy + sx * syp + sxp * sy - sxp * syp,
        sx * sy - sx * syp + sxp * sy + sxp * syp,
        sx * sy + sx * syp - sxp * sy + sxp * syp,
        -sx * sy + sx * syp + sxp * sy + sxp * syp,
    )


def _i_pm_squared(q: StrengthQuad, theta, phi, absolute: bool, xp):
    sx, sxp, sy, syp = q.as_tuple()
    base = (sx * sx + sxp * sxp) * (sy * sy + syp * syp)
    term_theta = 2.0 * sx * sxp * (sy * sy - syp * syp) * xp.cos(theta)
    term_phi = 2.0 * sy * syp * (sx * sx - sxp * sxp) * xp.cos(phi)
    if absolute:
        term_theta = abs(term_theta)
        term_phi = abs(term_phi)
    cross = 4.0 * sx * sxp * sy * syp * xp.sin(theta) * xp.sin(phi)
    plus = base + term_theta + term_phi + cross
    minus = base + term_theta + term_phi - cross
    return (xp.maximum(plus, 0.0), xp.maximum(minus, 0.0))


def _spectrum_mismatch(i_plus, i_minus, plus_sq, minus_sq, theta, phi) -> InternalConsistencyError:
    """The cross-check failure, reported at the point where the routes differ most."""
    gap = np.maximum(np.abs(i_plus * i_plus - plus_sq), np.abs(i_minus * i_minus - minus_sq))
    columns = np.broadcast_arrays(gap, i_plus, i_minus, plus_sq, minus_sq, theta, phi)
    k = int(np.argmax(columns[0]))
    _, i_plus, i_minus, plus_sq, minus_sq, theta, phi = (float(c.flat[k]) for c in columns)
    return InternalConsistencyError(
        "W's entries and the strength/angle closed form disagree on the "
        "spectrum of the strength/angle matrix: "
        f"sum^2 {i_plus * i_plus:.15g} vs {plus_sq:.15g}, "
        f"diff^2 {i_minus * i_minus:.15g} vs {minus_sq:.15g} "
        f"at theta = {theta!r}, phi = {phi!r}"
    )


def w_bundle(q: StrengthQuad, theta, phi) -> WBundle:
    """Strength/angle matrix W with both spectral routes cross-checked.

    The singular-value sum and difference come from W's entries through
    the exact 2x2 identity s1 +- s2 = sqrt(|W|_F^2 +- 2 |det W|), written
    as hypot(w00 + w11, w01 - w10) and hypot(w00 - w11, w01 + w10), the
    larger of the two being the sum. They are validated against the
    paper's strength/angle closed form (compared on squares, which avoids
    square-root noise when the difference is near zero).

    ``theta`` and ``phi`` are floats or numpy arrays that broadcast
    together; with arrays every point is checked and evaluated in one
    pass, ``i_plus`` and ``i_minus`` take the broadcast shape and ``w``
    has shape (2, 2) followed by it.
    """
    theta = check_angle(theta, "theta")
    phi = check_angle(phi, "phi")
    xp = _lib(theta, phi)
    ca, cb, cc, cd = coefficients_abcd(q)
    cth, sth = xp.cos(0.5 * theta), xp.sin(0.5 * theta)
    cph, sph = xp.cos(0.5 * phi), xp.sin(0.5 * phi)
    w00 = ca * cth * cph
    w01 = cb * cth * sph
    w10 = cc * sth * cph
    w11 = -cd * sth * sph
    w = np.array([[w00, w01], [w10, w11]])
    i_sum = xp.hypot(w00 + w11, w01 - w10)
    i_diff = xp.hypot(w00 - w11, w01 + w10)
    i_plus, i_minus = xp.maximum(i_sum, i_diff), xp.minimum(i_sum, i_diff)
    plus_sq, minus_sq = _i_pm_squared(q, theta, phi, False, xp)
    agree = (abs(i_plus * i_plus - plus_sq) <= 1e-8) & (abs(i_minus * i_minus - minus_sq) <= 1e-8)
    if not xp.all(agree):
        raise _spectrum_mismatch(i_plus, i_minus, plus_sq, minus_sq, theta, phi)
    return WBundle(w=w, i_plus=i_plus, i_minus=i_minus)


def s0_bound(state: FanoState, q: StrengthQuad, theta, phi) -> BoundReport:
    """Tight CHSH bound for unbiased observables with fixed strengths and angles.

    Equals s1(T) s1(W) + s2(T) s2(W) for the strength/angle matrix W. Over
    arrays of angles the report's ``value`` and ``violated`` are arrays.
    """
    bundle = w_bundle(q, theta, phi)
    s1, s2, _ = correlation_singular_values(state)
    value = 0.5 * (s1 + s2) * bundle.i_plus + 0.5 * (s1 - s2) * bundle.i_minus
    return BoundReport(value=value, criterion_id="thm1")


def s0_tilde(state: FanoState, q: StrengthQuad, theta, phi) -> BoundReport:
    """Best bound over the four CHSH relabelings (absolute-value form).

    Exceeds the canonical bound unless the strengths are equal on each
    side, in which case the two coincide. Takes angle arrays as
    ``s0_bound`` does.
    """
    theta = check_angle(theta, "theta")
    phi = check_angle(phi, "phi")
    xp = _lib(theta, phi)
    plus_sq, minus_sq = _i_pm_squared(q, theta, phi, True, xp)
    s1, s2, _ = correlation_singular_values(state)
    value = 0.5 * (s1 + s2) * xp.sqrt(plus_sq) + 0.5 * (s1 - s2) * xp.sqrt(minus_sq)
    return BoundReport(value=value, criterion_id="cor3")


def j_max(q: StrengthQuad) -> float:
    """Largest bias-only CHSH contribution permitted by strength + |bias| <= 1."""
    sx, sxp, sy, syp = q.as_tuple()
    return (2.0 - sx - sxp) * (2.0 - sy - syp) - 2.0 * (1.0 - max(sx, sxp)) * (
        1.0 - max(sy, syp)
    )


def with_bias_term(report: BoundReport, q: StrengthQuad, **changes) -> BoundReport:
    """``report`` with ``j_max(q)`` added to its value, and ``changes`` (such as a new
    ``criterion_id``) applied: an unbiased bound's biased form on a T-state."""
    return replace(report, value=report.value + j_max(q), **changes)


def st_bound(state: FanoState, q: StrengthQuad, theta: float, phi: float) -> BoundReport:
    """Tight CHSH bound for arbitrary (possibly biased) observables on a T-state."""
    _require_tstate(state, "thm2")
    return with_bias_term(s0_bound(state, q, theta, phi), q, criterion_id="thm2")


def st_tilde(state: FanoState, q: StrengthQuad, theta: float, phi: float) -> BoundReport:
    """Relabeling-maximized T-state bound (add the bias term to the tilde bound)."""
    _require_tstate(state, "cor6")
    return with_bias_term(s0_tilde(state, q, theta, phi), q, criterion_id="cor6")


def _equal_angle_choice(s1: float, s2: float) -> tuple[float, float]:
    rsq = s1 * s1 + s2 * s2
    if rsq <= 0.0:
        return (0.0, 0.0)
    arg = min(1.0, 2.0 * s1 * s2 / rsq)
    angle = math.asin(math.sqrt(arg))
    return (angle, angle)


def cor1_bound(state: FanoState, s_a, s_b) -> BoundReport:
    """Tight bound for equal strengths per side: 2 s_a s_b sqrt(s1^2 + s2^2).

    The reported angles are the equal-angle member of the optimal family
    sin(theta) sin(phi) = 2 s1 s2 / (s1^2 + s2^2), taken in [0, pi/2].
    Strength arrays give arrays ``value`` and ``violated``, as in ``s0_bound``.
    """
    s_a, s_b = check_strength(s_a, "strength s_a"), check_strength(s_b, "strength s_b")
    s1, s2, _ = correlation_singular_values(state)
    value = cor1_value(s_a, s_b, math.hypot(s1, s2))
    return BoundReport(value=value, criterion_id="cor1", optimal_angles=_equal_angle_choice(s1, s2))


def cor1_value(s_a, s_b, radius_r):
    """2 s_a s_b r, the value of ``cor1_bound`` with r = hypot(s1, s2); no range checks.

    The one place this expression is written, so that a strength-sweep
    bisection on checked strengths finds the roots of ``cor1_bound`` itself.
    """
    return 2.0 * s_a * s_b * radius_r


def cor4_value(s_a, s_b, radius_r):
    """``cor1_value`` plus the bias term 2 (1 - s_a)(1 - s_b): the value of ``cor4_bound``."""
    return cor1_value(s_a, s_b, radius_r) + 2.0 * (1.0 - s_a) * (1.0 - s_b)


def cor2_sufficient(state: FanoState, q: StrengthQuad) -> BoundReport:
    """Right-angle bound, a strengths-only sufficient condition for violation: thm1 at theta = phi = pi/2."""
    angles = (0.5 * math.pi, 0.5 * math.pi)
    return BoundReport(value=s0_bound(state, q, *angles).value, criterion_id="cor2", optimal_angles=angles)


def cor4_bound(state: FanoState, s_a, s_b) -> BoundReport:
    """T-state analogue of the equal-strengths bound, with the bias term added (arrays as in cor1)."""
    _require_tstate(state, "cor4")
    s_a, s_b = check_strength(s_a, "strength s_a"), check_strength(s_b, "strength s_b")
    s1, s2, _ = correlation_singular_values(state)
    value = cor4_value(s_a, s_b, math.hypot(s1, s2))
    return BoundReport(value=value, criterion_id="cor4", optimal_angles=_equal_angle_choice(s1, s2))


def strength_thresholds(radius_r: float) -> tuple[float, float]:
    """Critical common strengths (unbiased, biased) for violation on a T-state.

    ``radius_r`` is sqrt(s1^2 + s2^2) of the correlation matrix. Violation
    requires strength > 1/sqrt(r) unbiased and > 2/(1 + r) biased; the
    biased threshold is the smaller one exactly when r > 1.
    """
    radius_r = float(radius_r)
    if not (math.isfinite(radius_r) and radius_r > 0.0):
        raise InvalidInputError("radius_r must be positive")
    return (1.0 / math.sqrt(radius_r), 2.0 / (1.0 + radius_r))


def equal_sides(q: StrengthQuad) -> tuple[bool, bool]:
    """Whether sx = sxp and whether sy = syp, each to ``EQUAL_STRENGTH_TOL``."""
    return abs(q.sx - q.sxp) <= EQUAL_STRENGTH_TOL, abs(q.sy - q.syp) <= EQUAL_STRENGTH_TOL


def equal_singular_values(s1: float, s2: float) -> bool:
    """Whether s1(T) = s2(T) to ``EQUAL_SINGULAR_VALUE_TOL``, as thm4 needs."""
    return abs(s1 - s2) <= EQUAL_SINGULAR_VALUE_TOL


def thm3_bound(state: FanoState, q: StrengthQuad) -> BoundReport:
    """Tight bound for equal strengths s_a on one side, angles in the input's labels.

    Uses side A if sx = sxp, else side B if sy = syp (sides exchanged,
    angles swapped along, and noted), else raises ``DomainError``. With
    hi >= lo the other side's strengths, in either order: unbiased,
    2 s_a sqrt(s1^2 hi^2 + s2^2 lo^2); on a T-state the biased form adds
    ``j_max(q)``. The optimal angles are unique for hi != lo:
    tan(theta/2) = lo s2 / (hi s1) and phi = pi/2. For sy < syp,
    exchanging y and y' is the same as negating x', so theta -> pi - theta.
    """
    sx, sxp, sy, syp = (float(s) for s in q.as_tuple())
    equal_a, equal_b = equal_sides(q)
    if equal_a:
        exchanged, s_a, first, second = False, sx, sy, syp
    elif equal_b:
        exchanged, s_a, first, second = True, sy, sx, sxp
    else:
        raise DomainError("no side has equal strengths")
    hi, lo = max(first, second), min(first, second)
    s1, s2, _ = correlation_singular_values(state)
    value = 2.0 * s_a * math.hypot(s1 * hi, s2 * lo)
    own = 2.0 * math.atan2(lo * s2, hi * s1)
    if first < second:
        own = math.pi - own
    angles = (0.5 * math.pi, own) if exchanged else (own, 0.5 * math.pi)
    notes = "sides exchanged (equal strengths on side B)" if exchanged else ""
    return BoundReport(value=value, criterion_id="thm3", optimal_angles=angles, notes=notes)


def thm4_branch(q: StrengthQuad) -> tuple[bool, float, float, float]:
    """Branch data for the equal-singular-value bound.

    Returns (first_branch, a, b, c) with a, b, c the stationary-point
    coefficients. The first (interior-angle) branch applies when c > 0 and
    |a b| <= c^2; written division-free so zero strengths fall through to
    the extremal-angle branch.
    """
    sx, sxp, sy, syp = q.as_tuple()
    a = sx * sxp * (sy * sy - syp * syp)
    b = sy * syp * (sx * sx - sxp * sxp)
    c = 2.0 * sx * sxp * sy * syp
    return (c > 0.0 and abs(a * b) <= c * c, a, b, c)


def thm4_bound(state: FanoState, q: StrengthQuad) -> BoundReport:
    """Tight bound and optimal angles for states with s1(T) = s2(T).

    First branch: s1 sqrt(2 (sx^2 + sxp^2)(sy^2 + syp^2)) at interior
    angles. Otherwise s1 max(|A|, |B|, |C|, |D|) at extremal angles
    cos(theta) = sign(sy - syp), cos(phi) = sign(sx - sxp). On a T-state
    the biased form adds ``j_max`` of the strengths.
    """
    s1, s2, _ = correlation_singular_values(state)
    if not equal_singular_values(s1, s2):
        tol = np.format_float_scientific(EQUAL_SINGULAR_VALUE_TOL, trim="-", exp_digits=1)
        raise DomainError(f"requires s1(T) = s2(T) within {tol}, got s1 = {sig12(s1)}, s2 = {sig12(s2)}")
    sx, sxp, sy, syp = q.as_tuple()
    first, _, _, _ = thm4_branch(q)
    if first:
        value = s1 * math.sqrt(2.0 * (sx * sx + sxp * sxp) * (sy * sy + syp * syp))
        cos_theta = (sx * sx + sxp * sxp) * (sy * sy - syp * syp) / (
            2.0 * sx * sxp * (sy * sy + syp * syp)
        )
        cos_phi = (sx * sx - sxp * sxp) * (sy * sy + syp * syp) / (
            2.0 * sy * syp * (sx * sx + sxp * sxp)
        )
        angles = (
            math.acos(max(-1.0, min(1.0, cos_theta))),
            math.acos(max(-1.0, min(1.0, cos_phi))),
        )
        note = "interior-angle branch"
    else:
        ca, cb, cc, cd = coefficients_abcd(q)
        value = s1 * max(abs(ca), abs(cb), abs(cc), abs(cd))
        angles = (
            0.0 if sy >= syp else math.pi,
            0.0 if sx >= sxp else math.pi,
        )
        note = "extremal-angle branch"
    return BoundReport(value=value, criterion_id="thm4", optimal_angles=angles, notes=note)


def sgen_bound(scenario: Scenario, state: FanoState) -> BoundReport:
    """Necessary bound for arbitrary scenarios: sum_j s_j(Theta) s_j(N)."""
    s_theta = singular_values(state.theta_matrix())
    s_n = singular_values(n_matrix(scenario))
    return BoundReport(value=float(s_theta @ s_n), criterion_id="sgen")


# ---------------------------------------------------------------------------
# Compatibility (joint measurability) of two observables on one side


def compat_busch(x: Observable, xp: Observable) -> bool:
    """Joint-measurability verdict for two unbiased observables.

    Evaluates |S x + S' x'| + |S x - S' x'| <= 2 together with the
    equivalent sine form; the two must agree up to boundary slack, and the
    vector-norm verdict is returned.
    """
    if abs(x.bias) >= 1e-12 or abs(xp.bias) >= 1e-12:
        raise DomainError("both observables must be unbiased; use compat_full instead")
    norm_sum, norm_diff = _busch_norms(x, xp)
    lhs = norm_sum + norm_diff
    verdict = lhs <= 2.0 + COMPAT_SLACK
    # Division-free sine form: S S' sin(theta) <= sqrt((1 - S^2)(1 - S'^2)).
    cross = np.cross(x.direction, xp.direction)
    left = x.strength * xp.strength * float(np.sqrt(cross @ cross))
    right = math.sqrt(max(0.0, (1.0 - x.strength**2) * (1.0 - xp.strength**2)))
    verdict_sine = left <= right + COMPAT_SLACK
    if verdict != verdict_sine and abs(lhs - 2.0) > 1e-9 and abs(left - right) > 1e-9:
        raise InternalConsistencyError(
            f"compatibility forms disagree away from the boundary: "
            f"norm form {lhs:.15g} vs 2, sine form {left:.15g} vs {right:.15g}"
        )
    return verdict


def _busch_norms(x: Observable, xp: Observable) -> tuple[float, float]:
    """|S x + S' x'| and |S x - S' x'|."""
    v_sum = x.strength * x.direction + xp.strength * xp.direction
    v_diff = x.strength * x.direction - xp.strength * xp.direction
    return float(np.sqrt(v_sum @ v_sum)), float(np.sqrt(v_diff @ v_diff))


def compat_necessary(x: Observable, xp: Observable) -> bool:
    """Simple necessary compatibility condition for arbitrary observables.

    max(|S x + S' x'|, |B + B'|) + max(|S x - S' x'|, |B - B'|) <= 2.
    Reduces to the unbiased condition when both biases vanish.
    """
    norm_sum, norm_diff = _busch_norms(x, xp)
    lhs = max(norm_sum, abs(x.bias + xp.bias)) + max(norm_diff, abs(x.bias - xp.bias))
    return lhs <= 2.0 + COMPAT_SLACK


def max_reversibility(x: Observable) -> float:
    """Strength/bias functional entering the full compatibility condition."""
    up = (1.0 + x.bias) ** 2 - x.strength**2
    dn = (1.0 - x.bias) ** 2 - x.strength**2
    if up < -1e-12 or dn < -1e-12:
        raise InvalidInputError("strength + |bias| exceeds 1; no valid reversibility")
    return 0.5 * math.sqrt(max(up, 0.0)) + 0.5 * math.sqrt(max(dn, 0.0))


def compat_full(x: Observable, xp: Observable) -> bool:
    """Known necessary-and-sufficient compatibility condition.

    (1 - R^2 - R'^2)(1 - B^2/R^2 - B'^2/R'^2) <= (S S' cos(theta) - B B')^2
    with R the maximum reversibility of each observable (Yu, Liu, Li and
    Oh, PRA 81, 062116 (2010); Busch and Schmidt, QIP 9, 143 (2010)). The
    signed product keeps the verdict unchanged when one observable's
    outcomes are relabelled, (B', n') -> (-B', -n'). A vanishing R
    (projective observable) contributes 0 to the bias sum when its bias is
    zero and makes the condition depend on the sign of the first factor
    otherwise.
    """
    rx = max_reversibility(x)
    rxp = max_reversibility(xp)
    cos_theta = float(x.direction @ xp.direction)
    rhs = (x.strength * xp.strength * cos_theta - x.bias * xp.bias) ** 2
    first = 1.0 - rx * rx - rxp * rxp
    bias_sum = 0.0
    infinite_bias = False
    for bias, rev in ((x.bias, rx), (xp.bias, rxp)):
        if rev > 1e-15:
            bias_sum += (bias / rev) ** 2
        elif abs(bias) > 1e-15:
            infinite_bias = True
    if infinite_bias:
        # Limit of the left side is -inf * sign(first); compatible unless
        # the first factor is strictly negative. Unreachable for valid
        # observables (R = 0 forces bias = 0) but kept for safety.
        return first >= -COMPAT_SLACK
    lhs = first * (1.0 - bias_sum)
    return lhs <= rhs + COMPAT_SLACK
