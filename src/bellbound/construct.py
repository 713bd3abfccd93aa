"""Explicit measurement configurations that attain the tight bounds.

The direction recipe aligns the singular frames of the 3x3-embedded
strength/angle matrix with those of the spin correlation matrix: starting
from reference directions in the standard basis, one orthogonal transform
per side rotates the measurement directions so the trace pairing of the
two matrices becomes the sum of products of their singular values. Bias
patterns that attain the bias-only maximum are chosen by a sign recipe.
``achieve`` maps each tight criterion to its angles and recipe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .chsh import bias_combination, chsh, chsh_signed
from .errors import ConstructionError, DomainError, InvalidInputError
from .linalg import Frame3, complete_frame, svd
from .model import FanoState, Scenario, StrengthQuad, make_observable
from .bounds import cor1_bound, cor4_bound, s0_bound, st_bound, thm3_bound, thm4_bound, w_bundle

_ATTAIN_TOL = 1e-6


@dataclass(frozen=True)
class AchievingConfig:
    """A constructed scenario together with its target bound and CHSH value."""

    scenario: Scenario
    target_bound: float
    attained_chsh: float
    recipe_id: str


def reference_frames(theta: float, phi: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Reference directions (x, x', y, y') with angles theta, phi.

    All four live in the standard basis: x and x' straddle e1 in the
    e1-e2 plane at half-angle theta/2, likewise y and y' at phi/2.
    """
    theta = float(theta)
    phi = float(phi)
    if not (0.0 - 1e-12 <= theta <= math.pi + 1e-12 and 0.0 - 1e-12 <= phi <= math.pi + 1e-12):
        raise InvalidInputError("theta and phi must lie in [0, pi]")
    cth, sth = math.cos(0.5 * theta), math.sin(0.5 * theta)
    cph, sph = math.cos(0.5 * phi), math.sin(0.5 * phi)
    x = np.array([cth, sth, 0.0])
    xp = np.array([cth, -sth, 0.0])
    y = np.array([cph, sph, 0.0])
    yp = np.array([cph, -sph, 0.0])
    return x, xp, y, yp


def frame_from_pair(u, v) -> Frame3:
    """Right-handed frame (sum, difference, cross) of a unit-vector pair.

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
        return Frame3(e1=e1, e2=e2, e3=e3 / float(np.sqrt(e3 @ e3)))
    if norm_diff <= 1e-8:
        # Parallel pair: sum axis is the common direction.
        return complete_frame(vu / float(np.sqrt(vu @ vu)))
    # Antipodal pair: difference axis is defined, sum axis is free.
    e2 = diff / norm_diff
    helper = complete_frame(e2)
    e1 = helper.e2
    e3 = np.cross(e1, e2)
    return Frame3(e1=e1, e2=e2, e3=e3 / float(np.sqrt(e3 @ e3)))


def _embed_w(w: np.ndarray) -> np.ndarray:
    out = np.zeros((3, 3))
    out[:2, :2] = w
    return out


def optimal_transforms(state: FanoState, q: StrengthQuad, theta: float, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal transforms (one per side) aligning the singular frames.

    With the reference directions in the standard basis, applying the first
    transform to the A-side directions and the second to the B-side
    directions makes the direction part of the CHSH combination equal to
    s1(T) s1(W) + s2(T) s2(W).
    """
    fac_w = svd(_embed_w(w_bundle(q, theta, phi).w))
    fac_t = state.t_svd
    o1 = fac_t.u @ fac_w.u.T
    o2 = fac_t.v @ fac_w.v.T
    return o1, o2


def scenario_from_directions(q: StrengthQuad, dirs, biases=(0.0, 0.0, 0.0, 0.0)) -> Scenario:
    """Scenario with strengths ``q``, directions (x, x', y, y') and ``biases``."""
    x, xp, y, yp = dirs
    return Scenario(
        x=make_observable(biases[0], q.sx, x),
        xp=make_observable(biases[1], q.sxp, xp),
        y=make_observable(biases[2], q.sy, y),
        yp=make_observable(biases[3], q.syp, yp),
    )


def _check_attainment(config: AchievingConfig, theta: float, phi: float) -> AchievingConfig:
    if config.attained_chsh < config.target_bound - _ATTAIN_TOL:
        raise ConstructionError(
            f"{config.recipe_id} construction attained {config.attained_chsh:.12g} "
            f"against target {config.target_bound:.12g} "
            f"(theta = {theta:.12g}, phi = {phi:.12g}); this indicates a "
            "factor-sign handling bug in the frame alignment"
        )
    return config


def achieving_directions(state: FanoState, q: StrengthQuad, theta: float, phi: float) -> AchievingConfig:
    """Unbiased scenario attaining the fixed-strengths, fixed-angles bound."""
    theta = float(theta)
    phi = float(phi)
    target = s0_bound(state, q, theta, phi).value
    refs = reference_frames(theta, phi)
    o1, o2 = optimal_transforms(state, q, theta, phi)
    dirs = (o1 @ refs[0], o1 @ refs[1], o2 @ refs[2], o2 @ refs[3])
    scenario = scenario_from_directions(q, dirs)
    attained = chsh(scenario, state).canonical
    config = AchievingConfig(
        scenario=scenario, target_bound=target, attained_chsh=attained, recipe_id="appendixA"
    )
    return _check_attainment(config, theta, phi)


def _sign(value: float) -> float:
    return 1.0 if value >= 0.0 else -1.0


def achieving_biases(q: StrengthQuad) -> tuple[float, float, float, float]:
    """Extremal biases (|bias| = 1 - strength) attaining the bias-only maximum.

    The Y bias is positive; the remaining signs follow from the strength
    ordering on each side.
    """
    rx = 1.0 - q.sx
    rxp = 1.0 - q.sxp
    ry = 1.0 - q.sy
    ryp = 1.0 - q.syp
    beta_p = _sign(rx - rxp)
    alpha = _sign(ry + beta_p * ryp)
    alpha_p = _sign(ry - beta_p * ryp)
    return (alpha * rx, alpha_p * rxp, ry, beta_p * ryp)


def achieving_scenario_tstate(state: FanoState, q: StrengthQuad, theta: float, phi: float) -> AchievingConfig:
    """Biased scenario attaining the T-state bound (directions plus biases)."""
    target = st_bound(state, q, theta, phi).value
    base = achieving_directions(state, q, theta, phi)
    dirs = [o.direction for o in base.scenario.observables()]
    signed = chsh_signed(base.scenario, state)
    if signed < 0.0:
        # Flip the B side so the direction term adds to the bias term.
        dirs[2] = -dirs[2]
        dirs[3] = -dirs[3]
    biases = achieving_biases(q)
    if bias_combination(*biases) < 0.0:
        biases = tuple(-b for b in biases)
    scenario = scenario_from_directions(q, tuple(dirs), biases)
    attained = chsh(scenario, state).canonical
    config = AchievingConfig(
        scenario=scenario, target_bound=target, attained_chsh=attained, recipe_id="appendixA"
    )
    return _check_attainment(config, theta, phi)


def thm3_achieving(state: FanoState, s_a: float, sy: float, syp: float) -> AchievingConfig:
    """Scenario attaining the equal-A-side-strengths bound.

    The B directions follow the images of the top correlation eigenvectors
    under T^T; the A pair straddles those eigenvectors at the half-angle
    fixed by tan(theta/2) = syp s2 / (sy s1). phi comes out orthogonal.
    """
    s_a, sy, syp = float(s_a), float(sy), float(syp)
    report = thm3_bound(state, s_a, sy, syp)  # rejects sy < syp
    fac = state.t_svd
    s1, s2 = float(fac.s[0]), float(fac.s[1])
    if s1 <= 1e-12:
        raise InvalidInputError("correlation matrix is zero; nothing to attain")
    x1 = fac.u[:, 0]
    x2 = fac.u[:, 1]
    ty1 = state.t.T @ x1
    y = ty1 / float(np.sqrt(ty1 @ ty1))
    ty2 = state.t.T @ x2
    norm2 = float(np.sqrt(ty2 @ ty2))
    if norm2 > 1e-12:
        yp = ty2 / norm2
    else:
        # Rank-one correlations leave y' free; any unit vector orthogonal
        # to y attains the (syp-independent) bound.
        yp = complete_frame(y).e2
    half = math.atan2(syp * s2, sy * s1)
    x = math.cos(half) * x1 + math.sin(half) * x2
    xp = math.cos(half) * x1 - math.sin(half) * x2
    scenario = scenario_from_directions(StrengthQuad(s_a, s_a, sy, syp), (x, xp, y, yp))
    attained = chsh(scenario, state).canonical
    config = AchievingConfig(
        scenario=scenario,
        target_bound=report.value,
        attained_chsh=attained,
        recipe_id="thm3",
    )
    return _check_attainment(config, 2.0 * half, 0.5 * math.pi)


ACHIEVABLE = ("thm1", "thm2", "cor1", "cor4", "thm3", "thm4")


def achieve(criterion: str, state: FanoState, q: StrengthQuad, angles=None) -> AchievingConfig:
    """Scenario attaining a criterion's bound, for thm1 and thm2 at ``angles`` (theta, phi)."""
    if criterion in ("thm1", "thm2"):
        if angles is None:
            raise InvalidInputError(f"criterion {criterion} needs angles{{theta, phi}} in the input")
    elif criterion in ("cor1", "cor4"):
        if abs(q.sx - q.sxp) > 1e-12 or abs(q.sy - q.syp) > 1e-12:
            raise DomainError(f"criterion {criterion} requires equal strengths on each side")
        angles = (cor1_bound if criterion == "cor1" else cor4_bound)(state, q.sx, q.sy).optimal_angles
    elif criterion == "thm3":
        if abs(q.sx - q.sxp) > 1e-12:
            raise DomainError("criterion thm3 requires equal strengths on side A (sx = sxp)")
        config = thm3_achieving(state, q.sx, max(q.sy, q.syp), min(q.sy, q.syp))
        if q.sy >= q.syp:
            return config
        # Back to the input's labels: exchanging y and y' is the same as
        # negating x', so theta -> pi - theta and the CHSH value is unchanged.
        built = config.scenario
        dirs = (built.x.direction, -built.xp.direction, built.yp.direction, built.y.direction)
        scenario = scenario_from_directions(q, dirs)
        config = replace(config, scenario=scenario, attained_chsh=chsh(scenario, state).canonical)
        return _check_attainment(config, scenario.theta, scenario.phi)
    elif criterion == "thm4":
        angles = thm4_bound(state, q).optimal_angles
    else:
        raise InvalidInputError(
            f"criterion {criterion!r} has no achieving construction "
            "(choose thm1, thm2, cor1, cor4, thm3 or thm4)"
        )
    # The biased T-state bounds add the bias recipe to the directions.
    recipe = achieving_scenario_tstate if criterion in ("thm2", "cor4") else achieving_directions
    return recipe(state, q, *angles)
