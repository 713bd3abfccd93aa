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
from dataclasses import dataclass

import numpy as np

from .chsh import chsh_signed
from .errors import ConstructionError, DomainError, InvalidInputError
from .linalg import complete_frame, svd
from .model import FanoState, Scenario, StrengthQuad, check_angle, scenario_from_directions, sig12
from .bounds import cor1_bound, cor4_bound, equal_sides, s0_bound, st_bound, thm3_bound, thm4_bound, w_bundle

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
    theta = check_angle(theta, "theta")
    phi = check_angle(phi, "phi")
    cth, sth = math.cos(0.5 * theta), math.sin(0.5 * theta)
    cph, sph = math.cos(0.5 * phi), math.sin(0.5 * phi)
    x = np.array([cth, sth, 0.0])
    xp = np.array([cth, -sth, 0.0])
    y = np.array([cph, sph, 0.0])
    yp = np.array([cph, -sph, 0.0])
    return x, xp, y, yp


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


def _check_attainment(config: AchievingConfig, theta: float, phi: float) -> AchievingConfig:
    if config.attained_chsh < config.target_bound - _ATTAIN_TOL:
        raise ConstructionError(
            f"{config.recipe_id} construction attained {sig12(config.attained_chsh)} "
            f"against target {sig12(config.target_bound)} "
            f"(theta = {sig12(theta)}, phi = {sig12(phi)}); this indicates a "
            "factor-sign handling bug in the frame alignment"
        )
    return config


def achieving_directions(state: FanoState, q: StrengthQuad, theta: float, phi: float) -> AchievingConfig:
    """Unbiased scenario attaining the fixed-strengths, fixed-angles bound."""
    return _appendix_a(state, q, theta, phi, biased=False)


def _sign(value: float) -> float:
    return 1.0 if value >= 0.0 else -1.0


def achieving_biases(q: StrengthQuad) -> tuple[float, float, float, float]:
    """Extremal biases (|bias| = 1 - strength) attaining the bias-only maximum.

    The Y bias is positive; the remaining signs follow from the strength
    ordering on each side, so their canonical combination, rx|ry + β'ryp| +
    rxp|ry - β'ryp| with β' the sign of the y' bias, is never negative.
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
    return _appendix_a(state, q, theta, phi, biased=True)


def _appendix_a(state: FanoState, q: StrengthQuad, theta, phi, biased: bool) -> AchievingConfig:
    """The aligned unbiased scenario, with the bias recipe added if ``biased``."""
    theta, phi = float(theta), float(phi)
    target = (st_bound if biased else s0_bound)(state, q, theta, phi).value
    refs = reference_frames(theta, phi)
    o1, o2 = optimal_transforms(state, q, theta, phi)
    scenario = scenario_from_directions(q, (o1 @ refs[0], o1 @ refs[1], o2 @ refs[2], o2 @ refs[3]))
    if biased:
        dirs = [o.direction for o in scenario.observables()]
        # Flip the B side so the direction term adds to the bias term.
        if chsh_signed(scenario, state) < 0.0:
            dirs[2] = -dirs[2]
            dirs[3] = -dirs[3]
        scenario = scenario_from_directions(q, tuple(dirs), achieving_biases(q))
    attained = abs(chsh_signed(scenario, state))
    config = AchievingConfig(
        scenario=scenario, target_bound=target, attained_chsh=attained, recipe_id="appendixA"
    )
    return _check_attainment(config, theta, phi)


def _thm3_directions(t: np.ndarray, left: np.ndarray, s1: float, s2: float, first: float, second: float):
    """Directions (x, x', y, y') attaining thm3 with equal strengths on the side of t's rows.

    ``left`` holds t's left singular vectors as columns, s1 >= s2 are its
    top singular values and (first, second) the other side's strengths.
    """
    x1 = left[:, 0]
    x2 = left[:, 1]
    ty1 = t.T @ x1
    y = ty1 / float(np.sqrt(ty1 @ ty1))
    ty2 = t.T @ x2
    norm2 = float(np.sqrt(ty2 @ ty2))
    if norm2 > 1e-12:
        yp = ty2 / norm2
    else:
        # Rank-one correlations leave y' free; any unit vector orthogonal
        # to y attains the (lo-independent) bound.
        yp = complete_frame(y).e2
    half = math.atan2(min(first, second) * s2, max(first, second) * s1)
    x = math.cos(half) * x1 + math.sin(half) * x2
    xp = math.cos(half) * x1 - math.sin(half) * x2
    return (x, -xp, yp, y) if first < second else (x, xp, y, yp)


def thm3_achieving(state: FanoState, q: StrengthQuad) -> AchievingConfig:
    """Scenario attaining the equal-strengths-on-one-side bound, in the input's labels.

    Side A if sx = sxp, else side B, as ``thm3_bound`` picks it. On side A,
    with hi >= lo the B strengths, the stronger B observable follows the
    image of the top correlation eigenvector under T^T and the weaker one
    that of the second; the A pair straddles those eigenvectors at the
    half-angle fixed by tan(theta/2) = lo s2 / (hi s1). phi comes out
    orthogonal. For sy < syp, exchanging y and y' is the same as negating
    x', so theta -> pi - theta and the CHSH value is unchanged. On side B
    the parties are exchanged (a <-> b, T -> T^T, strengths (sy, syp, sx,
    sxp)), the side-A directions are built and the observables exchanged
    back. With zero correlations the bound is 0, which every unbiased
    scenario attains: the reference frames at the report's angles.
    """
    equal_a, equal_b = equal_sides(q)
    if not (equal_a or equal_b):
        raise DomainError("criterion thm3 requires equal strengths on one side (sx = sxp or sy = syp)")
    report = thm3_bound(state, q)
    fac = state.t_svd
    s1, s2 = float(fac.s[0]), float(fac.s[1])
    if s1 <= 1e-12:
        dirs = reference_frames(*report.optimal_angles)
    elif equal_a:
        dirs = _thm3_directions(state.t, fac.u, s1, s2, q.sy, q.syp)
    else:
        # T^T's left singular vectors are T's right ones.
        y, yp, x, xp = _thm3_directions(state.t.T, fac.v, s1, s2, q.sx, q.sxp)
        dirs = (x, xp, y, yp)
    scenario = scenario_from_directions(q, dirs)
    attained = abs(chsh_signed(scenario, state))
    config = AchievingConfig(
        scenario=scenario,
        target_bound=report.value,
        attained_chsh=attained,
        recipe_id="thm3",
    )
    return _check_attainment(config, *report.optimal_angles)


ACHIEVABLE = ("thm1", "thm2", "cor1", "cor4", "thm3", "thm4")


def achieve(criterion: str, state: FanoState, q: StrengthQuad, angles=None) -> AchievingConfig:
    """Scenario attaining a criterion's bound, for thm1 and thm2 at ``angles`` (theta, phi)."""
    if criterion == "thm3":
        return thm3_achieving(state, q)
    if criterion in ("cor1", "cor4"):
        if not all(equal_sides(q)):
            raise DomainError(f"criterion {criterion} requires equal strengths on each side")
        angles = (cor1_bound if criterion == "cor1" else cor4_bound)(state, q.sx, q.sy).optimal_angles
    elif criterion == "thm4":
        angles = thm4_bound(state, q).optimal_angles
    elif criterion not in ACHIEVABLE:
        choices = f"{', '.join(ACHIEVABLE[:-1])} or {ACHIEVABLE[-1]}"
        raise InvalidInputError(f"criterion {criterion!r} has no achieving construction (choose {choices})")
    elif angles is None:
        raise InvalidInputError(f"criterion {criterion} needs angles{{theta, phi}} in the input")
    # The biased T-state bounds add the bias recipe to the directions.
    recipe = achieving_scenario_tstate if criterion in ("thm2", "cor4") else achieving_directions
    return recipe(state, q, *angles)
