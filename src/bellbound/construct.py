"""Explicit measurement configurations that attain the tight bounds.

The direction recipe aligns the singular frames of the 3x3-embedded
strength/angle matrix with those of the spin correlation matrix: starting
from reference directions in the standard basis, one orthogonal transform
per side rotates the measurement directions so the trace pairing of the
two matrices becomes the sum of products of their singular values. Bias
patterns that attain the bias-only maximum are chosen by a sign recipe.
This one recipe attains every tight criterion: thm3, cor1, cor4 and thm4
are thm1 (or, with the bias recipe, thm2) at their bounds' optimal angles,
and ``achieve`` maps each criterion to those angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chsh import chsh_signed
from .errors import ConstructionError, DomainError, InvalidInputError
from .linalg import svd
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


def _appendix_a(
    state: FanoState, q: StrengthQuad, theta, phi, biased: bool, target=None, recipe_id: str = "appendixA"
) -> AchievingConfig:
    """The aligned unbiased scenario, with the bias recipe added if ``biased``, checked against ``target``:
    by default the thm1 (or, if ``biased``, thm2) bound at (theta, phi)."""
    theta, phi = float(theta), float(phi)
    if target is None:
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
    config = AchievingConfig(scenario=scenario, target_bound=target, attained_chsh=attained, recipe_id=recipe_id)
    return _check_attainment(config, theta, phi)


def thm3_achieving(state: FanoState, q: StrengthQuad) -> AchievingConfig:
    """Scenario attaining the equal-strengths-on-one-side bound, in the input's labels.

    thm3 is the thm1 bound at its best angles, so the frame alignment at
    ``thm3_bound``'s optimal angles attains it; that report alone knows
    thm3's side choice and relabelling.
    """
    if not any(equal_sides(q)):
        raise DomainError("criterion thm3 requires equal strengths on one side (sx = sxp or sy = syp)")
    report = thm3_bound(state, q)
    return _appendix_a(state, q, *report.optimal_angles, biased=False, target=report.value, recipe_id="thm3")


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
