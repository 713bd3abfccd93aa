"""Exact CHSH evaluation for arbitrary observables and states.

The correlation expectation is the bilinear form u_X^T Theta u_Y with
u_X = (bias_X, strength_X * x) and Theta the Fano block matrix, so every
value here is closed-form in the state components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import FanoState, Observable, Scenario


@dataclass(frozen=True)
class ChshVariants:
    """The canonical CHSH parameter and its three relabelings, all >= 0.

    ``canonical`` puts the minus sign on the X'Y' term; ``swap_x``,
    ``swap_y`` and ``swap_both`` re-evaluate after interchanging X with X'
    and/or Y with Y'.
    """

    canonical: float
    swap_x: float
    swap_y: float
    swap_both: float


def expectation(obs_a: Observable, obs_b: Observable, state: FanoState) -> float:
    """Expectation of the outcome product for obs_a on A and obs_b on B."""
    direction_term = float(
        obs_a.strength * obs_b.strength * (obs_a.direction @ state.t @ obs_b.direction)
    )
    return (
        obs_a.bias * obs_b.bias
        + obs_a.bias * obs_b.strength * float(state.b @ obs_b.direction)
        + obs_a.strength * obs_b.bias * float(state.a @ obs_a.direction)
        + direction_term
    )


def _correlations(scenario: Scenario, state: FanoState) -> tuple[float, float, float, float]:
    """E(x, y), E(x, y'), E(x', y) and E(x', y'): every correlation a CHSH variant reads."""
    x, xp, y, yp = scenario.observables()
    return tuple(expectation(a, b, state) for a, b in ((x, y), (x, yp), (xp, y), (xp, yp)))


def chsh_signed(scenario: Scenario, state: FanoState) -> float:
    """Canonical CHSH combination before taking the absolute value."""
    xy, xyp, xpy, xpyp = _correlations(scenario, state)
    return xy + xyp + xpy - xpyp


def chsh(scenario: Scenario, state: FanoState) -> ChshVariants:
    """All four CHSH parameter variants, each summed in its relabeled canonical order."""
    xy, xyp, xpy, xpyp = _correlations(scenario, state)
    return ChshVariants(
        canonical=abs(xy + xyp + xpy - xpyp),
        swap_x=abs(xpy + xpyp + xy - xyp),
        swap_y=abs(xyp + xy + xpyp - xpy),
        swap_both=abs(xpyp + xpy + xyp - xy),
    )


def bias_combination(bx: float, bxp: float, by: float, byp: float) -> float:
    """The canonical combination of the four biases: bx by + bx by' + bx' by - bx' by'."""
    return bx * by + bx * byp + bxp * by - bxp * byp


def n_matrix(scenario: Scenario) -> np.ndarray:
    """4x4 observable matrix of the trace form of the CHSH parameter.

    Entry (i, j) is ux_i uy_j + ux_i uy'_j + ux'_i uy_j - ux'_i uy'_j for
    the u4 vectors, on Python floats in the order of the outer-product sum
    outer(ux, uy) + outer(ux, uy') + outer(ux', uy) - outer(ux', uy').
    """
    ux, uxp, uy, uyp = (o.u4().tolist() for o in scenario.observables())
    return np.array([[a * c + a * d + b * c - b * d for c, d in zip(uy, uyp)] for a, b in zip(ux, uxp)])


def chsh_matrix_form(scenario: Scenario, state: FanoState) -> float:
    """Canonical CHSH parameter as |trace(Theta N^T)|.

    Algebraically identical to ``chsh(...).canonical``; kept as an
    independent evaluation route for cross-checks.
    """
    return abs(float(np.sum(state.theta_matrix() * n_matrix(scenario))))
