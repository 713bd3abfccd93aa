"""Independent numerical maximization of the CHSH parameter.

This is the ground-truth oracle used to certify every closed-form bound:
a multistart coordinate descent with shrinking step over frame
orientations (axis-angle per side), optionally the relative angles, and
the biases. It shares no code path with the closed-form bounds; the only
common dependency is the expectation formula itself.

Relative angles are held exactly fixed during constrained runs by
parameterizing each side as one rotation applied to reference directions
with the requested opening angle, so constraint violations cannot leak
into the search.

The search moves one parameter at a time, so the objective is cached per
parameter block (A's rotation, B's rotation, theta, phi, the biases), and
each block has one flat closure: a move is one Python call that computes
the block's rotation columns or half-angle, its side's vectors and the
final CHSH combination inline, in the order of operations of a full
evaluation, so both give the same value bit for bit. Unbiased problems
skip the bias terms. No decomposition of T or other closed-form shortcut
enters the objective.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .bounds import (
    cor1_bound,
    cor4_bound,
    horodecki,
    j_max,
    s0_bound,
    sgen_bound,
    st_bound,
    thm3_bound,
    thm4_branch,
    thm4_bound,
)
from .chsh import bias_combination, chsh_signed
from .construct import ACHIEVABLE, achieve
from .errors import InternalConsistencyError, InvalidInputError
from .linalg import frame_from_pair, matrix_to_axis_angle
from .model import (
    FanoState,
    Scenario,
    StrengthQuad,
    check_angle,
    correlation_singular_values,
    make_observable,
    random_observable,
    random_rotation,
    random_state,
    scenario_from_directions,
    state_from_fano,
)

_BIAS_MODES = ("fixed-zero", "fixed-values", "free-extremal", "free-continuous")
_SIGN_PATTERNS = tuple(itertools.product((1.0, -1.0), repeat=4))
_EVAL_BUDGET = 200_000
_START_STEP = 0.8
# Draw limits of the audit samplers that reject draws; running out is a
# sampler bug, not a pass.
_THM3_DRAWS = 500
_THM4_DRAWS = 1000


@dataclass(frozen=True)
class OptimizeSpec:
    """Constraint set and search controls for one maximization run."""

    state: FanoState
    strengths: StrengthQuad
    fixed_angles: tuple[float, float] | None = None
    biases: str = "fixed-zero"
    bias_values: tuple[float, float, float, float] | None = None
    restarts: int = 32
    seed: int = 0
    warm_starts: tuple[Scenario, ...] = ()

    def __post_init__(self):
        if self.biases not in _BIAS_MODES:
            raise InvalidInputError(f"bias mode must be one of {_BIAS_MODES}")
        if self.biases == "fixed-values":
            if self.bias_values is None or len(self.bias_values) != 4:
                raise InvalidInputError("fixed-values mode needs four bias values")
            for b, s in zip(self.bias_values, self.strengths.as_tuple()):
                if not math.isfinite(b):
                    raise InvalidInputError(f"bias values must be finite, got {b}")
                if abs(b) > 1.0 - s + 1e-12:
                    raise InvalidInputError("bias values violate strength + |bias| <= 1")
        if self.restarts < 1:
            raise InvalidInputError("restarts must be >= 1")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {self.seed}")
        if self.fixed_angles is not None:
            th, ph = self.fixed_angles
            object.__setattr__(self, "fixed_angles", (check_angle(th, "fixed theta"), check_angle(ph, "fixed phi")))


@dataclass(frozen=True)
class OptimizeResult:
    best_value: float
    best_scenario: Scenario
    evaluations: int
    converged: bool


def _rot_cols01(w0: float, w1: float, w2: float):
    # First two columns of the rotation for an axis-angle vector; the
    # third column never multiplies anything (reference dirs have z = 0).
    ang = math.sqrt(w0 * w0 + w1 * w1 + w2 * w2)
    if ang < 1e-300:
        return 1.0, 0.0, 0.0, 0.0, 1.0, 0.0
    kx, ky, kz = w0 / ang, w1 / ang, w2 / ang
    ca = math.cos(ang)
    sa = math.sin(ang)
    v = 1.0 - ca
    return (
        ca + v * kx * kx,
        v * kx * ky + sa * kz,
        v * kx * kz - sa * ky,
        v * kx * ky - sa * kz,
        ca + v * ky * ky,
        v * ky * kz + sa * kx,
    )


class _Problem:
    """Search parameters of one maximization and the CHSH objective over them.

    ``p[0:3]`` and ``p[3:6]`` are the axis-angle vectors of A's and B's
    frames, then theta and phi when the angles are free, then the four
    biases in free-continuous mode. Each of these is one block of the
    objective, and each bias is a block of its own.
    """

    def __init__(self, spec: OptimizeSpec):
        self.spec = spec
        # Python floats throughout: arithmetic on numpy scalars (as the audit
        # samplers draw them) costs several times more in the hot loop.
        self.sx, self.sxp, self.sy, self.syp = (float(v) for v in spec.strengths.as_tuple())
        self.free_angles = spec.fixed_angles is None
        if spec.fixed_angles is not None:
            self.theta0, self.phi0 = float(spec.fixed_angles[0]), float(spec.fixed_angles[1])
        else:
            self.theta0 = self.phi0 = 0.5 * math.pi
        self.free_bias = spec.biases == "free-continuous"
        if spec.biases == "fixed-values":
            self.fixed_bias = tuple(float(b) for b in spec.bias_values)
        else:
            self.fixed_bias = (0.0, 0.0, 0.0, 0.0)
        self.dim = 6 + (2 if self.free_angles else 0) + (4 if self.free_bias else 0)
        lo = [-math.inf] * 6
        hi = [math.inf] * 6
        if self.free_angles:
            lo += [0.0, 0.0]
            hi += [math.pi, math.pi]
        if self.free_bias:
            for s in (self.sx, self.sxp, self.sy, self.syp):
                room = max(0.0, 1.0 - s)
                lo.append(-room)
                hi.append(room)
        self.lo = lo
        self.hi = hi

    def make_objective(self):
        """The objective |S(p)| as ``(value, moves, commit)``.

        ``value(p)`` evaluates every block at ``p`` and caches the results.
        ``moves[i](p)`` is the value when ``p`` differs from the cached point
        in coordinate ``i`` only: it recomputes that coordinate's block and
        what depends on it. ``commit()`` makes the last move's point the
        cached one. Every route ends in the same expression on the same
        intermediates, so a moved value equals a fresh ``value(p)`` bit for
        bit.
        """
        # One closure per block (A's rotation, B's rotation, theta, phi, the
        # biases) computes its block, its side's vectors and the final
        # combination inline: one Python call per evaluation, millions of
        # times per audit. The cached point lives in closure cells named per
        # side: A's rotation columns ar*, (cos, sin) of theta/2, x, x' and
        # a.x, a.x'; B's columns br*, (cos, sin) of phi/2, T y, T y' and b.y,
        # b.y'; and g_dir, the direction part of the combination, which a
        # bias move reuses. A closure holds the names it recomputes in
        # locals, so every closure writes each expression alike, with the
        # operation order of _rot_cols01 and chsh. A side's move leaves that
        # side's new values in ``new`` for commit. Biases are read from p.
        state = self.spec.state
        (t00, t01, t02), (t10, t11, t12), (t20, t21, t22) = np.asarray(state.t, dtype=float).tolist()
        a0, a1, a2 = (float(c) for c in state.a)
        b0, b1, b2 = (float(c) for c in state.b)
        sx, sxp, sy, syp = self.sx, self.sxp, self.sy, self.syp
        sx_sy, sx_syp, sxp_sy, sxp_syp = sx * sy, sx * syp, sxp * sy, sxp * syp
        free_bias = self.free_bias
        fixed_bias = self.fixed_bias
        # Every Bloch-vector term carries a bias factor, so the local terms
        # matter only in biased problems.
        biased = free_bias or any(b != 0.0 for b in fixed_bias)
        local_terms = biased and any(c != 0.0 for c in (a0, a1, a2, b0, b1, b2))
        free_angles = self.free_angles
        nb = self.dim - 4
        cos = math.cos
        sin = math.sin
        sqrt = math.sqrt
        side_a, side_b = 1, 2

        cth, sth = cos(0.5 * self.theta0), sin(0.5 * self.theta0)
        cph, sph = cos(0.5 * self.phi0), sin(0.5 * self.phi0)
        ar00 = ar10 = ar20 = ar01 = ar11 = ar21 = 0.0
        br00 = br10 = br20 = br01 = br11 = br21 = 0.0
        x0 = x1 = x2 = xp0 = xp1 = xp2 = a_x = a_xp = 0.0
        ty0 = ty1 = ty2 = tp0 = tp1 = tp2 = b_y = b_yp = 0.0
        g_dir = 0.0
        new = ()
        moved = 0

        def move_a(p):
            nonlocal new, moved
            w0 = p[0]
            w1 = p[1]
            w2 = p[2]
            ang = sqrt(w0 * w0 + w1 * w1 + w2 * w2)
            if ang < 1e-300:
                ar00, ar10, ar20, ar01, ar11, ar21 = 1.0, 0.0, 0.0, 0.0, 1.0, 0.0
            else:
                kx = w0 / ang
                ky = w1 / ang
                kz = w2 / ang
                ca = cos(ang)
                sa = sin(ang)
                v = 1.0 - ca
                vx = v * kx
                vy = v * ky
                vxy = vx * ky
                sz = sa * kz
                ar00 = ca + vx * kx
                ar10 = vxy + sz
                ar20 = vx * kz - sa * ky
                ar01 = vxy - sz
                ar11 = ca + vy * ky
                ar21 = vy * kz + sa * kx
            x0 = ar00 * cth + ar01 * sth
            x1 = ar10 * cth + ar11 * sth
            x2 = ar20 * cth + ar21 * sth
            xp0 = ar00 * cth - ar01 * sth
            xp1 = ar10 * cth - ar11 * sth
            xp2 = ar20 * cth - ar21 * sth
            g = (
                sx_sy * (x0 * ty0 + x1 * ty1 + x2 * ty2)
                + sx_syp * (x0 * tp0 + x1 * tp1 + x2 * tp2)
                + sxp_sy * (xp0 * ty0 + xp1 * ty1 + xp2 * ty2)
                - sxp_syp * (xp0 * tp0 + xp1 * tp1 + xp2 * tp2)
            )
            if local_terms:
                a_x = a0 * x0 + a1 * x1 + a2 * x2
                a_xp = a0 * xp0 + a1 * xp1 + a2 * xp2
            else:
                a_x = a_xp = 0.0
            new = (ar00, ar10, ar20, ar01, ar11, ar21, cth, sth, x0, x1, x2, xp0, xp1, xp2, a_x, a_xp, g)
            moved = side_a
            if biased:
                bx, bxp, by, byp = (p[nb], p[nb + 1], p[nb + 2], p[nb + 3]) if free_bias else fixed_bias
                if bx != 0.0 or bxp != 0.0 or by != 0.0 or byp != 0.0:
                    g += bx * by + bx * byp + bxp * by - bxp * byp
                    if local_terms:
                        g += b_y * sy * (bx + bxp)
                        g += b_yp * syp * (bx - bxp)
                        g += a_x * sx * (by + byp)
                        g += a_xp * sxp * (by - byp)
            return abs(g)

        def move_theta(p):
            nonlocal new, moved
            cth = cos(0.5 * p[6])
            sth = sin(0.5 * p[6])
            x0 = ar00 * cth + ar01 * sth
            x1 = ar10 * cth + ar11 * sth
            x2 = ar20 * cth + ar21 * sth
            xp0 = ar00 * cth - ar01 * sth
            xp1 = ar10 * cth - ar11 * sth
            xp2 = ar20 * cth - ar21 * sth
            g = (
                sx_sy * (x0 * ty0 + x1 * ty1 + x2 * ty2)
                + sx_syp * (x0 * tp0 + x1 * tp1 + x2 * tp2)
                + sxp_sy * (xp0 * ty0 + xp1 * ty1 + xp2 * ty2)
                - sxp_syp * (xp0 * tp0 + xp1 * tp1 + xp2 * tp2)
            )
            if local_terms:
                a_x = a0 * x0 + a1 * x1 + a2 * x2
                a_xp = a0 * xp0 + a1 * xp1 + a2 * xp2
            else:
                a_x = a_xp = 0.0
            new = (ar00, ar10, ar20, ar01, ar11, ar21, cth, sth, x0, x1, x2, xp0, xp1, xp2, a_x, a_xp, g)
            moved = side_a
            if biased:
                bx, bxp, by, byp = (p[nb], p[nb + 1], p[nb + 2], p[nb + 3]) if free_bias else fixed_bias
                if bx != 0.0 or bxp != 0.0 or by != 0.0 or byp != 0.0:
                    g += bx * by + bx * byp + bxp * by - bxp * byp
                    if local_terms:
                        g += b_y * sy * (bx + bxp)
                        g += b_yp * syp * (bx - bxp)
                        g += a_x * sx * (by + byp)
                        g += a_xp * sxp * (by - byp)
            return abs(g)

        def move_b(p):
            nonlocal new, moved
            w0 = p[3]
            w1 = p[4]
            w2 = p[5]
            ang = sqrt(w0 * w0 + w1 * w1 + w2 * w2)
            if ang < 1e-300:
                br00, br10, br20, br01, br11, br21 = 1.0, 0.0, 0.0, 0.0, 1.0, 0.0
            else:
                kx = w0 / ang
                ky = w1 / ang
                kz = w2 / ang
                ca = cos(ang)
                sa = sin(ang)
                v = 1.0 - ca
                vx = v * kx
                vy = v * ky
                vxy = vx * ky
                sz = sa * kz
                br00 = ca + vx * kx
                br10 = vxy + sz
                br20 = vx * kz - sa * ky
                br01 = vxy - sz
                br11 = ca + vy * ky
                br21 = vy * kz + sa * kx
            y0 = br00 * cph + br01 * sph
            y1 = br10 * cph + br11 * sph
            y2 = br20 * cph + br21 * sph
            yp0 = br00 * cph - br01 * sph
            yp1 = br10 * cph - br11 * sph
            yp2 = br20 * cph - br21 * sph
            ty0 = t00 * y0 + t01 * y1 + t02 * y2
            ty1 = t10 * y0 + t11 * y1 + t12 * y2
            ty2 = t20 * y0 + t21 * y1 + t22 * y2
            tp0 = t00 * yp0 + t01 * yp1 + t02 * yp2
            tp1 = t10 * yp0 + t11 * yp1 + t12 * yp2
            tp2 = t20 * yp0 + t21 * yp1 + t22 * yp2
            g = (
                sx_sy * (x0 * ty0 + x1 * ty1 + x2 * ty2)
                + sx_syp * (x0 * tp0 + x1 * tp1 + x2 * tp2)
                + sxp_sy * (xp0 * ty0 + xp1 * ty1 + xp2 * ty2)
                - sxp_syp * (xp0 * tp0 + xp1 * tp1 + xp2 * tp2)
            )
            if local_terms:
                b_y = b0 * y0 + b1 * y1 + b2 * y2
                b_yp = b0 * yp0 + b1 * yp1 + b2 * yp2
            else:
                b_y = b_yp = 0.0
            new = (br00, br10, br20, br01, br11, br21, cph, sph, ty0, ty1, ty2, tp0, tp1, tp2, b_y, b_yp, g)
            moved = side_b
            if biased:
                bx, bxp, by, byp = (p[nb], p[nb + 1], p[nb + 2], p[nb + 3]) if free_bias else fixed_bias
                if bx != 0.0 or bxp != 0.0 or by != 0.0 or byp != 0.0:
                    g += bx * by + bx * byp + bxp * by - bxp * byp
                    if local_terms:
                        g += b_y * sy * (bx + bxp)
                        g += b_yp * syp * (bx - bxp)
                        g += a_x * sx * (by + byp)
                        g += a_xp * sxp * (by - byp)
            return abs(g)

        def move_phi(p):
            nonlocal new, moved
            cph = cos(0.5 * p[7])
            sph = sin(0.5 * p[7])
            y0 = br00 * cph + br01 * sph
            y1 = br10 * cph + br11 * sph
            y2 = br20 * cph + br21 * sph
            yp0 = br00 * cph - br01 * sph
            yp1 = br10 * cph - br11 * sph
            yp2 = br20 * cph - br21 * sph
            ty0 = t00 * y0 + t01 * y1 + t02 * y2
            ty1 = t10 * y0 + t11 * y1 + t12 * y2
            ty2 = t20 * y0 + t21 * y1 + t22 * y2
            tp0 = t00 * yp0 + t01 * yp1 + t02 * yp2
            tp1 = t10 * yp0 + t11 * yp1 + t12 * yp2
            tp2 = t20 * yp0 + t21 * yp1 + t22 * yp2
            g = (
                sx_sy * (x0 * ty0 + x1 * ty1 + x2 * ty2)
                + sx_syp * (x0 * tp0 + x1 * tp1 + x2 * tp2)
                + sxp_sy * (xp0 * ty0 + xp1 * ty1 + xp2 * ty2)
                - sxp_syp * (xp0 * tp0 + xp1 * tp1 + xp2 * tp2)
            )
            if local_terms:
                b_y = b0 * y0 + b1 * y1 + b2 * y2
                b_yp = b0 * yp0 + b1 * yp1 + b2 * yp2
            else:
                b_y = b_yp = 0.0
            new = (br00, br10, br20, br01, br11, br21, cph, sph, ty0, ty1, ty2, tp0, tp1, tp2, b_y, b_yp, g)
            moved = side_b
            if biased:
                bx, bxp, by, byp = (p[nb], p[nb + 1], p[nb + 2], p[nb + 3]) if free_bias else fixed_bias
                if bx != 0.0 or bxp != 0.0 or by != 0.0 or byp != 0.0:
                    g += bx * by + bx * byp + bxp * by - bxp * byp
                    if local_terms:
                        g += b_y * sy * (bx + bxp)
                        g += b_yp * syp * (bx - bxp)
                        g += a_x * sx * (by + byp)
                        g += a_xp * sxp * (by - byp)
            return abs(g)

        def move_bias(p):
            # The bias terms (chsh.bias_combination and the local terms) are
            # written out in every closure: a call would cost a sizeable
            # share of a move.
            nonlocal moved
            moved = 0
            g = g_dir
            bx = p[nb]
            bxp = p[nb + 1]
            by = p[nb + 2]
            byp = p[nb + 3]
            if bx != 0.0 or bxp != 0.0 or by != 0.0 or byp != 0.0:
                g += bx * by + bx * byp + bxp * by - bxp * byp
                if local_terms:
                    g += b_y * sy * (bx + bxp)
                    g += b_yp * syp * (bx - bxp)
                    g += a_x * sx * (by + byp)
                    g += a_xp * sxp * (by - byp)
            return abs(g)

        def commit():
            nonlocal ar00, ar10, ar20, ar01, ar11, ar21, cth, sth, x0, x1, x2, xp0, xp1, xp2, a_x, a_xp
            nonlocal br00, br10, br20, br01, br11, br21, cph, sph, ty0, ty1, ty2, tp0, tp1, tp2, b_y, b_yp
            nonlocal g_dir
            if moved == side_a:
                ar00, ar10, ar20, ar01, ar11, ar21, cth, sth, x0, x1, x2, xp0, xp1, xp2, a_x, a_xp, g_dir = new
            elif moved == side_b:
                br00, br10, br20, br01, br11, br21, cph, sph, ty0, ty1, ty2, tp0, tp1, tp2, b_y, b_yp, g_dir = new

        def value(p):
            nonlocal cth, sth, cph, sph
            if free_angles:
                cth = cos(0.5 * p[6])
                sth = sin(0.5 * p[6])
                cph = cos(0.5 * p[7])
                sph = sin(0.5 * p[7])
            move_b(p)
            commit()
            g = move_a(p)
            commit()
            return g

        moves = [move_a] * 3 + [move_b] * 3
        if free_angles:
            moves += [move_theta, move_phi]
        if free_bias:
            moves += [move_bias] * 4
        return value, tuple(moves), commit

    def scenario(self, p, biases=None) -> Scenario:
        if self.free_angles:
            theta, phi = p[6], p[7]
        else:
            theta, phi = self.theta0, self.phi0
        if biases is None:
            if self.free_bias:
                biases = tuple(p[self.dim - 4 :])
            else:
                biases = self.fixed_bias
        cth = math.cos(0.5 * theta)
        sth = math.sin(0.5 * theta)
        cph = math.cos(0.5 * phi)
        sph = math.sin(0.5 * phi)
        r00, r10, r20, r01, r11, r21 = _rot_cols01(p[0], p[1], p[2])
        x = np.array([r00 * cth + r01 * sth, r10 * cth + r11 * sth, r20 * cth + r21 * sth])
        xp = np.array([r00 * cth - r01 * sth, r10 * cth - r11 * sth, r20 * cth - r21 * sth])
        r00, r10, r20, r01, r11, r21 = _rot_cols01(p[3], p[4], p[5])
        y = np.array([r00 * cph + r01 * sph, r10 * cph + r11 * sph, r20 * cph + r21 * sph])
        yp = np.array([r00 * cph - r01 * sph, r10 * cph - r11 * sph, r20 * cph - r21 * sph])
        return scenario_from_directions(self.spec.strengths, (x, xp, y, yp), biases)

    def params_from_scenario(self, scenario: Scenario) -> list[float]:
        frame_a = frame_from_pair(scenario.x.direction, scenario.xp.direction)
        frame_b = frame_from_pair(scenario.y.direction, scenario.yp.direction)
        p = list(matrix_to_axis_angle(frame_a.as_matrix()))
        p += list(matrix_to_axis_angle(frame_b.as_matrix()))
        if self.free_angles:
            p += [scenario.theta, scenario.phi]
        if self.free_bias:
            p += list(scenario.biases)
        return [float(v) for v in p]

    def random_params(self, rng: np.random.Generator) -> list[float]:
        p = []
        for _ in range(2):
            axis = rng.standard_normal(3)
            axis /= math.sqrt(float(axis @ axis)) or 1.0
            p += (axis * rng.uniform(0.0, math.pi)).tolist()
        if self.free_angles:
            p += rng.uniform(0.0, math.pi, size=2).tolist()
        if self.free_bias:
            for s in (self.sx, self.sxp, self.sy, self.syp):
                room = max(0.0, 1.0 - s)
                p.append(float(rng.uniform(-room, room)) if room > 0.0 else 0.0)
        return p


def _coordinate_refine(objective, lo, hi, p: list[float], tol: float, step0: float = _START_STEP):
    """Greedy per-coordinate ascent with step halving; deterministic.

    Successful moves walk onward with doubling stride; the step is halved
    once a sweep's total gain falls below the quadratic scale step^2 / 4,
    which stops unproductive zigzagging along curved ridges. Each trial
    moves one coordinate, so only that coordinate's block is recomputed;
    an accepted move is committed to the objective's cache.
    """
    value, moves, commit = objective
    budget = _EVAL_BUDGET
    best = value(p)
    evals = 1
    step = step0
    n = len(p)
    sweeps_at_level = 0
    while step > tol and evals < budget:
        gain = 0.0
        sweeps_at_level += 1
        for i in range(n):
            move = moves[i]
            lo_i = lo[i]
            hi_i = hi[i]
            base = p[i]
            for delta in (step, -step):
                cand = base + delta
                if cand > hi_i:
                    cand = hi_i
                elif cand < lo_i:
                    cand = lo_i
                if cand == base:
                    continue
                p[i] = cand
                val = move(p)
                evals += 1
                if val > best:
                    commit()
                    gain += val - best
                    best = val
                    stride = delta
                    while evals < budget:
                        stride *= 2.0
                        nxt = p[i] + stride
                        if nxt > hi_i:
                            nxt = hi_i
                        elif nxt < lo_i:
                            nxt = lo_i
                        if nxt == p[i]:
                            break
                        prev = p[i]
                        p[i] = nxt
                        val = move(p)
                        evals += 1
                        if val > best:
                            commit()
                            gain += val - best
                            best = val
                        else:
                            p[i] = prev
                            break
                    break
                p[i] = base
        if gain <= 0.25 * step * step or sweeps_at_level >= 12:
            step *= 0.5
            sweeps_at_level = 0
    return best, p, evals, step <= tol


# Random restarts refine at this coarse parameter tolerance and the winner
# is polished at full precision only when it beats the incumbent (warm
# starts always run at full precision). A non-winning coarse candidate can
# trail its own local optimum by at most O(coarse^2) in value, so nothing
# meaningful is lost by not polishing it.
_COARSE_TOL = 1e-4
_REFINE_TOL = 1e-8


def _run_starts(problem: _Problem, spec: OptimizeSpec):
    rng = np.random.default_rng(spec.seed)
    objective = problem.make_objective()
    lo = problem.lo
    hi = problem.hi
    best_val = -math.inf
    best_p = None
    total_evals = 0
    converged = True
    for scenario in spec.warm_starts:
        start = problem.params_from_scenario(scenario)
        val, p, evals, conv = _coordinate_refine(objective, lo, hi, start, _REFINE_TOL)
        total_evals += evals
        converged = converged and conv
        if val > best_val:
            best_val = val
            best_p = list(p)
    for _ in range(spec.restarts):
        start = problem.random_params(rng)
        val, p, evals, conv = _coordinate_refine(objective, lo, hi, start, _COARSE_TOL)
        total_evals += evals
        if val > best_val:
            step0 = 4.0 * _COARSE_TOL
            val, p, evals, conv = _coordinate_refine(objective, lo, hi, p, _REFINE_TOL, step0=step0)
            total_evals += evals
        converged = converged and conv
        if val > best_val:
            best_val = val
            best_p = list(p)
    return best_val, best_p, total_evals, converged


def maximize_chsh(spec: OptimizeSpec) -> OptimizeResult:
    """Maximize the canonical CHSH parameter under the spec's constraints.

    Deterministic for identical specs; nondecreasing in ``restarts`` for a
    fixed seed. The returned value is re-evaluated through the exact
    engine on the returned scenario.
    """
    if spec.biases == "free-extremal":
        return _maximize_extremal(spec)
    problem = _Problem(spec)
    best_val, best_p, evals, converged = _run_starts(problem, spec)
    scenario = problem.scenario(best_p)
    return _finalize(spec, scenario, evals, converged)


def _finalize(spec: OptimizeSpec, scenario: Scenario, evals: int, converged: bool) -> OptimizeResult:
    value = abs(chsh_signed(scenario, spec.state))
    return OptimizeResult(
        best_value=value, best_scenario=scenario, evaluations=evals, converged=converged
    )


def extremal_bias_patterns(q: StrengthQuad):
    """The sixteen sign patterns at |bias| = 1 - strength."""
    rooms = tuple(1.0 - s for s in q.as_tuple())
    return tuple(
        tuple(sign * room for sign, room in zip(pattern, rooms)) for pattern in _SIGN_PATTERNS
    )


def exhaustive_bias_max(q: StrengthQuad) -> float:
    """Max |bias-only CHSH term| over the sixteen extremal sign patterns."""
    return max(abs(bias_combination(*biases)) for biases in extremal_bias_patterns(q))


def _maximize_extremal(spec: OptimizeSpec) -> OptimizeResult:
    # Biases appear linearly, so extremal patterns suffice. On T-states the
    # bias term decouples from the direction term entirely: optimize
    # directions once, add the best pattern, and align signs by flipping
    # the B side if needed.
    if spec.state.is_tstate():
        unbiased = replace(spec, biases="fixed-zero", bias_values=None)
        problem = _Problem(unbiased)
        best_val, best_p, evals, converged = _run_starts(problem, unbiased)
        best_biases = (0.0, 0.0, 0.0, 0.0)
        best_j = 0.0
        for biases in extremal_bias_patterns(spec.strengths):
            j = bias_combination(*biases)
            if j > best_j:
                best_j = j
                best_biases = biases
        evals += 16
        scenario = problem.scenario(best_p, biases=best_biases)
        if chsh_signed(problem.scenario(best_p), spec.state) < 0.0:
            scenario = Scenario(
                x=scenario.x,
                xp=scenario.xp,
                y=make_observable(scenario.y.bias, scenario.y.strength, -scenario.y.direction),
                yp=make_observable(scenario.yp.bias, scenario.yp.strength, -scenario.yp.direction),
            )
        return _finalize(spec, scenario, evals, converged)
    best_result = None
    total_evals = 0
    converged = True
    for biases in extremal_bias_patterns(spec.strengths):
        fixed = replace(spec, biases="fixed-values", bias_values=biases)
        problem = _Problem(fixed)
        val, p, evals, conv = _run_starts(problem, fixed)
        total_evals += evals
        converged = converged and conv
        if best_result is None or val > best_result[0]:
            best_result = (val, problem.scenario(p))
    return _finalize(spec, best_result[1], total_evals, converged)


# ---------------------------------------------------------------------------
# Bound audits: per-trial sampling in each criterion's domain, closed-form
# bound vs oracle, with overshoots treated as hard failures.


@dataclass(frozen=True)
class AuditRow:
    """One audit trial.

    ``evaluations`` and ``converged`` come from the oracle's search; they
    are 0 and True where the oracle value is exact (sgen, jmax).
    """

    trial: int
    bound: float
    oracle: float
    gap: float
    evaluations: int
    converged: bool


@dataclass(frozen=True)
class AuditReport:
    criterion_id: str
    trials: int
    seed: int
    overshoot_tol: float
    undershoot_tol: float
    tightness_claimed: bool
    rows: tuple[AuditRow, ...]
    max_overshoot: float = field(init=False)
    max_undershoot: float = field(init=False)
    worst_overshoot_trial: int | None = field(init=False)
    worst_undershoot_trial: int | None = field(init=False)
    failed_trials: tuple[int, ...] = field(init=False)
    passed: bool = field(init=False)

    def __post_init__(self):
        # The first trial with the largest oracle - bound, and with the largest gap.
        worst_over = max(self.rows, key=lambda r: r.oracle - r.bound, default=None)
        worst_under = max(self.rows, key=lambda r: r.gap, default=None)
        overshoot = 0.0 if worst_over is None else worst_over.oracle - worst_over.bound
        undershoot = 0.0 if worst_under is None else worst_under.gap
        object.__setattr__(self, "worst_overshoot_trial", None if worst_over is None else worst_over.trial)
        object.__setattr__(self, "worst_undershoot_trial", None if worst_under is None else worst_under.trial)
        failed = tuple(
            r.trial
            for r in self.rows
            if r.oracle - r.bound > self.overshoot_tol
            or (self.tightness_claimed and r.gap > self.undershoot_tol)
        )
        object.__setattr__(self, "max_overshoot", max(0.0, overshoot))
        object.__setattr__(self, "max_undershoot", max(0.0, undershoot))
        object.__setattr__(self, "failed_trials", failed)
        object.__setattr__(self, "passed", not failed)


def _opt_seed(seed: int, trial: int) -> int:
    return (int(seed) * 1_000_003 + trial * 7_919 + 13) % (2**63)


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng((int(seed), int(trial), 0xB311))


# State kinds the soundness audits cycle through.
_KINDS = ("tstate", "general", "pure")


def sample_thm1_trial(seed: int, trial: int, kind: str | None = None):
    # By default even trials draw T-states and odd trials general states.
    rng = _trial_rng(seed, trial)
    state = random_state(rng, kind or ("tstate" if trial % 2 == 0 else "general"))
    q = StrengthQuad(*rng.uniform(0.0, 1.0, 4))
    theta, phi = (float(v) for v in rng.uniform(0.0, math.pi, 2))
    return state, q, theta, phi


def _trial_fixed_angles(criterion: str, seed: int, trial: int):
    state, q, theta, phi = sample_thm1_trial(seed, trial, "tstate" if criterion == "thm2" else None)
    bound = (s0_bound if criterion == "thm1" else st_bound)(state, q, theta, phi).value
    return bound, (state, q, (theta, phi))


def sample_thm3_trial(seed: int, trial: int):
    # Correlations and strengths are kept away from the degenerate corners
    # (tiny s2, nearly equal B strengths) so the optimal angles are
    # well-conditioned and the oracle's angle estimates are meaningful.
    rng = _trial_rng(seed, trial)
    kind = "tstate" if trial % 2 == 0 else "pure"
    for _ in range(_THM3_DRAWS):
        state = random_state(rng, kind)
        s1, s2, _ = correlation_singular_values(state)
        if s1 >= 0.5 and s2 >= 0.3:
            break
    else:
        raise InternalConsistencyError(
            f"thm3 sampler found no state with s1 >= 0.5 and s2 >= 0.3 in {_THM3_DRAWS} draws "
            f"(seed {seed}, trial {trial})"
        )
    s_a = float(rng.uniform(0.5, 1.0))
    sy = float(rng.uniform(0.6, 1.0))
    syp = float(rng.uniform(0.3, sy - 0.25))
    return state, s_a, sy, syp


def _trial_thm3(seed: int, trial: int):
    state, s_a, sy, syp = sample_thm3_trial(seed, trial)
    q = StrengthQuad(s_a, s_a, sy, syp)
    return thm3_bound(state, q).value, (state, q, None)


def sample_thm4_trial(seed: int, trial: int):
    # Rotated Werner states (equal correlation singular values). Even
    # trials aim at the interior-angle branch, odd trials at the
    # extremal-angle branch, both kept clear of the branch boundary.
    rng = _trial_rng(seed, trial)
    w = float(rng.uniform(0.55, 1.0))
    left = random_rotation(rng)
    right = random_rotation(rng)
    state = state_from_fano(np.zeros(3), np.zeros(3), left @ (-w * np.eye(3)) @ right.T)
    for _ in range(_THM4_DRAWS):
        if trial % 2 == 0:
            sx, sxp, sy, syp = (float(v) for v in rng.uniform(0.45, 1.0, 4))
            if abs(sx - sxp) < 0.12 or abs(sy - syp) < 0.12:
                continue
        else:
            sx = float(rng.uniform(0.75, 1.0))
            sxp = float(rng.uniform(0.05, 0.25))
            sy = float(rng.uniform(0.75, 1.0))
            syp = float(rng.uniform(0.05, 0.25))
        q = StrengthQuad(sx, sxp, sy, syp)
        first, a, b, c = thm4_branch(q)
        ratio = abs(a * b) / (c * c) if c > 0.0 else math.inf
        if first and ratio <= 0.8:
            return state, q
        if not first and ratio >= 1.3:
            return state, q
    raise InternalConsistencyError(
        f"thm4 sampler found no strengths clear of the branch boundary in {_THM4_DRAWS} draws "
        f"(seed {seed}, trial {trial})"
    )


def _trial_thm4(seed: int, trial: int):
    state, q = sample_thm4_trial(seed, trial)
    return thm4_bound(state, q).value, (state, q, None)


def _trial_equal_strengths(criterion: str, seed: int, trial: int):
    # The bound is the corollary's closed form; the construction's target (thm1
    # or thm2 at the optimal angles) equals it only up to rounding.
    rng = _trial_rng(seed, trial)
    state = random_state(rng, "tstate" if criterion == "cor4" or trial % 2 == 0 else "general")
    s_a, s_b = (float(v) for v in rng.uniform(0.0, 1.0, 2))
    bound = (cor1_bound if criterion == "cor1" else cor4_bound)(state, s_a, s_b).value
    return bound, (state, StrengthQuad(s_a, s_a, s_b, s_b), None)


def _trial_sgen(seed: int, trial: int):
    rng = _trial_rng(seed, trial)
    state = random_state(rng, _KINDS[trial % 3])
    scenario = Scenario(*(random_observable(rng) for _ in range(4)))
    bound = sgen_bound(scenario, state).value
    # The bound is scenario-specific, so the matching "oracle" is the
    # exact CHSH value of that very scenario.
    return bound, abs(chsh_signed(scenario, state))


def _trial_horodecki_upper(seed: int, trial: int):
    rng = _trial_rng(seed, trial)
    state = random_state(rng, _KINDS[trial % 3])
    q = StrengthQuad(*rng.uniform(0.0, 1.0, 4))
    return max(2.0, horodecki(state)), (state, q, None)


def _trial_jmax(seed: int, trial: int):
    rng = _trial_rng(seed, trial)
    q = StrengthQuad(*rng.uniform(0.0, 1.0, 4))
    return j_max(q), exhaustive_bias_max(q)


def _trial_zero_strength(seed: int, trial: int):
    rng = _trial_rng(seed, trial)
    state = random_state(rng, _KINDS[trial % 3])
    sx, sxp, sy = (float(v) for v in rng.uniform(0.0, 1.0, 3))
    return 2.0, (state, StrengthQuad(sx, sxp, sy, 0.0), None)


@dataclass(frozen=True)
class _AuditCriterion:
    """One audit: its trial, the oracle's bias mode, its claim and tolerances.

    ``trial_fn(seed, trial)`` returns ``(bound, oracle)``: the exact oracle
    value where ``oracle_biases`` is None (sgen, jmax), otherwise the case
    that ``_audit_one`` searches, ``(state, strengths, fixed angles or None)``.
    """

    trial_fn: object
    oracle_biases: str | None
    tightness_claimed: bool
    overshoot_tol: float = 1e-9
    undershoot_tol: float = 1e-3
    restarts: int = 6


# The oracle searches with zero biases for the unbiased bounds, extremal
# ones for the biased T-state forms and continuous ones for soundness.
_AUDIT_REGISTRY: dict[str, _AuditCriterion] = {
    "thm1": _AuditCriterion(partial(_trial_fixed_angles, "thm1"), "fixed-zero", tightness_claimed=True),
    "thm2": _AuditCriterion(partial(_trial_fixed_angles, "thm2"), "free-extremal", tightness_claimed=True),
    "thm3": _AuditCriterion(_trial_thm3, "fixed-zero", tightness_claimed=True, restarts=8),
    "thm4": _AuditCriterion(_trial_thm4, "fixed-zero", tightness_claimed=True, restarts=8),
    "cor1": _AuditCriterion(partial(_trial_equal_strengths, "cor1"), "fixed-zero", tightness_claimed=True),
    "cor4": _AuditCriterion(partial(_trial_equal_strengths, "cor4"), "free-extremal", tightness_claimed=True),
    "sgen": _AuditCriterion(_trial_sgen, None, tightness_claimed=False),
    "horodecki-upper": _AuditCriterion(_trial_horodecki_upper, "free-continuous", tightness_claimed=False),
    "jmax": _AuditCriterion(_trial_jmax, None, tightness_claimed=True, overshoot_tol=1e-12, undershoot_tol=1e-12),
    "zero-strength": _AuditCriterion(
        _trial_zero_strength, "free-continuous", tightness_claimed=False, overshoot_tol=1e-6
    ),
}

AUDIT_CRITERIA = tuple(_AUDIT_REGISTRY)


def _audit_one(args) -> AuditRow:
    criterion_id, seed, trial, restarts = args
    cfg = _AUDIT_REGISTRY[criterion_id]
    bound, oracle = cfg.trial_fn(seed, trial)
    evals, converged = 0, True
    if cfg.oracle_biases is not None:
        state, q, angles = oracle
        # A tight criterion's construction is the search's warm start.
        warm = (achieve(criterion_id, state, q, angles).scenario,) if criterion_id in ACHIEVABLE else ()
        spec = OptimizeSpec(
            state, q, angles, cfg.oracle_biases, restarts=restarts, seed=_opt_seed(seed, trial), warm_starts=warm
        )
        result = maximize_chsh(spec)
        oracle, evals, converged = result.best_value, result.evaluations, result.converged
    return AuditRow(
        trial=trial,
        bound=float(bound),
        oracle=float(oracle),
        gap=float(bound - oracle),
        evaluations=int(evals),
        converged=bool(converged),
    )


def worker_count(requested: int, trials: int, cpus: int | None) -> int:
    """Worker processes for an audit: the request, capped by the trials and the CPUs."""
    return max(1, min(int(requested), int(trials), cpus or 1))


def _usable_cpus() -> int | None:
    """CPUs this process may run on: its affinity set where the platform has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def audit_bound(
    criterion_id: str,
    trials: int,
    seed: int = 0,
    tolerance: float | None = None,
    restarts: int | None = None,
    threads: int = 1,
) -> AuditReport:
    """Compare a closed-form bound against the oracle over seeded trials.

    Per-trial seeds derive from (seed, trial index), so results do not
    depend on the execution order or the number of worker processes.
    ``threads`` asks for worker processes; at most one per CPU the process
    may run on and at most one per trial are started. ``tolerance``
    overrides the undershoot tolerance for tightness-claimed criteria.
    """
    if criterion_id not in _AUDIT_REGISTRY:
        raise InvalidInputError(
            f"unknown audit criterion {criterion_id!r}; known: {sorted(_AUDIT_REGISTRY)}"
        )
    if trials < 1:
        raise InvalidInputError("trials must be >= 1")
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    if restarts is not None and restarts < 1:
        raise InvalidInputError("restarts must be >= 1")
    if tolerance is not None and not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise InvalidInputError(f"tolerance must be finite and >= 0, got {tolerance}")
    cfg = _AUDIT_REGISTRY[criterion_id]
    undershoot_tol = cfg.undershoot_tol if tolerance is None else float(tolerance)
    n_restarts = cfg.restarts if restarts is None else int(restarts)
    jobs = [(criterion_id, int(seed), trial, n_restarts) for trial in range(trials)]
    workers = worker_count(threads, trials, _usable_cpus())
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = tuple(pool.map(_audit_one, jobs))
    else:
        rows = tuple(_audit_one(job) for job in jobs)
    return AuditReport(
        criterion_id=criterion_id,
        trials=trials,
        seed=int(seed),
        overshoot_tol=cfg.overshoot_tol,
        undershoot_tol=undershoot_tol,
        tightness_claimed=cfg.tightness_claimed,
        rows=rows,
    )
