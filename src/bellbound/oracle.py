"""Independent numerical maximization of the CHSH parameter.

This is the ground-truth oracle used to certify every closed-form bound:
a multistart coordinate descent with shrinking step over frame
orientations (axis-angle per side), optionally the relative angles, and
the biases. It shares no code path with the closed-form bounds; the only
common dependency is the expectation formula itself. Its imports show
this: it reads only ``model``, ``chsh``, ``linalg`` and ``errors``, never
``bounds`` or ``construct``, and a tier-1 test holds it to that. The
audits that compare the two live in ``optimize``.

Relative angles are held exactly fixed during constrained runs by
parameterizing each side as one rotation applied to reference directions
with the requested opening angle, so constraint violations cannot leak
into the search.

The search moves one parameter at a time, and its whole step-halving loop
is one closure per problem, ``refine``, whose state is its fast locals:
the rotation columns, half-angles and vectors of each parameter block
(A's rotation, B's rotation, theta, phi, the biases). A move recomputes
only its block, its side's vectors and the final CHSH combination, into
temporaries that an accepted move assigns to the point's names, in the
order of operations of a full evaluation, so both give the same value bit
for bit. Each product of a rotation entry with a half-angle's cosine or sine
is formed once and shared by a side's two directions, and each half-angle is
halved once. The rotation coordinates are unbounded, so their searches have
no clamp; theta, phi and the biases clamp to their bounds. Unbiased problems
skip the bias terms. No decomposition of T or other closed-form shortcut
enters the objective.

After a sweep that gained, from the second sweep at a step onward, a
pattern step (R. Hooke and T. A. Jeeves, J. ACM 8, 212, 1961) moves along
the sweep's net displacement m: from the sweep's end point by m, then by
2m, 4m, ... from each point that improved, theta, phi and the biases
clamped to their bounds and the rotations not. Each such point is one full
evaluation, by the same rendered text as a start's, counted and held to the
evaluation budget like a coordinate move. The last point that improved is
kept: the first that does not is undone from copies of p and of the point's
block values made before the move, with nothing recomputed.

``refine``'s factory is rendered at import from one template per
expression into ``_OBJECTIVE_SOURCE``, which tracebacks and ``inspect``
read as the file ``<bellbound.oracle _objective_factory>``.
"""

from __future__ import annotations

import itertools
import linecache
import math
import re
import textwrap
from dataclasses import dataclass, replace

import numpy as np

from .chsh import bias_combination, chsh_signed
from .errors import InvalidInputError
from .linalg import frame_from_pair, matrix_to_axis_angle
from .model import (
    FanoState,
    Scenario,
    StrengthQuad,
    check_angle,
    check_bias,
    check_count,
    make_observable,
    scenario_from_directions,
)

_BIAS_MODES = ("fixed-zero", "fixed-values", "free-extremal", "free-continuous")
_SIGN_PATTERNS = tuple(itertools.product((1.0, -1.0), repeat=4))
_EVAL_BUDGET = 200_000
_START_STEP = 0.8


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
            biases = tuple(check_bias(b, s) for b, s in zip(self.bias_values, self.strengths.as_tuple()))
            object.__setattr__(self, "bias_values", biases)
        object.__setattr__(self, "restarts", check_count(self.restarts, "restarts", 1))
        object.__setattr__(self, "seed", check_count(self.seed, "seed", 0))
        if self.fixed_angles is not None:
            th, ph = self.fixed_angles
            object.__setattr__(self, "fixed_angles", (check_angle(th, "fixed theta"), check_angle(ph, "fixed phi")))


@dataclass(frozen=True)
class OptimizeResult:
    best_value: float
    best_scenario: Scenario
    evaluations: int
    converged: bool


# ---------------------------------------------------------------------------
# The search's expression templates, rendered into one closure per problem
# that runs the whole coordinate search on its fast locals: an audit spends
# nearly all its time there. A side's fields: l (a or b), rotation columns
# r*, the half-angle's cos and sin c and s, directions d and dp, the local
# terms lt and ltp (a.x, a.x' on A; b.y, b.y' on B), B's vectors T y and
# T y' (ty, tp), and the places in p of the rotation (w) and angle.

# First two columns of the rotation for an axis-angle vector; the third
# column never multiplies anything (reference dirs have z = 0).
_ROTATION = """\
w0 = p[{w[0]}]
w1 = p[{w[1]}]
w2 = p[{w[2]}]
ang = sqrt(w0 * w0 + w1 * w1 + w2 * w2)
if ang < 1e-300:
    {r}00, {r}10, {r}20, {r}01, {r}11, {r}21 = 1.0, 0.0, 0.0, 0.0, 1.0, 0.0
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
    {r}00 = ca + vx * kx
    {r}10 = vxy + sz
    {r}20 = vx * kz - sa * ky
    {r}01 = vxy - sz
    {r}11 = ca + vy * ky
    {r}21 = vy * kz + sa * kx
"""

_HALF_ANGLE = """\
half = 0.5 * {angle}
{c} = cos(half)
{s} = sin(half)
"""

# The directions d = R (c, s, 0) and d' = R (c, -s, 0): each product of a
# rotation entry and c or s is formed once and shared by d and d'.
_DIRECTIONS = """\
rc0 = {r}00 * {c}
rc1 = {r}10 * {c}
rc2 = {r}20 * {c}
rs0 = {r}01 * {s}
rs1 = {r}11 * {s}
rs2 = {r}21 * {s}
{d}0 = rc0 + rs0
{d}1 = rc1 + rs1
{d}2 = rc2 + rs2
{d}p0 = rc0 - rs0
{d}p1 = rc1 - rs1
{d}p2 = rc2 - rs2
"""

_T_Y = """\
{ty}0 = t00 * {d}0 + t01 * {d}1 + t02 * {d}2
{ty}1 = t10 * {d}0 + t11 * {d}1 + t12 * {d}2
{ty}2 = t20 * {d}0 + t21 * {d}1 + t22 * {d}2
{tp}0 = t00 * {d}p0 + t01 * {d}p1 + t02 * {d}p2
{tp}1 = t10 * {d}p0 + t11 * {d}p1 + t12 * {d}p2
{tp}2 = t20 * {d}p0 + t21 * {d}p1 + t22 * {d}p2
"""

# Every Bloch-vector term carries a bias factor, so only biased problems
# with a nonzero Bloch vector need the local terms.
_LOCAL_TERMS = """\
if local_terms:
    {lt} = {l}0 * {d}0 + {l}1 * {d}1 + {l}2 * {d}2
    {lt}p = {l}0 * {d}p0 + {l}1 * {d}p1 + {l}2 * {d}p2
else:
    {lt} = {lt}p = 0.0
"""

# The direction part of CHSH, in chsh's order of operations, from A's
# directions x, x' and B's vectors T y, T y'.
_COMBINATION = """\
{g} = (
    sx_sy * ({x}0 * {ty}0 + {x}1 * {ty}1 + {x}2 * {ty}2)
    + sx_syp * ({x}0 * {tp}0 + {x}1 * {tp}1 + {x}2 * {tp}2)
    + sxp_sy * ({x}p0 * {ty}0 + {x}p1 * {ty}1 + {x}p2 * {ty}2)
    - sxp_syp * ({x}p0 * {tp}0 + {x}p1 * {tp}1 + {x}p2 * {tp}2)
)
"""

# chsh.bias_combination and the local terms, added to the direction part g.
_BIAS_TERMS = """\
if bx != 0.0 or bxp != 0.0 or by != 0.0 or byp != 0.0:
    g += bx * by + bx * byp + bxp * by - bxp * byp
    if local_terms:
        g += {b_y} * sy * (bx + bxp)
        g += {b_y}p * syp * (bx - bxp)
        g += {a_x} * sx * (by + byp)
        g += {a_x}p * sxp * (by - byp)
"""

# The objective |S| at the candidate point, from its direction part {g}.
_VALUE = (
    "if biased:\n    g = {g}\n"
    + textwrap.indent(_BIAS_TERMS, "    ")
    + "    val = abs(g)\nelse:\n    val = abs({g})\n"
)

# One coordinate group's step of the search: for each coordinate, a step up,
# else a step down; an accepted step walks on with doubling stride. The
# candidate is in p[i] while {evaluate} computes its value ``val`` into
# n_-prefixed names, and {accept} makes those the point's. An accepted step
# leaves pos != base, and then the other sign is not tried. A bounded group
# reads its coordinate's bounds ({bounds}) and clamps each candidate to them
# ({clamp}, {clamp_walk}); the rotation groups are unbounded and render these
# fields empty. The equality guards stay in every group: a step can round
# back to the point it left.
_SEARCH = """\
for i in {coords}:
{bounds}\
    base = p[i]
    for delta in (step, -step):
        cand = base + delta
{clamp}\
        if cand == base:
            continue
        pos = base
        while True:
            p[i] = cand
{evaluate}\
            evals += 1
            if not val > best:
                break
{accept}\
            gain += val - best
            best = val
            pos = cand
            if evals >= budget:
                break
            delta *= 2.0
            cand = pos + delta
{clamp_walk}\
            if cand == pos:
                break
        p[i] = pos
        if pos != base:
            break
"""

# ``refine`` is the greedy per-coordinate ascent with step halving that every
# start runs. The step is halved once a sweep's total gain falls below the
# quadratic scale step^2 / 4, which stops unproductive zigzagging along
# curved ridges, or after 12 sweeps at one step. The full-point evaluation
# ({point}) computes B's block, then A's; a coordinate move recomputes only
# its group's block and what depends on it, in the order of operations of
# the full evaluation, so both give the same value bit for bit.
#
# A sweep that gained, from the second sweep at a step onward, is followed
# by a pattern step (Hooke and Jeeves, J. ACM 8, 212, 1961) along its net
# displacement m ({displacement}). Each pattern point is one pass of the
# outer loop: it keeps the point it leaves ({keep}: p, and the point's names
# under k_-prefixed names), moves by stride * m ({pattern}; theta, phi and
# the biases clamp to lo and hi, the rotations do not), and is one full
# evaluation ({point}), counted and held to the budget like a coordinate
# move. The stride starts at 1 and doubles while the points improve; the
# first that does not is undone from the kept names ({restore}), with
# nothing recomputed.
_FACTORY = """\
def _objective_factory(t, bloch, strengths, theta0, phi0, free_angles, free_bias, fixed_bias, biased, local_terms, nb, lo, hi, budget):
    def refine(p, tol, step):
        (t00, t01, t02), (t10, t11, t12), (t20, t21, t22) = t
        a0, a1, a2, b0, b1, b2 = bloch
        sx, sxp, sy, syp = strengths
        sx_sy, sx_syp, sxp_sy, sxp_syp = sx * sy, sx * syp, sxp * sy, sxp * syp
        evals = 0
        sweeps_at_level = 0
        stride = 0.0
        while evals < budget:
            if stride:
{keep}\
{pattern}\
            theta, phi = (p[6], p[7]) if free_angles else (theta0, phi0)
            bx, bxp, by, byp = (p[nb], p[nb + 1], p[nb + 2], p[nb + 3]) if free_bias else fixed_bias
{point}\
            evals += 1
            if not stride:
                best = val
            elif val > best:
                best = val
                stride *= 2.0
                continue
            else:
{restore}\
            stride = 0.0
            while step > tol and evals < budget:
                gain = 0.0
                sweeps_at_level += 1
                origin = p[:]
{search_a}\
{search_b}\
                if free_angles:
{search_theta}\
{search_phi}\
                if free_bias:
{search_bias}\
                    bx, bxp, by, byp = p[nb], p[nb + 1], p[nb + 2], p[nb + 3]
                pattern = gain > 0.0 and sweeps_at_level > 1
                if gain <= 0.25 * step * step or sweeps_at_level >= 12:
                    step *= 0.5
                    sweeps_at_level = 0
                if pattern:
{displacement}\
                    stride = 1.0
                    break
            else:
                break
        return best, p, evals, step <= tol

    return refine
"""

_SIDE_A = dict(l="a", r="ar", c="cth", s="sth", d="x", lt="a_x", w=(0, 1, 2), angle="p[6]")
_SIDE_B = dict(l="b", r="br", c="cph", s="sph", d="y", lt="b_y", ty="ty", tp="tp", w=(3, 4, 5), angle="p[7]")


def _indent(text: str, depth: int) -> str:
    return textwrap.indent(text, "    " * depth)


def _fill(template: str, fields: dict, depth: int, **more) -> str:
    """``template`` filled in from ``fields`` and ``more``, indented by ``depth`` levels."""
    return _indent(template.format_map(dict(fields, **more)), depth)


def _block(side: dict, block: str) -> str:
    """``block`` (rotation or half-angle) of ``side``, then the side's vectors and local terms."""
    return _fill(block + _DIRECTIONS + (_T_Y if "ty" in side else "") + _LOCAL_TERMS, side, 0)


def _value(a: dict, b: dict, g: str) -> str:
    """The combination of A's and B's names into direction part ``g``, then the value ``val``."""
    names = dict(x=a["d"], ty=b["ty"], tp=b["tp"], a_x=a["lt"], b_y=b["lt"], g=g)
    return _fill(_COMBINATION + _VALUE, names, 0)


def _side_search(side: dict, block: str, coords: str) -> str:
    """The search of ``side``'s ``block``, whose candidates get n_-prefixed names (B's y stay temporaries).

    Rotation coordinates are unbounded, so only the half-angle searches clamp.
    """
    rotation = block is _ROTATION
    keys = ["r"] if rotation else ["c", "s"]
    keys += ["lt"] + (["ty", "tp"] if side is _SIDE_B else ["d"])
    cand = dict(side, **{k: "n_" + side[k] for k in keys})
    a, b = (cand, _SIDE_B) if side is _SIDE_A else (_SIDE_A, cand)
    return _search(coords, _block(cand, block) + _value(a, b, "n_g_dir"), bounded=not rotation)


_BOUNDS = """\
lo_i = lo[{i}]
hi_i = hi[{i}]
"""

_CLAMP = """\
if cand > hi_i:
    cand = hi_i
elif cand < lo_i:
    cand = lo_i
"""


def _accepted(evaluate: str) -> list[str]:
    """The plain names of the n_-prefixed names that ``evaluate`` computes, in order."""
    return list(dict.fromkeys(re.findall(r"\bn_(\w+)", evaluate)))


def _search(coords: str, evaluate: str, bounded: bool) -> str:
    """One coordinate group's search, clamped to lo and hi if ``bounded``; an accepted candidate
    assigns each n_-prefixed name to its plain name."""
    accept = "".join(f"{name} = n_{name}\n" for name in _accepted(evaluate))
    bounds, clamp = (_BOUNDS.format(i="i"), _CLAMP) if bounded else ("", "")
    return _SEARCH.format(
        coords=coords,
        bounds=_indent(bounds, 1),
        clamp=_indent(clamp, 2),
        clamp_walk=_indent(clamp, 3),
        evaluate=_indent(evaluate, 3),
        accept=_indent(accept, 3),
    )


# The pattern step's parts for one coordinate i with displacement m: the
# sweep's net displacement, and the move by stride * m from the kept point,
# clamped to i's bounds if it has any.
_DISPLACEMENT = "{m} = p[{i}] - origin[{i}]\n"
_MOVE = "p[{i}] += stride * {m}\n"
_CLAMPED_MOVE = _BOUNDS + "cand = p[{i}] + stride * {m}\n" + _CLAMP + "p[{i}] = cand\n"


def _per_coordinate(unbounded: str, bounded: str, depth: int) -> str:
    """``unbounded`` for each rotation coordinate, then ``bounded`` for theta and phi and for
    the biases under their flags, each filled in with the coordinate's place i in p and its m."""
    rotations = "".join(unbounded.format(i=i, m=f"m{i}") for i in range(6))
    angles = "".join(bounded.format(i=i, m=f"m{i}") for i in (6, 7))
    biases = "".join(bounded.format(i=i, m=f"mb{k}") for k, i in enumerate(("nb", "nb + 1", "nb + 2", "nb + 3")))
    return _indent(rotations + "if free_angles:\n" + _indent(angles, 1) + "if free_bias:\n" + _indent(biases, 1), depth)


_RENDERED_LINES: dict[str, tuple] = {}


def _render(name: str, source: str):
    """Compile ``source`` under a pseudo-filename that ``linecache`` serves; return its function ``name``.

    The ``linecache`` entry is kept in ``_RENDERED_LINES`` too, so that
    ``_Problem.make_refine`` can put it back after ``linecache.clearcache()``.
    """
    filename = f"<bellbound.oracle {name}>"
    entry = (len(source), None, source.splitlines(True), filename)
    linecache.cache[filename] = _RENDERED_LINES[filename] = entry
    namespace = {"cos": math.cos, "sin": math.sin, "sqrt": math.sqrt}
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


# The full-point evaluation: the start of ``refine`` and each pattern point.
_POINT = (
    _fill(_HALF_ANGLE, _SIDE_A, 0, angle="theta")
    + _fill(_HALF_ANGLE, _SIDE_B, 0, angle="phi")
    + _block(_SIDE_B, _ROTATION)
    + _block(_SIDE_A, _ROTATION)
    + _value(_SIDE_A, _SIDE_B, "g_dir")
)
_SEARCHES = dict(
    search_a=_indent(_side_search(_SIDE_A, _ROTATION, "(0, 1, 2)"), 4),
    search_b=_indent(_side_search(_SIDE_B, _ROTATION, "(3, 4, 5)"), 4),
    search_theta=_indent(_side_search(_SIDE_A, _HALF_ANGLE, "(6,)"), 5),
    search_phi=_indent(_side_search(_SIDE_B, _HALF_ANGLE, "(7,)"), 5),
    # A bias move reads its biases from p and reuses the direction part g_dir.
    search_bias=_indent(
        _search(
            "(nb, nb + 1, nb + 2, nb + 3)",
            "bx = p[nb]\nbxp = p[nb + 1]\nby = p[nb + 2]\nbyp = p[nb + 3]\n"
            + _fill(_VALUE, {}, 0, g="g_dir", a_x="a_x", b_y="b_y"),
            bounded=True,
        ),
        5,
    ),
)
# The point's names that a pattern step keeps: every name a search accepts, and the biases.
_KEPT = [*dict.fromkeys(name for text in _SEARCHES.values() for name in _accepted(text)), "bx", "bxp", "by", "byp"]

_OBJECTIVE_SOURCE = _FACTORY.format(
    point=_indent(_POINT, 3),
    keep=_indent("kept = p[:]\n" + "".join(f"k_{name} = {name}\n" for name in _KEPT), 4),
    restore=_indent("p[:] = kept\n" + "".join(f"{name} = k_{name}\n" for name in _KEPT), 4),
    displacement=_per_coordinate(_DISPLACEMENT, _DISPLACEMENT, 5),
    pattern=_per_coordinate(_MOVE, _CLAMPED_MOVE, 4),
    **_SEARCHES,
)
_objective_factory = _render("_objective_factory", _OBJECTIVE_SOURCE)

# The scenario's directions, from the same templates.
_DIRECTIONS_SOURCE = (
    "def _directions(p, theta, phi):\n"
    + _fill(_HALF_ANGLE + _ROTATION + _DIRECTIONS, _SIDE_A, 1, angle="theta")
    + _fill(_HALF_ANGLE + _ROTATION + _DIRECTIONS, _SIDE_B, 1, angle="phi")
    + "    return (x0, x1, x2), (xp0, xp1, xp2), (y0, y1, y2), (yp0, yp1, yp2)\n"
)
_directions = _render("_directions", _DIRECTIONS_SOURCE)


class _Problem:
    """Search parameters of one maximization and the CHSH search over them.

    ``p[0:3]`` and ``p[3:6]`` are the axis-angle vectors of A's and B's
    frames, then theta and phi when the angles are free, then the four
    biases in free-continuous mode. Each of these is one block of the
    objective, and each bias is a block of its own.
    """

    def __init__(self, spec: OptimizeSpec):
        self.spec = spec
        # Python floats throughout: arithmetic on numpy scalars (as the audit
        # samplers draw them) costs several times more in the hot loop.
        self.strengths = tuple(float(v) for v in spec.strengths.as_tuple())
        self.free_angles = spec.fixed_angles is None
        self.theta0, self.phi0 = (0.5 * math.pi,) * 2 if self.free_angles else tuple(map(float, spec.fixed_angles))
        self.free_bias = spec.biases == "free-continuous"
        # OptimizeSpec has made fixed bias values Python floats.
        self.fixed_bias = spec.bias_values if spec.biases == "fixed-values" else (0.0, 0.0, 0.0, 0.0)
        # Each free bias b ranges over |b| <= 1 - strength, its room.
        self.rooms = [max(0.0, 1.0 - s) for s in self.strengths] if self.free_bias else []
        self.lo = [-math.inf] * 6 + ([0.0, 0.0] if self.free_angles else []) + [-room for room in self.rooms]
        self.hi = [math.inf] * 6 + ([math.pi, math.pi] if self.free_angles else []) + self.rooms
        self.dim = len(self.lo)

    def make_refine(self):
        """``refine(p, tol, step)``: the search from ``p`` until its step falls to ``tol`` or
        ``_EVAL_BUDGET`` evaluations are spent. It returns ``(best value, p, evaluations,
        converged)`` and leaves the best point in ``p``."""
        # Put the rendered source back if linecache.clearcache() dropped it.
        for filename, entry in _RENDERED_LINES.items():
            linecache.cache.setdefault(filename, entry)
        state = self.spec.state
        bloch = [float(c) for c in (*state.a, *state.b)]
        biased = self.free_bias or any(v != 0.0 for v in self.fixed_bias)
        local_terms = biased and any(c != 0.0 for c in bloch)
        return _objective_factory(
            np.asarray(state.t, dtype=float).tolist(), bloch, self.strengths, self.theta0, self.phi0, self.free_angles,
            self.free_bias, self.fixed_bias, biased, local_terms, self.dim - 4, self.lo, self.hi, _EVAL_BUDGET,
        )

    def scenario(self, p, biases=None) -> Scenario:
        theta, phi = (p[6], p[7]) if self.free_angles else (self.theta0, self.phi0)
        if biases is None:
            biases = tuple(p[self.dim - 4 :]) if self.free_bias else self.fixed_bias
        return scenario_from_directions(self.spec.strengths, _directions(p, theta, phi), biases)

    def params_from_scenario(self, scenario: Scenario) -> list[float]:
        p = list(matrix_to_axis_angle(frame_from_pair(scenario.x.direction, scenario.xp.direction)))
        p += list(matrix_to_axis_angle(frame_from_pair(scenario.y.direction, scenario.yp.direction)))
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
        p += [float(rng.uniform(-room, room)) if room > 0.0 else 0.0 for room in self.rooms]
        return p


# Warm starts refine at full precision. Random restarts refine at a coarse
# parameter tolerance, and one is polished at full precision only when it
# beats the incumbent. A non-winning coarse candidate can trail its own local
# optimum by at most O(coarse^2) in value, so nothing meaningful is lost by
# not polishing it.
_COARSE_TOL = 1e-4
_REFINE_TOL = 1e-8


def _run_starts(problem: _Problem):
    """The best of the spec's warm starts, then of its ``restarts`` random starts, each drawn as it runs."""
    spec = problem.spec
    rng = np.random.default_rng(spec.seed)
    refine = problem.make_refine()
    starts = itertools.chain(
        ((problem.params_from_scenario(scenario), _REFINE_TOL) for scenario in spec.warm_starts),
        ((problem.random_params(rng), _COARSE_TOL) for _ in range(spec.restarts)),
    )
    best_val = -math.inf
    best_p = None
    total_evals = 0
    converged = True
    for start, tol in starts:
        val, p, evals, conv = refine(start, tol, _START_STEP)
        total_evals += evals
        if tol == _COARSE_TOL and val > best_val:
            val, p, evals, conv = refine(p, _REFINE_TOL, 4.0 * _COARSE_TOL)
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
    best_val, best_p, evals, converged = _run_starts(problem)
    return _finalize(spec, problem.scenario(best_p), evals, converged)


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
        best_val, best_p, evals, converged = _run_starts(problem)
        # The first pattern of the largest bias term; it is never negative.
        best_biases = max(extremal_bias_patterns(spec.strengths), key=lambda biases: bias_combination(*biases))
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
        val, p, evals, conv = _run_starts(problem)
        total_evals += evals
        converged = converged and conv
        if best_result is None or val > best_result[0]:
            best_result = (val, problem.scenario(p))
    return _finalize(spec, best_result[1], total_evals, converged)
