import math

import numpy as np
import pytest

from bellbound import (
    DomainError,
    compat_busch,
    compat_full,
    compat_necessary,
    make_observable,
    max_reversibility,
    random_observable,
)
from bellbound.model import random_direction


def _unbiased_observable(rng):
    # random_observable's draws in its order, direction then strength, with no bias.
    direction = random_direction(rng)
    return make_observable(0.0, rng.uniform(0.0, 1.0), direction)


def _busch_sine_form(x, xp):
    # Independent evaluation of the sine form of the unbiased condition.
    cross = np.cross(x.direction, xp.direction)
    left = x.strength * xp.strength * float(np.sqrt(cross @ cross))
    right = math.sqrt(max(0.0, (1 - x.strength**2) * (1 - xp.strength**2)))
    return left <= right + 1e-10


def test_busch_boundary_pair_compatible():
    s = 1 / math.sqrt(2)
    x = make_observable(0, s, [1, 0, 0])
    xp = make_observable(0, s, [0, 1, 0])
    assert compat_busch(x, xp)


def test_busch_aligned_always_compatible():
    for s in (0.2, 0.7, 1.0):
        x = make_observable(0, s, [0, 0, 1])
        xp = make_observable(0, 0.9, [0, 0, 1])
        assert compat_busch(x, xp)


def test_busch_projective_incompatible_unless_aligned():
    x = make_observable(0, 1, [0, 0, 1])
    xp = make_observable(0, 1, [0, math.sin(0.3), math.cos(0.3)])
    assert not compat_busch(x, xp)


def test_busch_rejects_biased():
    x = make_observable(0.2, 0.5, [0, 0, 1])
    xp = make_observable(0, 1, [0, 0, 1])
    with pytest.raises(DomainError):
        compat_busch(x, xp)


def test_busch_forms_agree():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        x = _unbiased_observable(rng)
        xp = _unbiased_observable(rng)
        assert compat_busch(x, xp) == _busch_sine_form(x, xp)


def test_necessary_reduces_to_busch_when_unbiased():
    rng = np.random.default_rng(43)
    for _ in range(1000):
        x = _unbiased_observable(rng)
        xp = _unbiased_observable(rng)
        assert compat_necessary(x, xp) == compat_busch(x, xp)


def test_necessary_examples():
    c1 = make_observable(1.0, 0.0, [1, 0, 0])
    c2 = make_observable(1.0, 0.0, [0, 1, 0])
    assert compat_necessary(c1, c2)  # max{0, 2} + max{0, 0} = 2
    p1 = make_observable(0, 1, [1, 0, 0])
    p2 = make_observable(0, 1, [0, 1, 0])
    assert not compat_necessary(p1, p2)  # 2 sqrt(2) > 2


def test_full_identical_projective_pair():
    p = make_observable(0, 1, [1, 0, 0])
    assert compat_full(p, p)
    tilted = make_observable(0, 1, [0, 1, 0])
    assert not compat_full(p, tilted)
    flipped = make_observable(0, 1, [-1, 0, 0])
    assert compat_full(p, flipped)


def test_full_matches_busch_for_unbiased():
    rng = np.random.default_rng(44)
    for _ in range(1000):
        x = _unbiased_observable(rng)
        xp = _unbiased_observable(rng)
        assert compat_full(x, xp) == compat_busch(x, xp)


def test_full_matches_busch_either_side_of_the_boundary():
    # Unbiased pairs 1e-5 (relative, in angle) inside and outside Busch and
    # Schmidt's boundary S S' sin(theta) = sqrt((1 - S^2)(1 - S'^2)). A
    # compat_full whose boundary moved by a relative 1e-3 disagrees here,
    # where uniformly drawn pairs almost never fall. Strengths above 1/2 and
    # sines in (0.2, 0.9) keep both sides' margins far above COMPAT_SLACK.
    rng = np.random.default_rng(48)
    pairs = 0
    while pairs < 80:
        s, sp = rng.uniform(0.5, 1.0, size=2)
        sine = math.sqrt((1 - s * s) * (1 - sp * sp)) / (s * sp)
        if not 0.2 < sine < 0.9:
            continue
        edge = math.asin(sine)
        first = random_direction(rng)
        other = np.cross(first, random_direction(rng))
        other /= np.linalg.norm(other)
        x = make_observable(0.0, s, first)
        for theta, compatible in ((edge * (1 - 1e-5), True), (edge * (1 + 1e-5), False)):
            xp = make_observable(0.0, sp, math.cos(theta) * first + math.sin(theta) * other)
            assert compat_busch(x, xp) == compatible, (s, sp, theta)
            assert compat_full(x, xp) == compatible, (s, sp, theta)
        pairs += 1


def _relabelled(obs):
    # Exchanging the outcomes maps (B, S n) to (-B, -S n).
    return make_observable(-obs.bias, obs.strength, -obs.direction)


def test_full_unchanged_by_relabelling_outcomes():
    rng = np.random.default_rng(47)
    for _ in range(2000):
        x = random_observable(rng)
        xp = random_observable(rng)
        verdict = compat_full(x, xp)
        assert compat_full(x, _relabelled(xp)) == verdict
        assert compat_full(_relabelled(x), xp) == verdict


_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def test_full_opposite_sign_pairs_with_joint_povm():
    # Pairs of random_observable draws at seed 2024 with opposite-sign
    # biases, each with an explicit joint POVM: G++ = g0 I + g . sigma,
    # and the other three joint effects follow from the marginals.
    joint = {
        117: (0.271520, 0.186806, 0.136697, 0.133120),
        209: (0.386000, -0.292136, -0.194349, -0.150367),
        226: (0.449952, -0.363476, -0.078324, 0.252220),
    }
    rng = np.random.default_rng(2024)
    pairs = [(random_observable(rng), random_observable(rng)) for _ in range(max(joint) + 1)]
    identity = np.eye(2)
    for index, (g0, *g) in joint.items():
        x, xp = pairs[index]
        assert x.bias * xp.bias < 0
        e_x = 0.5 * (identity + x.operator())
        e_xp = 0.5 * (identity + xp.operator())
        g_pp = g0 * identity + np.einsum("k,kij->ij", g, _PAULI)
        for effect in (g_pp, e_x - g_pp, e_xp - g_pp, identity - e_x - e_xp + g_pp):
            assert np.linalg.eigvalsh(effect)[0] > 1e-4, index
        assert compat_full(x, xp), index
        assert compat_necessary(x, xp), index


def test_full_implies_necessary():
    rng = np.random.default_rng(45)
    for _ in range(2000):
        x = random_observable(rng)
        xp = random_observable(rng)
        if compat_full(x, xp):
            assert compat_necessary(x, xp)


def test_necessary_is_not_sufficient():
    rng = np.random.default_rng(46)
    found = False
    for _ in range(2000):
        x = random_observable(rng)
        xp = random_observable(rng)
        if compat_necessary(x, xp) and not compat_full(x, xp):
            found = True
            break
    assert found


def test_max_reversibility_values():
    assert max_reversibility(make_observable(0, 1, [0, 0, 1])) == 0.0
    assert abs(max_reversibility(make_observable(1.0, 0.0, [0, 0, 1])) - 1.0) < 1e-15
    assert abs(max_reversibility(make_observable(0, 0, [0, 0, 1])) - 1.0) < 1e-15
    obs = make_observable(0.3, 0.5, [0, 0, 1])
    expected = 0.5 * math.sqrt(1.3**2 - 0.25) + 0.5 * math.sqrt(0.7**2 - 0.25)
    assert abs(max_reversibility(obs) - expected) < 1e-15
