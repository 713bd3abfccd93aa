import math

import numpy as np
import pytest

from bellbound import (
    ConstraintError,
    InvalidInputError,
    StrengthQuad,
    UnphysicalStateError,
    bell_diagonal,
    correlation_singular_values,
    hermitian_eigenvalues_4,
    horodecki,
    make_observable,
    random_observable,
    random_rotation,
    random_state,
    s0_bound,
    singlet,
    state_from_fano,
    thm3_bound,
    werner,
)
from bellbound.model import random_direction


def test_make_observable_projective_and_coin():
    proj = make_observable(0.0, 1.0, [0.0, 0.0, 1.0])
    assert proj.strength == 1.0 and proj.bias == 0.0
    coin = make_observable(0.4, 0.0, [1.0, 0.0, 0.0])
    # Outcome probabilities of a coin are (1 +- bias) / 2.
    assert abs(0.5 * (1 + coin.bias) - 0.7) < 1e-15


def test_make_observable_rejects_constraint_violation():
    with pytest.raises(ConstraintError):
        make_observable(0.5, 0.6, [1.0, 0.0, 0.0])


def test_constraint_violation_message_shows_the_excess():
    # 12 significant digits would print this sum as 1, which does not exceed 1.
    with pytest.raises(ConstraintError, match=r"strength \+ \|bias\| = 1\.000000000002 exceeds 1$"):
        make_observable(0.5 + 2e-12, 0.5, [1.0, 0.0, 0.0])


def test_make_observable_direction_normalization():
    almost = np.array([1.0 + 5e-7, 0.0, 0.0])
    obs = make_observable(0.0, 1.0, almost)
    assert abs(np.linalg.norm(obs.direction) - 1.0) < 1e-15
    with pytest.raises(InvalidInputError):
        make_observable(0.0, 1.0, [1.1, 0.0, 0.0])


def test_singlet_spectrum():
    eig = hermitian_eigenvalues_4(singlet().density_matrix())
    assert np.allclose(eig, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_werner_half_spectrum():
    eig = hermitian_eigenvalues_4(werner(0.5).density_matrix())
    assert np.allclose(eig, [0.625, 0.125, 0.125, 0.125], atol=1e-12)


def test_identity_correlations_unphysical():
    with pytest.raises(UnphysicalStateError):
        state_from_fano(np.zeros(3), np.zeros(3), np.eye(3))


def test_correlation_singular_values_examples():
    assert np.allclose(correlation_singular_values(singlet()), [1.0, 1.0, 1.0], atol=1e-14)
    prod = state_from_fano([0.0, 0.0, 1.0], [1.0, 0.0, 0.0], np.outer([0.0, 0.0, 1.0], [1.0, 0.0, 0.0]))
    assert np.allclose(correlation_singular_values(prod), [1.0, 0.0, 0.0], atol=1e-14)
    w = werner(0.37)
    assert np.allclose(correlation_singular_values(w), [0.37] * 3, atol=1e-14)


def test_bell_diagonal_vertex_is_pure():
    state = bell_diagonal(1.0, 1.0, -1.0)
    eig = hermitian_eigenvalues_4(state.density_matrix())
    assert np.allclose(eig, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_bell_diagonal_outside_tetrahedron_rejected():
    with pytest.raises(UnphysicalStateError):
        bell_diagonal(1.0, 1.0, 1.0)


def test_bell_diagonal_spectrum_formula():
    # Closed-form Bell-basis spectrum as an independent oracle.
    rng = np.random.default_rng(5)
    done = 0
    while done < 50:
        t1, t2, t3 = rng.uniform(-1, 1, 3)
        lams = 0.25 * np.array(
            [1 - t1 - t2 - t3, 1 - t1 + t2 + t3, 1 + t1 - t2 + t3, 1 + t1 + t2 - t3]
        )
        if np.any(lams < 0):
            continue
        state = bell_diagonal(t1, t2, t3)
        eig = hermitian_eigenvalues_4(state.density_matrix())
        assert np.max(np.abs(eig - np.sort(lams)[::-1])) < 1e-12
        done += 1


def test_werner_threshold():
    assert abs(horodecki(werner(1 / math.sqrt(2))) - 2.0) < 1e-12


def test_random_state_deterministic():
    for kind in ("tstate", "general", "pure"):
        s1 = random_state(1234, kind)
        s2 = random_state(1234, kind)
        assert np.array_equal(s1.t, s2.t)
        assert np.array_equal(s1.a, s2.a)
        assert np.array_equal(s1.b, s2.b)


def test_random_tstate_has_zero_marginals():
    for seed in range(20):
        state = random_state(seed, "tstate")
        assert np.all(state.a == 0.0) and np.all(state.b == 0.0)


def test_random_state_unknown_kind():
    with pytest.raises(InvalidInputError):
        random_state(0, "thermal")


def test_generated_states_pass_validation():
    # state_from_fano / state_from_density validate internally, so it is
    # enough that generation never raises. 10^4 seeded trials.
    rng = np.random.default_rng(99)
    kinds = ("tstate", "general", "pure")
    for trial in range(10_000):
        random_state(rng, kinds[trial % 3])


def test_correlation_svs_invariant_under_local_rotations():
    rng = np.random.default_rng(13)
    for _ in range(100):
        state = random_state(rng, "general")
        left = random_rotation(rng)
        right = random_rotation(rng)
        rotated = state_from_fano(left @ state.a, right @ state.b, left @ state.t @ right.T)
        s0 = correlation_singular_values(state)
        s1 = correlation_singular_values(rotated)
        assert np.max(np.abs(np.array(s0) - np.array(s1))) < 1e-10


def test_pure_product_states_rank_one():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.normal(size=3)
        a /= np.linalg.norm(a)
        b = rng.normal(size=3)
        b /= np.linalg.norm(b)
        s = correlation_singular_values(state_from_fano(a, b, np.outer(a, b)))
        assert abs(s[0] - 1.0) < 1e-10 and abs(s[1]) < 1e-10 and abs(s[2]) < 1e-10


def test_random_observable_contracts():
    for seed in range(200):
        obs = random_observable(seed)
        assert 0.0 <= obs.strength <= 1.0
        assert abs(obs.bias) <= 1.0 - obs.strength + 1e-15
        assert abs(np.linalg.norm(obs.direction) - 1.0) < 1e-12
        # The draws come in this order: direction, strength, bias.
        rng = np.random.default_rng(seed)
        direction = random_direction(rng)
        strength = rng.uniform(0.0, 1.0)
        room = 1.0 - strength
        same = make_observable(rng.uniform(-room, room), strength, direction)
        assert (obs.bias, obs.strength) == (same.bias, same.strength)
        assert np.array_equal(obs.direction, same.direction)
    o1 = random_observable(42)
    o2 = random_observable(42)
    assert o1.bias == o2.bias and o1.strength == o2.strength
    assert np.array_equal(o1.direction, o2.direction)


def test_scenario_angles():
    from bellbound import Scenario

    sc = Scenario(
        x=make_observable(0, 1, [0, 0, 1]),
        xp=make_observable(0, 1, [1, 0, 0]),
        y=make_observable(0, 1, [0, 1, 0]),
        yp=make_observable(0, 1, [0, -1, 0]),
    )
    assert abs(sc.theta - math.pi / 2) < 1e-15
    assert abs(sc.phi - math.pi) < 1e-15


def test_state_arrays_are_read_only_copies():
    t = -0.5 * np.eye(3)
    state = state_from_fano(np.zeros(3), np.zeros(3), t)
    t[0, 0] = 0.9  # the caller's array is not the state's
    assert state.t[0, 0] == -0.5
    for arr in (state.a, state.b, state.t):
        with pytest.raises(ValueError):
            arr[0] = 0.1
    with pytest.raises(ValueError):
        state.t_svd.s[0] = 0.0


def test_correlation_singular_values_match_numpy_before_and_after_bounds():
    for seed in range(20):
        state = random_state(seed, ("tstate", "general", "pure")[seed % 3])
        want = np.linalg.svd(state.t, compute_uv=False)
        assert np.max(np.abs(np.array(correlation_singular_values(state)) - want)) < 1e-14
        s0_bound(state, StrengthQuad(0.9, 0.8, 0.7, 0.6), 1.0, 2.0)
        thm3_bound(state, StrengthQuad(0.9, 0.9, 0.8, 0.5))
        assert np.max(np.abs(np.array(correlation_singular_values(state)) - want)) < 1e-14


# ---------------------------------------------------------------------------
# state_from_fano against an independent validator

_SIGMA4 = np.array(
    [
        [[1.0, 0.0], [0.0, 1.0]],
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ]
)


def _reference_verdict(a, b, t):
    """(error class, message) of a state that the reference rejects, else None.

    The same range checks and tolerances as ``state_from_fano``, then rho
    from the Pauli einsum, ``numpy.linalg.eigvalsh`` and the floor -1e-10.
    """
    va, vb, mt = (np.array(v, dtype=float) for v in (a, b, t))
    if va.shape != (3,) or vb.shape != (3,) or mt.shape != (3, 3):
        return InvalidInputError, "expected 3-vectors a, b and a 3x3 matrix t"
    if not (np.isfinite(va).all() and np.isfinite(vb).all() and np.isfinite(mt).all()):
        return InvalidInputError, "state components must be finite"
    if va @ va > 1.0 + 1e-10 or vb @ vb > 1.0 + 1e-10:
        return UnphysicalStateError, "Bloch vector longer than 1"
    if np.abs(mt).max() > 1.0 + 1e-12:
        return UnphysicalStateError, "correlation matrix entry outside [-1, 1]"
    theta = np.block([[np.ones((1, 1)), vb[None, :]], [va[:, None], mt]])
    rho = 0.25 * np.einsum("mn,mij,nkl->ikjl", theta, _SIGMA4, _SIGMA4).reshape(4, 4)
    least = np.linalg.eigvalsh(rho)[0]
    if least < -1e-10:
        return UnphysicalStateError, f"reconstructed density matrix has eigenvalue {least:.3e}"
    return None


def _verdict(a, b, t):
    try:
        state_from_fano(a, b, t)
    except (InvalidInputError, UnphysicalStateError) as exc:
        return type(exc), str(exc)
    return None


def _validator_cases():
    """Seeded and boundary (label, a, b, t) cases."""
    rng = np.random.default_rng(20_261_020)
    cases = []
    for kind in ("tstate", "general", "pure"):
        for _ in range(40):
            state = random_state(rng, kind)
            cases.append((kind, state.a, state.b, state.t))
            # Scaled about the maximally mixed state: the zero eigenvalues of
            # a pure state move by about -delta / 4, across the floor.
            scale = 1.0 + rng.uniform(-2e-9, 2e-9)
            cases.append((f"{kind}-scaled", scale * state.a, scale * state.b, scale * state.t))
    for _ in range(120):
        cases.append(("uniform", rng.uniform(-0.6, 0.6, 3), rng.uniform(-0.6, 0.6, 3), rng.uniform(-0.5, 0.5, (3, 3))))
    for w in (-1.0 / 3.0, 1.0):
        cases.append(("werner-end", np.zeros(3), np.zeros(3), -w * np.eye(3)))
    for _ in range(10):
        a, b = random_direction(rng), random_direction(rng)
        cases.append(("product-unit", a, b, np.outer(a, b)))
        cases.append(("product-unit-a", a, 0.5 * b, np.outer(a, 0.5 * b)))
        cases.append(("bloch-over", (1.0 + 1e-9) * a, b, np.outer(a, b)))
        cases.append(("bloch-over", a, (1.0 + 1e-9) * b, np.outer(a, b)))
    # Bell-diagonal points 1e-9 inside and outside each face of the
    # tetrahedron; the face opposite vertex v has centroid -v/3 and outward
    # normal -v/sqrt(3).
    for vertex in ((-1.0, -1.0, -1.0), (-1.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, -1.0)):
        v = np.array(vertex)
        for label, step in (("bell-inside", -1e-9), ("bell-outside", 1e-9)):
            cases.append((label, np.zeros(3), np.zeros(3), np.diag(-v / 3.0 - step * v / math.sqrt(3.0))))
    just_over = -np.eye(3)
    just_over[1, 1] = -(1.0 + 1e-11)
    cases.append(("entry-over-1", np.zeros(3), np.zeros(3), just_over))
    for where in ("a", "b", "t"):
        for bad in (math.nan, math.inf, -math.inf):
            a, b, t = np.zeros(3), np.zeros(3), -0.5 * np.eye(3)
            {"a": a, "b": b, "t": t[2]}[where][1] = bad
            cases.append(("not-finite", a, b, t))
    cases += [
        ("shape", np.zeros(4), np.zeros(3), np.zeros((3, 3))),
        ("shape", np.zeros(3), np.zeros(2), np.zeros((3, 3))),
        ("shape", np.zeros(3), np.zeros(3), np.zeros((3, 2))),
        ("shape", np.zeros(3), np.zeros(3), np.zeros(9)),
        ("shape", 0.0, np.zeros(3), np.zeros((3, 3))),
    ]
    return cases


def test_state_from_fano_accepts_and_rejects_as_reference():
    verdicts = {}
    for k, (label, a, b, t) in enumerate(_validator_cases()):
        want = _reference_verdict(a, b, t)
        assert _verdict(a, b, t) == want, (k, label, a, b, t)
        verdicts.setdefault(label, set()).add(None if want is None else want[1].split(" has eigenvalue")[0])
    for label in ("tstate", "general", "pure", "werner-end", "product-unit", "product-unit-a", "bell-inside"):
        assert verdicts[label] == {None}, label
    assert verdicts["bell-outside"] == {"reconstructed density matrix"}
    assert verdicts["pure-scaled"] == {None, "reconstructed density matrix"}
    assert verdicts["uniform"] == {None, "reconstructed density matrix"}
    assert verdicts["bloch-over"] == {"Bloch vector longer than 1"}
    assert verdicts["entry-over-1"] == {"correlation matrix entry outside [-1, 1]"}
    assert verdicts["not-finite"] == {"state components must be finite"}
    assert verdicts["shape"] == {"expected 3-vectors a, b and a 3x3 matrix t"}
