"""Bernstein/Bezier matrix algebra against independent oracles."""

import math

import numpy as np
import pytest

from bezreach.bezier import (
    BezierCurve,
    BoundaryRankError,
    InsufficientOrderError,
    basis_matrix,
    boundary_matrix,
    derivative_map,
    diff_matrix,
    elevation_matrix,
    solve_boundary,
    split_matrices,
    stacked_derivative_vec,
    state_matrix,
    vectorization_maps,
)


def random_curve(rng, m, p, T):
    return BezierCurve(T, rng.normal(size=(m, p + 1)))


def at(curve, t):
    """The curve's value at one time."""
    return curve.eval_grid([t])[:, 0]


def basis_at(p, T, t):
    """The basis vector z(t) at one time."""
    return basis_matrix(p, T, [t])[:, 0]


# -- basis -----------------------------------------------------------------


def test_basis_endpoint_values():
    assert np.allclose(basis_at(2, 1.0, 0.0), [1.0, 0.0, 0.0])
    assert np.allclose(basis_at(2, 1.0, 1.0), [0.0, 0.0, 1.0])


def test_basis_midpoint_binomial_oracle():
    # Direct binomial evaluation: comb(2,k) * 0.5^2.
    assert np.allclose(basis_at(2, 1.0, 0.5), [0.25, 0.5, 0.25])


def test_basis_partition_of_unity():
    rng = np.random.default_rng(0)
    for _ in range(100):
        p = int(rng.integers(1, 11))
        T = float(rng.uniform(0.1, 5.0))
        t = float(rng.uniform(0.0, T))
        assert abs(np.sum(basis_at(p, T, t)) - 1.0) <= 1e-12


def test_basis_matrix_matches_single_evaluations():
    # Oracle: the binomial formula C(p, k) s^k (1 - s)^(p - k), s = t / T,
    # one time and one k at a time.
    rng = np.random.default_rng(1)
    ts = rng.uniform(0.0, 2.0, size=17)
    Z = basis_matrix(4, 2.0, ts)
    for j, t in enumerate(ts):
        s = float(t) / 2.0
        z = [math.comb(4, k) * s**k * (1.0 - s) ** (4 - k) for k in range(5)]
        assert np.allclose(Z[:, j], z)


def test_basis_rejects_out_of_range_times():
    for T, ts in ((1.0, [1.5]), (1.0, [0.2, 1.5]), (1.0, [np.nan]), (1.0, [0.2, np.nan]),
                  (0.0, [0.0]), (np.nan, [0.0])):
        with pytest.raises(ValueError):
            basis_matrix(2, T, ts)


# -- evaluation ------------------------------------------------------------


def test_constant_curve_evaluates_to_constant():
    c = np.array([[2.0], [-3.0]])
    curve = BezierCurve(1.5, np.tile(c, (1, 4)))
    for t in np.linspace(0, 1.5, 7):
        assert np.allclose(at(curve, float(t)), c.ravel())


def test_linear_curve_interpolates():
    curve = BezierCurve(1.0, np.array([[0.0, 1.0]]))
    assert np.isclose(at(curve, 0.25)[0], 0.25)


def test_endpoint_interpolation():
    rng = np.random.default_rng(2)
    curve = random_curve(rng, 3, 5, 2.0)
    assert np.allclose(at(curve, 0.0), curve.points[:, 0])
    assert np.allclose(at(curve, 2.0), curve.points[:, -1])


def test_convex_hull_property():
    rng = np.random.default_rng(3)
    curve = random_curve(rng, 2, 4, 1.0)
    vals = curve.eval_grid(np.linspace(0, 1, 101))
    lo = curve.points.min(axis=1)
    hi = curve.points.max(axis=1)
    assert np.all(vals >= lo[:, None] - 1e-12)
    assert np.all(vals <= hi[:, None] + 1e-12)


# -- differentiation -------------------------------------------------------


def test_diff_matrix_band_pattern():
    S = diff_matrix(2, 2.0)
    assert S.shape == (3, 2)
    assert np.allclose(S, [[-1.0, 0.0], [1.0, -1.0], [0.0, 1.0]])


@pytest.mark.parametrize("T", [0.0, -1.0, np.nan])
def test_durations_must_be_positive(T):
    with pytest.raises(ValueError, match="duration"):
        diff_matrix(3, T)
    with pytest.raises(ValueError, match="duration"):
        BezierCurve(T, np.zeros((1, 4)))


def test_derivative_of_constant_is_zero():
    curve = BezierCurve(1.0, np.full((2, 4), 1.7))
    assert np.allclose(curve.derivative().points, 0.0)


def test_derivative_finite_difference_oracle():
    rng = np.random.default_rng(4)
    for _ in range(20):
        curve = random_curve(rng, 2, 3, 1.3)
        d = curve.derivative()
        h = 1e-5
        for t in (0.3, 0.7, 1.0 - h):
            fd = (at(curve, t + h) - at(curve, t - h)) / (2 * h)
            assert np.allclose(at(d, t), fd, atol=1e-6)


def test_derivative_convergence_order():
    # Central differences agree to O(h^2): error shrinks ~100x from 1e-3 to 1e-4.
    rng = np.random.default_rng(5)
    curve = random_curve(rng, 1, 5, 1.0)
    d = curve.derivative()
    t = 0.4
    errs = []
    for h in (1e-3, 1e-4):
        fd = (at(curve, t + h) - at(curve, t - h)) / (2 * h)
        errs.append(float(np.abs(fd - at(d, t))[0]))
    assert errs[1] <= errs[0] / 50.0 + 1e-13


def test_derivative_map_composes_diff_and_elevation():
    p, T = 4, 0.7
    H = derivative_map(p, T)
    assert np.allclose(H, diff_matrix(p, T) @ elevation_matrix(p))


def test_gamma_derivative_of_low_degree_curve_vanishes():
    # A curve whose points are affine in the index has degree 1; H^2 kills it.
    p, T = 4, 1.0
    pts = np.arange(p + 1, dtype=float)[None, :]
    H = derivative_map(p, T)
    assert np.allclose(pts @ H @ H, 0.0, atol=1e-10)


# -- elevation -------------------------------------------------------------


def test_elevation_linear_example():
    curve = BezierCurve(1.0, np.array([[0.0, 1.0]]))
    assert np.allclose(curve.elevated().points, [[0.0, 0.5, 1.0]])


def test_elevation_preserves_constant():
    curve = BezierCurve(1.0, np.full((1, 3), 4.2))
    assert np.allclose(curve.elevated().points, 4.2)


def test_iterated_elevation_pointwise():
    rng = np.random.default_rng(6)
    curve = random_curve(rng, 2, 2, 1.0)
    lifted = curve
    for _ in range(3):
        lifted = lifted.elevated()
    assert lifted.order == 5
    ts = np.linspace(0, 1, 33)
    assert np.max(np.abs(curve.eval_grid(ts) - lifted.eval_grid(ts))) <= 1e-9


# -- splitting -------------------------------------------------------------


def test_split_k1_is_identity():
    (Q,) = split_matrices(3, 1)
    assert np.allclose(Q, np.eye(4))


def test_split_linear_midpoint_oracle():
    Q1, Q2 = split_matrices(1, 2)
    pts = np.array([[0.0, 1.0]])
    assert np.allclose(pts @ Q1, [[0.0, 0.5]])
    assert np.allclose(pts @ Q2, [[0.5, 1.0]])


def test_split_segments_match_original_pointwise():
    rng = np.random.default_rng(7)
    p, k, T = 4, 3, 2.0
    curve = random_curve(rng, 2, p, T)
    for i, Q in enumerate(split_matrices(p, k)):
        seg = BezierCurve(T, curve.points @ Q)
        for s in np.linspace(0, T, 11):
            t_orig = (i + s / T) * T / k
            assert np.allclose(at(seg, float(s)), at(curve, float(t_orig)), atol=1e-9)


def de_casteljau_split(p, u):
    """de Casteljau split at phase u: right multipliers (L, R) with
    points @ L the [0, u] segment and points @ R the [u, 1] segment."""
    W = np.eye(p + 1)
    L = np.zeros((p + 1, p + 1))
    R = np.zeros((p + 1, p + 1))
    L[:, 0] = W[:, 0]
    R[:, p] = W[:, p]
    for level in range(1, p + 1):
        W = (1.0 - u) * W[:, : p + 1 - level] + u * W[:, 1 : p + 2 - level]
        L[:, level] = W[:, 0]
        R[:, p - level] = W[:, -1]
    return L, R


def de_casteljau_split_matrices(p, k):
    """The k-refinement as two de Casteljau splits per piece: the right
    part at (i-1)/k, then its left part at 1/(k-i+1)."""
    mats = []
    for i in range(1, k + 1):
        a = (i - 1) / k
        Q = de_casteljau_split(p, a)[1] if a > 0 else np.eye(p + 1)
        u2 = 1.0 / (k - i + 1)
        if u2 < 1.0:
            Q = Q @ de_casteljau_split(p, u2)[0]
        mats.append(Q)
    return mats


def test_split_matrices_match_de_casteljau_oracle():
    for p in range(1, 31):
        for k in (1, 2, 3, 4, 7, 10, 20):
            got = split_matrices(p, k)
            assert len(got) == k
            if k == 1:
                assert np.array_equal(got[0], np.eye(p + 1))
            for Q, Q_ref in zip(got, de_casteljau_split_matrices(p, k)):
                assert np.max(np.abs(Q - Q_ref)) <= 1e-15, (p, k)


# -- boundary interpolation ------------------------------------------------


def test_boundary_gamma1_endpoints():
    D = boundary_matrix(1, 1, 1.0)
    pts = solve_boundary(D, np.array([2.0]), np.array([-1.0]))
    assert np.allclose(pts, [[2.0, -1.0]])


def test_boundary_cubic_hermite_oracle():
    # gamma=2, p=3: D is square, so the solution is the Hermite curve
    # [q0, q0 + v0/3, qT - vT/3, qT].
    D = boundary_matrix(3, 2, 1.0)
    q0, v0, qT, vT = 0.5, 2.0, -1.0, 0.3
    pts = solve_boundary(D, np.array([q0, v0]), np.array([qT, vT]))
    assert np.allclose(pts, [[q0, q0 + v0 / 3, qT - vT / 3, qT]], atol=1e-10)


def test_boundary_p5_residual():
    D = boundary_matrix(5, 2, 2.0)
    x0 = np.array([1.0, -0.5])
    xT = np.array([0.2, 0.8])
    pts = solve_boundary(D, x0, xT)
    curve = BezierCurve(2.0, pts)
    d = curve.derivative()
    assert np.allclose(at(curve, 0.0), x0[:1], atol=1e-9)
    assert np.allclose(at(d, 0.0), x0[1:], atol=1e-9)
    assert np.allclose(at(curve, 2.0), xT[:1], atol=1e-9)
    assert np.allclose(at(d, 2.0), xT[1:], atol=1e-9)


def test_boundary_constant_at_equilibrium():
    D = boundary_matrix(3, 2, 1.0)
    pts = solve_boundary(D, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert np.allclose(pts, 1.0, atol=1e-12)


def test_boundary_deterministic():
    D = boundary_matrix(5, 2, 1.0)
    a = solve_boundary(D, np.array([0.1, 0.2]), np.array([0.3, 0.4]))
    b = solve_boundary(D, np.array([0.1, 0.2]), np.array([0.3, 0.4]))
    assert np.array_equal(a, b)


def test_boundary_order_too_low_raises():
    with pytest.raises(InsufficientOrderError):
        boundary_matrix(2, 2, 1.0)


def test_boundary_rank_loss_raises_typed_error(monkeypatch):
    monkeypatch.setattr(np.linalg, "matrix_rank", lambda M: 0)
    with pytest.raises(BoundaryRankError):
        boundary_matrix(3, 2, 1.0)


# -- vectorization ---------------------------------------------------------


def test_stacked_derivative_vec_oracle():
    rng = np.random.default_rng(9)
    p, T, m, blocks = 4, 1.7, 2, 3
    Hv = stacked_derivative_vec(p, T, m, blocks)
    H = derivative_map(p, T)
    for _ in range(20):
        P = rng.normal(size=(m, p + 1))
        stack = np.vstack([P @ np.linalg.matrix_power(H, k) for k in range(blocks)])
        assert np.allclose(Hv @ P.reshape(-1, order="F"), stack.reshape(-1, order="F"))


def test_derivative_power_maps_equal_loop_construction():
    # The loops stacked_derivative_vec and boundary_matrix replaced; the
    # entries agree exactly (a zero may differ in sign).
    for p, T, m, blocks in [(3, 0.15, 1, 3), (4, 1.7, 2, 3), (5, 0.9, 2, 2), (7, 2.0, 3, 4)]:
        H = derivative_map(p, T)
        out = np.zeros((blocks * m * (p + 1), m * (p + 1)))
        cols0, colsT = [], []
        Hk = np.eye(p + 1)
        for k in range(blocks):
            for j in range(p + 1):
                for c in range(p + 1):
                    if Hk[c, j] != 0.0:
                        rows = np.arange(m) + m * k + m * blocks * j
                        out[rows, np.arange(m) + m * c] += Hk[c, j]
            cols0.append(Hk[:, 0].copy())
            colsT.append(Hk[:, p].copy())
            Hk = Hk @ H
        assert np.array_equal(stacked_derivative_vec(p, T, m, blocks), out)
        if p >= 2 * blocks - 1:
            assert np.array_equal(boundary_matrix(p, blocks, T),
                                  np.column_stack(cols0 + colsT))


def test_state_matrix_matches_stacked_vec():
    rng = np.random.default_rng(10)
    p, T, gamma, m = 5, 0.9, 2, 2
    P = rng.normal(size=(m, p + 1))
    X = state_matrix(P, gamma, T)
    Hv = stacked_derivative_vec(p, T, m, gamma)
    assert np.allclose(Hv @ P.reshape(-1, order="F"), X.reshape(-1, order="F"))


def test_boundary_vec_reproduces_endpoint_states():
    rng = np.random.default_rng(11)
    p, gamma, m, T = 5, 2, 2, 1.3
    maps = vectorization_maps(p, gamma, m, T)
    for _ in range(20):
        P = rng.normal(size=(m, p + 1))
        X = state_matrix(P, gamma, T)
        bv = maps.D_vec @ P.reshape(-1, order="F")
        assert np.allclose(bv[: gamma * m], X[:, 0], atol=1e-10)
        assert np.allclose(bv[gamma * m :], X[:, -1], atol=1e-10)


def test_vectorization_identities_random_draws():
    rng = np.random.default_rng(12)
    for _ in range(100):
        p = int(rng.integers(3, 8))
        gamma = int(rng.integers(1, (p + 1) // 2 + 1))
        m = int(rng.integers(1, 4))
        T = float(rng.uniform(0.2, 3.0))
        maps = vectorization_maps(p, gamma, m, T)
        P = rng.normal(size=(m, p + 1))
        vec = P.reshape(-1, order="F")
        X = state_matrix(P, gamma, T)
        assert np.max(np.abs(maps.H_vec @ vec - X.reshape(-1, order="F"))) <= 1e-10
        D = boundary_matrix(p, gamma, T)
        assert np.max(np.abs(maps.D_vec @ vec - (P @ D).reshape(-1, order="F"))) <= 1e-10
