"""Bernstein/Bezier matrix algebra.

Control points are the *columns* of an m x (p+1) matrix, so every
operator here is a right multiplier: if `points` holds a curve of order
p, `points @ diff_matrix(p, T)` holds its derivative of order p-1,
`points @ split_matrices(p, k)[i]` holds the i-th segment of a uniform
k-refinement, and so on.  All maps are exact linear algebra; the only
approximation anywhere is floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Binomial coefficients overflow float precision well before this, and no
# sane trajectory parameterization needs higher order.
MAX_ORDER = 30


class InsufficientOrderError(ValueError):
    """Curve order too low for the requested boundary interpolation."""


class BoundaryRankError(RuntimeError):
    """Boundary-value matrix lost rank (numerical failure)."""


def _check_order(p: int) -> None:
    if not isinstance(p, (int, np.integer)) or p < 1:
        raise ValueError(f"order must be an integer >= 1, got {p}")
    if p > MAX_ORDER:
        raise ValueError(f"order {p} exceeds supported maximum {MAX_ORDER}")


def basis_matrix(p: int, T: float, ts) -> np.ndarray:
    """Bernstein basis at many times: column j is z(ts[j])."""
    _check_order(p)
    if not T > 0:
        raise ValueError(f"duration must be positive, got {T}")
    ts = np.asarray(ts, dtype=float).reshape(-1)
    if ts.size and not (ts.min() >= 0 and ts.max() <= T):
        raise ValueError("sample times outside [0, T]")
    return _bernstein(p, ts / T)


def _bernstein(n: int, s: np.ndarray) -> np.ndarray:
    """The n + 1 Bernstein polynomials of degree n at the phases s in
    [0, 1], one column per phase."""
    k = np.arange(n + 1)[:, None]
    comb = np.array([[math.comb(n, int(i))] for i in range(n + 1)], dtype=float)
    return comb * s[None, :] ** k * (1.0 - s[None, :]) ** (n - k)


@dataclass(frozen=True)
class BezierCurve:
    """Order-p curve b(t) = points @ z(t) over [0, duration]."""

    duration: float
    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if not self.duration > 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        _check_order(pts.shape[1] - 1)
        object.__setattr__(self, "points", pts)

    @property
    def order(self) -> int:
        return self.points.shape[1] - 1

    @property
    def dim(self) -> int:
        return self.points.shape[0]

    def eval_grid(self, ts: np.ndarray) -> np.ndarray:
        """Curve values at many times, one column per time."""
        return self.points @ basis_matrix(self.order, self.duration, ts)

    def derivative(self) -> "BezierCurve":
        S = diff_matrix(self.order, self.duration)
        return BezierCurve(self.duration, self.points @ S)

    def elevated(self) -> "BezierCurve":
        E = elevation_matrix(self.order + 1)
        return BezierCurve(self.duration, self.points @ E)


def diff_matrix(p: int, T: float) -> np.ndarray:
    """Right multiplier S, (p+1) x p: points @ S are derivative points."""
    _check_order(p)
    if not T > 0:
        raise ValueError(f"duration must be positive, got {T}")
    S = np.zeros((p + 1, p))
    for k in range(p):
        S[k, k] = -p / T
        S[k + 1, k] = p / T
    return S


def elevation_matrix(p: int) -> np.ndarray:
    """Right multiplier E, p x (p+1), raising a curve of order p-1 to p."""
    _check_order(p)
    E = np.zeros((p, p + 1))
    for j in range(p + 1):
        if j >= 1:
            E[j - 1, j] = j / p
        if j <= p - 1:
            E[j, j] = (p - j) / p
    return E


def derivative_map(p: int, T: float) -> np.ndarray:
    """Same-order derivative map H: points @ H are the control points of
    the derivative re-expressed at order p (differentiate, then elevate)."""
    return diff_matrix(p, T) @ elevation_matrix(p)


def derivative_powers(p: int, T: float, count: int) -> np.ndarray:
    """H^0..H^(count-1) of `derivative_map(p, T)`, stacked on axis 0."""
    H = derivative_map(p, T)
    powers = [np.eye(p + 1)]
    for _ in range(count - 1):
        powers.append(powers[-1] @ H)
    return np.stack(powers)


def split_matrices(p: int, k: int) -> list[np.ndarray]:
    """Right multipliers Q_1..Q_k for the uniform k-refinement: the curve
    with points `points @ Q_i` equals the original restricted to
    [(i-1)T/k, iT/k], re-parameterized over [0, T].

    Control point j of the piece over phases [a, b] is the blossom (polar
    form) of the curve at a, p - j times, and b, j times, so column j of
    Q_i is the convolution of the Bernstein values B^(p-j)(a) and B^j(b).
    """
    _check_order(p)
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"segment count must be an integer >= 1, got {k}")
    B = [_bernstein(n, np.arange(k + 1) / k) for n in range(p + 1)]
    return [
        np.column_stack([np.convolve(B[p - j][:, i], B[j][:, i + 1]) for j in range(p + 1)])
        for i in range(k)
    ]


def boundary_matrix(p: int, gamma: int, T: float) -> np.ndarray:
    """Boundary-value matrix D, (p+1) x 2*gamma.

    Columns are the endpoint selectors of H^0..H^(gamma-1): a point
    matrix with `points @ D = [x0 | xT]` (derivative values arranged as
    m x 2*gamma columns) yields a state curve meeting both endpoint
    states exactly.  Requires p >= 2*gamma - 1.
    """
    _check_order(p)
    if gamma < 1:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    if p < 2 * gamma - 1:
        raise InsufficientOrderError(
            f"order {p} cannot interpolate {gamma} derivative boundary values "
            f"(need p >= {2 * gamma - 1})"
        )
    powers = derivative_powers(p, T, gamma)
    D = np.hstack([powers[:, :, 0].T, powers[:, :, p].T])
    if np.linalg.matrix_rank(D) != 2 * gamma:
        raise BoundaryRankError(f"boundary matrix of order {p} lost rank")
    return D


def solve_boundary(
    D: np.ndarray,
    x0: np.ndarray,
    xT: np.ndarray,
) -> np.ndarray:
    """Control points meeting the boundary values encoded by D.

    Underdetermined systems resolve to the minimum-norm solution.
    Deterministic for fixed inputs.
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    xT = np.asarray(xT, dtype=float).reshape(-1)
    if x0.shape != xT.shape:
        raise ValueError("boundary states must share a dimension")
    gamma = D.shape[1] // 2
    n = x0.shape[0]
    if n % gamma != 0:
        raise ValueError(f"state dimension {n} not divisible by gamma={gamma}")
    m = n // gamma
    B = np.concatenate([x0, xT]).reshape(m, 2 * gamma, order="F")
    return B @ np.linalg.pinv(D)


def state_matrix(points: np.ndarray, gamma: int, T: float) -> np.ndarray:
    """Stacked state-space control points [points@H^0; ...; points@H^(gamma-1)]."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return np.vstack(points @ derivative_powers(points.shape[1] - 1, T, gamma))


def stacked_derivative_vec(p: int, T: float, m: int, n_blocks: int) -> np.ndarray:
    """Vectorized map for vertically stacked derivative blocks.

    Maps vec(points) to vec([points@H^0; ...; points@H^(n_blocks-1)])
    for an m-row point matrix of order p.
    """
    # Row (j, k) of the stack holds column j of H^k, i.e. row j of (H^k)^T.
    powers_T = derivative_powers(p, T, n_blocks).transpose(2, 0, 1)
    return np.kron(powers_T.reshape(-1, p + 1), np.eye(m))


@dataclass(frozen=True)
class VectorizationMaps:
    """Vectorized forms of the state-curve and boundary-value maps."""

    H_vec: np.ndarray  # n(p+1) x m(p+1): vec(points) -> vec(state matrix)
    D_vec: np.ndarray  # 2n x m(p+1): vec(points) -> [x0; xT]


def vectorization_maps(p: int, gamma: int, m: int, T: float) -> VectorizationMaps:
    """Construct (H_vec, D_vec) for order p, chain depth gamma."""
    if m < 1:
        raise ValueError(f"output dimension must be >= 1, got {m}")
    H_vec = stacked_derivative_vec(p, T, m, gamma)
    D = boundary_matrix(p, gamma, T)
    D_vec = np.kron(D.T, np.eye(m))
    return VectorizationMaps(H_vec=H_vec, D_vec=D_vec)
