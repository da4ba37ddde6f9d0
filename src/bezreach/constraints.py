"""Polytopic certificate synthesis over Bezier control points.

Pipeline: state and input requirements become rows mixing a linear state
term with norms of the state deviation and the planning input
(`MixedConstraintRow`); each row is relaxed to linear constraints on
(x_d, q^(gamma)) via a convex quadratic over-approximation and a
level-set containment over a compact sigma box
(`LiftedLinearConstraints`); finally the lifted rows are imposed on
every state-space control point and vectorized into F vec(p) <= G
(`CertificatePolytope`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .bezier import derivative_powers, split_matrices
from .models import ConstraintSet, PlanningModel, TrackingCertificate

class InfeasibleCertificateError(ValueError):
    """Tracker error bound leaves no input authority."""


class InfeasibleReductionError(ValueError):
    """A constraint row admits no feasible point inside the sigma box."""


@dataclass(frozen=True)
class MixedConstraintRow:
    """a1^T x_d + a2 ||x_d - x_ref|| + a3 ||u_d|| <= b (infinity norms)."""

    a1: np.ndarray
    a2: float
    a3: float
    b: float

    def __post_init__(self):
        object.__setattr__(self, "a1", np.asarray(self.a1, dtype=float).reshape(-1))
        if not (self.a2 >= 0 and self.a3 >= 0):
            raise ValueError("norm coefficients must be nonnegative")
        if not np.isfinite(self.b):
            raise ValueError("right-hand side must be finite")


@dataclass(frozen=True)
class LiftedLinearConstraints:
    """Rows L [x_d; q^(gamma)] <= h implying the source mixed rows."""

    L: np.ndarray
    h: np.ndarray


@dataclass(frozen=True)
class CertificatePolytope:
    """F vec(p) <= G over the vectorized control points."""

    F: np.ndarray
    G: np.ndarray

    def accepts(self, points: np.ndarray, tol: float = 1e-8) -> bool:
        return self.slack(points) >= -tol

    def slack(self, points: np.ndarray) -> float:
        """min(G - F vec(p)): how far the curve stays inside the
        certificate (negative when a row is violated, inf with no rows)."""
        vec = np.asarray(points, dtype=float).reshape(-1, order="F")
        return float(np.min(self.G - self.F @ vec, initial=np.inf))


def input_bound_row(
    cert: TrackingCertificate, x_ref: np.ndarray, u_max: float
) -> MixedConstraintRow:
    """Row guaranteeing the tracker's applied input stays within u_max.

    The constant offset charges the tracker's reaction to the base error
    bound, K = L_k * e0; the tracker applies no feedback at the reference
    itself.  Raises if that leaves the row no margin, u_max - K <= 0.
    """
    x_ref = np.asarray(x_ref, dtype=float).reshape(-1)
    K = cert.lipschitz_k * cert.e0
    b = u_max - K
    if not b > 0:
        raise InfeasibleCertificateError(
            f"u_max={u_max} leaves no margin over L_k*e0={K} (b={b:.3e})"
        )
    return MixedConstraintRow(
        a1=np.zeros(x_ref.shape[0]),
        a2=cert.lipschitz_k * (1.0 + cert.lipschitz_psi),
        a3=cert.lipschitz_k * (1.0 + cert.lipschitz_e),
        b=b,
    )


def state_bound_rows(
    cs: ConstraintSet, cert: TrackingCertificate
) -> list[MixedConstraintRow]:
    """Rows tightening C x_d <= d by the projected tracking tube: the
    worst effect of the tracking error on row r is e * ||C_r||_1
    (`ConstraintSet.row_norms`), which the `worst` disturbance of
    `sim.rollout` attains.
    """
    rows = []
    for c, d_row, k_row in zip(cs.C, cs.d, cs.row_norms()):
        rows.append(
            MixedConstraintRow(
                a1=c.copy(),
                a2=0.0,
                a3=cert.lipschitz_pi * cert.lipschitz_e * k_row,
                b=d_row - cert.lipschitz_pi * cert.e0 * k_row,
            )
        )
    return rows


def _psd_projection_2x2(M: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(M)
    w = np.maximum(w, 0.0)
    return (V * w) @ V.T


def _level_set_radius(
    M_hat: np.ndarray,
    N: np.ndarray,
    c: np.ndarray,
    b: float,
    s_max: np.ndarray,
    a1_zero: bool,
) -> float:
    """Largest delta with {c^T s <= delta} inside the box implying the
    quadratic bound s^T M_hat s + N^T s <= b, for c = N + M_hat s_max.

    With the state term present the containment must survive an
    unbounded linear offset, so the radius is b minus the box maximum of
    s^T M_hat s + (N - c)^T s = s^T M_hat (s - s_max).  That convex
    quadratic peaks at a box vertex: it is 0 at 0 and at s_max, and
    -M_hat_01 s_max_0 s_max_1 <= 0 at the other two, so the radius is b.
    The pure-norm case has a closed form: on the cut line c^T s = delta,
    q(s) = delta + s^T M_hat (s - s_max) <= delta, and q is convex and
    nondecreasing in each coordinate on the box, so its maximum over the
    cut polygon sits at one of the two cut-segment endpoints.  Each
    endpoint slides along a box axis, then along the far box edge, so
    the radius is the first crossing of b by at most four scalar
    quadratics in delta.
    """
    # Requires M_hat >= 0 entrywise and N >= 0, which lift_rows guarantees
    # (nonnegative row coefficients and Lipschitz constants, and the PSD
    # part of a 2x2 matrix with nonnegative entries).
    if not a1_zero:
        return b
    if b < 0.0:
        return -np.inf
    cap = float(c @ s_max)
    if float(s_max @ M_hat @ s_max + N @ s_max) <= b:
        return cap
    radius = cap
    for i, j in ((0, 1), (1, 0)):
        corner = np.zeros(2)
        corner[i] = s_max[i]
        # (start point, moving coordinate, delta at the start point)
        for u, k, lo in ((np.zeros(2), i, 0.0), (corner, j, c[i] * s_max[i])):
            if c[k] <= 0.0:
                continue  # the endpoint does not move along this piece
            # s = u + t / c_k e_k with t = delta - lo in [0, c_k s_max_k], and
            # q(s) - b = alpha t^2 + beta t + gamma.
            Mu = M_hat @ u
            alpha = M_hat[k, k] / c[k] ** 2
            beta = (2.0 * Mu[k] + N[k]) / c[k]
            gamma = float(u @ Mu + N @ u) - b
            span = c[k] * s_max[k]
            if alpha * span * span + beta * span + gamma <= 0.0:
                continue  # the endpoint stays inside the level set
            # Larger root in t, in the form free of cancellation.
            den = beta + np.sqrt(max(beta * beta - 4.0 * alpha * gamma, 0.0))
            radius = min(radius, lo + (-2.0 * gamma / den if den > 0.0 else 0.0))
            break
    return radius


def sigma_box(
    model: PlanningModel,
    cs: ConstraintSet,
    x_ref: np.ndarray,
    q_gamma_bound: float,
) -> np.ndarray:
    """Bounds on (||x - x_ref||, ||q^(gamma) - f(x_ref)||) over C_X, row-wise
    over references of shape (..., n), returning (..., 2).

    The first entry comes from the bounding box of the state polytope;
    the second from the bound on ||q^(gamma)||.
    """
    x_ref = np.asarray(x_ref, dtype=float)
    lo, hi = cs.bounding_box()
    s1 = np.max(np.maximum(np.abs(lo - x_ref), np.abs(hi - x_ref)), axis=-1)
    s2 = q_gamma_bound + np.max(np.abs(model.f_d(x_ref)), axis=-1)
    box = np.stack([s1, s2], axis=-1)
    bad = ~((box > 0) & np.isfinite(box)).all(axis=-1)
    if bad.any():
        got = tuple(box[bad][0].tolist())
        raise ValueError(f"sigma box must be finite and positive, got {got}")
    return box


def default_q_gamma_bound(model: PlanningModel, cs: ConstraintSet) -> float:
    """Reachable top-derivative magnitude: max ||f|| + max ||g|| * u_max,
    estimated on 512 deterministic samples of the C_X bounding box."""
    lo, hi = cs.bounding_box()
    rng = np.random.default_rng(0)
    xs = rng.uniform(lo, hi, size=(512, model.n))
    f_max = float(np.max(np.abs(model.f_d(xs))))
    g_max = float(np.max(np.sum(np.abs(model.g_d(xs)), axis=-1)))
    return f_max + g_max * cs.u_max


def _lift_plan(rows: Sequence[MixedConstraintRow], model: PlanningModel):
    key = tuple((row.a1.tobytes(), row.a2, row.a3, row.b) for row in rows)
    return _lift_plan_cached(key, model.n, model.m, model.lipschitz_f, model.lipschitz_ginv)


@lru_cache(maxsize=64)
def _lift_plan_cached(key: tuple, n: int, m: int, L_f: float, L_G: float):
    """What `lift_rows` derives from the rows (key: a1 bytes, a2, a3, b
    per row) and the model's Lipschitz constants alone, read-only: L and
    h with the linear rows and the sigma-box pattern filled in (each norm
    row's block holds its a1), per norm row (index, first row of its
    block, a1 == 0, a2, a3, b, M_hat), and the signed-permutation pattern
    (row, i, j, s1, s2) of a norm row's 4nm rows, ordered by (i, j, s1,
    s2) with state index i, input index j and signs s1, s2 (+1 before
    -1)."""
    L_blocks: list[np.ndarray] = []
    h_blocks: list[np.ndarray] = []
    norm_rows = []
    start = 0
    for idx, (a1_bytes, a2, a3, b) in enumerate(key):
        a1 = np.frombuffer(a1_bytes)
        if a1.shape[0] != n:
            raise ValueError(f"row {idx}: state coefficient dimension != {n}")
        if a2 == 0.0 and a3 == 0.0:
            L_blocks.append(np.concatenate([a1, np.zeros(m)])[None, :])
            h_blocks.append(np.array([b]))
            start += 1
            continue
        # ||g^-1(x) - g^-1(x_ref)|| <= m L_G ||x - x_ref||: L_G is entrywise.
        M = 0.5 * a3 * np.array([[2.0 * m * L_G * L_f, m * L_G], [m * L_G, 0.0]])
        M_hat = _psd_projection_2x2(M)
        M_hat.flags.writeable = False
        norm_rows.append((idx, start, not np.any(a1), a2, a3, b, M_hat))
        block = np.zeros((4 * n * m, n + m))
        block[:, :n] = a1
        L_blocks.append(block)
        h_blocks.append(np.zeros(4 * n * m))
        start += 4 * n * m
    # sigma-box enforcement: |x_i - x_ref_i| <= s1, |q_j - f_ref_j| <= s2,
    # one (+, -) row pair per coordinate.
    idx = np.arange(n + m)
    box_L = np.zeros((2 * (n + m), n + m))
    box_L[2 * idx, idx] = 1.0
    box_L[2 * idx + 1, idx] = -1.0
    L_blocks.append(box_L)
    h_blocks.append(np.zeros(2 * (n + m)))
    i, j, k1, k2 = np.indices((n, m, 2, 2)).reshape(4, -1)
    pattern = (np.arange(i.size), i, j, 1.0 - 2.0 * k1, 1.0 - 2.0 * k2)
    L, h = np.vstack(L_blocks), np.concatenate(h_blocks)
    for a in (L, h, *pattern):
        a.flags.writeable = False
    return L, h, tuple(norm_rows), pattern


def lift_rows(
    rows: Sequence[MixedConstraintRow],
    model: PlanningModel,
    x_ref: np.ndarray,
    s_max: np.ndarray,
) -> LiftedLinearConstraints:
    """Reduce mixed norm rows to linear rows on [x_d; q^(gamma)].

    Each row with norm terms is over-approximated by a convex quadratic
    in sigma = (||x - x_ref||, ||q^(gamma) - f(x_ref)||), shrunk to a
    linear level set via `_level_set_radius`, and expanded through the
    infinity norms into 4nm signed-permutation rows, ordered by
    (i, j, s1, s2) with state index i, input index j and signs s1, s2
    (+1 before -1).  Box rows enforcing sigma <= s_max are appended so
    the result is sound on its own.  What does not depend on the
    reference comes from a cache (`_lift_plan`), so a call does only
    f(x_ref), ||g(x_ref)^-1||, the level-set radii and the right-hand
    sides.
    """
    x_ref = np.asarray(x_ref, dtype=float).reshape(-1)
    s_max = np.asarray(s_max, dtype=float).reshape(2)
    if not 0.0 < s_max.min() <= s_max.max() < np.inf:
        raise ValueError("sigma box must be finite and positive")
    n = model.n
    m = model.m
    L, h, norm_rows, (r, i, j, s1, s2) = _lift_plan(rows, model)
    f_ref = np.atleast_1d(model.f_d(x_ref))
    g_ref_inv = np.linalg.inv(model.g_d(x_ref))
    g0 = float(np.abs(g_ref_inv).sum(axis=1).max())
    L_f = model.lipschitz_f

    L, h = L.copy(), h.copy()
    for idx, start, a1_zero, a2, a3, b, M_hat in norm_rows:
        N = np.array([a3 * L_f * g0 + a2, a3 * g0])
        c = N + M_hat @ s_max
        delta = _level_set_radius(M_hat, N, c, b, s_max, a1_zero)
        if not np.isfinite(delta) or delta < -1e30:
            raise InfeasibleReductionError(
                f"row {idx} admits no feasible point in the sigma box "
                f"(b={b}, s_max={s_max.tolist()})"
            )
        block = L[start : start + i.size]
        block[r, i] += c[0] * s1
        block[r, n + j] = c[1] * s2
        h[start : start + i.size] = delta + c[0] * s1 * x_ref[i] + c[1] * s2 * f_ref[j]
    # The sigma-box rows' (+, -) right-hand sides, coordinate by coordinate.
    box = h[-2 * (n + m) :].reshape(-1, 2)
    box[:n, 0] = s_max[0] + x_ref
    box[:n, 1] = s_max[0] - x_ref
    box[n:, 0] = s_max[1] + f_ref
    box[n:, 1] = s_max[1] - f_ref
    return LiftedLinearConstraints(L=L, h=h)


@lru_cache(maxsize=64)
def _piece_maps(p: int, T: float, k: int, gamma: int) -> np.ndarray:
    """maps[i, l] = Q_i H^l, (k, gamma + 1, p + 1, p + 1), read-only: control
    point c of the curve feeds derivative l at control point j of piece i
    through maps[i, l, c, j].  Each piece runs for T / k, which sets the
    derivative scale."""
    powers = derivative_powers(p, T / k, gamma + 1)
    maps = np.stack([Q @ powers for Q in split_matrices(p, k)])
    maps.flags.writeable = False
    return maps


def refined_polytope(
    lifted_segments: Sequence[LiftedLinearConstraints],
    p: int,
    T: float,
    gamma: int,
    m: int,
) -> CertificatePolytope:
    """Impose segment i's lifted rows on every state-space control point of
    the i-th piece of the uniform k-refinement, k = len(lifted_segments),
    and vectorize: F vec(p) <= G with (p+1) * rows(L_i) rows per segment.

    k = 1 is the unrefined certificate, since its split matrix is the
    identity.  The segments lift the same rows, so they share a row
    count, and F is one einsum over every piece (`_piece_maps`).
    """
    k = len(lifted_segments)
    if k < 1:
        raise ValueError("need at least one segment")
    if p < gamma:
        raise ValueError(f"order {p} < gamma {gamma}")
    for lifted in lifted_segments:
        if lifted.L.size and lifted.L.shape[1] != (gamma + 1) * m:
            raise ValueError(
                f"lifted rows act on R^{lifted.L.shape[1]}, expected {(gamma + 1) * m}"
            )
    maps = _piece_maps(p, float(T), k, gamma)
    L = np.stack([lifted.L.reshape(-1, gamma + 1, m) for lifted in lifted_segments])
    F = np.einsum("krla,klcj->kjrca", L, maps).reshape(-1, m * (p + 1))
    return CertificatePolytope(
        F=F,
        G=np.concatenate([np.tile(ls.h, p + 1) for ls in lifted_segments]),
    )
