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
        if self.a2 < 0 or self.a3 < 0:
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
        vec = np.asarray(points, dtype=float).reshape(-1, order="F")
        return bool(np.all(self.F @ vec <= self.G + tol))


def input_bound_row(
    cert: TrackingCertificate, x_ref: np.ndarray, u_max: float
) -> MixedConstraintRow:
    """Row guaranteeing the tracker's applied input stays within u_max.

    The constant offset charges the tracker's reaction to the base error
    bound, K = max(1, L_k) * e0; the tracker applies no feedback at the
    reference itself.  Raises if the tracker cannot be feasible at all.
    """
    x_ref = np.asarray(x_ref, dtype=float).reshape(-1)
    deficit = u_max - cert.e0
    if deficit <= 0:
        raise InfeasibleCertificateError(
            f"u_max={u_max} leaves no margin: e(0)={cert.e0} (deficit {deficit:.3e})"
        )
    K = max(1.0, cert.lipschitz_k) * cert.e0
    return MixedConstraintRow(
        a1=np.zeros(x_ref.shape[0]),
        a2=cert.lipschitz_k * (1.0 + cert.lipschitz_psi),
        a3=cert.lipschitz_k * (1.0 + cert.lipschitz_e),
        b=u_max - K,
    )


def state_bound_rows(
    cs: ConstraintSet, cert: TrackingCertificate
) -> list[MixedConstraintRow]:
    """Rows tightening C x_d <= d by the projected tracking tube."""
    norms = np.sqrt(np.sum(cs.C**2, axis=1))
    rows = []
    for c, d_row, k_row in zip(cs.C, cs.d, norms):
        b = d_row - cert.lipschitz_pi * cert.e0 * k_row
        if not np.isfinite(b):
            raise ValueError("state row right-hand side is not finite")
        rows.append(
            MixedConstraintRow(
                a1=c.copy(),
                a2=0.0,
                a3=cert.lipschitz_pi * cert.lipschitz_e * k_row,
                b=b,
            )
        )
    return rows


def _psd_projection_2x2(M: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(M)
    w = np.maximum(w, 0.0)
    return (V * w) @ V.T


def _box_vertices(s_max: np.ndarray) -> np.ndarray:
    s1, s2 = s_max
    return np.array([[0.0, 0.0], [s1, 0.0], [0.0, s2], [s1, s2]])


def _quad_max(M: np.ndarray, N: np.ndarray, verts: np.ndarray) -> float:
    return float(np.max(np.einsum("ij,jk,ik->i", verts, M, verts) + verts @ N))


def _level_set_radius(
    M_hat: np.ndarray,
    N: np.ndarray,
    c: np.ndarray,
    b: float,
    s_max: np.ndarray,
    a1_zero: bool,
) -> float:
    """Largest delta with {c^T s <= delta} inside the box implying the
    quadratic bound s^T M_hat s + N^T s <= b.

    With the state term present the containment must survive an
    unbounded linear offset, which collapses to a vertex maximum.  The
    pure-norm case has a closed form: on the cut line c^T s = delta,
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
        worst = _quad_max(M_hat, N - c, _box_vertices(s_max))
        return b - worst
    if b < 0.0:
        return -np.inf
    cap = float(c @ s_max)
    if _quad_max(M_hat, N, s_max[None, :]) <= b:
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


def _expand_norm_row(
    a1: np.ndarray,
    c: np.ndarray,
    delta: float,
    x_ref: np.ndarray,
    f_ref: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Signed-permutation expansion of c1||x-x_ref|| + c2||q-f_ref|| +
    a1^T x <= delta into 4nm linear rows on [x; q], ordered by
    (i, j, s1, s2) with state index i, input index j and signs s1, s2
    (+1 before -1)."""
    n = x_ref.shape[0]
    m = f_ref.shape[0]
    i, j, k1, k2 = np.indices((n, m, 2, 2)).reshape(4, -1)
    s1, s2 = 1.0 - 2.0 * k1, 1.0 - 2.0 * k2
    r = np.arange(i.size)
    rows = np.zeros((i.size, n + m))
    rows[:, :n] = a1
    rows[r, i] += c[0] * s1
    rows[r, n + j] = c[1] * s2
    return rows, delta + c[0] * s1 * x_ref[i] + c[1] * s2 * f_ref[j]


def sigma_box(
    model: PlanningModel,
    cs: ConstraintSet,
    x_ref: np.ndarray,
    q_gamma_bound: float,
) -> np.ndarray:
    """Bounds on (||x - x_ref||, ||q^(gamma) - f(x_ref)||) over C_X.

    The first entry comes from the bounding box of the state polytope;
    the second from the bound on ||q^(gamma)||.
    """
    x_ref = np.asarray(x_ref, dtype=float).reshape(-1)
    lo, hi = cs.bounding_box()
    s1 = float(np.max(np.maximum(np.abs(lo - x_ref), np.abs(hi - x_ref))))
    f_ref = np.atleast_1d(model.f_d(x_ref))
    s2 = float(q_gamma_bound + np.max(np.abs(f_ref)))
    if s1 <= 0 or s2 <= 0 or not np.isfinite(s1 + s2):
        raise ValueError(f"sigma box must be finite and positive, got ({s1}, {s2})")
    return np.array([s1, s2])


def default_q_gamma_bound(model: PlanningModel, cs: ConstraintSet) -> float:
    """Reachable top-derivative magnitude: max ||f|| + max ||g|| * u_max,
    estimated on 512 deterministic samples of the C_X bounding box."""
    lo, hi = cs.bounding_box()
    rng = np.random.default_rng(0)
    xs = rng.uniform(lo, hi, size=(512, model.n))
    f_max = float(np.max(np.abs(model.f_d(xs))))
    g_max = float(np.max(np.sum(np.abs(model.g_d(xs)), axis=-1)))
    return f_max + g_max * cs.effective_u_max()


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
    infinity norms.  Box rows enforcing sigma <= s_max are appended so
    the result is sound on its own.
    """
    x_ref = np.asarray(x_ref, dtype=float).reshape(-1)
    s_max = np.asarray(s_max, dtype=float).reshape(2)
    if np.any(s_max <= 0) or not np.all(np.isfinite(s_max)):
        raise ValueError("sigma box must be finite and positive")
    n = model.n
    m = model.m
    f_ref = np.atleast_1d(model.f_d(x_ref))
    g_ref_inv = np.linalg.inv(model.g_d(x_ref))
    g0 = float(np.max(np.sum(np.abs(g_ref_inv), axis=1)))
    L_f = model.lipschitz_f
    L_G = model.lipschitz_ginv

    L_blocks: list[np.ndarray] = []
    h_blocks: list[np.ndarray] = []
    for idx, row in enumerate(rows):
        if row.a1.shape[0] != n:
            raise ValueError(f"row {idx}: state coefficient dimension != {n}")
        if row.a2 == 0.0 and row.a3 == 0.0:
            L_blocks.append(np.concatenate([row.a1, np.zeros(m)])[None, :])
            h_blocks.append(np.array([row.b]))
            continue
        M = 0.5 * row.a3 * np.array([[2.0 * L_G * L_f, L_G], [L_G, 0.0]])
        N = np.array([row.a3 * L_f * g0 + row.a2, row.a3 * g0])
        M_hat = _psd_projection_2x2(M)
        c = N + M_hat @ s_max
        a1_zero = not np.any(row.a1)
        delta = _level_set_radius(M_hat, N, c, row.b, s_max, a1_zero)
        if not np.isfinite(delta) or delta < -1e30:
            raise InfeasibleReductionError(
                f"row {idx} admits no feasible point in the sigma box "
                f"(b={row.b}, s_max={s_max.tolist()})"
            )
        Lr, hr = _expand_norm_row(row.a1, c, delta, x_ref, f_ref)
        L_blocks.append(Lr)
        h_blocks.append(hr)

    # sigma-box enforcement: |x_i - x_ref_i| <= s1, |q_j - f_ref_j| <= s2,
    # one (+, -) row pair per coordinate.
    idx = np.arange(n + m)
    box_L = np.zeros((2 * (n + m), n + m))
    box_L[2 * idx, idx] = 1.0
    box_L[2 * idx + 1, idx] = -1.0
    radius = np.repeat(s_max, [n, m])
    center = np.concatenate([x_ref, f_ref])
    L_blocks.append(box_L)
    h_blocks.append(np.column_stack([radius + center, radius - center]).ravel())

    return LiftedLinearConstraints(L=np.vstack(L_blocks), h=np.concatenate(h_blocks))


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
    identity.  Each piece runs for T / k, which sets the derivative scale.
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
    powers = derivative_powers(p, T / k, gamma + 1)
    F_blocks = []
    for lifted, Q in zip(lifted_segments, split_matrices(p, k)):
        # W[l, c, j] = (Q H^l)[c, j]: control point c of the curve feeds
        # derivative l at control point j of this piece.
        W = Q @ powers
        L = lifted.L.reshape(-1, gamma + 1, m)
        F_blocks.append(np.einsum("rla,lcj->jrca", L, W).reshape(-1, m * (p + 1)))
    return CertificatePolytope(
        F=np.vstack(F_blocks),
        G=np.concatenate([np.tile(ls.h, p + 1) for ls in lifted_segments]),
    )
