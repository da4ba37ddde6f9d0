"""Small dense linear programming over halfspace polytopes.

Feasibility and linear maximization for sets {x | Ax <= b} with free
variables.  Two-phase simplex with Bland's anti-cycling rule; dense
arithmetic throughout.  Intended for the small problems that show up in
polytope queries (n <= 64), where robustness matters more than speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TOL = 1e-8


class IterationLimitError(RuntimeError):
    """Simplex failed to terminate within the pivot budget."""


class WitnessError(RuntimeError):
    """The simplex returned a point outside the polytope (numerical failure)."""


@dataclass(frozen=True)
class Polytope:
    """Halfspace set {x | A x <= b}.

    `vertices` holds the ccw polygon of a bounded 2-D set (no rows when
    the set is empty) as computed by `reduce_2d`; None when unknown.
    """

    A: np.ndarray
    b: np.ndarray
    vertices: np.ndarray | None = None

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.asarray(self.b, dtype=float).reshape(-1)
        if A.shape[0] != b.shape[0]:
            raise ValueError(f"A has {A.shape[0]} rows but b has {b.shape[0]} entries")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValueError("polytope data must be finite")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    def contains(self, x, tol: float = TOL) -> bool:
        return bool(np.all(self.A @ np.asarray(x, dtype=float) <= self.b + tol))

    def intersect(self, other: "Polytope") -> "Polytope":
        return Polytope(np.vstack([self.A, other.A]), np.concatenate([self.b, other.b]))


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "unbounded" | "infeasible"
    x: np.ndarray | None = None
    value: float | None = None


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    piv = T[row]
    for r in range(T.shape[0]):
        if r != row and abs(T[r, col]) > 1e-14:
            T[r] -= T[r, col] * piv
    basis[row] = col


def _bland_simplex(T: np.ndarray, basis: np.ndarray, ncols: int, limit: int) -> str:
    """Minimize the objective in the last tableau row over columns [0, ncols).

    Returns "optimal" or "unbounded".  The rhs is the last column.
    """
    m = T.shape[0] - 1
    for _ in range(limit):
        obj = T[-1, :ncols]
        enter = -1
        for j in range(ncols):
            if obj[j] < -TOL:
                enter = j
                break
        if enter < 0:
            return "optimal"
        # Bland: smallest ratio, ties broken by smallest basis index.
        leave = -1
        best = np.inf
        for i in range(m):
            a = T[i, enter]
            if a > TOL:
                ratio = T[i, -1] / a
                if ratio < best - 1e-12 or (
                    abs(ratio - best) <= 1e-12 and (leave < 0 or basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            return "unbounded"
        _pivot(T, basis, leave, enter)
    raise IterationLimitError("simplex iteration limit reached")


def _phase_one(A: np.ndarray, b: np.ndarray):
    """Basic feasible point of {A x <= b} in split-variable standard form.

    Returns (tableau, basis, ncols, n_split) with the artificial objective
    driven to its minimum, or None if the system is infeasible.
    """
    m, n = A.shape
    sign = np.where(b < 0, -1.0, 1.0)
    As = A * sign[:, None]
    bs = b * sign
    slack_sign = sign  # slack coefficient after row normalization

    art_rows = np.where(sign < 0)[0]
    n_split = 2 * n
    n_slack = m
    n_art = len(art_rows)
    ncols = n_split + n_slack + n_art

    T = np.zeros((m + 1, ncols + 1))
    T[:m, :n] = As
    T[:m, n : 2 * n] = -As
    T[:m, n_split : n_split + m] = np.diag(slack_sign)
    art_col = {int(r): n_split + n_slack + k for k, r in enumerate(art_rows)}
    for r, c in art_col.items():
        T[r, c] = 1.0
    T[:m, -1] = bs

    basis = np.empty(m, dtype=int)
    for i in range(m):
        basis[i] = art_col[i] if i in art_col else n_split + i
    # Phase-1 objective: sum of artificials, expressed in the current basis.
    if n_art:
        T[-1, n_split + n_slack : ncols] = 1.0
        for r in art_col:
            T[-1] -= T[r]
    limit = 200 + 50 * (m + n)
    _bland_simplex(T, basis, ncols, limit)
    if n_art and -T[-1, -1] > 1e-7:
        return None
    # Drive leftover zero-level artificials out of the basis so phase 2
    # cannot grow them.  Rows with no real pivot candidate are redundant.
    n_real = n_split + n_slack
    for i in range(m):
        if basis[i] >= n_real:
            for j in range(n_real):
                if abs(T[i, j]) > 1e-9:
                    _pivot(T, basis, i, j)
                    break
    return T, basis, n_real, n_split


def _extract(T: np.ndarray, basis: np.ndarray, n: int) -> np.ndarray:
    vals = np.zeros(T.shape[1] - 1)
    for i, c in enumerate(basis):
        vals[c] = T[i, -1]
    return vals[:n] - vals[n : 2 * n]


def feasible(poly: Polytope, tol: float = TOL) -> np.ndarray | None:
    """Witness point of {x | Ax <= b + tol}, or None if the set is empty."""
    out = _phase_one(poly.A, poly.b)
    if out is None:
        return None
    T, basis, _, _ = out
    x = _extract(T, basis, poly.dim)
    if not np.all(poly.A @ x <= poly.b + max(tol, 1e-7)):
        raise WitnessError("simplex witness violates the constraints")
    return x


def maximize(poly: Polytope, c) -> LPResult:
    """Maximize c^T x over the polytope."""
    c = np.asarray(c, dtype=float).reshape(-1)
    if c.shape[0] != poly.dim:
        raise ValueError("objective dimension mismatch")
    out = _phase_one(poly.A, poly.b)
    if out is None:
        return LPResult("infeasible")
    T, basis, ncols, n_split = out
    m = poly.A.shape[0]
    n = poly.dim
    # Drop artificial columns from consideration; rebuild phase-2 objective
    # (maximize c^T x == minimize -c^T(x+ - x-)) in the current basis.
    T[-1, :] = 0.0
    T[-1, :n] = -c
    T[-1, n : 2 * n] = c
    for i in range(m):
        col = basis[i]
        if col < ncols and abs(T[-1, col]) > 1e-14:
            T[-1] -= T[-1, col] * T[i]
    status = _bland_simplex(T, basis, ncols, 400 + 100 * (m + n))
    if status == "unbounded":
        return LPResult("unbounded")
    x = _extract(T, basis, n)
    return LPResult("optimal", x=x, value=float(c @ x))


def _clip(verts: np.ndarray, a: np.ndarray, rhs: float) -> np.ndarray:
    """Clip a convex polygon (rows = vertices, ccw) by {x | a.x <= rhs}."""
    s = verts @ a - rhs
    out = []
    nv = verts.shape[0]
    for i in range(nv):
        j = (i + 1) % nv
        if s[i] <= 0.0:
            out.append(verts[i])
        if (s[i] < 0.0) != (s[j] < 0.0) and abs(s[i] - s[j]) > 1e-300:
            d = verts[j] - verts[i]
            x = verts[i] + (s[i] / (s[i] - s[j])) * d
            # One Newton step along the edge puts x on the cut line to
            # rounding of |x|, not of the edge length (the first edges
            # span the whole 2e6-wide starting square).
            out.append(x - ((a @ x - rhs) / (s[j] - s[i])) * d)
    return np.array(out) if out else np.empty((0, 2))


EMPTY_2D = Polytope(
    np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([-1.0, -1.0]), np.empty((0, 2))
)


def reduce_2d(poly: Polytope, bound: float = 1e6, tol: float = 1e-9) -> Polytope:
    """Equivalent polytope with redundant rows removed (2-D only).

    Clips a large bounding square by the most-violated row until every
    row is satisfied on the polygon, then rebuilds one row per polygon
    edge; the result carries the polygon as `vertices`.  Returns the
    input unchanged when the set is unbounded, and the input's rows with
    the polygon attached when it degenerates below a proper polygon;
    returns an infeasible marker when the set is empty.
    """
    if poly.dim != 2:
        raise ValueError("reduce_2d only handles 2-D polytopes")
    verts = np.array(
        [[-bound, -bound], [bound, -bound], [bound, bound], [-bound, bound]]
    )
    A, b = poly.A, poly.b
    for _ in range(A.shape[0] + 8):
        viol = np.max(A @ verts.T - b[:, None], axis=1)
        worst = int(np.argmax(viol))
        if viol[worst] <= tol:
            break
        verts = _clip(verts, A[worst], b[worst])
        if verts.shape[0] == 0:
            return EMPTY_2D
    else:
        return poly
    if np.max(np.abs(verts)) >= 0.99 * bound:
        return poly  # unbounded (or near enough); keep the original rows
    rows = []
    rhs = []
    nv = verts.shape[0]
    for i in range(nv):
        v1, v2 = verts[i], verts[(i + 1) % nv]
        d = v2 - v1
        nrm = np.hypot(d[0], d[1])
        if nrm < 1e-12:
            continue
        normal = np.array([d[1], -d[0]]) / nrm  # outward for ccw order
        rows.append(normal)
        rhs.append(normal @ v1 + tol)
    if len(rows) < 3:
        return Polytope(poly.A, poly.b, verts)
    return Polytope(np.array(rows), np.array(rhs), verts)


def bounding_box(poly: Polytope):
    """Per-coordinate (lo, hi) bounds; entries are +-inf when unbounded.

    Returns None if the polytope is empty.  A bounded 2-D set takes the
    extremes of its polygon's vertices; anything else solves two LPs
    per coordinate.
    """
    if poly.dim == 2 and poly.vertices is None:
        poly = reduce_2d(poly)
    if poly.vertices is not None:
        if poly.vertices.shape[0] == 0:
            return None
        return poly.vertices.min(axis=0), poly.vertices.max(axis=0)
    n = poly.dim
    lo = np.empty(n)
    hi = np.empty(n)
    e = np.zeros(n)
    for i in range(n):
        e[:] = 0.0
        e[i] = 1.0
        res = maximize(poly, e)
        if res.status == "infeasible":
            return None
        hi[i] = np.inf if res.status == "unbounded" else res.value
        res = maximize(poly, -e)
        lo[i] = -np.inf if res.status == "unbounded" else -res.value
    return lo, hi
