"""Small linear programs over halfspace polytopes.

Feasibility, linear maximization and bounding boxes for sets
{x | Ax <= b} with free variables, plus exact reduction of 2-D sets to
their polygon.  Every LP first rescales its rows to unit normals, drops
zero rows and merges parallel duplicates, so its tolerances are
distances and its verdicts do not depend on how the rows are scaled.
The solver is a two-phase tableau simplex with Bland's anti-cycling
rule, one vectorized rank-1 update per pivot; a bounding box shares one
phase one across its 2n objectives.  Intended for the small problems
that show up in polytope queries (n <= 64), where robustness matters
more than speed.
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
    f = np.where(np.abs(T[:, col]) > 1e-14, T[:, col], 0.0)
    f[row] = 0.0
    T -= np.outer(f, T[row])
    basis[row] = col


def _bland_simplex(T: np.ndarray, basis: np.ndarray, ncols: int, limit: int) -> str:
    """Minimize the objective in the last tableau row over columns [0, ncols).

    Returns "optimal" or "unbounded".  The rhs is the last column.
    """
    m = T.shape[0] - 1
    for _ in range(limit):
        enter = np.flatnonzero(T[-1, :ncols] < -TOL)
        if enter.size == 0:
            return "optimal"
        col = T[:m, enter[0]]
        rows = np.flatnonzero(col > TOL)
        if rows.size == 0:
            return "unbounded"
        # Bland: smallest ratio, ties broken by smallest basis index.
        ratio = T[rows, -1] / col[rows]
        ties = rows[ratio <= ratio.min() + 1e-12]
        _pivot(T, basis, int(ties[np.argmin(basis[ties])]), int(enter[0]))
    raise IterationLimitError("simplex iteration limit reached")


def _reduce_rows(A: np.ndarray, b: np.ndarray):
    """Unit-normal rows describing the same set as {A x <= b}, and the
    largest row norm.

    Zero rows are dropped, or make the set empty (None) when their rhs
    is below -1e-7; rows whose normals agree to about 1e-12 merge into
    the first of them with the smallest rhs.
    """
    norms = np.sqrt(np.einsum("ij,ij->i", A, A))
    zero = norms == 0.0
    if np.any(b[zero] < -1e-7):
        return None
    A = A[~zero] / norms[~zero, None]
    b = b[~zero] / norms[~zero]
    # + 0.0 turns -0.0 into 0.0 so both land in one group.
    key = np.round(A * 1e12) + 0.0
    _, first, group = np.unique(key, axis=0, return_index=True, return_inverse=True)
    rhs = np.full(first.shape[0], np.inf)
    np.minimum.at(rhs, group.reshape(-1), b)
    order = np.argsort(first)
    return A[first[order]], rhs[order], float(norms.max(initial=0.0))


def _phase_one(A: np.ndarray, b: np.ndarray):
    """Basic feasible point of {A x <= b} in split-variable standard form.

    Returns (tableau, basis, ncols) with the artificial objective driven
    to its minimum and the artificials out of the basis, or None if the
    system is infeasible.  Columns [0, ncols) are x+, x- and the slacks.
    """
    rows = _reduce_rows(A, b)
    if rows is None:
        return None
    A, b, longest = rows
    m, n = A.shape
    sign = np.where(b < 0, -1.0, 1.0)
    art = np.flatnonzero(sign < 0)
    n_split = 2 * n
    n_real = n_split + m

    T = np.zeros((m + 1, n_real + art.size + 1))
    T[:m, :n] = A * sign[:, None]
    T[:m, n:n_split] = -T[:m, :n]
    T[np.arange(m), n_split + np.arange(m)] = sign
    T[:m, -1] = b * sign
    basis = n_split + np.arange(m)
    basis[art] = n_real + np.arange(art.size)
    T[art, basis[art]] = 1.0
    if art.size:
        # Phase-1 objective: sum of artificials, expressed in the current basis.
        T[-1] = -T[art].sum(axis=0)
        T[-1, n_real:-1] = 0.0
        _bland_simplex(T, basis, T.shape[1] - 1, 200 + 50 * (m + n))
        # The residual bounds each unit row's violation; rows longer than
        # 1 tighten it so a witness meets the caller's rows within 1e-7.
        if -T[-1, -1] > 1e-7 / max(1.0, longest):
            return None
        # Drive leftover zero-level artificials out of the basis so phase 2
        # cannot grow them.  Rows with no real pivot candidate are redundant.
        for i in np.flatnonzero(basis >= n_real):
            cand = np.flatnonzero(np.abs(T[i, :n_real]) > 1e-9)
            if cand.size:
                _pivot(T, basis, int(i), int(cand[0]))
    return T, basis, n_real


def _phase_two(T: np.ndarray, basis: np.ndarray, ncols: int, n: int, c: np.ndarray):
    """Maximize c^T x from a phase-one tableau, which it overwrites.

    Returns the optimal x, or None when c^T x is unbounded.
    """
    # maximize c^T x == minimize -c^T (x+ - x-); artificial columns stay out.
    obj = np.zeros(T.shape[1])
    obj[:n] = -c
    obj[n : 2 * n] = c
    T[-1] = obj - obj[basis] @ T[:-1]
    if _bland_simplex(T, basis, ncols, 400 + 100 * (basis.shape[0] + n)) == "unbounded":
        return None
    return _extract(T, basis, n)


def _extract(T: np.ndarray, basis: np.ndarray, n: int) -> np.ndarray:
    vals = np.zeros(T.shape[1] - 1)
    vals[basis] = T[:-1, -1]
    return vals[:n] - vals[n : 2 * n]


def feasible(poly: Polytope, tol: float = TOL) -> np.ndarray | None:
    """Witness point of {x | Ax <= b + tol}, or None if the set is empty."""
    out = _phase_one(poly.A, poly.b)
    if out is None:
        return None
    T, basis, _ = out
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
    x = _phase_two(*out, poly.dim, c)
    if x is None:
        return LPResult("unbounded")
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
    extremes of its polygon's vertices; anything else runs one phase one
    and a phase two per coordinate direction.
    """
    if poly.dim == 2 and poly.vertices is None:
        poly = reduce_2d(poly)
    if poly.vertices is not None:
        if poly.vertices.shape[0] == 0:
            return None
        return poly.vertices.min(axis=0), poly.vertices.max(axis=0)
    out = _phase_one(poly.A, poly.b)
    if out is None:
        return None
    T, basis, ncols = out
    n = poly.dim
    # Extremes along +e_1..+e_n, then -e_1..-e_n, from one shared phase one.
    ext = np.empty(2 * n)
    for k, c in enumerate(np.vstack([np.eye(n), -np.eye(n)])):
        x = _phase_two(T.copy(), basis.copy(), ncols, n, c)
        ext[k] = np.inf if x is None else c @ x
    return -ext[n:], ext[:n]
