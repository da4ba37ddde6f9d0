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

from collections import deque
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


EMPTY_2D = Polytope(
    np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([-1.0, -1.0]), np.empty((0, 2))
)


def _polygon(A: np.ndarray, b: np.ndarray):
    """Edge lines and ccw vertices of {A x <= b}, or None if it is empty.

    The rows have unit normals in ccw order, each turning from the last
    by less than pi, so the set is bounded.  One pass of the deque
    half-plane intersection (Preparata & Shamos 1985, 7.2): each new
    line drops the lines whose last vertex it cuts off, at the back and
    at the front; the lines left bound the polygon in ccw order.
    """
    ax, ay, bb = A[:, 0].tolist(), A[:, 1].tolist(), b.tolist()

    def cross(i, j):
        return ax[i] * ay[j] - ay[i] * ax[j]

    def meet(i, j):
        # Placed on line i, so a nearly parallel line j moves the vertex
        # along line i, not off it.
        t = (bb[j] - bb[i] * (ax[i] * ax[j] + ay[i] * ay[j])) / cross(i, j)
        return bb[i] * ax[i] - t * ay[i], bb[i] * ay[i] + t * ax[i]

    def cuts(k, i, j):
        # Line k cuts off the vertex where lines i and j meet.
        x, y = meet(i, j)
        return ax[k] * x + ay[k] * y > bb[k]

    dq: deque[int] = deque()
    for k in range(len(bb)):
        while len(dq) >= 2 and cuts(k, dq[-2], dq[-1]):
            dq.pop()
        while len(dq) >= 2 and cuts(k, dq[0], dq[1]):
            dq.popleft()
        if dq and cross(dq[-1], k) <= 0.0:
            if cross(dq[-1], k) < -1e-12 or ax[dq[-1]] * ax[k] + ay[dq[-1]] * ay[k] < 0.0:
                return None  # the kept lines turn by pi or more: empty
            # The same normal to rounding, in rows that `_reduce_rows` did
            # not merge: keep the tighter row.
            if bb[k] >= bb[dq[-1]]:
                continue
            dq.pop()
        dq.append(k)
    while len(dq) >= 3 and cuts(dq[0], dq[-2], dq[-1]):
        dq.pop()
    while len(dq) >= 3 and cuts(dq[-1], dq[0], dq[1]):
        dq.popleft()
    if len(dq) < 3 or cross(dq[-1], dq[0]) <= 0.0:
        return None
    lines = list(dq)
    return lines, np.array([meet(i, j) for i, j in zip(lines, lines[1:] + lines[:1])])


def reduce_2d(poly: Polytope, tol: float = 1e-9) -> Polytope:
    """Equivalent polytope with redundant rows removed (2-D only).

    Merges parallel rows, sorts the unit normals by angle and intersects
    the half-planes in one pass; the result keeps the rows of the
    polygon's edges, padded by `tol`, and carries the polygon as
    `vertices`.  Returns the input unchanged when the normals leave an
    angular gap of pi or more (the set is unbounded), and the input's
    rows with the polygon attached when it degenerates below a proper
    polygon (fewer than three edges, or empty only by up to `tol`);
    returns an infeasible marker when the set is empty.
    """
    if poly.dim != 2:
        raise ValueError("reduce_2d only handles 2-D polytopes")
    rows = _reduce_rows(poly.A, poly.b)
    if rows is None:
        return EMPTY_2D
    A, b, _ = rows
    if A.shape[0] == 0:
        return poly
    angle = np.arctan2(A[:, 1], A[:, 0])
    # Start after the widest gap between neighbouring normals.
    order = np.argsort(angle)
    gaps = np.diff(angle[order], append=angle[order[0]] + 2 * np.pi)
    widest = int(np.argmax(gaps))
    order = np.roll(order, -(widest + 1))
    A, b = A[order], b[order]
    if gaps[widest] > np.pi - 1e-12:
        # Unbounded, unless the rows on both sides of a gap of pi are
        # opposite and leave no room between them.
        if gaps[widest] < np.pi + 1e-12 and b[0] + b[-1] < -tol:
            return EMPTY_2D
        return poly
    exact = _polygon(A, b)
    if exact is None:
        loose = _polygon(A, b + tol)
        return EMPTY_2D if loose is None else Polytope(poly.A, poly.b, loose[1])
    lines, verts = exact
    edges = np.hypot(*(verts - np.roll(verts, 1, axis=0)).T)
    if np.count_nonzero(edges >= 1e-12) < 3:
        return Polytope(poly.A, poly.b, verts)
    return Polytope(A[lines], b[lines] + tol, verts)


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
