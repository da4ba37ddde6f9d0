"""Small linear programs over halfspace polytopes.

Feasibility, linear maximization and bounding boxes for sets
{x | Ax <= b} with free variables, plus exact reduction of 2-D sets to
their polygon.  Every LP first rescales its rows to unit normals, drops
zero rows and merges parallel duplicates, so its tolerances are
distances and its verdicts do not depend on how the rows are scaled.

Phase one finds the deepest point of the set (its Chebyshev centre,
depth capped at 1) by solving the dual of that LP on an (n+2)-row
tableau; the set is empty when the depth is below -5e-8 (over the
longest caller row when that is longer than 1).  The deepest point is
`feasible`'s witness, and phase two starts from it with every slack
basic, so `feasible`, `maximize` and `bounding_box` share one verdict.
Pricing is Dantzig's (most negative reduced cost), with Bland's rule
while the objective stalls on degenerate pivots, so no solve cycles;
one vectorized rank-1 update per pivot.  Intended for the small
problems that show up in polytope queries (n <= 64), where robustness
matters more than speed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

TOL = 1e-8
# Emptiness threshold on the deepest point's depth, as a distance.
_THETA = 5e-8
# How far a witness may sit outside the caller's rows.
_WITNESS_TOL = 1e-7
# Degenerate pivots in a row before pricing falls back to Bland's rule.
_STALL = 8
# Outward shift of the rows `reduce_2d` keeps; a 2-D set empty by less gets a polygon.
_PAD = 1e-9
# Angular sectors whose tightest rows form `reduce_2d`'s outer polygon.
_SECTORS = 48
# A row the outer polygon's vertices satisfy by more than this is redundant.
_OUTER_MARGIN = 1e-9


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


def _bland(reduced: np.ndarray) -> int | None:
    """Bland's rule: the first column with a negative reduced cost."""
    enter = np.flatnonzero(reduced < -TOL)
    return int(enter[0]) if enter.size else None


def _simplex(T: np.ndarray, basis: np.ndarray, ncols: int, limit: int) -> str:
    """Minimize the objective in the last tableau row over columns [0, ncols).

    Returns "optimal" or "unbounded".  The rhs is the last column.  The
    entering column has the most negative reduced cost (Dantzig), or is
    chosen by Bland's rule once the objective has stalled on _STALL
    degenerate pivots in a row, until a pivot moves it again, so no
    basis sequence cycles.
    """
    m = T.shape[0] - 1
    stalled = 0
    for _ in range(limit):
        reduced = T[-1, :ncols]
        enter = int(np.argmin(reduced)) if stalled < _STALL else _bland(reduced)
        if enter is None or reduced[enter] >= -TOL:
            return "optimal"
        col = T[:m, enter]
        rows = np.flatnonzero(col > TOL)
        if rows.size == 0:
            return "unbounded"
        # Smallest ratio, ties broken by smallest basis index.
        ratio = T[rows, -1] / col[rows]
        step = ratio.min()
        ties = rows[ratio <= step + 1e-12]
        _pivot(T, basis, int(ties[np.argmin(basis[ties])]), enter)
        stalled = stalled + 1 if step <= 1e-12 else 0
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
    longest = float(norms.max(initial=0.0))
    if A.shape[0] == 0:
        return A, b, longest
    key = np.round(A * 1e12)
    # A stable sort groups equal keys with their rows in input order.
    order = np.lexsort(key.T[::-1])
    key = key[order]
    starts = np.flatnonzero(np.r_[True, np.any(key[1:] != key[:-1], axis=1)])
    first = order[starts]
    rhs = np.minimum.reduceat(b[order], starts)
    keep = np.argsort(first)
    return A[first[keep]], rhs[keep], longest


def _deepest(A: np.ndarray, b: np.ndarray):
    """Unit rows of {A x <= b} and its deepest point, or None if the set
    is empty.

    The deepest point (Chebyshev centre) solves max t subject to
    A x + t <= b and t <= 1 over the unit rows.  Its dual,
    min b.y + s subject to A^T y = 0, 1.y + s = 1, y, s >= 0, starts
    feasible at s = 1 and takes an (n+2)-row tableau; an identity block
    carries the simplex multipliers, which are (x*, t*).  The set is
    empty when t* < -_THETA / max(1, longest row), so a witness meets
    the caller's rows within _THETA.
    """
    rows = _reduce_rows(A, b)
    if rows is None:
        return None
    A, b, longest = rows
    m, n = A.shape
    if m == 0:
        return A, b, np.zeros(n)
    # Columns: y, s, the identity block, rhs.  The last row is the cost,
    # reduced for s basic in row n.
    T = np.zeros((n + 2, m + n + 3))
    T[:n, :m] = A.T
    T[n, : m + 1] = 1.0
    T[: n + 1, m + 1 : -1] = np.eye(n + 1)
    T[n, -1] = 1.0
    T[-1, :m] = b
    T[-1, m] = 1.0
    T[-1] -= T[n]
    basis = np.full(n + 1, m)
    # Complete the basis with y columns at level zero; a row with no
    # pivot is redundant (A has rank below n) and is dropped.
    kept = []
    for i in range(n):
        j = int(np.argmax(np.abs(T[i, :m])))
        if abs(T[i, j]) > 1e-9:
            _pivot(T, basis, i, j)
            kept.append(i)
    T, basis = T[kept + [n, n + 1]], basis[kept + [n]]
    _simplex(T, basis, m + 1, 200 + 50 * (m + n))
    if T[-1, -1] > _THETA / max(1.0, longest):
        return None
    return A, b, -T[-1, m + 1 : m + 1 + n]


def _phase_two(A: np.ndarray, b: np.ndarray, x: np.ndarray, c: np.ndarray):
    """Maximize c^T x' over {A x' <= b} from a point x of the set.

    The tableau is over the step z = z+ - z- from x, on rows shifted to
    max(b - A x, 0) >= 0, so every slack starts basic.  Returns the
    optimal x', or None when c^T x' is unbounded.
    """
    m, n = A.shape
    T = np.zeros((m + 1, 2 * n + m + 1))
    T[:m, :n] = A
    T[:m, n : 2 * n] = -A
    T[:m, 2 * n : -1] = np.eye(m)
    T[:m, -1] = np.maximum(b - A @ x, 0.0)
    # maximize c^T z == minimize -c^T (z+ - z-); the slacks cost nothing.
    T[-1, :n] = -c
    T[-1, n : 2 * n] = c
    basis = 2 * n + np.arange(m)
    if _simplex(T, basis, T.shape[1] - 1, 400 + 100 * (m + n)) == "unbounded":
        return None
    vals = np.zeros(T.shape[1] - 1)
    vals[basis] = T[:-1, -1]
    return x + vals[:n] - vals[n : 2 * n]


def feasible(poly: Polytope) -> np.ndarray | None:
    """Deepest point of {x | Ax <= b}, capped at unit depth, as the witness
    that the set is not empty; None if it is.  The witness is checked
    against the caller's rows within _WITNESS_TOL."""
    out = _deepest(poly.A, poly.b)
    if out is None:
        return None
    x = out[2]
    if not np.all(poly.A @ x <= poly.b + _WITNESS_TOL):
        raise WitnessError("simplex witness violates the constraints")
    return x


def maximize(poly: Polytope, c) -> LPResult:
    """Maximize c^T x over the polytope."""
    c = np.asarray(c, dtype=float).reshape(-1)
    if c.shape[0] != poly.dim:
        raise ValueError("objective dimension mismatch")
    out = _deepest(poly.A, poly.b)
    if out is None:
        return LPResult("infeasible")
    x = _phase_two(*out, c)
    if x is None:
        return LPResult("unbounded")
    return LPResult("optimal", x=x, value=float(c @ x))


EMPTY_2D = Polytope(
    np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([-1.0, -1.0]), np.empty((0, 2))
)


def _polygon(A: np.ndarray, b: np.ndarray):
    """Edge lines of {A x <= b} in ccw order, or None if it is empty.

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
        # Placed as `_vertices` places it.
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
    return list(dq)


def _vertices(A: np.ndarray, b: np.ndarray, lines: list[int]) -> np.ndarray:
    """Where each of the ccw edge lines meets the next.  Each vertex is
    placed on the first of its two lines, so a nearly parallel second
    line moves it along that line, not off it."""
    i = np.array(lines)
    j = np.roll(i, -1)
    (xi, yi), (xj, yj), bi = A[i].T, A[j].T, b[i]
    t = (b[j] - bi * (xi * xj + yi * yj)) / (xi * yj - yi * xj)
    return np.column_stack([bi * xi - t * yi, bi * yi + t * xi])


def _outer_filter(A: np.ndarray, b: np.ndarray, angle: np.ndarray):
    """Indices of the angle-sorted rows that can bound {A x <= b}, or None
    when the filter cannot tell.

    The tightest row of each of _SECTORS angular sectors bounds an outer
    polygon O containing the set; a row that every vertex of O satisfies
    by more than _OUTER_MARGIN misses the set and is dropped.  None when
    those rows leave an angular gap of pi or more (O is unbounded) or O
    is empty.
    """
    sector = np.minimum(((angle + np.pi) * (_SECTORS / (2 * np.pi))).astype(int), _SECTORS - 1)
    by_sector = np.lexsort((b, sector))
    first = np.r_[True, sector[by_sector[1:]] != sector[by_sector[:-1]]]
    pick = np.sort(by_sector[first])
    turns = np.mod(np.diff(angle[pick], append=angle[pick[0]]), 2 * np.pi)
    if pick.size < 3 or turns.max() > np.pi - 1e-12:
        return None
    lines = _polygon(A[pick], b[pick])
    if lines is None:
        return None
    outer = _vertices(A[pick], b[pick], lines)
    return np.flatnonzero((A @ outer.T).max(axis=1) > b - _OUTER_MARGIN)


def reduce_2d(poly: Polytope) -> Polytope:
    """Equivalent polytope with redundant rows removed (2-D only).

    Merges parallel rows, sorts the unit normals by angle, drops the rows
    an outer polygon shows to miss the set (`_outer_filter`) and
    intersects the remaining half-planes in one pass; the result keeps
    the rows of the polygon's edges, padded by _PAD, and carries the
    polygon as `vertices`.  Returns the input unchanged when the normals
    leave an angular gap of pi or more (the set is unbounded), and the
    input's rows with the polygon attached when it degenerates below a
    proper polygon (fewer than three edges, or empty only by up to
    _PAD); returns an infeasible marker when the set is empty.
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
        if gaps[widest] < np.pi + 1e-12 and b[0] + b[-1] < -_PAD:
            return EMPTY_2D
        return poly
    keep = _outer_filter(A, b, angle[order])
    if keep is not None:
        # Only a proper polygon that passes the check is taken from the
        # filtered rows; otherwise every row decides, as rounding at a
        # degenerate vertex depends on which rows the pass has seen.
        lines = _polygon(A[keep], b[keep])
        if lines is not None:
            lines = keep[lines]
            verts = _vertices(A, b, lines)
            if np.all(A @ verts.T <= b[:, None] + _PAD) and _proper(verts):
                return Polytope(A[lines], b[lines] + _PAD, verts)
    lines = _polygon(A, b)
    verts = None if lines is None else _vertices(A, b, lines)
    if verts is None or np.any(A @ verts.T > b[:, None] + _PAD):
        # Empty, or rounding at a vertex that several lines pass through
        # emptied the set or dropped a line it needs.  The padded rows
        # separate those lines; they include every edge of the set, so
        # they meet at its vertices at the unpadded rhs.
        lines = _polygon(A, b + _PAD)
        return EMPTY_2D if lines is None else Polytope(poly.A, poly.b, _vertices(A, b, lines))
    if not _proper(verts):
        return Polytope(poly.A, poly.b, verts)
    return Polytope(A[lines], b[lines] + _PAD, verts)


def _proper(verts: np.ndarray) -> bool:
    """At least three edges of the ccw polygon are 1e-12 long or more."""
    edges = np.hypot(*(verts - np.roll(verts, 1, axis=0)).T)
    return np.count_nonzero(edges >= 1e-12) >= 3


def bounding_box(poly: Polytope):
    """Per-coordinate (lo, hi) bounds; entries are +-inf when unbounded.

    Returns None if the polytope is empty.  A bounded 2-D set takes the
    extremes of its polygon's vertices; anything else runs one phase one
    and a phase two per coordinate direction from its deepest point.
    """
    if poly.dim == 2 and poly.vertices is None:
        poly = reduce_2d(poly)
    if poly.vertices is not None:
        if poly.vertices.shape[0] == 0:
            return None
        return poly.vertices.min(axis=0), poly.vertices.max(axis=0)
    out = _deepest(poly.A, poly.b)
    if out is None:
        return None
    n = poly.dim
    # Extremes along +e_1..+e_n, then -e_1..-e_n, each from the deepest point.
    ext = np.empty(2 * n)
    for k, c in enumerate(np.vstack([np.eye(n), -np.eye(n)])):
        x = _phase_two(*out, c)
        ext[k] = np.inf if x is None else c @ x
    return -ext[n:], ext[:n]
