"""Small linear programs over halfspace polytopes.

Feasibility, linear maximization and bounding boxes for sets
{x | Ax <= b} with free variables, plus exact reduction of 2-D sets to
their polygon.  Every LP first rescales its rows to unit normals, drops
zero rows and merges parallel duplicates, so its tolerances are
distances and its verdicts do not depend on how the rows are scaled.

Every LP is solved in the dual.  The deepest point of the set (its
Chebyshev centre, depth capped at 1) comes from the dual of that LP on
an (n+2)-row tableau; the set is empty when the depth is below -5e-8
(over the longest caller row when that is longer than 1).  The deepest
point is `feasible`'s witness and decides every verdict, so `feasible`,
`maximize` and `bounding_box` agree.  An extreme max c.x of a nonempty
set is its dual min b.y subject to A^T y = c, y >= 0, on an (n+1)-row
tableau with a phase one over n artificial columns; the maximizer is
read from their simplex multipliers.  `bounding_boxes` stacks the
tableaus of many sets, padded to the widest with zero columns, and
pivots them together: one run for all deepest points, one phase one
and one phase two for all 2n extremes of every set.  Pricing is
Dantzig's (most negative reduced cost), with Bland's rule while the
objective stalls on degenerate pivots, so no solve cycles; one
vectorized rank-1 update per pivot, and a stacked LP takes the pivots
it would take alone.  Intended for the small problems that show up in
polytope queries (n <= 64), where robustness matters more than speed.
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
# LPs per stacked simplex run, which bounds the memory of a batched pass.
_BLOCK = 256
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


def _pivot_batch(T: np.ndarray, basis: np.ndarray, rows, cols) -> None:
    """`_pivot` on every tableau of the stack T, each on its own (row,
    col), with the same arithmetic, so each changes bit for bit as it
    would alone."""
    at = np.arange(T.shape[0])
    prow = T[at, rows]
    prow /= prow[at, cols][:, None]
    T[at, rows] = prow
    f = T[at, :, cols]
    f[np.abs(f) <= 1e-14] = 0.0
    f[at, rows] = 0.0
    T -= np.einsum("ki,kj->kij", f, prow)
    basis[at, rows] = cols


def _bland(reduced: np.ndarray) -> np.ndarray:
    """Bland's rule along the last axis: the first column with a negative
    reduced cost, or column 0 when none is negative."""
    return np.argmax(reduced < -TOL, axis=-1)


def _leaving(col: np.ndarray, rhs: np.ndarray, basis: np.ndarray):
    """Pivot row and step along the last axis: the smallest ratio
    rhs / col over the entries col > TOL, ties within 1e-12 going to the
    smallest basis index.  The step is inf when no entry qualifies (the
    entering column is unbounded)."""
    ratio = np.divide(rhs, col, out=np.full_like(rhs, np.inf), where=col > TOL)
    step = ratio.min(axis=-1, keepdims=True)
    row = np.where(ratio <= step + 1e-12, basis, np.inf).argmin(axis=-1)
    return row, step[..., 0]


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
        enter = int(reduced.argmin() if stalled < _STALL else _bland(reduced))
        if reduced[enter] >= -TOL:
            return "optimal"
        row, step = _leaving(T[:m, enter], T[:m, -1], basis)
        if step == np.inf:
            return "unbounded"
        _pivot(T, basis, int(row), enter)
        stalled = stalled + 1 if step <= 1e-12 else 0
    raise IterationLimitError("simplex iteration limit reached")


def _simplex_batch(T: np.ndarray, basis: np.ndarray, ncols: int, limit) -> np.ndarray:
    """`_simplex` on a stack of tableaus T (B, rows, cols) with bases
    (B, rows - 1) and per-LP pivot limits, all LPs pivoting together
    until each is done.  Every LP takes the pivots it would take alone.
    Returns the (B,) flags of the unbounded LPs.

    The LPs still running pivot in place in a compact stack, which is
    copied back to T and shrunk whenever some of them finish.
    """
    m = T.shape[1] - 1
    limit = np.broadcast_to(limit, T.shape[:1])
    unbounded = np.zeros(T.shape[0], dtype=bool)
    live = at = np.arange(T.shape[0])
    sub, sub_basis = T, basis
    stalled = np.zeros(T.shape[0], dtype=int)
    pivots, budget = 0, limit.min() if limit.size else 0
    while live.size:
        reduced = sub[:, -1, :ncols]
        enter = reduced.argmin(axis=1)
        slow = stalled >= _STALL
        if slow.any():
            enter[slow] = _bland(reduced[slow])
        row, step = _leaving(sub[at, :m, enter], sub[:, :m, -1], sub_basis)
        improving = reduced[at, enter] < -TOL
        go = improving & (step < np.inf)
        if not go.all():
            unbounded[live[improving & ~go]] = True
            if sub is not T:
                T[live[~go]] = sub[~go]
                basis[live[~go]] = sub_basis[~go]
            live, sub, sub_basis, stalled = live[go], sub[go], sub_basis[go], stalled[go]
            if not live.size:
                break
            at, row, enter, step = at[: live.size], row[go], enter[go], step[go]
            budget = limit[live].min()
        if pivots >= budget:
            raise IterationLimitError("simplex iteration limit reached")
        _pivot_batch(sub, sub_basis, row, enter)
        stalled = np.where(step <= 1e-12, stalled + 1, 0)
        pivots += 1
    return unbounded


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


def _complete(T: np.ndarray, basis: np.ndarray, rows, width: int) -> None:
    """Pivot each of `rows` onto its largest entry among the first
    `width` columns, at level zero; a row whose entries there are all
    1e-9 or less is redundant (the rows of A^T have rank below n) and is
    zeroed, which leaves it out of every later pivot."""
    for i in rows:
        j = int(np.argmax(np.abs(T[i, :width])))
        if abs(T[i, j]) > 1e-9:
            _pivot(T, basis, i, j)
        else:
            T[i] = 0.0


def _deepest_tableau(A: np.ndarray, b: np.ndarray, width: int):
    """Starting tableau and basis of the deepest-point dual (see
    `_deepest`) of the unit rows A (m, n), with the y columns padded by
    zero columns to `width` >= m.

    Columns: y, s (at `width`), the identity block, rhs.  The last row
    is the cost, reduced for s basic in row n.  The basis is completed
    with y columns at level zero.
    """
    m, n = A.shape
    T = np.zeros((n + 2, width + n + 3))
    T[:n, :m] = A.T
    T[n, :m] = 1.0
    T[n, width] = 1.0
    T[: n + 1, width + 1 : -1] = np.eye(n + 1)
    T[n, -1] = 1.0
    T[-1, :m] = b
    T[-1, width] = 1.0
    T[-1] -= T[n]
    basis = np.full(n + 1, width)
    _complete(T, basis, range(n), width)
    return T, basis


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
    T, basis = _deepest_tableau(A, b, m)
    _simplex(T, basis, m + 1, 200 + 50 * (m + n))
    if T[-1, -1] > _THETA / max(1.0, longest):
        return None
    return A, b, -T[-1, m + 1 : m + 1 + n]


def _deepest_all(polys: list) -> list:
    """`_deepest` of each polytope (all of one dimension n), bit for bit,
    from stacked tableaus: one `_simplex_batch` per block of _BLOCK
    sets, padded to the block's widest set."""
    out = [None] * len(polys)
    todo = []
    for i, P in enumerate(polys):
        rows = _reduce_rows(P.A, P.b)
        if rows is not None and rows[0].shape[0] == 0:
            out[i] = rows[0], rows[1], np.zeros(P.dim)
        elif rows is not None:
            todo.append((i, *rows))
    for start in range(0, len(todo), _BLOCK):
        block = todo[start : start + _BLOCK]
        width = max(A.shape[0] for _, A, _, _ in block)
        tableaus = [_deepest_tableau(A, b, width) for _, A, b, _ in block]
        T = np.stack([t for t, _ in tableaus])
        basis = np.stack([v for _, v in tableaus])
        limit = np.array([200 + 50 * sum(A.shape) for _, A, _, _ in block])
        _simplex_batch(T, basis, width + 1, limit)
        for (i, A, b, longest), t in zip(block, T):
            if t[-1, -1] <= _THETA / max(1.0, longest):
                out[i] = A, b, -t[-1, width + 1 : width + 1 + A.shape[1]]
    return out


def _extremes(sets: list, C: np.ndarray):
    """max c.x over each set for each row c of C (D, n), as the dual
    min b.y subject to A^T y = c, y >= 0.

    `sets` holds `_deepest` results (A, b, x*) of nonempty sets of
    dimension n; each row is relaxed to max(b, A x*), so a set empty by
    less than the emptiness threshold still has its extremes.  All LPs
    of a block of _BLOCK share one phase one and one phase two on
    stacked (n+1)-row tableaus: columns y (padded to the block's widest
    set), n artificial columns, rhs; a row whose c entry is negative is
    negated, so the artificials start basic.  A dual that phase one
    leaves infeasible is an unbounded primal (+inf).  The maximizers
    are the simplex multipliers, read from the artificial columns.
    Returns the values (len(sets), D) and maximizers (len(sets), D, n).
    """
    D, n = C.shape
    sign = np.where(C < 0.0, -1.0, 1.0)
    values = np.full((len(sets), D), np.inf)
    points = np.full((len(sets), D, n), np.nan)
    per_block = max(1, _BLOCK // D)
    for start in range(0, len(sets), per_block):
        block = sets[start : start + per_block]
        width = max(1, max(A.shape[0] for A, _, _ in block))
        T = np.zeros((len(block), D, n + 1, width + n + 1))
        cost = np.zeros((len(block), width + n + 1))
        for k, (A, b, x) in enumerate(block):
            T[k, :, :n, : A.shape[0]] = A.T
            cost[k, : A.shape[0]] = np.maximum(b, A @ x)
        T[:, :, :n, :width] *= sign[None, :, :, None]
        T[:, :, :n, width:-1] = np.eye(n)
        T[:, :, :n, -1] = np.abs(C)
        # Phase one minimizes the sum of the artificials.
        T[:, :, -1, :width] = -T[:, :, :n, :width].sum(axis=2)
        T[:, :, -1, -1] = -np.abs(C).sum(axis=1)
        T = T.reshape(-1, n + 1, width + n + 1)
        cost = np.repeat(cost, D, axis=0)
        basis = np.tile(width + np.arange(n), (T.shape[0], 1))
        limit = np.repeat([200 + 50 * (A.shape[0] + n) for A, _, _ in block], D)
        _simplex_batch(T, basis, width, limit)
        ok = np.flatnonzero(T[:, -1, -1] >= -TOL)
        T, basis, cost, limit = T[ok], basis[ok], cost[ok], limit[ok]
        # Phase one left any basic artificial at level zero, within TOL:
        # set it to zero and pivot it out, or zero its row if redundant.
        for k in np.flatnonzero(np.any(basis >= width, axis=1)):
            rows = np.flatnonzero(basis[k] >= width)
            T[k, rows, -1] = 0.0
            _complete(T[k], basis[k], rows, width)
        T[:, -1] = cost - np.einsum("ki,kij->kj", np.take_along_axis(cost, basis, 1), T[:, :n])
        if _simplex_batch(T, basis, width, limit).any():
            raise WitnessError("dual simplex unbounded over a nonempty set")
        k, d = np.divmod(ok, D)
        values[start + k, d] = -T[:, -1, -1]
        points[start + k, d] = -T[:, -1, width:-1] * sign[d]
    return values, points


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
    values, points = _extremes([out], (c / (np.abs(c).max() or 1.0))[None])
    if values[0, 0] == np.inf:
        return LPResult("unbounded")
    x = points[0, 0]
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


def bounding_boxes(polys: list) -> list:
    """Per-coordinate (lo, hi) bounds of each polytope, or None for an
    empty one; entries are +-inf where a set is unbounded.

    A bounded 2-D set takes the extremes of its polygon's vertices.
    Every other set goes through one batched pass per dimension: the
    deepest points of all sets (`_deepest_all`) give the verdicts, then
    the 2n extremes +-e_k of every nonempty set are solved together as
    duals (`_extremes`).
    """
    boxes = [None] * len(polys)
    rest: dict[int, list] = {}
    for i, P in enumerate(polys):
        if P.dim == 2 and P.vertices is None:
            P = reduce_2d(P)
        if P.vertices is None:
            rest.setdefault(P.dim, []).append((i, P))
        elif P.vertices.shape[0]:
            boxes[i] = P.vertices.min(axis=0), P.vertices.max(axis=0)
    for n, group in rest.items():
        deep = _deepest_all([P for _, P in group])
        live = [(i, d) for (i, _), d in zip(group, deep) if d is not None]
        if live:
            values, _ = _extremes([d for _, d in live], np.vstack([np.eye(n), -np.eye(n)]))
            for (i, _), v in zip(live, values):
                boxes[i] = -v[n:], v[:n]
    return boxes


def bounding_box(poly: Polytope):
    """`bounding_boxes` of the one polytope."""
    return bounding_boxes([poly])[0]
