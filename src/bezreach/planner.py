"""Sampling-based reachability graph and certified trajectory extraction.

Vertices are uniform state samples; a directed edge (i, j) exists when
the forward set of v_i intersects the backward set of v_j, with the
intersection witness (a vertex in both sets, or the deepest point of the
intersection) stored for trajectory extraction.  Every edge costs the
same two horizons, so paths come from breadth-first search (fewest
edges); every extracted segment is re-verified against its certificate
polytope before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lp
from .bezier import BezierCurve, basis_matrix, derivative_powers
from .models import rk4
from .reachability import ReachSpec


class EmptyGraphError(ValueError):
    """Graph construction asked for zero vertices."""


class UnreachableGoalError(RuntimeError):
    """No path between the requested vertices."""

    def __init__(self, message: str, component_size: int):
        super().__init__(message)
        self.component_size = component_size


class InternalInconsistencyError(RuntimeError):
    """A stored edge failed certificate re-verification (bug signal)."""


def sample_vertices(
    bounds: tuple[np.ndarray, np.ndarray],
    count: int,
    seed: int,
    include: tuple = (),
) -> np.ndarray:
    """Uniform i.i.d. vertex samples in a state box, deterministic per
    seed, with any `include` states (start/goal) appended."""
    lo = np.asarray(bounds[0], dtype=float).reshape(-1)
    hi = np.asarray(bounds[1], dtype=float).reshape(-1)
    if lo.shape != hi.shape or np.any(lo > hi):
        raise ValueError("invalid sampling box")
    if count < 1:
        raise EmptyGraphError("vertex count must be >= 1")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(count, lo.shape[0]))
    extras = [np.asarray(x, dtype=float).reshape(-1) for x in include]
    if extras:
        pts = np.vstack([pts] + [e[None, :] for e in extras])
    return pts


def controlled_waypoints(
    model,
    x0: np.ndarray,
    controller,
    hop: float,
    max_hops: int,
    stop=None,
) -> np.ndarray:
    """Waypoints from rolling out u = controller(x) under the planning
    model, one waypoint per `hop` seconds (RK4, fixed 1 ms step).

    Seeding graph vertices with waypoints of a coarse policy keeps the
    sampled graph connected when the certified tubes are narrow; the
    edges between them are still certificate-checked like any others.
    `stop(x)` truthy ends the rollout early.
    """
    dt = 1e-3
    steps = int(round(hop / dt))
    if steps < 1:
        raise ValueError("hop must exceed the 1 ms step")

    def f(x, j):
        return model.state_derivative(x, np.atleast_1d(controller(x)))

    x = np.asarray(x0, dtype=float).copy()
    wps = [x]
    for i, x in enumerate(rk4(f, x, dt, steps * max_hops), start=1):
        if i % steps == 0:
            wps.append(x)
            if stop is not None and stop(x):
                break
    return np.array(wps)


@dataclass
class ReachGraph:
    vertices: np.ndarray
    edges: dict  # (i, j) -> witness state
    seed: int
    spec: ReachSpec

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "vertex_count": int(self.vertices.shape[0]),
            "vertices": self.vertices.tolist(),
            "edges": [
                {"from": int(i), "to": int(j), "witness": w.tolist()}
                for (i, j), w in sorted(self.edges.items())
            ],
        }


def _members(polys: list, points: np.ndarray, tol: float) -> np.ndarray:
    """(len(polys), K) flags: which of the points (K, n) each polytope
    contains, from one product over the rows of all polytopes."""
    A = np.vstack([P.A for P in polys])
    b = np.concatenate([P.b for P in polys])
    ok = A @ points.T <= b[:, None] + tol
    ends = np.cumsum([0] + [P.A.shape[0] for P in polys])
    return np.array([np.all(ok[s:e], axis=0) for s, e in zip(ends, ends[1:])])


def build_graph(vertices: np.ndarray, spec: ReachSpec, seed: int = 0) -> ReachGraph:
    """All-pairs edge construction by the two-horizon witness test
    F(v_i) n B(v_j) != {}, in three passes: a vertex inside both sets is
    the witness; pairs without one whose bounding boxes are disjoint have
    no edge; every other pair goes to `lp.feasible`, whose deepest point
    of the intersection is the witness.
    """
    vertices = np.atleast_2d(np.asarray(vertices, dtype=float))
    V = vertices.shape[0]
    if V == 0:
        raise EmptyGraphError("no vertices")
    # One reference flow and one certificate per vertex and direction.
    fwd = spec.polytopes(vertices, "forward")
    bwd = spec.polytopes(vertices, "backward")
    sat_f = _members(fwd, vertices, 1e-9)
    sat_b = _members(bwd, vertices, 1e-9)
    edges: dict = {}
    has_common = (sat_f.astype(np.float32) @ sat_b.astype(np.float32).T) > 0.5
    for i in range(V):
        js = np.flatnonzero(has_common[i])
        hits = np.argmax(sat_f[i] & sat_b[js], axis=1)
        for j, hit in zip(js.tolist(), hits):
            edges[(i, j)] = vertices[hit].copy()

    if not has_common.all():
        # Stacked (lo, hi) boxes, forward sets first; an empty set's box
        # (+inf, -inf) overlaps no bounded box.
        empty = (np.full(vertices.shape[1], np.inf), np.full(vertices.shape[1], -np.inf))
        lo, hi = np.array([box or empty for box in lp.bounding_boxes(fwd + bwd)]).transpose(1, 0, 2)
        overlap = np.all((lo[:V, None] <= hi[None, V:] + 1e-9)
                         & (lo[None, V:] <= hi[:V, None] + 1e-9), axis=2)
        for i, j in np.argwhere(~has_common & overlap).tolist():
            w = lp.feasible(fwd[i].intersect(bwd[j]))
            if w is not None:
                edges[(i, j)] = w
    return ReachGraph(vertices, edges, seed, spec)


def search(graph: ReachGraph, start: int, goal: int) -> list[int]:
    """Breadth-first search for a path of fewest edges.  Each level is
    expanded in vertex order, so a vertex's parent is its lowest-index
    predecessor on the level before."""
    V = graph.vertices.shape[0]
    if not (0 <= start < V and 0 <= goal < V):
        raise ValueError("start/goal must be vertex indices")
    adj: dict[int, list[int]] = {}
    for (i, j) in graph.edges:
        adj.setdefault(i, []).append(j)
    parent = {start: start}
    level = [start]
    while level and goal not in parent:
        reached = []
        for u in level:
            for v in adj.get(u, ()):
                if v not in parent:
                    parent[v] = u
                    reached.append(v)
        level = sorted(reached)
    if goal not in parent:
        raise UnreachableGoalError(
            f"goal vertex {goal} unreachable from {start} "
            f"(connected component has {len(parent)} vertices)",
            component_size=len(parent),
        )
    path = [goal]
    while path[-1] != start:
        path.append(parent[path[-1]])
    return path[::-1]


@dataclass
class PlannedTrajectory:
    """Ordered certified Bezier segments with chain-depth gamma."""

    segments: list[BezierCurve]
    gamma: int
    # Each segment's certificate slack, kept by `extract_trajectory`.
    segment_slack: list[float] | None = field(init=False, default=None)
    _state_mats: list[np.ndarray] = field(init=False, repr=False)
    _qgamma_pts: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self._state_mats = []
        self._qgamma_pts = []
        for seg in self.segments:
            # points @ H^0 .. H^gamma: the state stack, then q^(gamma).
            *state, top = seg.points @ derivative_powers(seg.order, seg.duration, self.gamma + 1)
            self._state_mats.append(np.vstack(state))
            self._qgamma_pts.append(top)
        for Pa, Pb in zip(self._state_mats, self._state_mats[1:]):
            if np.max(np.abs(Pa[:, -1] - Pb[:, 0])) > 1e-8:
                raise ValueError("segments are not C^(gamma-1) continuous")

    @property
    def total_duration(self) -> float:
        return sum(seg.duration for seg in self.segments)

    def _sample(self, ts: np.ndarray, mats: list[np.ndarray]) -> np.ndarray:
        """Evaluate per-segment control matrices on many times at once."""
        if not self.segments:
            raise ValueError("empty trajectory")
        ts = np.asarray(ts, dtype=float).reshape(-1)
        ends = np.cumsum([seg.duration for seg in self.segments])
        # side="left" assigns junction times to the earlier segment.
        idx = np.minimum(np.searchsorted(ends, ts, side="left"), len(self.segments) - 1)
        starts = ends - np.array([seg.duration for seg in self.segments])
        out = np.empty((mats[0].shape[0], ts.size))
        for i, seg in enumerate(self.segments):
            sel = np.flatnonzero(idx == i)
            if sel.size == 0:
                continue
            tl = np.clip(ts[sel] - starts[i], 0.0, seg.duration)
            out[:, sel] = mats[i] @ basis_matrix(seg.order, seg.duration, tl)
        return out

    def sample_states(self, ts: np.ndarray) -> np.ndarray:
        """States at many times, one column per time."""
        return self._sample(ts, self._state_mats)

    def sample_q_gamma(self, ts: np.ndarray) -> np.ndarray:
        """Top derivatives at many times, one column per time."""
        return self._sample(ts, self._qgamma_pts)

    def to_json_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "segments": [
                {
                    "order": seg.order,
                    "duration": seg.duration,
                    "points": seg.points.tolist(),
                }
                for seg in self.segments
            ],
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "PlannedTrajectory":
        segs = [
            BezierCurve(s["duration"], np.asarray(s["points"], dtype=float))
            for s in doc["segments"]
        ]
        return PlannedTrajectory(segs, gamma=int(doc["gamma"]))


def extract_trajectory(graph: ReachGraph, path: list[int]) -> PlannedTrajectory:
    """Two certified curves per edge (v_i -> w -> v_j), re-checked without
    tolerance against the certificate polytopes that justified the edge
    (forward from v_i, backward from v_j).  The trajectory keeps each
    curve's slack min(G - F vec(p)), in order, as `segment_slack`."""
    spec = graph.spec
    segments: list[BezierCurve] = []
    slack: list[float] = []
    for i, j in zip(path, path[1:]):
        if (i, j) not in graph.edges:
            raise ValueError(f"path edge ({i}, {j}) not present in graph")
        w, vi, vj = graph.edges[(i, j)], graph.vertices[i], graph.vertices[j]
        for name, cert, curve in (
            ("outbound", spec.certificate(vi, "forward"), spec.curve_between(vi, w)),
            ("inbound", spec.certificate(vj, "backward"), spec.curve_between(w, vj)),
        ):
            s = cert.slack(curve.points)
            # Written so that a NaN slack fails it too.
            if not s >= 0.0:
                raise InternalInconsistencyError(
                    f"edge ({i}, {j}): {name} segment fails its certificate (slack {s:.3e})"
                )
            segments.append(curve)
            slack.append(s)
    traj = PlannedTrajectory(segments, gamma=spec.model.gamma)
    traj.segment_slack = slack
    return traj
