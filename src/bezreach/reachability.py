"""Reachable-set queries over boundary states.

Composing the certificate polytope F vec(p) <= G with the min-norm
boundary solver turns reachability into halfspace sets over (x0, xT):
the forward set F(x0) collects terminal states reachable within one
horizon, the backward set B(xT) the initial states that can reach xT.
Membership always comes with a constructive witness curve.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from . import lp
from .bezier import BezierCurve, boundary_matrix, solve_boundary
from .constraints import (
    CertificatePolytope,
    default_q_gamma_bound,
    input_bound_row,
    lift_rows,
    refined_polytope,
    sigma_box,
    state_bound_rows,
)
from .models import ConstraintSet, PlanningModel, TrackingCertificate, rk4

REFERENCE_POLICIES = ("fixed", "drift")
# Certificates a spec keeps for later lookups (extraction, re-checks),
# least recently used first out; a graph build never reads its own back.
CACHE_SIZE = 2048


@dataclass
class ReachSpec:
    """Precomputed reachability oracle for a fixed horizon and order.

    reference_policy "fixed" anchors every segment at `x_ref` (queries
    from different base points share one certificate and the forward /
    backward definitions are exact duals).  Policy "drift" re-anchors
    each query at samples of the drift flow from the query point, which
    trades duality for much less conservatism on swinging trajectories.
    Certificates are cached per anchor and direction, at most CACHE_SIZE
    of them; an evicted one is rebuilt, identically, when asked for.
    """

    model: PlanningModel
    cert: TrackingCertificate
    cs: ConstraintSet
    order: int
    horizon: float
    refinement: int = 1
    reference_policy: str = "fixed"
    x_ref: np.ndarray | None = None
    q_gamma_bound: float | None = None
    _D: np.ndarray = field(init=False, repr=False)
    _D_pinv: np.ndarray = field(init=False, repr=False)
    _cache: OrderedDict = field(init=False, repr=False, default_factory=OrderedDict)

    def __post_init__(self):
        if self.reference_policy not in REFERENCE_POLICIES:
            raise ValueError(f"unknown reference policy {self.reference_policy!r}")
        if not (isinstance(self.refinement, (int, np.integer)) and self.refinement >= 1):
            raise ValueError(f"refinement must be an integer >= 1, got {self.refinement!r}")
        if self.reference_policy == "fixed":
            if self.x_ref is None:
                raise ValueError("fixed reference policy needs x_ref")
            self.x_ref = np.asarray(self.x_ref, dtype=float).reshape(-1)
            if self.x_ref.shape != (self.n,):
                raise ValueError(f"x_ref has {self.x_ref.size} entries, the state has {self.n}")
        if self.q_gamma_bound is None:
            self.q_gamma_bound = default_q_gamma_bound(self.model, self.cs)
        self._D = boundary_matrix(self.order, self.model.gamma, self.horizon)
        self._D_pinv = np.linalg.pinv(np.kron(self._D.T, np.eye(self.model.m)))

    @property
    def n(self) -> int:
        return self.model.n

    # -- certificate construction -------------------------------------

    def references(self, anchors: np.ndarray, direction: str) -> np.ndarray:
        """Per-segment reference points, (..., k, n), for queries anchored
        at `anchors` (..., n): under the drift policy, the 64-step RK4
        drift flow from each anchor to each segment midpoint (backward in
        time for "backward").  One flow for the whole batch; every row
        gets its own step, so each row equals its one-anchor flow."""
        anchors = np.asarray(anchors, dtype=float)
        shape = anchors.shape[:-1] + (self.refinement, self.n)
        if self.reference_policy == "fixed":
            return np.broadcast_to(self.x_ref, shape).copy()
        k, T = self.refinement, self.horizon
        t_mid = (np.arange(k) + 0.5) * T / k
        t = t_mid if direction == "forward" else -(T - t_mid)
        x0 = np.broadcast_to(anchors[..., None, :], shape)
        *_, x = rk4(lambda x, j: self.model.drift_field(x), x0, (t / 64)[:, None], 64)
        return x

    def certificate_for(self, refs: np.ndarray) -> CertificatePolytope:
        """Certificate for the per-segment references `refs` (k, n): one
        `lift_rows` per segment, over sigma boxes taken for all k at once."""
        rows = [
            input_bound_row(self.cert, refs[0], self.cs.u_max),
            *state_bound_rows(self.cs, self.cert),
        ]
        boxes = sigma_box(self.model, self.cs, refs, self.q_gamma_bound)
        lifted = [lift_rows(rows, self.model, ref, box) for ref, box in zip(refs, boxes)]
        return refined_polytope(
            lifted, self.order, self.horizon, self.model.gamma, self.model.m
        )

    def certificates(
        self, anchors: np.ndarray, direction: str = "forward"
    ) -> list[CertificatePolytope]:
        """Certificates for queries anchored at the rows of `anchors`:
        one `references` flow for the anchors not yet cached, then one
        `certificate_for` per new anchor."""
        anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
        drift = self.reference_policy == "drift"
        keys = [(direction, a.tobytes()) if drift else None for a in anchors]
        found = {}
        for key in keys:
            if key in self._cache:
                self._cache.move_to_end(key)
                found[key] = self._cache[key]
        new = {key: a for key, a in zip(keys, anchors) if key not in found}
        if new:
            refs = self.references(np.array(list(new.values())), direction)
            for key, r in zip(new, refs):
                found[key] = self._cache[key] = self.certificate_for(r)
                if len(self._cache) > CACHE_SIZE:
                    self._cache.popitem(last=False)
        return [found[key] for key in keys]

    def certificate(self, anchor: np.ndarray, direction: str = "forward") -> CertificatePolytope:
        return self.certificates(np.asarray(anchor, dtype=float)[None], direction)[0]

    # -- polytope queries ----------------------------------------------

    def polytopes(self, anchors: np.ndarray, direction: str) -> list[lp.Polytope]:
        """F D^+ [x0; xT] <= G with each anchor's end fixed: per row of
        `anchors`, the set over the free end (terminal states for
        "forward", initial states for "backward"), reduced to its polygon
        in 2-D, from the certificate `certificates` returns for it."""
        anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
        polys = []
        for anchor, cert in zip(anchors, self.certificates(anchors, direction)):
            FD = cert.F @ self._D_pinv
            head, tail = FD[:, : self.n], FD[:, self.n :]
            fixed, free = (head, tail) if direction == "forward" else (tail, head)
            poly = lp.Polytope(free, cert.G - fixed @ anchor)
            polys.append(lp.reduce_2d(poly) if self.n == 2 else poly)
        return polys

    def forward_polytope(self, x0: np.ndarray) -> lp.Polytope:
        """Halfspace set over terminal states reachable from x0."""
        return self.polytopes(np.reshape(x0, (1, -1)), "forward")[0]

    def backward_polytope(self, xT: np.ndarray) -> lp.Polytope:
        """Halfspace set over initial states that can reach xT."""
        return self.polytopes(np.reshape(xT, (1, -1)), "backward")[0]

    def curve_between(self, x0: np.ndarray, xT: np.ndarray) -> BezierCurve:
        """Min-norm curve meeting both boundary states."""
        pts = solve_boundary(self._D, np.asarray(x0, float), np.asarray(xT, float))
        return BezierCurve(self.horizon, pts)


def sample_cloud(poly: lp.Polytope, count: int, seed: int = 0):
    """Rejection-sampled interior points, plus the box used for sampling.

    Returns (points, accept_ratio); points may be fewer than `count` if
    the polytope is thin, as sampling stops after 200,000 draws.  The
    accept ratio times the box volume is a Monte-Carlo volume estimate.
    """
    box = lp.bounding_box(poly)
    if box is None:
        return np.empty((0, poly.dim)), 0.0
    lo, hi = box
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("cannot sample an unbounded polytope")
    rng = np.random.default_rng(seed)
    pts = []
    draws = 0
    batch = max(1024, count)
    while len(pts) < count and draws < 200_000:
        xs = rng.uniform(lo, hi, size=(batch, poly.dim))
        draws += batch
        ok = np.all(poly.A @ xs.T <= poly.b[:, None] + 1e-9, axis=0)
        pts.extend(xs[ok])
    ratio = len(pts) / draws if draws else 0.0
    return (np.array(pts[:count]) if pts else np.empty((0, poly.dim))), ratio


def volume_estimate(poly: lp.Polytope) -> float:
    """Exact area of a bounded 2-D polytope (shoelace formula over the
    vertices `reduce_2d` computes); 0.0 when the set is empty.

    Raises ValueError for unbounded or non-2-D input.
    """
    if poly.dim != 2:
        raise ValueError("volume_estimate only handles 2-D polytopes")
    verts = poly.vertices if poly.vertices is not None else lp.reduce_2d(poly).vertices
    if verts is None:
        raise ValueError("cannot measure an unbounded polytope")
    x, y = verts.T
    return 0.5 * abs(float(x @ np.roll(y, -1) - y @ np.roll(x, -1)))
