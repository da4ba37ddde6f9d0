"""The three pinned benchmark workloads.

Each workload has a `setup(seed)` that builds the inputs, an
`op(state, i)` that runs the i-th closed-loop operation through
bezreach's public API and times its phases, and a `check(state, out)`
correctness gate that runs outside the timed region.  Inputs are a pinned base configuration plus a
small jitter drawn from the seed, so every seed runs the same kind of
work on different numbers.

Library calls go through module attributes (`planner.build_graph`, not
a name bound at import), so the tracer in `spans.py` sees them.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from bezreach import constraints, lp, planner, sim
from bezreach.bezier import BezierCurve
from bezreach.models import (
    ConstraintSet,
    TrackingCertificate,
    integrator_chain,
    pendulum_energy_controller,
    pendulum_model,
)
from bezreach.reachability import ReachSpec

BOX_C = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
PEND_D = np.array([2 * np.pi + 1, 1.0, 7.5, 7.5])

# Errors the library raises for an operation that cannot complete; the
# runner counts them as failed operations instead of crashing.
OP_ERRORS = (
    planner.UnreachableGoalError,
    planner.InternalInconsistencyError,
    sim.DivergenceError,
    lp.IterationLimitError,
    constraints.InfeasibleCertificateError,
)


@dataclass
class OpOut:
    """What one operation produced, with its phase timings."""

    plan_s: float
    certified: int
    key: int = 0  # operations with the same key ran on the same inputs
    rollout_s: list = field(default_factory=list)
    rollout_steps: int = 0
    artifacts: dict = field(default_factory=dict)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _jitter(seed: int, shape, width: float) -> np.ndarray:
    return np.random.default_rng(seed).uniform(-width, width, size=shape)


def _timed_rollout(out: OpOut, *args, **kwargs):
    t0 = time.perf_counter()
    res = sim.rollout(*args, **kwargs)
    out.rollout_s.append(time.perf_counter() - t0)
    out.rollout_steps += res.t.size - 1
    return res


class PlanningWorkload:
    """Vertex set -> build_graph -> search -> extract_trajectory, then a
    zero-disturbance rollout and monitor of the plan."""

    def make_spec(self, state) -> ReachSpec:
        raise NotImplementedError

    def op(self, state, i: int) -> OpOut:
        t0 = time.perf_counter()
        # A fresh spec per operation: no certificate is served from an
        # earlier operation's cache.
        spec = self.make_spec(state)
        graph = planner.build_graph(state["vertices"], spec, seed=state["seed"])
        path = planner.search(graph, state["start"], state["goal"])
        traj = planner.extract_trajectory(graph, path)
        out = OpOut(time.perf_counter() - t0, len(graph.edges))
        res = _timed_rollout(out, state["model"], traj, state["cs"], state["cert"],
                             disturbance="zero")
        report = sim.monitor(res, state["cs"])
        out.artifacts = {"spec": spec, "graph": graph, "path": path, "report": report}
        return out

    def check(self, state, out: OpOut):
        """Re-verify every stored edge witness as extract_trajectory does,
        and require the plan to pass the monitor."""
        spec, graph = out.artifacts["spec"], out.artifacts["graph"]
        V = graph.vertices
        failed = 0
        for (i, j), w in graph.edges.items():
            first = spec.curve_between(V[i], w)
            second = spec.curve_between(w, V[j])
            ok = spec.certificate(V[i], "forward").accepts(first.points, tol=1e-6) and \
                spec.certificate(V[j], "backward").accepts(second.points, tol=1e-6)
            failed += not ok
        failed += not out.artifacts["report"].passed
        keys = sorted(graph.edges)
        digest = {
            "edges": _digest(np.array(keys), np.array([graph.edges[k] for k in keys])),
            "path": _digest(np.array(out.artifacts["path"])),
            "edge_count": len(keys),
            "path_edges": len(out.artifacts["path"]) - 1,
        }
        return len(graph.edges) + 1, failed, digest


class SwingupDrift(PlanningWorkload):
    """Pendulum swing-up with the drift reference policy (k = 10)."""

    name = "swingup-drift"

    def __init__(self, smoke: bool = False):
        # The pump torque sets the number of waypoints (11 here); the smoke
        # size only coarsens the refinement.
        self.refinement = 2 if smoke else 10
        self.samples = 4
        self.u_pump = 1.0
        self.jitter = 0.01

    def sizes(self) -> dict:
        return {"refinement": self.refinement, "samples": self.samples,
                "u_pump": self.u_pump, "jitter": self.jitter, "horizon": 0.15}

    def setup(self, seed: int) -> dict:
        model = pendulum_model(0.1, 1.0, 9.81)
        cert = TrackingCertificate(0.005, 0.0, 1.0, 1.0, 1.0)
        cs = ConstraintSet(BOX_C, PEND_D, u_max=5.0)
        T = 0.15
        origin = np.array([np.pi, 0.0])
        goal = np.array([2 * np.pi, 0.0])
        ctrl = pendulum_energy_controller(0.1, 1.0, 9.81, u_pump=self.u_pump, u_catch=0.15)

        def near_upright(x):
            dth = x[0] - 2 * np.pi * round(x[0] / (2 * np.pi))
            return abs(dth) < 0.015 and abs(x[1]) < 0.03

        wps = planner.controlled_waypoints(model, origin, ctrl, hop=2 * T,
                                           max_hops=400, stop=near_upright)
        bounds = (np.array([-0.5, -7.0]), np.array([2 * np.pi + 0.5, 7.0]))
        # Uniform samples are pinned (seed 11); the run seed jitters them.
        verts = planner.sample_vertices(bounds, self.samples, seed=11,
                                        include=[origin] + list(wps[1:]) + [goal])
        verts[: self.samples] += _jitter(seed, (self.samples, 2), self.jitter)
        return {"seed": seed, "model": model, "cert": cert, "cs": cs, "T": T,
                "vertices": verts, "start": self.samples, "goal": verts.shape[0] - 1}

    def make_spec(self, state) -> ReachSpec:
        return ReachSpec(state["model"], state["cert"], state["cs"], order=3,
                         horizon=state["T"], refinement=self.refinement,
                         reference_policy="drift", q_gamma_bound=70.0)


class Dint4dFixed(PlanningWorkload):
    """4-D double integrator under the fixed policy: LP-bound edge tests."""

    name = "dint4d-fixed"

    def __init__(self, smoke: bool = False):
        self.count = 4 if smoke else 5
        # Start and goal in the pinned vertex set; at full size the
        # shortest path between them needs two edges.
        self.start, self.goal = (0, 1) if smoke else (3, 2)
        self.refinement = 1
        self.jitter = 0.01

    def sizes(self) -> dict:
        return {"refinement": self.refinement, "vertices": self.count,
                "jitter": self.jitter, "horizon": 1.0}

    def setup(self, seed: int) -> dict:
        model = integrator_chain(2, 2)
        cert = TrackingCertificate(0.01, 0.0, 1.0, 1.0, 1.0)
        cs = ConstraintSet(np.vstack([np.eye(4), -np.eye(4)]), np.ones(8), u_max=2.0)
        # Vertices are pinned (seed 3); the run seed jitters them.
        verts = planner.sample_vertices((-0.5 * np.ones(4), 0.5 * np.ones(4)),
                                        self.count, seed=3)
        verts += _jitter(seed, verts.shape, self.jitter)
        return {"seed": seed, "model": model, "cert": cert, "cs": cs,
                "vertices": verts, "start": self.start, "goal": self.goal}

    def make_spec(self, state) -> ReachSpec:
        return ReachSpec(state["model"], state["cert"], state["cs"], order=3,
                         horizon=1.0, refinement=self.refinement,
                         reference_policy="fixed", x_ref=np.zeros(4),
                         q_gamma_bound=10.0)


def _ray_point(F, G, v0, direction, frac):
    slack = G - F @ v0
    Fd = F @ direction
    pos = Fd > 1e-12
    return v0 + frac * np.min(slack[pos] / Fd[pos]) * direction


class SweepFixed:
    """Disturbed soundness sweep: certified single-segment curves rolled
    out under several disturbance seeds, plus a falsification control.
    Each operation re-certifies and rolls out one curve, cycling through
    the curves, so a run holds many short operations."""

    name = "sweep-fixed"
    refinement = 4

    def __init__(self, smoke: bool = False):
        self.curves = 2 if smoke else 10
        self.disturbance_seeds = 2 if smoke else 5

    def sizes(self) -> dict:
        return {"refinement": self.refinement, "curves": self.curves,
                "disturbance_seeds": self.disturbance_seeds, "horizon": 0.3}

    @property
    def rollouts_per_op(self) -> int:
        return self.disturbance_seeds + 1

    def setup(self, seed: int) -> dict:
        model = pendulum_model(0.1, 1.0, 9.81)
        cert = TrackingCertificate(0.01, 0.0, 1.0, 1.0, 1.0)
        cs = ConstraintSet(BOX_C, PEND_D, u_max=5.0)
        tight = ConstraintSet(BOX_C, np.array([np.pi + 0.4, -(np.pi - 0.4), 2.5, 2.5]),
                              u_max=5.0)
        dirs = np.random.default_rng(seed).normal(size=(self.curves, 4))
        return {"seed": seed, "model": model, "cert": cert, "cs": cs, "tight": tight,
                "dirs": dirs}

    def _spec(self, state, cs) -> ReachSpec:
        return ReachSpec(state["model"], state["cert"], cs, order=3, horizon=0.3,
                         refinement=self.refinement, reference_policy="fixed",
                         x_ref=np.array([np.pi, 0.0]), q_gamma_bound=70.0)

    def op(self, state, i: int) -> OpOut:
        """Certify the curves, then roll out curve i (cycling) under each
        disturbance seed, and the falsification control."""
        T = 0.3
        v0 = np.full(4, np.pi)  # hold curve at the hanging equilibrium
        t0 = time.perf_counter()
        cpoly = self._spec(state, state["cs"]).certificate(np.zeros(2))
        points = np.array([_ray_point(cpoly.F, cpoly.G, v0, d, 0.9) for d in state["dirs"]])
        tpoly = self._spec(state, state["tight"]).certificate(np.zeros(2))
        control = _ray_point(tpoly.F, tpoly.G, v0, np.ones(4), 0.999)
        out = OpOut(time.perf_counter() - t0, len(points), key=i % self.curves)

        v = points[out.key]
        traj = planner.PlannedTrajectory([BezierCurve(T, v[None, :].copy())], gamma=2)
        reports = []
        for s in range(self.disturbance_seeds):
            res = _timed_rollout(out, state["model"], traj, state["cs"], state["cert"],
                                 disturbance="worst" if s == 0 else "random", seed=s)
            reports.append((res.violation, sim.monitor(res, state["cs"]).passed))
        # Falsification control: a tight box and a 10x disturbance must
        # trip the monitor, which shows the check is live.
        traj = planner.PlannedTrajectory([BezierCurve(T, control[None, :].copy())], gamma=2)
        res = _timed_rollout(out, state["model"], traj, state["tight"], state["cert"],
                             disturbance="worst", seed=0, disturbance_scale=10.0)
        control_report = (res.violation, sim.monitor(res, state["tight"]).passed)
        out.artifacts = {"cpoly": cpoly, "points": points, "v0": v0,
                         "reports": reports, "control": control_report}
        return out

    def check(self, state, out: OpOut):
        a = out.artifacts
        cpoly = a["cpoly"]
        failed = int(not np.all(cpoly.F @ a["v0"] <= cpoly.G - 1e-9))
        failed += sum(not cpoly.accepts(v[None, :]) for v in a["points"])
        failed += sum(violation or not passed for violation, passed in a["reports"])
        violation, passed = a["control"]
        failed += not (violation and not passed)
        attempted = 1 + len(a["points"]) + len(a["reports"]) + 1
        digest = {"curves": _digest(a["points"]),
                  "violations": sum(v for v, _ in a["reports"])}
        return attempted, failed, digest


WORKLOADS = {cls.name: cls for cls in (SwingupDrift, Dint4dFixed, SweepFixed)}
