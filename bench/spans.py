"""Traced run: timing wrappers around the calls into each bezreach layer.

A wrapper is installed at the name each caller looks up: module
attributes for `lp.*` and for functions that other modules import by
name (`reachability.lift_rows`, `sim.flat_input`, ...), class attributes
for `ReachSpec` and `PlanningModel` methods.  Every call opens a frame on
a stack; on return its self time (duration minus the time of calls made
inside it) is added to its name.  Calls are kept as spans with their
parent, except the per-step leaves in HOT, which are only counted.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

# (module, attribute) pairs; "Class.method" wraps the method on the class.
TARGETS = [
    ("bezreach.lp", "feasible"),
    ("bezreach.lp", "maximize"),
    ("bezreach.lp", "bounding_box"),
    ("bezreach.lp", "reduce_2d"),
    ("bezreach.lp", "Polytope.contains"),
    ("bezreach.lp", "Polytope.intersect"),
    ("bezreach.reachability", "ReachSpec.references"),
    ("bezreach.reachability", "ReachSpec.certificate_for"),
    ("bezreach.reachability", "ReachSpec.certificate"),
    ("bezreach.reachability", "ReachSpec.forward_polytope"),
    ("bezreach.reachability", "ReachSpec.backward_polytope"),
    ("bezreach.reachability", "ReachSpec.curve_between"),
    ("bezreach.reachability", "input_bound_row"),
    ("bezreach.reachability", "state_bound_rows"),
    ("bezreach.reachability", "sigma_box"),
    ("bezreach.reachability", "lift_rows"),
    ("bezreach.reachability", "control_point_polytope"),
    ("bezreach.reachability", "refined_polytope"),
    ("bezreach.reachability", "boundary_matrix"),
    ("bezreach.reachability", "vectorization_maps"),
    ("bezreach.reachability", "solve_boundary"),
    ("bezreach.constraints", "CertificatePolytope.accepts"),
    ("bezreach.constraints", "split_matrices"),
    ("bezreach.constraints", "stacked_derivative_vec"),
    ("bezreach.models", "PlanningModel.drift_field"),
    ("bezreach.models", "PlanningModel.state_derivative"),
    ("bezreach.planner", "controlled_waypoints"),
    ("bezreach.planner", "sample_vertices"),
    ("bezreach.planner", "build_graph"),
    ("bezreach.planner", "search"),
    ("bezreach.planner", "extract_trajectory"),
    ("bezreach.planner", "derivative_map"),
    ("bezreach.planner", "state_matrix"),
    ("bezreach.planner", "PlannedTrajectory.sample_states"),
    ("bezreach.planner", "PlannedTrajectory.sample_q_gamma"),
    ("bezreach.sim", "rollout"),
    ("bezreach.sim", "monitor"),
    ("bezreach.sim", "tracker_input"),
    ("bezreach.sim", "flat_input"),
]

# Called once per RK4 stage or rollout step: counted, not kept as spans.
HOT = {"models.drift_field", "models.state_derivative", "models.flat_input",
       "sim.tracker_input"}

# Spans whose per-call latency is reported as p50/p90.
LATENCY = ("reachability.forward_polytope", "reachability.backward_polytope",
           "lp.feasible", "sim.rollout")

LAYERS = ("bench", "bezier", "models", "constraints", "lp", "reachability",
          "planner", "sim")


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


# -- probes: counters read from a call's arguments and result -------------------


def _probe_reduce_2d(c, parent, args, kwargs, res):
    c["lp.reduce_2d.rows_in"] += args[0].A.shape[0]
    c["lp.reduce_2d.rows_out"] += res.A.shape[0]


def _probe_lp(c, parent, args, kwargs, res):
    c["lp.rows"] += args[0].A.shape[0]
    c["lp.lp_calls"] += 1


def _probe_feasible(c, parent, args, kwargs, res):
    _probe_lp(c, parent, args, kwargs, res)
    c["lp.feasible.nonempty"] += res is not None
    if parent == "planner.build_graph":
        c["planner.tier.lp_feasible" if res is not None else "planner.tier.lp_empty"] += 1


def _probe_certificate_for(c, parent, args, kwargs, res):
    c["constraints.F_rows_total"] += res.F.shape[0]


def _probe_rollout(c, parent, args, kwargs, res):
    c["sim.rollout.steps"] += res.t.size - 1


def _probe_build_graph(c, parent, args, kwargs, res):
    """Edge tiers from the graph: a witness equal to a vertex is the
    vertex tier, equal to the pair midpoint the midpoint tier."""
    V = res.vertices
    c["planner.pairs"] += V.shape[0] ** 2
    c["planner.edges"] += len(res.edges)
    for (i, j), w in res.edges.items():
        if np.any(np.all(V == w, axis=1)):
            c["planner.tier.vertex"] += 1
        elif np.array_equal(w, 0.5 * (V[i] + V[j])):
            c["planner.tier.midpoint"] += 1


def _probe_search(c, parent, args, kwargs, res):
    c["planner.path_edges"] += len(res) - 1


PROBES = {
    "lp.reduce_2d": _probe_reduce_2d,
    "lp.feasible": _probe_feasible,
    "lp.maximize": _probe_lp,
    "reachability.certificate_for": _probe_certificate_for,
    "sim.rollout": _probe_rollout,
    "planner.build_graph": _probe_build_graph,
    "planner.search": _probe_search,
}


class Tracer:
    """Span recorder with per-root statistics.

    Each root (`with tracer.root("bench.op")`) collects, per span name,
    the number of calls and the self time, plus probe counters.  Spans
    are rows [name, parent index, start, end] in `spans`.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.roots: list[dict] = []
        self.missing: list[str] = []
        self._patched: list[tuple] = []
        self._stack: list[list] = []  # frames: [name id, span index, child time]
        self._stats = None
        self._counts = None

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn):
        name = _span_name(fn)
        nid = self._id(name)
        hot = name in HOT
        probe = PROBES.get(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:  # outside a root: not traced
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [nid, parent[1] if hot else len(spans), 0.0]
            if not hot:
                spans.append([nid, parent[1], 0.0, 0.0])
            stack.append(frame)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[2] += dur
                st = self._stats[nid]
                st[0] += 1
                st[1] += dur - frame[2]
                if not hot:
                    span = spans[frame[1]]
                    span[2] = t0
                    span[3] = t1
            if probe is not None:
                probe(self._counts, self.names[parent[0]], args, kwargs, res)
            return res

        wrapper.bench_wrapper = True
        return wrapper

    def install(self):
        for modname, attr in TARGETS:
            module = importlib.import_module(modname)
            owner = module
            parts = attr.split(".")
            try:
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                original = owner.__dict__[parts[-1]] if isinstance(owner, type) \
                    else getattr(owner, parts[-1])
            except (AttributeError, KeyError):
                if f"{modname}.{attr}" not in self.missing:
                    self.missing.append(f"{modname}.{attr}")
                continue
            setattr(owner, parts[-1], self._wrap(original))
            self._patched.append((owner, parts[-1], original))

    def remove(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- roots ------------------------------------------------------------

    def root(self, name: str):
        return _Root(self, name)

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"names": self.names, "columns": ["name", "parent", "start", "end"],
               "spans": self.spans}
        path.write_text(json.dumps(doc))


def wrappers_present() -> list[str]:
    """Targets that still hold a benchmark wrapper."""
    found = []
    for modname, attr in TARGETS:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if getattr(owner, "bench_wrapper", False):
            found.append(f"{modname}.{attr}")
    return found


class _Root:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.nid = tracer._id(name)

    def __enter__(self):
        tr = self.tracer
        tr._stats = defaultdict(lambda: [0, 0.0])
        tr._counts = Counter()
        self.index = len(tr.spans)
        tr.spans.append([self.nid, -1, 0.0, 0.0])
        tr._stack.append([self.nid, self.index, 0.0])
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        tr = self.tracer
        frame = tr._stack.pop()
        dur = t1 - self.t0
        tr.spans[self.index][2:] = [self.t0, t1]
        stats = {tr.names[k]: tuple(v) for k, v in tr._stats.items()}
        stats[tr.names[self.nid]] = (1, dur - frame[2])
        latency = defaultdict(list)
        wanted = {tr._ids[n] for n in LATENCY if n in tr._ids}
        for nid, _, s0, s1 in tr.spans[self.index + 1:]:
            if nid in wanted:
                latency[tr.names[nid]].append(s1 - s0)
        tr.roots.append({"name": tr.names[self.nid], "wall_s": dur, "stats": stats,
                         "counts": dict(tr._counts), "latency": dict(latency)})
        return False
