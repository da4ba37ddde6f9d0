#!/usr/bin/env python3
"""bezreach benchmark: one pinned workload per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop with one caller: one process, one thread, BLAS pinned to one
thread.  The run sets up the inputs several times (reporting the median
as `setup_s`), then repeats the workload's operation until `--seconds`
is spent, checking every operation's outputs outside the timed region.
With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
alternates untraced and traced operations and prints the per-layer
metrics, writing the spans to `.bench_out/`.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"};
the line before it is the run record.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("swingup-drift", "dint4d-fixed", "sweep-fixed")

# name -> unit; BENCHMARK.json lists the same names (selftest checks it).
END_TO_END = {
    "setup_s": "s",
    "plan_s": "s",
    "edges_certified": "count",
    "rollout_steps_per_s": "steps/s",
    "rollout_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

_CALLS_SELF = [
    "reachability.references", "reachability.certificate_for",
    "reachability.forward_polytope", "reachability.backward_polytope",
    "reachability.curve_between", "constraints.lift_rows", "constraints.sigma_box",
    "constraints.refined_polytope", "constraints.control_point_polytope",
    "lp.reduce_2d", "lp.bounding_box", "lp.maximize", "lp.feasible",
    "sim.rollout", "sim.tracker_input", "sim.monitor",
    "models.drift_field", "models.state_derivative", "models.flat_input",
    "bezier.solve_boundary",
]
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in
       ("bench", "bezier", "models", "constraints", "lp", "reachability", "planner", "sim")},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.unaccounted_frac": "fraction",
    "trace.crosscheck_failed": "count",
    **{f"{fn}.{stat}": unit for fn in _CALLS_SELF
       for stat, unit in (("calls", "count"), ("self_s", "s"))},
    **{f"{fn}.{q}_ms": "ms" for fn in
       ("reachability.forward_polytope", "reachability.backward_polytope",
        "lp.feasible", "sim.rollout") for q in ("p50", "p90")},
    "reachability.certificate.calls": "count",
    "reachability.certificate.hit_frac": "fraction",
    "constraints.F_rows": "rows",
    "lp.reduce_2d.rows_kept_frac": "fraction",
    "lp.feasible.nonempty_frac": "fraction",
    "lp.rows_per_call": "rows",
    "planner.build_graph.self_s": "s",
    "planner.search.self_s": "s",
    "planner.extract_trajectory.self_s": "s",
    "planner.controlled_waypoints.self_s": "s",
    "planner.pairs": "count",
    "planner.edges": "count",
    "planner.path_edges": "count",
    "planner.tier.vertex": "count",
    "planner.tier.midpoint": "count",
    "planner.tier.bbox_rejected": "count",
    "planner.tier.lp_feasible": "count",
    "planner.tier.lp_empty": "count",
    "sim.rollout.steps": "count",
}

SETUP_MIN_REPS = 3
SETUP_MIN_S = 0.5
SETUP_MAX_REPS = 200


class BenchError(RuntimeError):
    """The benchmark cannot run or its own checks broke."""


def _median(xs):
    return float(statistics.median(xs))


def _percentile(xs, q):
    import numpy as np

    return float(np.percentile(np.asarray(xs, dtype=float), q))


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _setup(wl, seed):
    """Repeat set-up; return the last state and every duration."""
    times, state = [], None
    while len(times) < SETUP_MIN_REPS or (sum(times) < SETUP_MIN_S
                                          and len(times) < SETUP_MAX_REPS):
        t0 = time.perf_counter()
        state = wl.setup(seed)
        times.append(time.perf_counter() - t0)
    return state, times


class Tally:
    """Correctness-gate totals and the first operation's digest."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests: dict = {}
        self.errors: list[str] = []

    def gate(self, wl, state, out):
        attempted, failed, digest = wl.check(state, out)
        self.attempted += attempted + 1
        self.failed += failed
        # Same inputs, same outputs: an operation must repeat the first
        # one that ran on its inputs.
        self.failed += self.digests.setdefault(out.key, digest) != digest

    def error(self, exc):
        self.attempted += 1
        self.failed += 1
        self.errors.append(f"{type(exc).__name__}: {exc}")


def _loop(seconds, step):
    """Call step() until the next call would end after `seconds`."""
    start = time.perf_counter()
    walls = []
    while True:
        t0 = time.perf_counter()
        step(len(walls))
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - start + _median(walls[-2:]) > seconds:
            return walls


def run_untraced(wl, seed, seconds):
    from workloads import OP_ERRORS

    state, setups = _setup(wl, seed)
    tally = Tally()
    outs = []

    def step(i):
        try:
            out = wl.op(state, i)
        except OP_ERRORS as exc:
            tally.error(exc)
            return
        tally.gate(wl, state, out)
        out.artifacts = None
        outs.append(out)

    _loop(seconds, step)
    if not outs:
        raise BenchError(f"every operation failed: {tally.errors[:3]}")
    rollouts = [t for o in outs for t in o.rollout_s]
    values = {
        "setup_s": _median(setups),
        "plan_s": _median([o.plan_s for o in outs]),
        "edges_certified": _median([o.certified for o in outs]),
        "rollout_steps_per_s": _median([o.rollout_steps / sum(o.rollout_s) for o in outs]),
        "rollout_p50_ms": 1e3 * _percentile(rollouts, 50),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    record = {"setup_reps": len(setups), "ops": len(outs), "rollouts": len(rollouts),
              "plan_s": [o.plan_s for o in outs], "rollout_s": rollouts}
    return values, tally, record


def run_traced(wl, seed, seconds, spans_path=None):
    import spans
    from workloads import OP_ERRORS

    tracer = spans.Tracer()
    tally = Tally()
    walls = {"traced": [], "untraced": [], "outside": []}

    def traced(name, fn):
        tracer.install()
        try:
            t0 = time.perf_counter()
            with tracer.root(name):
                res = fn()
            walls["outside"].append(time.perf_counter() - t0)
        finally:
            tracer.remove()
        return res

    state = traced("bench.setup", lambda: wl.setup(seed))

    def step(i):
        # Alternate untraced and traced operations on the same inputs.
        if i % 2 == 0:
            left = spans.wrappers_present()
            if left:
                raise BenchError(f"wrappers left installed: {left}")
        t0 = time.perf_counter()
        try:
            out = wl.op(state, i) if i % 2 == 0 else traced("bench.op", lambda: wl.op(state, i))
        except OP_ERRORS as exc:
            tally.error(exc)
            return
        walls["untraced" if i % 2 == 0 else "traced"].append(time.perf_counter() - t0)
        tally.gate(wl, state, out)

    _loop(seconds, step)
    if len(walls["traced"]) == 0:  # the loop ended after one untraced op
        step(1)
    if not walls["traced"] or not walls["untraced"]:
        raise BenchError(f"no successful traced/untraced pair: {tally.errors[:3]}")
    if spans_path is not None:
        tracer.write(spans_path)
    values, checks = layer_metrics(tracer, wl, state, walls)
    record = {"ops_traced": len(walls["traced"]), "ops_untraced": len(walls["untraced"]),
              "crosschecks": checks, "missing_targets": tracer.missing}
    return values, tally, record


def layer_metrics(tracer, wl, state, walls):
    """Per-layer values: the traced set-up plus the mean traced operation."""
    import spans

    setup = [r for r in tracer.roots if r["name"] == "bench.setup"]
    ops = [r for r in tracer.roots if r["name"] == "bench.op"]

    def per_root(r):
        v = dict(r["counts"])
        for name, (calls, self_s) in r["stats"].items():
            v[f"{name}.calls"] = calls
            v[f"{name}.self_s"] = self_s
            layer = name.split(".", 1)[0]
            v[f"{layer}.self_s"] = v.get(f"{layer}.self_s", 0.0) + self_s
        return v

    def combine(rows_setup, rows_ops):
        keys = set().union(*rows_setup, *rows_ops)
        return {k: sum(r.get(k, 0) for r in rows_setup)
                + sum(r.get(k, 0) for r in rows_ops) / len(rows_ops) for k in keys}

    op_rows = [per_root(r) for r in ops]
    agg = combine([per_root(r) for r in setup], op_rows)

    def ratio(a, b):
        return agg.get(a, 0) / agg[b] if agg.get(b) else 0.0

    agg["reachability.certificate.hit_frac"] = 1.0 - ratio(
        "reachability.certificate_for.calls", "reachability.certificate.calls") \
        if agg.get("reachability.certificate.calls") else 0.0
    agg["constraints.F_rows"] = ratio("constraints.F_rows_total",
                                      "reachability.certificate_for.calls")
    agg["lp.reduce_2d.rows_kept_frac"] = ratio("lp.reduce_2d.rows_out", "lp.reduce_2d.rows_in")
    agg["lp.feasible.nonempty_frac"] = ratio("lp.feasible.nonempty", "lp.feasible.calls")
    agg["lp.rows_per_call"] = ratio("lp.rows", "lp.lp_calls")
    agg["planner.tier.bbox_rejected"] = (agg.get("planner.pairs", 0) - agg.get("planner.edges", 0)
                                         - agg.get("planner.tier.lp_empty", 0))
    for name in spans.LATENCY:
        samples = [d for r in ops for d in r["latency"].get(name, [])]
        agg[f"{name}.p50_ms"] = 1e3 * _percentile(samples, 50) if samples else 0.0
        agg[f"{name}.p90_ms"] = 1e3 * _percentile(samples, 90) if samples else 0.0

    root_walls = [r["wall_s"] for r in tracer.roots]
    self_sum = [sum(s for _, s in r["stats"].values()) for r in tracer.roots]
    agg["trace.wall_s"] = combine([{"w": r["wall_s"]} for r in setup],
                                  [{"w": r["wall_s"]} for r in ops])["w"]
    agg["trace.overhead_s"] = _median(walls["traced"]) - _median(walls["untraced"])
    agg["trace.overhead_frac"] = agg["trace.overhead_s"] / _median(walls["untraced"])
    agg["trace.unaccounted_frac"] = (sum(walls["outside"]) - sum(self_sum)) / sum(walls["outside"])

    checks = crosschecks(wl, state, op_rows, root_walls, self_sum)
    agg["trace.crosscheck_failed"] = sum(not ok for ok in checks.values())
    # A target missing from the library reports its metrics as missing;
    # a target present but never called on this workload reads 0.
    gone = tuple(f"{mod.rsplit('.', 1)[-1]}.{attr.rsplit('.', 1)[-1]}."
                 for mod, attr in (m.rsplit(".", 1) for m in tracer.missing))
    values = {name: float(agg.get(name, 0.0)) for name in PER_LAYER
              if not name.startswith(gone)}
    return values, checks


def crosschecks(wl, state, op_rows, root_walls, self_sum):
    """Exact identities the traced counts must satisfy, per operation."""
    checks = {}
    for i, v in enumerate(op_rows):
        def n(key):
            return v.get(key, 0)

        checks[f"op{i}.lift_rows=k*certificate_for"] = \
            n("constraints.lift_rows.calls") == wl.refinement * n("reachability.certificate_for.calls")
        if "vertices" in state:
            V = len(state["vertices"])
            tiers = sum(n(f"planner.tier.{t}") for t in ("vertex", "midpoint", "lp_feasible"))
            checks[f"op{i}.tiers=edges"] = tiers == n("planner.edges")
            checks[f"op{i}.pairs=V^2"] = n("planner.pairs") == V * V
            checks[f"op{i}.rollout.calls=1"] = n("sim.rollout.calls") == 1
        else:
            checks[f"op{i}.rollout.calls={wl.rollouts_per_op}"] = \
                n("sim.rollout.calls") == wl.rollouts_per_op
    checks["self_time_sums_to_wall"] = all(
        abs(w - s) <= 1e-9 * max(w, 1.0) for w, s in zip(root_walls, self_sum))
    return checks


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
        spans_dir: Path | None = None):
    """Run one workload; return (result line, run record)."""
    import numpy as np

    import workloads

    wl = workloads.WORKLOADS[workload](smoke=smoke)
    if trace:
        path = None if spans_dir is None else spans_dir / f"spans-{workload}-seed{seed}.json"
        values, tally, extra = run_traced(wl, seed, seconds, path)
        units = PER_LAYER
    else:
        values, tally, extra = run_untraced(wl, seed, seconds)
        units = END_TO_END
    missing = [n for n in units if n not in values]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "git_sha": _git_sha(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "sizes": wl.sizes(), "digests": tally.digests, "errors": tally.errors[:5],
        "missing_metrics": missing, **extra,
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units if n in values},
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in BLAS_ENV:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "bezreach" / "__init__.py").is_file():
        print(f"bench: no bezreach sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bezreach

    if not Path(bezreach.__file__).resolve().is_relative_to(src.resolve()):
        print(f"bench: imported bezreach from {bezreach.__file__}, not {src}", file=sys.stderr)
        return 2
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace),
                         spans_dir=ROOT / ".bench_out")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
