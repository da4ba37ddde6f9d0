"""Command-line orchestration: matrices | reach | plan | simulate.

Runs are driven by a JSON config and emit deterministic CSV/JSON/SVG
artifacts plus a metadata.json (config echo, seeds, artifact hashes)
sufficient to reproduce the run.  Wall-clock numbers go to a separate
timing.json, the one intentionally non-reproducible file.

Exit codes: 0 success, 2 config error, 3 planning infeasible,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import artifacts, lp
from .bezier import (
    BoundaryRankError,
    boundary_matrix,
    derivative_map,
    diff_matrix,
    elevation_matrix,
    split_matrices,
    vectorization_maps,
)
from .constraints import InfeasibleCertificateError, InfeasibleReductionError
from .lp import IterationLimitError, WitnessError
from .models import (
    ConstraintSet,
    SingularActuationError,
    TrackingCertificate,
    integrator_chain,
    pendulum_energy_controller,
    pendulum_model,
)
from .planner import (
    InternalInconsistencyError,
    PlannedTrajectory,
    UnreachableGoalError,
    build_graph,
    controlled_waypoints,
    extract_trajectory,
    sample_vertices,
    search,
)
from .reachability import ReachSpec, sample_cloud
from .sim import DivergenceError, feedback_gain, monitor, rollout

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERIC = 4


class ConfigError(ValueError):
    """Invalid or missing config entry, reported with its field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


_SENTINEL = object()


def _get(cfg: dict, path: str, kind=None, default=_SENTINEL):
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if default is not _SENTINEL:
                return default
            raise ConfigError(path, "missing required field")
        node = node[part]
    if kind is not None and not isinstance(node, kind):
        names = kind if isinstance(kind, type) else kind[0]
        raise ConfigError(path, f"expected {names.__name__}, got {type(node).__name__}")
    return node


def _number(cfg, path, default=_SENTINEL):
    v = _get(cfg, path, default=default)
    if v is None and default is None:
        return v
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(path, "expected a number")
    try:
        x = float(v)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(path, f"{path.rsplit('.', 1)[-1]}={x} must be finite")
    return x


def _integer(cfg, path, default=_SENTINEL):
    """A whole number, read exactly: a JSON integer stays as it is (a large
    one is not rounded through a float), and a float must be integral."""
    v = _get(cfg, path, default=default)
    if isinstance(v, bool) or not (isinstance(v, int) or isinstance(v, float) and v.is_integer()):
        raise ConfigError(path, f"expected an integer, got {v!r}")
    return int(v)


def _has_bool(v) -> bool:
    """Whether a JSON value holds a boolean anywhere in its nested lists
    (NumPy would read it as 0 or 1)."""
    return isinstance(v, bool) or (isinstance(v, list) and any(map(_has_bool, v)))


def _vector(cfg, path, default=_SENTINEL):
    v = _get(cfg, path, default=default)
    if v is default and default is not _SENTINEL:
        return v
    if _has_bool(v):
        raise ConfigError(path, "expected a numeric array, got a boolean entry")
    try:
        arr = np.asarray(v, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(path, "expected a numeric array") from None
    if not np.isfinite(arr).all():
        raise ConfigError(path, "entries must be finite")
    return arr


def _pendulum_params(cfg: dict) -> tuple[float, float, float]:
    """(mass, length, gravity) of a pendulum `model` block."""
    return (_number(cfg, "model.mass"), _number(cfg, "model.length"),
            _number(cfg, "model.gravity", 9.81))


def build_model(cfg: dict):
    kind = _get(cfg, "model.kind", str)
    if kind == "pendulum":
        return pendulum_model(*_pendulum_params(cfg))
    if kind == "integrator":
        return integrator_chain(_integer(cfg, "model.gamma"), _integer(cfg, "model.m"))
    raise ConfigError("model.kind", f"unknown model kind {kind!r}")


def _build(section: str, factory, *args, **kwargs):
    """factory(*args, **kwargs), its ValueError a config error on `section`."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(section, str(exc)) from exc


def build_certificate(cfg: dict) -> TrackingCertificate:
    return _build(
        "certificate", TrackingCertificate,
        e0=_number(cfg, "certificate.e0"),
        lipschitz_e=_number(cfg, "certificate.lipschitz_e", 0.0),
        lipschitz_pi=_number(cfg, "certificate.lipschitz_pi", 1.0),
        lipschitz_psi=_number(cfg, "certificate.lipschitz_psi", 1.0),
        lipschitz_k=_number(cfg, "certificate.lipschitz_k", 1.0),
    )


def build_constraints(cfg: dict) -> ConstraintSet:
    C = _vector(cfg, "constraints.C")
    d = _vector(cfg, "constraints.d")
    if "W" in cfg["constraints"]:
        raise ConfigError("constraints.W", "option removed; the input bound is "
                          "max_j |u_j| <= u_max")
    return _build("constraints", ConstraintSet, C, d, u_max=_number(cfg, "constraints.u_max"))


def build_spec(cfg: dict, model, cert, cs) -> ReachSpec:
    return _build(
        "curve", ReachSpec, model=model, cert=cert, cs=cs,
        order=_integer(cfg, "curve.order"),
        horizon=_number(cfg, "curve.horizon"),
        refinement=_integer(cfg, "curve.refinement", 1),
        reference_policy=_get(cfg, "curve.reference_policy", str, "fixed"),
        x_ref=_vector(cfg, "curve.x_ref", None),
        q_gamma_bound=_number(cfg, "curve.q_gamma_bound", None),
    )


def _finish(out: Path, cfg: dict, command: str, seed, files: list[str], t0: float, extra=None):
    timing = {"command": command, "wall_seconds": time.perf_counter() - t0}
    artifacts.write_json(out / "timing.json", timing)
    meta = {
        "command": command,
        "config": cfg,
        "seed": seed,
        "artifacts": {name: artifacts.sha256_file(out / name) for name in sorted(files)},
    }
    if extra:
        meta.update(extra)
    artifacts.write_json(out / "metadata.json", meta)


def _gains(cfg: dict, model, cs, cert) -> dict:
    """The config's kp and kd, refused unless their feedback gain over C_X
    fits the certificate's L_k, with which the input row charges it."""
    kp = _number(cfg, "sim.gains.kp", 0.5)
    kd = _number(cfg, "sim.gains.kd", 0.5)
    gain = feedback_gain(model, cs, kp, kd)
    if not gain <= cert.lipschitz_k:
        raise ConfigError("sim.gains", f"kp={kp}, kd={kd} give the tracker a feedback "
                          f"gain of {gain} over C_X, above certificate.lipschitz_k="
                          f"{cert.lipschitz_k}")
    return {"kp": kp, "kd": kd}


def _rollout(cfg: dict, model, traj, cs, cert, seed: int, gains: dict):
    """Roll out a trajectory under the config's `sim` block."""
    return rollout(
        model, traj, cs, cert, **gains,
        disturbance=_get(cfg, "sim.disturbance", str, "zero"),
        seed=seed,
        disturbance_scale=_number(cfg, "sim.disturbance_scale", 1.0),
        dt=_number(cfg, "sim.dt", None),
    )


def _write_rollout_csv(out: Path, model, res) -> None:
    artifacts.write_csv(
        out / "rollout.csv",
        ["t"] + [f"x{i}" for i in range(model.n)] + [f"u{j}" for j in range(model.m)]
        + ["state_margin", "input_margin"],
        np.column_stack([res.t, res.x_cl.T, res.u.T, res.state_margin, res.input_margin]),
    )


def _write_summary(out: Path, report, **extra) -> None:
    """summary.json: the monitor verdict plus the command's own keys."""
    artifacts.write_json(out / "summary.json", {
        "monitor_passed": report.passed,
        "min_state_margin": report.min_state_margin,
        "min_input_margin": report.min_input_margin,
        **extra,
    })


def cmd_matrices(cfg: dict, out: Path, seed: int) -> int:
    t0 = time.perf_counter()
    model = build_model(cfg)
    p = _integer(cfg, "curve.order")
    T = _number(cfg, "curve.horizon")
    k = _integer(cfg, "curve.refinement", 1)
    files = []

    def emit(name, M):
        artifacts.write_matrix_csv(out / name, M)
        files.append(name)

    emit("S.csv", diff_matrix(p, T))
    emit("E.csv", elevation_matrix(p))
    emit("H.csv", derivative_map(p, T))
    emit("D.csv", boundary_matrix(p, model.gamma, T))
    for i, Q in enumerate(split_matrices(p, k), start=1):
        emit(f"Q_{i}.csv", Q)
    maps = vectorization_maps(p, model.gamma, model.m, T)
    emit("H_vec.csv", maps.H_vec)
    emit("D_vec.csv", maps.D_vec)
    _finish(out, cfg, "matrices", seed, files, t0)
    return EXIT_OK


def cmd_reach(cfg: dict, out: Path, seed: int) -> int:
    t0 = time.perf_counter()
    model = build_model(cfg)
    cert = build_certificate(cfg)
    cs = build_constraints(cfg)
    spec = build_spec(cfg, model, cert, cs)
    direction = _get(cfg, "reach.direction", str, "forward")
    if direction not in ("forward", "backward"):
        raise ConfigError("reach.direction", "must be 'forward' or 'backward'")
    anchor = _vector(cfg, "reach.anchor")
    count = _integer(cfg, "reach.samples", 500)
    poly = (
        spec.forward_polytope(anchor)
        if direction == "forward"
        else spec.backward_polytope(anchor)
    )
    files = ["polytope.txt", "cloud.csv"]
    lines = [
        " ".join(artifacts.fmt(v) for v in row) + " <= " + artifacts.fmt(rhs)
        for row, rhs in zip(poly.A, poly.b)
    ]
    (out / "polytope.txt").write_text("\n".join(lines) + "\n")
    pts, ratio = sample_cloud(poly, count, seed=seed)
    artifacts.write_csv(out / "cloud.csv", [f"x{i}" for i in range(poly.dim)], pts)
    if poly.dim == 2:
        artifacts.write_scatter_svg(out / "cloud.svg", pts)
        files.append("cloud.svg")
    _finish(
        out, cfg, "reach", seed, files, t0,
        extra={"empty": lp.bounding_box(poly) is None, "accept_ratio": ratio},
    )
    return EXIT_OK


def _planner_vertices(cfg: dict, model, seed: int):
    lo = _vector(cfg, "planner.bounds.lo")
    hi = _vector(cfg, "planner.bounds.hi")
    count = _integer(cfg, "planner.count")
    start = _vector(cfg, "planner.start")
    goal = _vector(cfg, "planner.goal")
    include = [start]
    wp_cfg = _get(cfg, "planner.waypoints", default=None)
    if wp_cfg is not None:
        kind = _get(cfg, "planner.waypoints.kind", str)
        if kind == "pendulum-energy":
            if model.name != "pendulum":
                raise ConfigError("planner.waypoints.kind",
                                  "pendulum-energy waypoints need model.kind 'pendulum'")
            ctrl = pendulum_energy_controller(
                *_pendulum_params(cfg),
                u_pump=_number(cfg, "planner.waypoints.u_pump"),
                u_catch=_number(cfg, "planner.waypoints.u_catch"),
            )
            two_pi = 2.0 * np.pi

            def near_upright(x):
                dth = x[0] - two_pi * round(x[0] / two_pi)
                return abs(dth) < 0.015 and abs(x[1]) < 0.03

            hop = 2.0 * _number(cfg, "curve.horizon")
            wps = controlled_waypoints(
                model, start, ctrl, hop,
                max_hops=_integer(cfg, "planner.waypoints.max_hops", 400),
                stop=near_upright,
            )
            include.extend(list(wps[1:]))
        elif kind == "explicit":
            include.extend(list(_vector(cfg, "planner.waypoints.points")))
        else:
            raise ConfigError("planner.waypoints.kind", f"unknown kind {kind!r}")
    include.append(goal)
    verts = sample_vertices((lo, hi), count, seed=seed, include=include)
    return verts, count, verts.shape[0] - 1


def cmd_plan(cfg: dict, out: Path, seed: int) -> int:
    t0 = time.perf_counter()
    if "edge_rule" in _get(cfg, "planner", dict):
        raise ConfigError("planner.edge_rule", "option removed; edges always use the "
                          "forward-backward intersection test")
    model = build_model(cfg)
    cert = build_certificate(cfg)
    cs = build_constraints(cfg)
    gains = _gains(cfg, model, cs, cert)
    spec = build_spec(cfg, model, cert, cs)
    goal = _vector(cfg, "planner.goal")
    if not cs.contains(goal):
        print(f"planner.goal: {goal.tolist()} outside the state constraint set",
              file=sys.stderr)
        return EXIT_INFEASIBLE
    verts, i_start, i_goal = _planner_vertices(cfg, model, seed)
    graph = build_graph(verts, spec, seed=seed)
    path = search(graph, i_start, i_goal)
    traj = extract_trajectory(graph, path)

    res = _rollout(cfg, model, traj, cs, cert, seed, gains)
    report = monitor(res, cs)

    files = ["graph.json", "trajectory.json", "trajectory.csv", "rollout.csv",
             "summary.json"]
    artifacts.write_json(out / "graph.json", graph.to_json_dict())
    artifacts.write_json(out / "trajectory.json", traj.to_json_dict())
    ts = np.linspace(0.0, traj.total_duration, _integer(cfg, "output.trajectory_samples", 400))
    states = traj.sample_states(ts)
    qg = traj.sample_q_gamma(ts)
    artifacts.write_csv(
        out / "trajectory.csv",
        ["t"] + [f"x{i}" for i in range(model.n)] + [f"q{j}" for j in range(model.m)],
        np.column_stack([ts, states.T, qg.T]),
    )
    _write_rollout_csv(out, model, res)
    _write_summary(
        out, report,
        path=[int(i) for i in path],
        path_edges=len(path) - 1,
        graph_edges=len(graph.edges),
        vertices=int(verts.shape[0]),
        total_duration=traj.total_duration,
        segment_slack=traj.segment_slack,
        min_segment_slack=min(traj.segment_slack),
    )
    if model.n == 2:
        artifacts.write_polyline_svg(out / "trajectory.svg", states.T)
        files.append("trajectory.svg")
    _finish(out, cfg, "plan", seed, files, t0)
    return EXIT_OK


def cmd_simulate(cfg: dict, out: Path, seed: int) -> int:
    t0 = time.perf_counter()
    model = build_model(cfg)
    cert = build_certificate(cfg)
    cs = build_constraints(cfg)
    gains = _gains(cfg, model, cs, cert)
    traj_path = _get(cfg, "sim.trajectory", str)
    try:
        doc = json.loads(Path(traj_path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError("sim.trajectory", f"cannot load trajectory: {exc}") from exc
    try:
        traj = PlannedTrajectory.from_json_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError("sim.trajectory", f"malformed trajectory: {exc!r}") from exc
    if not traj.segments:
        raise ConfigError("sim.trajectory", "trajectory has no segments")
    if traj.gamma != model.gamma:
        raise ConfigError("sim.trajectory",
                          f"trajectory gamma {traj.gamma} != model gamma {model.gamma}")
    for i, seg in enumerate(traj.segments):
        if seg.dim != model.m:
            raise ConfigError("sim.trajectory", f"segment {i} has {seg.dim} point rows, "
                              f"but the model has {model.m} inputs")
    res = _rollout(cfg, model, traj, cs, cert, seed, gains)
    report = monitor(res, cs)
    files = ["rollout.csv", "summary.json"]
    _write_rollout_csv(out, model, res)
    _write_summary(out, report, violation=res.violation, steps=report.steps)
    _finish(out, cfg, "simulate", seed, files, t0)
    return EXIT_OK


COMMANDS = {
    "matrices": cmd_matrices,
    "reach": cmd_reach,
    "plan": cmd_plan,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bezreach",
        description="Polytopic reachability certificates over Bezier control points",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    args = parser.parse_args(argv)

    try:
        cfg = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        seed = args.seed if args.seed is not None else _integer(cfg, "seed", 0)
        return COMMANDS[args.command](cfg, out, seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InfeasibleCertificateError, InfeasibleReductionError, UnreachableGoalError) as exc:
        print(f"planning infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    # Before ValueError: np.linalg.LinAlgError subclasses it.
    except (DivergenceError, IterationLimitError, WitnessError, BoundaryRankError,
            SingularActuationError, InternalInconsistencyError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
