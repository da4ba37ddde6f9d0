"""Command-line interface: artifacts, determinism, and exit codes."""

import json

import numpy as np
import pytest

from bezreach import cli
from bezreach.bezier import BoundaryRankError, boundary_matrix, diff_matrix, solve_boundary
from bezreach.constraints import CertificatePolytope
from bezreach.lp import WitnessError
from bezreach.reachability import ReachSpec


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_matrix_csv(path):
    lines = path.read_bytes().decode().split("\r\n")
    rows = [line.split(",") for line in lines[1:] if line]
    return np.array([[float(v) for v in r] for r in rows])


PENDULUM_BLOCKS = {
    "model": {"kind": "pendulum", "mass": 0.1, "length": 1.0, "gravity": 9.81},
    "certificate": {"e0": 0.005, "lipschitz_e": 0.0},
    "constraints": {
        "C": [[1, 0], [-1, 0], [0, 1], [0, -1]],
        "d": [2 * np.pi + 1, 1.0, 7.5, 7.5],
        "u_max": 5.0,
    },
    "curve": {
        "order": 3,
        "horizon": 0.15,
        "refinement": 10,
        "reference_policy": "drift",
        "q_gamma_bound": 70.0,
    },
}


def test_matrices_emits_expected_values(tmp_path):
    cfg = write_config(tmp_path, {
        "seed": 0,
        "model": {"kind": "integrator", "gamma": 1, "m": 1},
        "curve": {"order": 2, "horizon": 2.0, "refinement": 1},
    })
    out = tmp_path / "out"
    assert cli.main(["matrices", "--config", cfg, "--out", str(out)]) == 0
    S = read_matrix_csv(out / "S.csv")
    assert np.allclose(S, diff_matrix(2, 2.0))
    Q1 = read_matrix_csv(out / "Q_1.csv")
    assert np.allclose(Q1, np.eye(3))
    meta = json.loads((out / "metadata.json").read_text())
    assert "S.csv" in meta["artifacts"]


def test_matrices_rerun_byte_identical(tmp_path):
    cfg = write_config(tmp_path, {
        "seed": 0,
        "model": {"kind": "integrator", "gamma": 2, "m": 1},
        "curve": {"order": 3, "horizon": 1.0, "refinement": 2},
    })
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cli.main(["matrices", "--config", cfg, "--out", str(out1)])
    cli.main(["matrices", "--config", cfg, "--out", str(out2)])
    for name in ("S.csv", "E.csv", "H.csv", "D.csv", "Q_1.csv", "Q_2.csv",
                 "H_vec.csv", "D_vec.csv", "metadata.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_missing_field_exit_code_and_path(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"kind": "pendulum", "mass": 0.1},
        "curve": {"order": 3, "horizon": 1.0},
    })
    code = cli.main(["matrices", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "model.length" in capsys.readouterr().err


def test_malformed_json_exit_code(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["matrices", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2


def test_unknown_model_kind_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"kind": "rocket"},
        "curve": {"order": 3, "horizon": 1.0},
    })
    assert cli.main(["matrices", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "model.kind" in capsys.readouterr().err


@pytest.mark.parametrize("error", [BoundaryRankError, WitnessError, np.linalg.LinAlgError])
def test_numerical_failure_exit_code(tmp_path, monkeypatch, capsys, error):
    def fail(*args):
        raise error("injected")

    monkeypatch.setattr(cli, "boundary_matrix", fail)
    cfg = write_config(tmp_path, {
        "model": {"kind": "integrator", "gamma": 1, "m": 1},
        "curve": {"order": 2, "horizon": 1.0},
    })
    assert cli.main(["matrices", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    assert "numerical failure" in capsys.readouterr().err


def test_reach_emits_cloud_and_svg(tmp_path):
    doc = dict(PENDULUM_BLOCKS)
    doc["seed"] = 0
    doc["reach"] = {"direction": "forward", "anchor": [np.pi, 0.0],
                    "samples": 50}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert cli.main(["reach", "--config", cfg, "--out", str(out)]) == 0
    cloud = (out / "cloud.csv").read_bytes().decode().split("\r\n")
    assert cloud[0] == "x0,x1"
    assert len([l for l in cloud[1:] if l]) == 50
    assert (out / "cloud.svg").read_text().startswith("<svg")
    # One "a_1 ... a_n <= b" line per row of the forward set, in 17 digits.
    model = cli.build_model(doc)
    spec = cli.build_spec(doc, model, cli.build_certificate(doc), cli.build_constraints(doc))
    poly = spec.forward_polytope(np.array([np.pi, 0.0]))
    rows = [line.split(" <= ") for line in (out / "polytope.txt").read_text().splitlines()]
    assert np.array_equal([[float(v) for v in a.split()] for a, _ in rows], poly.A)
    assert np.array_equal([float(b) for _, b in rows], poly.b)


def test_reach_empty_set_is_success(tmp_path):
    doc = dict(PENDULUM_BLOCKS)
    doc["seed"] = 0
    # Anchor far outside the state constraints: empty forward set.
    doc["reach"] = {"direction": "forward", "anchor": [500.0, 0.0]}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert cli.main(["reach", "--config", cfg, "--out", str(out)]) == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["empty"] is True


def test_reach_without_samples_reports_nonempty_set(tmp_path):
    # The emptiness verdict comes from the set, not from the sample cloud.
    doc = {key: INTEGRATOR_PLAN[key] for key in ("model", "certificate", "constraints", "curve")}
    doc["reach"] = {"direction": "forward", "anchor": [0.0, 0.0], "samples": 0}
    out = tmp_path / "out"
    assert cli.main(["reach", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["empty"] is False


def test_plan_goal_outside_constraints_exit_3(tmp_path, capsys):
    doc = dict(PENDULUM_BLOCKS)
    doc["seed"] = 0
    doc["planner"] = {
        "bounds": {"lo": [-1.0, -7.5], "hi": [2 * np.pi + 1, 7.5]},
        "count": 5,
        "start": [np.pi, 0.0],
        "goal": [100.0, 0.0],
    }
    cfg = write_config(tmp_path, doc)
    assert cli.main(["plan", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "outside" in capsys.readouterr().err


def test_plan_disconnected_goal_exit_3(tmp_path, capsys):
    doc = dict(PENDULUM_BLOCKS)
    doc["seed"] = 0
    # Too few vertices and no waypoint seeding: upright goal unreachable.
    doc["planner"] = {
        "bounds": {"lo": [-1.0, -7.5], "hi": [2 * np.pi + 1, 7.5]},
        "count": 3,
        "start": [np.pi, 0.0],
        "goal": [2 * np.pi, 0.0],
    }
    cfg = write_config(tmp_path, doc)
    assert cli.main(["plan", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "component" in capsys.readouterr().err


INTEGRATOR_PLAN = {
    "seed": 0,
    "model": {"kind": "integrator", "gamma": 2, "m": 1},
    "certificate": {"e0": 0.01},
    "constraints": {"C": [[1, 0], [-1, 0], [0, 1], [0, -1]], "d": [1, 1, 1, 1],
                    "u_max": 2.0},
    "curve": {"order": 3, "horizon": 1.0, "reference_policy": "fixed",
              "x_ref": [0.0, 0.0], "q_gamma_bound": 10.0},
    "planner": {"bounds": {"lo": [-0.5, -0.5], "hi": [0.5, 0.5]}, "count": 2,
                "start": [0.0, 0.0], "goal": [0.2, 0.0]},
}


def test_plan_small_integrator_graph(tmp_path):
    cfg = write_config(tmp_path, INTEGRATOR_PLAN)
    out = tmp_path / "o"
    assert cli.main(["plan", "--config", cfg, "--out", str(out)]) == 0
    graph = json.loads((out / "graph.json").read_text())
    assert set(graph) == {"seed", "vertex_count", "vertices", "edges"}
    assert json.loads((out / "summary.json").read_text())["monitor_passed"] is True


@pytest.mark.parametrize("command", ["reach", "plan", "simulate"])
def test_tracker_gain_below_one_is_a_config_error(tmp_path, capsys, command):
    # Also every other constant out of its range: L_pi below 1, a NaN or
    # negative L_psi (before: exit 3 or a bare ValueError), an infinite e0.
    for field, value in [("lipschitz_k", 0.5), ("lipschitz_pi", 0.5),
                         ("lipschitz_psi", float("nan")), ("lipschitz_psi", -2.0),
                         ("e0", float("inf"))]:
        doc = json.loads(json.dumps(INTEGRATOR_PLAN))
        doc["certificate"][field] = value
        cfg = write_config(tmp_path, doc)
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "certificate" in err and f"{field}={value}" in err


def test_plan_edge_rule_is_a_config_error(tmp_path, capsys):
    # The one-horizon "forward" edge test is gone; a config that still
    # names a rule must not run silently with another one.
    doc = json.loads(json.dumps(INTEGRATOR_PLAN))
    doc["planner"]["edge_rule"] = "intersection"
    cfg = write_config(tmp_path, doc)
    assert cli.main(["plan", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "planner.edge_rule" in capsys.readouterr().err


def test_pendulum_energy_waypoints_need_a_pendulum_model(tmp_path, capsys):
    doc = json.loads(json.dumps(INTEGRATOR_PLAN))
    doc["planner"]["waypoints"] = {"kind": "pendulum-energy", "u_pump": 0.04,
                                   "u_catch": 0.15}
    cfg = write_config(tmp_path, doc)
    assert cli.main(["plan", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "planner.waypoints.kind" in capsys.readouterr().err


def test_plan_edge_reverification_failure_exit_4(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(CertificatePolytope, "slack", lambda self, *a, **k: -1e-3)
    cfg = write_config(tmp_path, INTEGRATOR_PLAN)
    assert cli.main(["plan", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert "numerical failure" in err and "fails its certificate" in err


def test_simulate_round_trip(tmp_path):
    # Build a tiny hold trajectory by hand and run the simulate command.
    D = boundary_matrix(3, 2, 0.5)
    x = np.array([np.pi, 0.0])
    pts = solve_boundary(D, x, x)
    traj_doc = {"gamma": 2, "segments": [
        {"order": 3, "duration": 0.5, "points": pts.tolist()}
    ]}
    traj_path = tmp_path / "traj.json"
    traj_path.write_text(json.dumps(traj_doc))
    doc = dict(PENDULUM_BLOCKS)
    doc["seed"] = 1
    doc["sim"] = {"trajectory": str(traj_path), "disturbance": "worst"}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["monitor_passed"] is True
    assert (out / "rollout.csv").exists()


def test_plan_reads_disturbance_scale(tmp_path):
    # `plan` reads the same `sim` keys as `simulate`, disturbance_scale
    # included: a 50x worst-case disturbance of e0 = 0.01 takes 0.49 more
    # off both margins than the 1x one.
    margins = []
    for sim in ({"disturbance": "worst"}, {"disturbance": "worst", "disturbance_scale": 50}):
        doc = json.loads(json.dumps(INTEGRATOR_PLAN))
        doc["sim"] = sim
        out = tmp_path / f"o{len(margins)}"
        assert cli.main(["plan", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        margins.append([summary["min_state_margin"], summary["min_input_margin"]])
    assert np.allclose(np.subtract(*margins), 0.49, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("command", ["plan", "simulate"])
def test_non_numeric_sim_dt_is_a_config_error(tmp_path, capsys, command):
    # A dt that is not a number, or not positive, exits 2 naming dt.
    for dt, message in (("fast", "sim.dt"), (0, "dt=0"), (-0.001, "dt=-0.001")):
        doc = json.loads(json.dumps(INTEGRATOR_PLAN))
        doc["sim"] = {"dt": dt}
        if command == "simulate":
            pts = solve_boundary(boundary_matrix(3, 2, 1.0), np.zeros(2), np.zeros(2))
            traj_path = tmp_path / "traj.json"
            traj_path.write_text(json.dumps({"gamma": 2, "segments": [
                {"order": 3, "duration": 1.0, "points": pts.tolist()}]}))
            doc["sim"]["trajectory"] = str(traj_path)
        cfg = write_config(tmp_path, doc)
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("traj_doc", [{"gamma": 2}, [1, 2]])
def test_malformed_trajectory_is_a_config_error(tmp_path, capsys, traj_doc):
    traj_path = tmp_path / "traj.json"
    traj_path.write_text(json.dumps(traj_doc))
    doc = json.loads(json.dumps(INTEGRATOR_PLAN))
    doc["sim"] = {"trajectory": str(traj_path)}
    cfg = write_config(tmp_path, doc)
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "sim.trajectory" in capsys.readouterr().err


@pytest.mark.parametrize("segments, gamma, message", [
    ([], 2, "no segments"),
    ([{"order": 3, "duration": 1.0, "points": [[0.0, 0.0, 0.0, 0.0]]}], 1,
     "trajectory gamma 1 != model gamma 2"),
    ([{"order": 3, "duration": 1.0, "points": [[0.0] * 4, [0.0] * 4]}], 2,
     "segment 0 has 2 point rows, but the model has 1 inputs"),
], ids=["no-segments", "gamma", "point-rows"])
def test_trajectory_that_does_not_fit_the_model_is_a_config_error(
        tmp_path, capsys, segments, gamma, message):
    traj_path = tmp_path / "traj.json"
    traj_path.write_text(json.dumps({"gamma": gamma, "segments": segments}))
    doc = json.loads(json.dumps(INTEGRATOR_PLAN))
    doc["sim"] = {"trajectory": str(traj_path)}
    cfg = write_config(tmp_path, doc)
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "sim.trajectory" in err and message in err


def test_plan_reports_segment_slack(tmp_path):
    # Each curve's slack against the certificate extraction checks it
    # with, recomputed from graph.json and trajectory.json.
    cfg = write_config(tmp_path, INTEGRATOR_PLAN)
    out = tmp_path / "o"
    assert cli.main(["plan", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    graph = json.loads((out / "graph.json").read_text())
    traj = json.loads((out / "trajectory.json").read_text())
    spec = cli.build_spec(INTEGRATOR_PLAN, cli.build_model(INTEGRATOR_PLAN),
                          cli.build_certificate(INTEGRATOR_PLAN),
                          cli.build_constraints(INTEGRATOR_PLAN))
    V = np.array(graph["vertices"])
    path = summary["path"]
    expected = []
    for k, seg in enumerate(traj["segments"]):
        i, j = path[k // 2], path[k // 2 + 1]
        cert = (spec.certificate(V[i], "forward") if k % 2 == 0
                else spec.certificate(V[j], "backward"))
        vec = np.array(seg["points"]).reshape(-1, order="F")
        expected.append(float(np.min(cert.G - cert.F @ vec)))
    assert len(expected) == 2 * summary["path_edges"] > 0
    assert summary["segment_slack"] == expected
    assert summary["min_segment_slack"] == min(expected) >= 0.0


def test_seed_flag_overrides_config(tmp_path):
    doc = dict(PENDULUM_BLOCKS)
    doc["seed"] = 0
    doc["reach"] = {"direction": "forward", "anchor": [np.pi, 0.0],
                    "samples": 30}
    cfg = write_config(tmp_path, doc)
    out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    cli.main(["reach", "--config", cfg, "--out", str(out1)])
    cli.main(["reach", "--config", cfg, "--out", str(out2), "--seed", "9"])
    cli.main(["reach", "--config", cfg, "--out", str(out3), "--seed", "9"])
    assert (out1 / "cloud.csv").read_bytes() != (out2 / "cloud.csv").read_bytes()
    assert (out2 / "cloud.csv").read_bytes() == (out3 / "cloud.csv").read_bytes()


def test_csv_format_is_rfc4180(tmp_path):
    cfg = write_config(tmp_path, {
        "seed": 0,
        "model": {"kind": "integrator", "gamma": 1, "m": 1},
        "curve": {"order": 2, "horizon": 1.0},
    })
    out = tmp_path / "out"
    cli.main(["matrices", "--config", cfg, "--out", str(out)])
    raw = (out / "S.csv").read_bytes()
    assert b"\r\n" in raw
    assert raw.endswith(b"\r\n")


def with_key(doc, path, value):
    """A deep copy of doc with the dotted key set to value."""
    doc = json.loads(json.dumps(doc))
    *parents, leaf = path.split(".")
    node = doc
    for part in parents:
        node = node.setdefault(part, {})
    node[leaf] = value
    return doc


INTEGRATOR_REACH = with_key(
    {key: INTEGRATOR_PLAN[key] for key in ("model", "certificate", "constraints", "curve")},
    "reach", {"direction": "forward", "anchor": [0.2, 0.1], "samples": 20})


@pytest.mark.parametrize("command, key, value", [
    # A NaN or infinite number reaches no library check that could name it.
    ("matrices", "curve.horizon", float("nan")),
    pytest.param("matrices", "curve.horizon", 10**400, id="matrices-curve.horizon-10**400"),
    ("reach", "reach.anchor", [10**400, 0.0]),
    ("reach", "constraints.u_max", float("inf")),
    ("reach", "curve.q_gamma_bound", float("nan")),
    ("reach", "constraints.d", [1.0, float("nan"), 1.0, 1.0]),
    ("plan", "sim.gains.kp", float("-inf")),
    ("plan", "sim.gains.kp", "high"),
    ("plan", "sim.gains.kd", "high"),
    # The input bound is max_j |u_j| <= u_max; a config that still weights
    # the channels must not run silently with another bound.
    ("reach", "constraints.W", [[2.0]]),
    ("plan", "constraints.W", [[2.0]]),
    # NumPy reads a JSON boolean in an array as 0 or 1.
    ("reach", "constraints.d", [True, 1, 1, 1]),
    ("reach", "constraints.C", [[1, 0], [-1, 0], [0, True], [0, -1]]),
    ("reach", "reach.anchor", [0.2, False]),
    ("reach", "curve.x_ref", [False, 0.0]),
])
def test_rejected_value_is_a_config_error_naming_its_key(tmp_path, capsys, command,
                                                         key, value):
    base = INTEGRATOR_PLAN if command == "plan" else INTEGRATOR_REACH
    cfg = write_config(tmp_path, with_key(base, key, value))
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert key in capsys.readouterr().err


def test_plan_includes_explicit_waypoints(tmp_path):
    points = [[0.1, 0.05], [0.15, -0.05]]
    doc = with_key(INTEGRATOR_PLAN, "planner.waypoints", {"kind": "explicit", "points": points})
    out = tmp_path / "o"
    assert cli.main(["plan", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    vertices = json.loads((out / "graph.json").read_text())["vertices"]
    assert all(point in vertices for point in points)


def test_waypoint_max_hops_bounds_the_waypoints():
    doc = with_key(PENDULUM_BLOCKS, "planner", {
        "bounds": {"lo": [-1.0, -7.5], "hi": [2 * np.pi + 1, 7.5]}, "count": 2,
        "start": [np.pi, 0.0], "goal": [2 * np.pi, 0.0],
        "waypoints": {"kind": "pendulum-energy", "u_pump": 0.04, "u_catch": 0.15}})
    model = cli.build_model(doc)
    counts = [len(cli._planner_vertices(
        with_key(doc, "planner.waypoints.max_hops", hops), model, 0)[0]) for hops in (3, 8)]
    # count + start + goal, plus one waypoint per hop.
    assert counts == [4 + 3, 4 + 8]


def test_plan_trajectory_samples_sets_the_csv_rows(tmp_path):
    out = tmp_path / "o"
    doc = with_key(INTEGRATOR_PLAN, "output.trajectory_samples", 25)
    assert cli.main(["plan", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_bytes().decode().split("\r\n")
    assert len([line for line in lines[1:] if line]) == 25


def test_plan_reads_tracker_gains(tmp_path):
    # Under the worst disturbance the applied input depends on the gains.
    # L_k = 2.5 covers the largest feedback gain, kp + kd = 2.0 + 0.5.
    rollouts = []
    for gains in ({}, {"kp": 2.0}, {"kd": 1.5}):
        doc = with_key(INTEGRATOR_PLAN, "sim", {"disturbance": "worst", "gains": gains})
        doc = with_key(doc, "certificate.lipschitz_k", 2.5)
        out = tmp_path / f"o{len(rollouts)}"
        assert cli.main(["plan", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        rollouts.append((out / "rollout.csv").read_bytes())
    assert len(set(rollouts)) == 3


@pytest.mark.parametrize("command", ["plan", "simulate"])
def test_gains_beyond_the_certificates_lipschitz_k_are_a_config_error(tmp_path, capsys,
                                                                        command):
    # On the unit integrator, kp = kd = 5 give a feedback of (kp + kd) e =
    # 10 e, ten times what the input row charges at L_k = 1.
    pts = solve_boundary(boundary_matrix(3, 2, 1.0), np.zeros(2), np.zeros(2))
    traj_path = tmp_path / "traj.json"
    traj_path.write_text(json.dumps({"gamma": 2, "segments": [
        {"order": 3, "duration": 1.0, "points": pts.tolist()}]}))
    doc = json.loads(json.dumps(INTEGRATOR_PLAN))
    doc["certificate"]["e0"] = 0.05
    doc["curve"]["refinement"] = 4
    doc["planner"]["goal"] = [0.05, 0.0]
    doc["sim"] = {"gains": {"kp": 5.0, "kd": 5.0}, "disturbance": "worst",
                  "trajectory": str(traj_path)}
    out = tmp_path / "o"
    assert cli.main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "sim.gains" in err and "certificate.lipschitz_k" in err
    assert not (out / "summary.json").exists()
    # An L_k that covers the feedback gain runs, and the monitor passes
    # under the worst disturbance.
    doc = with_key(doc, "certificate.lipschitz_k", 10.0)
    assert cli.main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["monitor_passed"] is True


def test_plan_looks_each_certificate_up_once_per_curve(tmp_path, monkeypatch):
    # Extraction checks each curve against its certificate and keeps the
    # slack: two lookups per path edge, none repeated for the summary.
    doc = with_key(PENDULUM_BLOCKS, "planner", {
        "bounds": {"lo": [-0.5, -7.0], "hi": [2 * np.pi + 0.5, 7.0]}, "count": 2,
        "start": [np.pi, 0.0], "goal": [np.pi, 0.0],
        "waypoints": {"kind": "pendulum-energy", "u_pump": 1.0, "u_catch": 0.15,
                      "max_hops": 6}})
    doc = with_key(doc, "curve.refinement", 4)
    # The goal is the last energy-pump waypoint.
    verts = cli._planner_vertices(doc, cli.build_model(doc), 11)[0]
    doc = with_key(doc, "planner.goal", verts[-2].tolist())
    lookups = []
    certificate = ReachSpec.certificate
    monkeypatch.setattr(ReachSpec, "certificate",
                        lambda self, *a, **k: lookups.append(a) or certificate(self, *a, **k))
    out = tmp_path / "o"
    assert cli.main(["plan", "--config", write_config(tmp_path, doc), "--out", str(out),
                     "--seed", "11"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["path_edges"] >= 3
    assert len(lookups) == 2 * summary["path_edges"]
    assert len(summary["segment_slack"]) == len(lookups)


def test_reach_backward_writes_the_backward_set(tmp_path):
    doc = with_key(INTEGRATOR_REACH, "reach.direction", "backward")
    out = {}
    for direction, cfg in (("forward", INTEGRATOR_REACH), ("backward", doc)):
        out[direction] = tmp_path / direction
        assert cli.main(["reach", "--config", write_config(tmp_path, cfg),
                         "--out", str(out[direction])]) == 0
    text = (out["backward"] / "polytope.txt").read_text()
    assert text != (out["forward"] / "polytope.txt").read_text()
    spec = cli.build_spec(doc, cli.build_model(doc), cli.build_certificate(doc),
                          cli.build_constraints(doc))
    poly = spec.backward_polytope(np.array([0.2, 0.1]))
    rows = [line.split(" <= ") for line in text.splitlines()]
    assert np.array_equal([[float(v) for v in a.split()] for a, _ in rows], poly.A)
    assert np.array_equal([float(b) for _, b in rows], poly.b)


@pytest.mark.parametrize("command", ["matrices", "reach", "plan"])
@pytest.mark.parametrize("key, value", [
    # Before: "x", null and [1] ended in a traceback; 1.5 and true ran with
    # seed 1; 3.9 ran with order 3 and 2.5 with gamma 2.
    ("seed", "x"), ("seed", None), ("seed", [1]), ("seed", 1.5), ("seed", True),
    ("curve.order", 3.9), ("curve.refinement", 1.5), ("model.gamma", 2.5),
    ("model.m", True), ("model.m", "1"),
])
def test_integer_keys_refuse_what_is_not_an_integer(tmp_path, capsys, command, key, value):
    base = INTEGRATOR_PLAN if command == "plan" else INTEGRATOR_REACH
    cfg = write_config(tmp_path, with_key(base, key, value))
    out = tmp_path / "o"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{key}: expected an integer" in err
    assert not (out / "metadata.json").exists()


@pytest.mark.parametrize("command, key, value", [
    ("reach", "reach.samples", 20.5),
    ("plan", "planner.count", 2.5),
    ("plan", "output.trajectory_samples", float("nan")),
    ("plan", "planner.waypoints.max_hops", 3.5),
])
def test_command_integer_keys_refuse_what_is_not_an_integer(tmp_path, capsys, command,
                                                            key, value):
    base = INTEGRATOR_PLAN if command == "plan" else INTEGRATOR_REACH
    if key == "planner.waypoints.max_hops":
        base = with_key(PENDULUM_BLOCKS, "planner", {
            "bounds": {"lo": [-1.0, -7.5], "hi": [2 * np.pi + 1, 7.5]}, "count": 2,
            "start": [np.pi, 0.0], "goal": [2 * np.pi, 0.0],
            "waypoints": {"kind": "pendulum-energy", "u_pump": 0.04, "u_catch": 0.15}})
    cfg = write_config(tmp_path, with_key(base, key, value))
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"{key}: expected an integer" in capsys.readouterr().err


def test_integer_keys_are_read_exactly(tmp_path):
    # A JSON integer beyond 2**53 is kept as it is, not rounded through a
    # float, and an integral float reads as its integer.
    seed = 2**70 + 1
    out = {}
    for name, doc in (("int", with_key(INTEGRATOR_REACH, "seed", seed)),
                      ("float", with_key(with_key(INTEGRATOR_REACH, "seed", seed),
                                         "curve.order", 3.0))):
        out[name] = tmp_path / name
        assert cli.main(["reach", "--config", write_config(tmp_path, doc),
                         "--out", str(out[name])]) == 0
        assert json.loads((out[name] / "metadata.json").read_text())["seed"] == seed
    for name in ("polytope.txt", "cloud.csv", "cloud.svg"):
        assert (out["int"] / name).read_bytes() == (out["float"] / name).read_bytes()


@pytest.mark.parametrize("command", ["reach", "plan"])
@pytest.mark.parametrize("key, value, message", [
    # Before: an IndexError at refs[0], and NumPy broadcast messages that
    # named no key.
    ("curve.refinement", 0, "refinement must be an integer >= 1"),
    ("curve.refinement", -1, "refinement must be an integer >= 1"),
    ("curve.x_ref", [0.0, 0.0, 0.0], "x_ref has 3 entries"),
])
def test_spec_errors_are_config_errors_on_curve(tmp_path, capsys, command, key, value,
                                                message):
    base = INTEGRATOR_PLAN if command == "plan" else INTEGRATOR_REACH
    cfg = write_config(tmp_path, with_key(base, key, value))
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"curve: {message}" in capsys.readouterr().err
