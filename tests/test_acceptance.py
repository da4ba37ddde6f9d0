"""End-to-end acceptance suite.

Eight checks covering the full pipeline: curve algebra exactness, the
per-control-point bounding property, soundness of the norm-row lift and
of the full certificate under disturbance, exactness on linear models,
reachable-set trends, the pendulum swing-up benchmark, and artifact
determinism.
"""

import json
import time

import numpy as np
import pytest

from bezreach import cli, lp, planner, sim
from bezreach.bezier import (
    BezierCurve,
    basis_matrix,
    boundary_matrix,
    split_matrices,
    state_matrix,
    stacked_derivative_vec,
    vectorization_maps,
)
from bezreach.constraints import (
    MixedConstraintRow,
    input_bound_row,
    lift_rows,
    refined_polytope,
    sigma_box,
    state_bound_rows,
)
from bezreach.models import (
    ConstraintSet,
    TrackingCertificate,
    integrator_chain,
    pendulum_energy_controller,
    pendulum_model,
)
from bezreach.planner import PlannedTrajectory
from bezreach.reachability import ReachSpec, sample_cloud, volume_estimate

BOX_C = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
PEND_D = np.array([2 * np.pi + 1, 1.0, 7.5, 7.5])


# -- 1: curve algebra ---------------------------------------------------------


def test_bezier_algebra_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    for _ in range(100):
        p = int(rng.integers(2, 9))
        T = float(rng.uniform(0.2, 4.0))
        m = int(rng.integers(1, 4))
        curve = BezierCurve(T, rng.normal(size=(m, p + 1)))

        # Partition of unity and endpoint interpolation.
        t = float(rng.uniform(0, T))
        assert abs(np.sum(basis_matrix(p, T, [t])) - 1.0) <= 1e-12
        assert np.allclose(curve.eval_grid([0.0])[:, 0], curve.points[:, 0], atol=1e-12)
        assert np.allclose(curve.eval_grid([T])[:, 0], curve.points[:, -1], atol=1e-12)

        # Derivative vs central finite difference, O(h^2) accurate.
        d = curve.derivative()
        tc = float(rng.uniform(0.3 * T, 0.7 * T))
        for h in (1e-3, 1e-4):
            fd = (curve.eval_grid([tc + h]) - curve.eval_grid([tc - h]))[:, 0] / (2 * h)
            assert np.max(np.abs(fd - d.eval_grid([tc])[:, 0])) <= 10.0 * h * h * (
                1.0 + np.max(np.abs(curve.points))
            ) * (p / T) ** 3 + 1e-9

        # Elevation and split pointwise exactness.
        lifted = curve.elevated()
        ts = np.linspace(0, T, 25)
        assert np.max(np.abs(curve.eval_grid(ts) - lifted.eval_grid(ts))) <= 1e-9
        k = int(rng.integers(1, 5))
        for i, Q in enumerate(split_matrices(p, k)):
            seg = BezierCurve(T, curve.points @ Q)
            ss = np.linspace(0, T, 7)
            orig = curve.eval_grid(np.clip((i + ss / T) * T / k, 0.0, T))
            assert np.max(np.abs(seg.eval_grid(ss) - orig)) <= 1e-9

        # Vectorization identities.
        gamma = int(rng.integers(1, (p + 1) // 2 + 1))
        maps = vectorization_maps(p, gamma, m, T)
        vec = curve.points.reshape(-1, order="F")
        X = state_matrix(curve.points, gamma, T)
        assert np.max(np.abs(maps.H_vec @ vec - X.reshape(-1, order="F"))) <= 1e-10
        D = boundary_matrix(p, gamma, T)
        assert (
            np.max(np.abs(maps.D_vec @ vec - (curve.points @ D).reshape(-1, order="F")))
            <= 1e-10
        )
    assert time.perf_counter() - start < 10.0


# -- 2: control-point bounds imply curve bounds -------------------------------


def test_control_point_constraints_bound_the_curve():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        p = int(rng.integers(1, 7))
        n = int(rng.integers(1, 4))
        rows = int(rng.integers(1, 5))
        T = float(rng.uniform(0.2, 3.0))
        P = rng.normal(size=(n, p + 1))
        C = rng.normal(size=(rows, n))
        # Right-hand side chosen so every control point satisfies C x <= d.
        d = np.max(C @ P, axis=1) + rng.uniform(0.0, 0.5, size=rows)
        vals = C @ P @ basis_matrix(p, T, np.linspace(0, T, 1000))
        assert np.all(vals <= d[:, None] + 1e-12)


# -- 3: norm-row lift is sound on the pendulum --------------------------------


def test_lift_monte_carlo_soundness_pendulum():
    start = time.perf_counter()
    model = pendulum_model(0.5, 1.0, 9.81)
    cs = ConstraintSet(BOX_C, np.array([np.pi, np.pi, 4.0, 4.0]), u_max=8.0)
    x_ref = np.array([0.4, 0.2])
    s_max = sigma_box(model, cs, x_ref, q_gamma_bound=30.0)
    row = MixedConstraintRow(np.array([0.3, -0.2]), 0.8, 0.4, 6.0)
    lifted = lift_rows([row], model, x_ref, s_max)

    ginv = 0.5  # m * l^2
    a = 9.81  # g / l
    f_ref = a * np.sin(x_ref[0])
    lo = np.array([x_ref[0] - s_max[0], x_ref[1] - s_max[0], f_ref - s_max[1]])
    hi = np.array([x_ref[0] + s_max[0], x_ref[1] + s_max[0], f_ref + s_max[1]])
    rng = np.random.default_rng(2)
    accepted = 0
    while accepted < 100_000:
        zs = rng.uniform(lo, hi, size=(200_000, 3))
        ok = np.all(lifted.L @ zs.T <= lifted.h[:, None] + 1e-12, axis=0)
        zs = zs[ok]
        accepted += zs.shape[0]
        if zs.shape[0] == 0:
            continue
        x = zs[:, :2]
        q = zs[:, 2]
        u = ginv * (q - a * np.sin(x[:, 0]))
        lhs = (
            x @ row.a1
            + row.a2 * np.max(np.abs(x - x_ref), axis=1)
            + row.a3 * np.abs(u)
        )
        assert np.all(lhs <= row.b + 1e-9)
    assert time.perf_counter() - start < 60.0


# -- 4: certificate soundness under disturbance + live falsification ----------


def _ray_point(F, G, v0, direction, frac):
    slack = G - F @ v0
    Fd = F @ direction
    pos = Fd > 1e-12
    return v0 + frac * np.min(slack[pos] / Fd[pos]) * direction


def test_certified_curves_survive_disturbed_rollouts():
    start = time.perf_counter()
    model = pendulum_model(0.1, 1.0, 9.81)
    cert = TrackingCertificate(0.01, 0.0, 1.0, 1.0, 1.0)
    cs = ConstraintSet(BOX_C, PEND_D, u_max=5.0)
    T = 0.3
    spec = ReachSpec(model, cert, cs, order=3, horizon=T, refinement=4,
                     reference_policy="fixed", x_ref=np.array([np.pi, 0.0]),
                     q_gamma_bound=70.0)
    cpoly = spec.certificate(np.zeros(2))
    F, G = cpoly.F, cpoly.G
    v0 = np.full(4, np.pi)  # hold curve at the hanging equilibrium
    assert np.all(F @ v0 <= G - 1e-9)

    rng = np.random.default_rng(0)
    violations = 0
    for _ in range(100):
        v = _ray_point(F, G, v0, rng.normal(size=4), 0.9)
        assert cpoly.accepts(v[None, :])
        traj = PlannedTrajectory([BezierCurve(T, v[None, :].copy())], gamma=2)
        for seed in range(10):
            policy = "worst" if seed == 0 else "random"
            res = sim.rollout(model, traj, cs, cert, disturbance=policy, seed=seed)
            violations += int(res.violation)
    assert violations == 0

    # Falsification control: a tight state box plus a 10x inflated
    # disturbance must trip the monitor, proving it is live.
    tight = ConstraintSet(
        BOX_C, np.array([np.pi + 0.4, -(np.pi - 0.4), 2.5, 2.5]), u_max=5.0
    )
    tight_spec = ReachSpec(model, cert, tight, order=3, horizon=T, refinement=4,
                           reference_policy="fixed", x_ref=np.array([np.pi, 0.0]),
                           q_gamma_bound=70.0)
    tF, tG = tight_spec.certificate(np.zeros(2)).F, tight_spec.certificate(np.zeros(2)).G
    v = _ray_point(tF, tG, v0, np.ones(4), 0.999)
    traj = PlannedTrajectory([BezierCurve(T, v[None, :].copy())], gamma=2)
    res = sim.rollout(model, traj, tight, cert, disturbance="worst", seed=0,
                      disturbance_scale=10.0)
    assert res.violation
    assert time.perf_counter() - start < 300.0


def test_boundary_curves_keep_the_input_bound_at_unit_tracker_gain():
    """Curves on the boundary of the sweep's certificate, rolled out with
    no disturbance, meet every constraint at L_k = 1.  The input row
    charges ||u_d|| with L_k, and the tracker passes u_d through with
    gain 1, so at L_k = 0.5 some of these curves exceed u_max; such a
    certificate is refused before any set is built."""
    model = pendulum_model(0.1, 1.0, 9.81)
    cs = ConstraintSet(BOX_C, PEND_D, u_max=5.0)
    cert = TrackingCertificate(0.01, 0.0, 1.0, 1.0, 1.0)
    T = 0.3
    spec = ReachSpec(model, cert, cs, order=3, horizon=T, refinement=4,
                     reference_policy="fixed", x_ref=np.array([np.pi, 0.0]),
                     q_gamma_bound=70.0)
    cpoly = spec.certificate(np.zeros(2))
    v0 = np.full(4, np.pi)
    rng = np.random.default_rng(3)
    margins = []
    for _ in range(300):
        v = _ray_point(cpoly.F, cpoly.G, v0, rng.normal(size=4), 1.0)
        traj = PlannedTrajectory([BezierCurve(T, v[None, :].copy())], gamma=2)
        res = sim.rollout(model, traj, cs, cert, disturbance="zero")
        assert not res.violation
        margins.append(min(res.state_margin.min(), res.input_margin.min()))
    assert min(margins) > 0.0
    with pytest.raises(ValueError, match="lipschitz_k"):
        TrackingCertificate(0.01, 0.0, 1.0, 1.0, 0.5)


def test_boundary_curves_keep_the_input_bound_under_a_stiff_tracker():
    """On the unit integrator, PD gains kp = kd = 5 give the tracker a
    feedback of up to (kp + kd) e = 10 e.  A certificate with L_k = 1 is
    refused for them; with L_k = 10 every curve on its boundary keeps the
    exact worst-case input margin over the disturbance ball,
    u_max - max_j(|u_j| + e ||(g^-1 K)_j||_1), at every step of its
    undisturbed rollout."""
    model = integrator_chain(2, 1)
    cs = ConstraintSet(BOX_C, np.ones(4), u_max=2.0)
    T, kp, kd = 1.0, 5.0, 5.0
    traj = PlannedTrajectory([BezierCurve(T, np.zeros((1, 4)))], gamma=2)
    with pytest.raises(ValueError, match="lipschitz_k"):
        sim.rollout(model, traj, cs, TrackingCertificate(0.05, 0.0, 1.0, 1.0, 1.0),
                    kp=kp, kd=kd)
    cert = TrackingCertificate(0.05, 0.0, 1.0, 1.0, 10.0)
    spec = ReachSpec(model, cert, cs, order=3, horizon=T, refinement=4,
                     reference_policy="fixed", x_ref=np.zeros(2), q_gamma_bound=10.0)
    cpoly = spec.certificate(np.zeros(2))
    v0 = np.zeros(4)
    assert np.all(cpoly.F @ v0 <= cpoly.G - 1e-9)
    gK = np.abs(np.linalg.inv(model.g_d(v0[:2])) @ np.array([[kp, kd]])).sum(axis=1)
    rng = np.random.default_rng(0)
    margins = []
    for _ in range(100):
        v = _ray_point(cpoly.F, cpoly.G, v0, rng.normal(size=4), 1.0)
        traj = PlannedTrajectory([BezierCurve(T, v[None, :].copy())], gamma=2)
        res = sim.rollout(model, traj, cs, cert, kp=kp, kd=kd, disturbance="zero")
        e = cert.error_bound(np.max(np.abs(res.u_d), axis=0))
        margins.append(np.min(cs.u_max - np.max(np.abs(res.u) + e * gK[:, None], axis=0)))
    assert min(margins) >= 0.0


def test_boundary_curves_keep_oblique_state_rows_under_worst_disturbance():
    """Curves on the boundary of a certificate with two oblique state rows
    trip no monitor under the `worst` disturbance.  The tracking error is
    bounded in the infinity norm, so its worst effect on row r is
    e0 * ||C_r||_1, which the `worst` policy attains; tightening by the
    Euclidean norm left every such curve e0 * (2 - sqrt(2)) short."""
    model = pendulum_model(0.1, 1.0, 9.81)
    x_ref = np.array([np.pi, 0.0])
    C = np.vstack([BOX_C, [[1.0, 1.0], [1.0, -1.0]]])
    cs = ConstraintSet(C, C @ x_ref + np.array([1.0, 1.0, 2.0, 2.0, 0.6, 0.6]), u_max=5.0)
    cert = TrackingCertificate(0.05, 0.0, 1.0, 1.0, 1.0)
    T = 0.3
    spec = ReachSpec(model, cert, cs, order=3, horizon=T, refinement=4,
                     reference_policy="fixed", x_ref=x_ref, q_gamma_bound=70.0)
    cpoly = spec.certificate(np.zeros(2))
    v0 = np.full(4, np.pi)
    rng = np.random.default_rng(0)
    margins = []
    for _ in range(50):
        v = _ray_point(cpoly.F, cpoly.G, v0, rng.normal(size=4), 1.0)
        traj = PlannedTrajectory([BezierCurve(T, v[None, :].copy())], gamma=2)
        res = sim.rollout(model, traj, cs, cert, disturbance="worst")
        assert not res.violation
        margins.append(res.state_margin.min())
    # The curves sit on the boundary, so the tube touches a row.
    assert min(margins) > -1e-12 and min(margins) < 1e-9


# -- 5: exactness on the double integrator ------------------------------------


def test_integrator_certificate_matches_brute_force_grid():
    model = integrator_chain(2, 1)
    cert = TrackingCertificate(0.0, 0.0, 1.0, 0.5, 1.0)
    # Off-grid constants so no constraint boundary coincides with a grid
    # plane (boundary ties would compare unequal for spurious reasons).
    cs = ConstraintSet(BOX_C, np.array([0.785, 0.785, 0.915, 0.915]), u_max=2.47)
    x_ref = np.zeros(2)
    rows = [input_bound_row(cert, x_ref, cs.u_max)]
    rows += state_bound_rows(cs, cert)
    s_max = sigma_box(model, cs, x_ref, q_gamma_bound=97.3)
    lifted = lift_rows(rows, model, x_ref, s_max)
    p, T = 3, 1.0
    poly = refined_polytope([lifted], p, T, 2, 1)
    ext = stacked_derivative_vec(p, T, 1, 3)  # (x, v, q) stack per control point

    g = np.arange(-1.0, 1.0001, 0.05)
    mismatches = 0
    for a_idx in range(g.size):
        block = np.stack(
            np.meshgrid(g[a_idx : a_idx + 1], g, g, g, indexing="ij"), -1
        ).reshape(-1, 4)
        accepted = np.all(poly.F @ block.T <= poly.G[:, None] + 1e-12, axis=0)
        xi = ext @ block.T
        direct = np.ones(block.shape[0], bool)
        for j in range(p + 1):
            x = xi[3 * j : 3 * j + 2]
            q = xi[3 * j + 2]
            xn = np.max(np.abs(x - x_ref[:, None]), axis=0)
            un = np.abs(q)  # integrator: u_d equals the top derivative
            for r in rows:
                direct &= r.a1 @ x + r.a2 * xn + r.a3 * un <= r.b + 1e-12
            direct &= (xn <= s_max[0] + 1e-12) & (un <= s_max[1] + 1e-12)
        mismatches += int(np.sum(accepted != direct))
    assert mismatches == 0


# -- 6: reachable-set trends ---------------------------------------------------


def test_forward_sets_nested_in_u_max_and_refinement_volumes():
    model = pendulum_model(0.1, 1.0, 9.81)
    cert = TrackingCertificate(0.005, 0.0, 1.0, 1.0, 1.0)
    x0 = np.array([np.pi, 0.0])
    u_values = (0.5, 1.0, 2.0, 5.0)
    polys = {}
    for u_max in u_values:
        cs = ConstraintSet(BOX_C, PEND_D, u_max=u_max)
        spec = ReachSpec(model, cert, cs, order=3, horizon=0.3, refinement=20,
                         reference_policy="fixed", x_ref=x0, q_gamma_bound=70.0)
        polys[u_max] = spec.forward_polytope(x0)
    for i, u in enumerate(u_values):
        pts, _ = sample_cloud(polys[u], 200, seed=5)
        assert pts.shape[0] > 0
        for u2 in u_values[i + 1 :]:
            assert np.all(polys[u2].A @ pts.T <= polys[u2].b[:, None] + 1e-7)

    # Refinement comparison at u_max = 2: both volumes reported; the
    # finer reference sampling must not make the set smaller here.
    cs = ConstraintSet(BOX_C, PEND_D, u_max=2.0)
    vols = {}
    for k in (1, 20):
        spec = ReachSpec(model, cert, cs, order=3, horizon=0.3, refinement=k,
                         reference_policy="fixed", x_ref=x0, q_gamma_bound=70.0)
        vols[k] = volume_estimate(spec.forward_polytope(x0))
    assert vols[1] > 0.0 and vols[20] > 0.0
    assert vols[20] >= vols[1]


# -- 7: pendulum swing-up benchmark --------------------------------------------


def test_swing_up_plans_pass_and_tighter_torque_needs_more_edges():
    start = time.perf_counter()
    model = pendulum_model(0.1, 1.0, 9.81)
    cert = TrackingCertificate(0.005, 0.0, 1.0, 1.0, 1.0)
    T = 0.15
    origin = np.array([np.pi, 0.0])
    goal = np.array([2 * np.pi, 0.0])
    ctrl = pendulum_energy_controller(0.1, 1.0, 9.81, u_pump=0.04, u_catch=0.15)
    two_pi = 2 * np.pi

    def near_upright(x):
        dth = x[0] - two_pi * round(x[0] / two_pi)
        return abs(dth) < 0.015 and abs(x[1]) < 0.03

    wps = planner.controlled_waypoints(model, origin, ctrl, hop=2 * T,
                                       max_hops=400, stop=near_upright)
    bounds = (np.array([-0.5, -7.0]), np.array([2 * np.pi + 0.5, 7.0]))
    verts = planner.sample_vertices(
        bounds, 200, seed=11, include=[origin] + list(wps[1:]) + [goal]
    )
    i_start, i_goal = 200, verts.shape[0] - 1

    path_edges, edge_counts = {}, {}
    for u_max in (5.0, 0.5):
        cs = ConstraintSet(BOX_C, PEND_D, u_max=u_max)
        spec = ReachSpec(model, cert, cs, order=3, horizon=T, refinement=10,
                         reference_policy="drift", q_gamma_bound=70.0)
        graph = planner.build_graph(verts, spec, seed=11)
        edge_counts[u_max] = len(graph.edges)
        # Both curves of every stored edge meet their certificates with
        # slack >= 0, as `extract_trajectory` requires of a path edge.
        for (i, j), w in graph.edges.items():
            for cert_poly, curve in ((spec.certificate(verts[i], "forward"),
                                      spec.curve_between(verts[i], w)),
                                     (spec.certificate(verts[j], "backward"),
                                      spec.curve_between(w, verts[j]))):
                vec = curve.points.reshape(-1, order="F")
                assert np.min(cert_poly.G - cert_poly.F @ vec) >= 0.0, (u_max, i, j)
        path = planner.search(graph, i_start, i_goal)
        traj = planner.extract_trajectory(graph, path)
        # The drift policy under disturbance, not only undisturbed.
        for policy in sim.DISTURBANCE_POLICIES:
            res = sim.rollout(model, traj, cs, cert, disturbance=policy, seed=1)
            assert sim.monitor(res, cs).passed, (u_max, policy)
        path_edges[u_max] = len(path) - 1
    # The edge sets themselves: a change that moves them fails here.
    assert edge_counts == {5.0: 2813, 0.5: 138}, edge_counts
    assert path_edges[0.5] > path_edges[5.0]
    # Path cost is edge count times 2T, so cost is nonincreasing in u_max.
    assert path_edges[5.0] * 2 * T <= path_edges[0.5] * 2 * T
    assert time.perf_counter() - start < 600.0


# -- 8: byte-identical artifacts -----------------------------------------------


def _run_twice(command, doc, tmp_path, skip=("timing.json",)):
    tmp_path.mkdir(exist_ok=True)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        if name in skip:
            continue
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_rerun_determinism_all_commands(tmp_path):
    _run_twice("matrices", {
        "seed": 0,
        "model": {"kind": "integrator", "gamma": 2, "m": 1},
        "curve": {"order": 3, "horizon": 1.0, "refinement": 3},
    }, tmp_path / "m")

    pend = {
        "seed": 0,
        "model": {"kind": "pendulum", "mass": 0.1, "length": 1.0, "gravity": 9.81},
        "certificate": {"e0": 0.005, "lipschitz_e": 0.0},
        "constraints": {"C": BOX_C.tolist(), "d": PEND_D.tolist(), "u_max": 5.0},
        "curve": {"order": 3, "horizon": 0.15, "refinement": 10,
                  "reference_policy": "drift", "q_gamma_bound": 70.0},
        "reach": {"direction": "forward", "anchor": [np.pi, 0.0], "samples": 100},
    }
    (tmp_path / "r").mkdir()
    _run_twice("reach", pend, tmp_path / "r")

    plan = {
        "seed": 4,
        "model": {"kind": "integrator", "gamma": 2, "m": 1},
        "certificate": {"e0": 0.01, "lipschitz_e": 0.0},
        "constraints": {"C": BOX_C.tolist(), "d": [1.0, 1.0, 1.0, 1.0],
                        "u_max": 2.0},
        "curve": {"order": 3, "horizon": 1.0, "reference_policy": "fixed",
                  "x_ref": [0.0, 0.0], "q_gamma_bound": 10.0},
        "planner": {"bounds": {"lo": [-0.5, -0.5], "hi": [0.5, 0.5]},
                    "count": 8, "start": [0.3, 0.0], "goal": [-0.3, 0.0]},
        "sim": {"disturbance": "worst"},
    }
    (tmp_path / "p").mkdir()
    _run_twice("plan", plan, tmp_path / "p")
