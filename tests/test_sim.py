"""Closed-loop rollout and constraint monitoring."""

import numpy as np
import pytest

from bezreach import lp
from bezreach.bezier import BezierCurve, boundary_matrix, solve_boundary
from bezreach.models import (
    ConstraintSet,
    TrackingCertificate,
    integrator_chain,
    pendulum_model,
)
from bezreach.planner import PlannedTrajectory
from bezreach.sim import DivergenceError, MarginReport, monitor, rollout


def box_constraints(lo, hi, u_max):
    n = len(lo)
    C = np.vstack([np.eye(n), -np.eye(n)])
    d = np.concatenate([hi, -np.asarray(lo)])
    return ConstraintSet(C, d, u_max=u_max)


def hold_trajectory(x, T=1.0, p=3):
    D = boundary_matrix(p, 2, T)
    pts = solve_boundary(D, x, x)
    return PlannedTrajectory([BezierCurve(T, pts)], gamma=2)


def hop_trajectory(x0, xT, T=1.0, p=3):
    D = boundary_matrix(p, 2, T)
    return PlannedTrajectory([BezierCurve(T, solve_boundary(D, x0, xT))], gamma=2)


def test_integrator_exact_feedforward_tracking():
    model = integrator_chain(2, 1)
    cs = box_constraints([-1, -1], [1, 1], 5.0)
    traj = hop_trajectory(np.array([0.0, 0.0]), np.array([0.5, 0.0]))
    res = rollout(model, traj, cs, TrackingCertificate.exact())
    err = np.max(np.abs(res.x_sim - res.x_ref))
    assert err <= 1e-6
    assert not res.violation


def test_pendulum_zero_disturbance_no_violation():
    model = pendulum_model(0.1, 1.0, 9.81)
    cs = box_constraints([-1.0, -7.5], [2 * np.pi + 1, 7.5], 5.0)
    cert = TrackingCertificate(0.005, 0.0, 1.0, 1.0, 1.0)
    traj = hold_trajectory(np.array([np.pi, 0.0]), T=0.5)
    res = rollout(model, traj, cs, cert, disturbance="zero")
    assert not res.violation
    report = monitor(res, cs)
    assert report.passed


def test_unknown_disturbance_policy_rejected():
    model = integrator_chain(2, 1)
    cs = box_constraints([-1, -1], [1, 1], 1.0)
    traj = hold_trajectory(np.zeros(2))
    with pytest.raises(ValueError):
        rollout(model, traj, cs, TrackingCertificate.exact(), disturbance="chaos")


def test_coarse_dt_rejected():
    model = integrator_chain(2, 1)
    cs = box_constraints([-1, -1], [1, 1], 1.0)
    traj = hold_trajectory(np.zeros(2), T=1.0)
    with pytest.raises(ValueError):
        rollout(model, traj, cs, TrackingCertificate.exact(), dt=0.01)


def test_divergence_detected():
    # Unstable positive feedback: negative gains blow the loop up.
    model = pendulum_model(0.1, 1.0, 9.81)
    cs = box_constraints([-0.5, -0.5], [0.5, 0.5], 100.0)
    traj = hold_trajectory(np.array([0.4, 0.0]), T=5.0)
    with pytest.raises(DivergenceError):
        rollout(model, traj, cs, TrackingCertificate.exact(), kp=-200.0, kd=-200.0)


def test_rk4_convergence_order():
    # Halving dt cuts terminal error by ~2^4; accept factor in [8, 32].
    model = pendulum_model(0.1, 1.0, 9.81)
    cs = box_constraints([-1.0, -7.5], [2 * np.pi + 1, 7.5], 5.0)
    cert = TrackingCertificate.exact()
    traj = hop_trajectory(np.array([np.pi, 0.0]), np.array([np.pi + 0.8, 0.0]),
                          T=0.5)
    # Reference: very fine integration.
    fine = rollout(model, traj, cs, cert, dt=0.5 / 6400, x0=np.array([np.pi + 0.1, 0.0]))
    ref = fine.x_sim[:, -1]
    errs = []
    for dt in (0.5 / 400, 0.5 / 800):
        res = rollout(model, traj, cs, cert, dt=dt, x0=np.array([np.pi + 0.1, 0.0]))
        errs.append(np.max(np.abs(res.x_sim[:, -1] - ref)))
    factor = errs[0] / errs[1]
    assert 8.0 <= factor <= 32.0


def test_disturbed_states_respect_error_bound():
    model = pendulum_model(0.1, 1.0, 9.81)
    cs = box_constraints([-1.0, -7.5], [2 * np.pi + 1, 7.5], 5.0)
    cert = TrackingCertificate(0.02, 0.01, 1.0, 1.0, 1.0)
    traj = hop_trajectory(np.array([np.pi, 0.0]), np.array([np.pi + 0.5, 0.0]),
                          T=0.5)
    for policy in ("zero", "worst", "random"):
        res = rollout(model, traj, cs, cert, disturbance=policy, seed=2)
        for i in range(res.t.size):
            bound = cert.error_bound(float(np.max(np.abs(res.u_d[:, i]))))
            assert np.max(np.abs(res.x_cl[:, i] - res.x_sim[:, i])) <= bound + 1e-12


def test_worst_disturbance_never_looser_than_zero():
    model = pendulum_model(0.1, 1.0, 9.81)
    cs = box_constraints([-1.0, -7.5], [2 * np.pi + 1, 7.5], 5.0)
    cert = TrackingCertificate(0.05, 0.0, 1.0, 1.0, 1.0)
    traj = hold_trajectory(np.array([np.pi, 0.0]), T=0.5)
    zero = rollout(model, traj, cs, cert, disturbance="zero")
    worst = rollout(model, traj, cs, cert, disturbance="worst")
    assert np.min(worst.state_margin) <= np.min(zero.state_margin) + 1e-12


def test_monitor_empty_result_vacuous_pass():
    from bezreach.sim import RolloutResult

    empty = RolloutResult(
        t=np.empty(0), x_ref=np.empty((2, 0)), x_sim=np.empty((2, 0)),
        x_cl=np.empty((2, 0)), u_d=np.empty((1, 0)), u=np.empty((1, 0)),
        state_margin=np.empty(0), input_margin=np.empty(0), violation=False,
    )
    cs = box_constraints([-1, -1], [1, 1], 1.0)
    report = monitor(empty, cs)
    assert report.passed and report.steps == 0


def test_monitor_margin_at_chebyshev_center():
    # For a polytope with unit-norm rows the state margin of a constant
    # rollout at the Chebyshev center equals the inradius.
    C = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
                  [np.sqrt(0.5), np.sqrt(0.5)]])
    d = np.array([1.0, 1.0, 1.0, 1.0, 0.8])
    cs = ConstraintSet(C, d, u_max=1.0)
    # Chebyshev center: maximize r s.t. C x + r <= d.
    A = np.hstack([C, np.ones((C.shape[0], 1))])
    res = lp.maximize(lp.Polytope(np.vstack([A, [[0, 0, -1.0]]]),
                                  np.concatenate([d, [0.0]])),
                      [0.0, 0.0, 1.0])
    center, radius = res.x[:2], res.value
    from bezreach.sim import RolloutResult

    steps = 5
    const = RolloutResult(
        t=np.linspace(0, 1, steps),
        x_ref=np.tile(center[:, None], steps), x_sim=np.tile(center[:, None], steps),
        x_cl=np.tile(center[:, None], steps), u_d=np.zeros((1, steps)),
        u=np.zeros((1, steps)),
        state_margin=np.zeros(steps), input_margin=np.zeros(steps),
        violation=False,
    )
    report = monitor(const, cs)
    assert np.isclose(report.min_state_margin, radius, atol=1e-6)


def test_monitor_input_exactly_at_limit():
    from bezreach.sim import RolloutResult

    cs = box_constraints([-1, -1], [1, 1], 2.0)
    steps = 3
    res = RolloutResult(
        t=np.linspace(0, 1, steps),
        x_ref=np.zeros((2, steps)), x_sim=np.zeros((2, steps)),
        x_cl=np.zeros((2, steps)), u_d=np.zeros((1, steps)),
        u=np.full((1, steps), 2.0),
        state_margin=np.ones(steps), input_margin=np.zeros(steps),
        violation=False,
    )
    report = monitor(res, cs)
    assert abs(report.min_input_margin) <= 1e-12
    assert report.passed


def test_inflated_disturbance_detected_as_violation():
    model = pendulum_model(0.1, 1.0, 9.81)
    # Tight box around the hold point so the inflated tube pokes out.
    cs = box_constraints([np.pi - 0.05, -1.0], [np.pi + 0.05, 1.0], 5.0)
    cert = TrackingCertificate(0.02, 0.0, 1.0, 1.0, 1.0)
    traj = hold_trajectory(np.array([np.pi, 0.0]), T=0.5)
    res = rollout(model, traj, cs, cert, disturbance="worst",
                  disturbance_scale=10.0)
    assert res.violation
    assert not monitor(res, cs).passed


@pytest.mark.parametrize("policy", ["zero", "worst", "random"])
@pytest.mark.parametrize("scale", [1.0, 10.0])
def test_violation_flag_agrees_with_monitor(policy, scale):
    # A tight box around the hop, so the inflated tube trips the check
    # under some policies and not under others.
    model = pendulum_model(0.1, 1.0, 9.81)
    cs = box_constraints([np.pi - 0.1, -1.0], [np.pi + 0.5, 1.0], 5.0)
    cert = TrackingCertificate(0.02, 0.0, 1.0, 1.0, 1.0)
    traj = hop_trajectory(np.array([np.pi, 0.0]), np.array([np.pi + 0.3, 0.0]), T=0.5)
    res = rollout(model, traj, cs, cert, disturbance=policy, seed=4,
                  disturbance_scale=scale)
    report = monitor(res, cs)
    assert res.violation == (not report.passed)
    assert report.min_state_margin == np.min(res.state_margin)
    assert report.min_input_margin == np.min(res.input_margin)
    if policy == "zero":
        assert not res.violation
    elif scale == 10.0:
        assert res.violation
