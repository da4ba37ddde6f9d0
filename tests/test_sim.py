"""Closed-loop rollout and constraint monitoring."""

import dataclasses
import warnings

import numpy as np
import pytest

from bezreach import lp, models, sim
from bezreach.bezier import BezierCurve, boundary_matrix, solve_boundary
from bezreach.models import (
    ConstraintSet,
    PlanningModel,
    TrackingCertificate,
    integrator_chain,
    pendulum_model,
    rk4,
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
    # Too coarse, not positive, or NaN.
    model = integrator_chain(2, 1)
    cs = box_constraints([-1, -1], [1, 1], 1.0)
    traj = hold_trajectory(np.zeros(2), T=1.0)
    for dt in (0.01, 0.0, -1e-3, np.nan):
        with pytest.raises(ValueError, match="dt="):
            rollout(model, traj, cs, TrackingCertificate.exact(), dt=dt)


def test_divergence_detected():
    # Unstable positive feedback: negative gains blow the loop up.  The
    # certificate's L_k = 40 = m l^2 (|kp| + |kd|) covers the feedback, so
    # the rollout runs until the state leaves the safety box.
    model = pendulum_model(0.1, 1.0, 9.81)
    cs = box_constraints([-0.5, -0.5], [0.5, 0.5], 100.0)
    traj = hold_trajectory(np.array([0.4, 0.0]), T=5.0)
    cert = TrackingCertificate(0.0, 0.0, 1.0, 1.0, 40.0)
    with pytest.raises(DivergenceError):
        rollout(model, traj, cs, cert, kp=-200.0, kd=-200.0)


def test_gains_beyond_the_certificates_lipschitz_k_are_refused():
    # The input row charges the tracker's feedback as L_k e, and on the
    # unit integrator that feedback reaches (|kp| + |kd|) e.
    model = integrator_chain(2, 1)
    cs = box_constraints([-1, -1], [1, 1], 2.0)
    cert = TrackingCertificate(0.05, 0.0, 1.0, 1.0, 1.0)
    traj = hold_trajectory(np.zeros(2))
    for kp, kd in ((5.0, 5.0), (0.5, 0.6), (-1.0, 0.5), (np.nan, 0.0)):
        with pytest.raises(ValueError, match=r"kp=.*kd=.*lipschitz_k"):
            rollout(model, traj, cs, cert, kp=kp, kd=kd)
    assert sim.feedback_gain(model, cs, 5.0, 5.0) == 10.0
    # Equality is allowed: the default gains give exactly L_k = 1.
    assert not rollout(model, traj, cs, cert).violation
    # Only kp acts when gamma = 1.
    assert sim.feedback_gain(integrator_chain(1, 2), box_constraints([-1, -1], [1, 1], 2.0),
                             0.5, 7.0) == 0.5


def test_feedback_gain_bounds_a_state_dependent_actuation():
    # g^-1 = 1 / (1 + cos(x0) / 2) over a box: ||g^-1(c)|| + m L_G r bounds
    # the sampled supremum of |g^-1|.
    model = varying_gain_model()
    cs = box_constraints([np.pi - 0.5, -1.0], [np.pi + 0.3, 1.0], 30.0)
    lo, hi = cs.bounding_box()
    xs = np.random.default_rng(0).uniform(lo, hi, size=(2000, 2))
    sampled = np.max(1.0 / np.abs(model.g_d(xs)))
    assert sampled <= sim.feedback_gain(model, cs, 1.0, 0.0)
    assert np.isclose(sim.feedback_gain(model, cs, 1.0, 0.0),
                      1.0 / (1.0 + 0.5 * np.cos(np.pi - 0.1)) + 0.85 * 1.0)


def test_nan_state_raises_divergence():
    # Every comparison with NaN is False: a NaN state must fail the
    # safety-box check, not run on and report a violation at the end.
    model = integrator_chain(2, 1)
    cs = box_constraints([-1, -1], [1, 1], 1.0)
    traj = hold_trajectory(np.zeros(2))
    with pytest.raises(DivergenceError):
        rollout(model, traj, cs, TrackingCertificate.exact(), x0=np.array([np.nan, 0.0]))


def test_unbounded_state_set_gets_an_unbounded_safety_side():
    # C_X bounds x only from above, or leaves x1 free on both sides: the
    # safety box is infinite on those coordinates, with no inf - inf
    # warning, and a NaN state still fails it.
    model = integrator_chain(2, 1)
    traj = hold_trajectory(np.zeros(2))
    for C, d in (([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0]),
                 ([[1.0, 0.0], [-1.0, 0.0]], [1.0, 1.0])):
        cs = ConstraintSet(C, d, u_max=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = rollout(model, traj, cs, TrackingCertificate.exact())
            assert not res.violation
            with pytest.raises(DivergenceError):
                rollout(model, traj, cs, TrackingCertificate.exact(),
                        x0=np.array([0.0, np.nan]))


def test_x0_of_the_wrong_shape_is_refused():
    model = integrator_chain(2, 1)
    cs = box_constraints([-1, -1], [1, 1], 1.0)
    traj = hold_trajectory(np.zeros(2))
    for x0 in (np.zeros((1, 2)), np.zeros(3), np.zeros(1), 0.0):
        with pytest.raises(ValueError, match=r"x0 has shape"):
            rollout(model, traj, cs, TrackingCertificate.exact(), x0=x0)


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


def test_worst_disturbance_attains_the_exact_state_margin():
    # v = e sign(C_r) for the row r that is tightest at the integrated
    # state is the worst point of the disturbance ball, so every step's
    # state margin equals min_r(d_r - C_r x_sim - e ||C_r||_1), also when
    # the loop starts off its reference and the tightest row moves.
    model = pendulum_model(0.1, 1.0, 9.81)
    cert = TrackingCertificate(0.02, 0.0, 1.0, 1.0, 1.0)
    x_hold = np.array([np.pi, 0.0])
    traj = hold_trajectory(x_hold, T=0.5)
    box = box_constraints([-1.0, -7.5], [2 * np.pi + 1, 7.5], 5.0)
    rng = np.random.default_rng(17)
    for _ in range(40):
        rows = rng.normal(size=(3, 2))
        cs = ConstraintSet(np.vstack([box.C, rows]),
                           np.concatenate([box.d, rows @ x_hold + rng.uniform(0.05, 0.3, 3)]),
                           u_max=5.0)
        x0 = x_hold + rng.uniform(-0.04, 0.04, size=2)
        res = rollout(model, traj, cs, cert, disturbance="worst", x0=x0)
        e = cert.error_bound(np.max(np.abs(res.u_d), axis=0))
        exact = np.min(cs.d[:, None] - cs.C @ res.x_sim
                       - np.sum(np.abs(cs.C), axis=1)[:, None] * e, axis=0)
        assert np.max(np.abs(res.state_margin - exact)) <= 1e-12


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


# -- row-wise helpers and rollout against the per-step code they replaced ------


def varying_gain_model():
    """Pendulum drift with the state-dependent actuation 1 + cos(x0) / 2."""
    pend = pendulum_model(0.1, 1.0, 9.81)
    return PlanningModel(
        gamma=2, m=1, f_d=pend.f_d,
        g_d=lambda x: (1.0 + 0.5 * np.cos(x[..., :1]))[..., None],
        lipschitz_f=pend.lipschitz_f, lipschitz_ginv=0.85, name="varying-gain",
    )


def loop_tracker_input(model, x, x_ref, u_d, gains):
    err = (x_ref - x).reshape(model.gamma, model.m)
    fb = gains @ err
    g = np.atleast_2d(model.g_d(x))
    return u_d + np.linalg.solve(g, fb)


def loop_disturbance(policy, rng, bound, cs, x_ref):
    n = x_ref.shape[0]
    if policy == "zero" or bound == 0.0:
        return np.zeros(n)
    if policy == "random":
        return bound * rng.choice([-1.0, 1.0], size=n)
    margins = cs.d - cs.C @ x_ref - bound * np.sum(np.abs(cs.C), axis=1)
    row = cs.C[int(np.argmin(margins))]
    return bound * np.where(row >= 0.0, 1.0, -1.0)


def loop_rollout(model, trajectory, cs, cert, disturbance, seed, scale):
    """The per-step rollout: a flat input per half step, a solve per RK4
    stage, and a disturbance and tracker input per step."""
    total = trajectory.total_duration
    steps = int(round(total / (min(s.duration for s in trajectory.segments) / 500.0)))
    gains = sim._tracker_gains(model.gamma, 0.5, 0.5)
    rng = np.random.default_rng(seed)
    t_half = np.linspace(0.0, total, 2 * steps + 1)
    x_ref_half = trajectory.sample_states(t_half)
    qg_half = trajectory.sample_q_gamma(t_half)
    ud_half = np.column_stack([models.flat_input(model, x_ref_half[:, i], qg_half[:, i])
                               for i in range(t_half.size)])

    def closed_loop(x, j):
        u = loop_tracker_input(model, x, x_ref_half[:, j], ud_half[:, j], gains)
        return model.state_derivative(x, u)

    x_sim = np.empty((model.n, steps + 1))
    x_sim[:, 0] = x_ref_half[:, 0]
    for i, x in enumerate(rk4(closed_loop, x_ref_half[:, 0], total / steps, steps),
                          start=1):
        x_sim[:, i] = x
    x_ref, u_d = x_ref_half[:, ::2], ud_half[:, ::2]
    x_cl = np.empty_like(x_sim)
    u = np.empty((model.m, steps + 1))
    for i in range(steps + 1):
        bound = scale * cert.error_bound(float(np.max(np.abs(u_d[:, i]))))
        x_cl[:, i] = x_sim[:, i] + loop_disturbance(disturbance, rng, bound, cs,
                                                    x_sim[:, i])
        u[:, i] = loop_tracker_input(model, x_cl[:, i], x_ref[:, i], u_d[:, i], gains)
    return x_ref, x_sim, x_cl, u_d, u, sim._margins(cs, x_cl, u)[2]


def tube_constraints(traj, diagonal, u_max, pad=0.05):
    """Box and diagonal rows around the reference, each padded by pad."""
    x = traj.sample_states(np.linspace(0.0, traj.total_duration, 401))
    n = x.shape[0]
    C = np.vstack([np.eye(n), -np.eye(n), [diagonal]])
    return ConstraintSet(C, np.max(C @ x, axis=1) + pad, u_max=u_max)


def row_cases():
    """(model, constraints, certificate, trajectory) for n = 2 and n = 4,
    constant and state-dependent g_d.  Scale 1 disturbances stay inside
    the constraints; scale 8 ones leave them."""
    hop = hop_trajectory(np.array([np.pi, 0.0]), np.array([np.pi + 0.5, 0.3]), T=0.5)
    chain_hop = hop_trajectory(np.array([0.1, -0.2, 0.0, 0.1]),
                               np.array([0.4, 0.1, -0.1, 0.0]), T=0.5)
    cert = TrackingCertificate(0.01, 0.001, 1.0, 1.0, 1.0)
    # The varying gain's g^-1 reaches 2.59 over its box, so its tracker
    # feedback needs L_k >= 2.59; L_k does not enter the rollout otherwise.
    varying_cert = TrackingCertificate(0.01, 0.001, 1.0, 1.0, 3.0)
    return [
        (pendulum_model(0.1, 1.0, 9.81), tube_constraints(hop, [0.6, 0.8], 2.0),
         cert, hop),
        (varying_gain_model(), tube_constraints(hop, [0.6, 0.8], 30.0), varying_cert, hop),
        (integrator_chain(2, 2),
         tube_constraints(chain_hop, [0.5, -0.5, 0.5, 0.5], 12.0), cert, chain_hop),
    ]


ROW_IDS = ["pendulum", "varying-gain", "integrator2x2"]


@pytest.mark.parametrize("case", range(3), ids=ROW_IDS)
def test_tracker_input_rows_equal_per_state_solve(case):
    model, _, _, _ = row_cases()[case]
    rng = np.random.default_rng(case)
    x, x_ref = rng.uniform(-2.0, 2.0, size=(2, 3, 11, model.n))
    u_d = rng.normal(size=(3, 11, model.m))
    gains = sim._tracker_gains(model.gamma, 0.5, 0.7)
    got = sim.tracker_input(model, x, x_ref, u_d, gains)
    ref = np.array([[loop_tracker_input(model, *args, gains) for args in zip(*rows)]
                    for rows in zip(x, x_ref, u_d)])
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("policy", sim.DISTURBANCE_POLICIES)
@pytest.mark.parametrize("case", range(3), ids=ROW_IDS)
def test_disturbance_rows_equal_per_step_draws(case, policy):
    # Positive bounds, so the per-step code draws at every step and both
    # consume the generator in the same order (n = 2 and n = 4).
    model, cs, _, _ = row_cases()[case]
    rng = np.random.default_rng(case)
    lo, hi = cs.bounding_box()
    x_ref = rng.uniform(lo - 0.1, hi + 0.1, size=(60, model.n))
    bound = rng.uniform(0.01, 0.5, size=60)
    got = sim._disturbance(policy, np.random.default_rng(9), bound, cs, x_ref)
    draws = np.random.default_rng(9)
    ref = np.array([loop_disturbance(policy, draws, b, cs, x)
                    for b, x in zip(bound, x_ref)])
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("policy", sim.DISTURBANCE_POLICIES)
@pytest.mark.parametrize("case", range(3), ids=ROW_IDS)
def test_rollout_matches_per_step_loop(case, policy):
    model, cs, cert, traj = row_cases()[case]
    for scale in (1.0, 8.0):
        res = rollout(model, traj, cs, cert, disturbance=policy, seed=5,
                      disturbance_scale=scale)
        x_ref, x_sim, x_cl, u_d, u, passed = loop_rollout(
            model, traj, cs, cert, policy, 5, scale)
        assert np.array_equal(res.x_ref, x_ref)
        assert np.array_equal(res.u_d, u_d)
        for got, ref in ((res.x_sim, x_sim), (res.x_cl, x_cl), (res.u, u)):
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-12
        assert res.violation == (not passed)


def per_state_actuation(model):
    """The model with its constant g_d returned once per state, so that
    rollout cannot tell it is constant and takes the per-stage form."""
    G = model.g_d(np.zeros(model.n))
    return dataclasses.replace(
        model, g_d=lambda x: np.broadcast_to(G, np.shape(x)[:-1] + G.shape))


def sheared_case():
    """integrator_chain(2, 2)'s case with the constant, non-symmetric
    g = [[1, 0.5], [0, 1]], whose g^-1 needs L_k >= 1.5."""
    model, cs, cert, traj = row_cases()[2]
    G = np.array([[1.0, 0.5], [0.0, 1.0]])
    return (dataclasses.replace(model, g_d=lambda x: G),
            cs, dataclasses.replace(cert, lipschitz_k=1.5), traj)


@pytest.mark.parametrize("policy", sim.DISTURBANCE_POLICIES)
@pytest.mark.parametrize("case", ["pendulum", "integrator2x2", "sheared2x2"])
def test_constant_and_per_stage_actuation_agree(case, policy):
    # g u_d folded into the half-step rows against g_d(x) u_d per stage.
    cases = row_cases()
    model, cs, cert, traj = {"pendulum": cases[0], "integrator2x2": cases[2],
                             "sheared2x2": sheared_case()}[case]
    for scale in (1.0, 8.0):
        got = rollout(model, traj, cs, cert, disturbance=policy, seed=3,
                      disturbance_scale=scale)
        ref = rollout(per_state_actuation(model), traj, cs, cert, disturbance=policy,
                      seed=3, disturbance_scale=scale)
        for field in ("x_sim", "x_cl", "u"):
            assert np.max(np.abs(getattr(got, field) - getattr(ref, field))) <= 1e-12
        assert got.violation == ref.violation


def test_constant_actuation_is_not_evaluated_per_step():
    # A constant g_d is evaluated a fixed number of times per rollout,
    # whatever the step count; the per-stage form would take 4 per step.
    model, cs, cert, traj = row_cases()[0]
    calls = []

    def counted(x):
        calls.append(1)
        return model.g_d(x)

    counted_model = dataclasses.replace(model, g_d=counted)
    dt = traj.total_duration / 500.0
    counts = []
    for step in (dt, dt / 4):
        calls.clear()
        rollout(counted_model, traj, cs, cert, dt=step)
        counts.append(len(calls))
    assert counts[0] == counts[1]
