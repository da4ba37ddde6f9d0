"""Planning models, flat inputs, certificates, and constraint sets."""

import numpy as np
import pytest

from bezreach.bezier import BezierCurve, basis_matrix, derivative_map, state_matrix
from bezreach.constraints import default_q_gamma_bound
from bezreach.models import (
    ConstraintSet,
    PlanningModel,
    SingularActuationError,
    TrackingCertificate,
    flat_input,
    integrator_chain,
    pendulum_energy_controller,
    pendulum_model,
    rk4,
    validate_lipschitz,
)


def box_constraints(lo, hi, u_max):
    n = len(lo)
    C = np.vstack([np.eye(n), -np.eye(n)])
    d = np.concatenate([hi, -np.asarray(lo)])
    return ConstraintSet(C, d, u_max=u_max)


# The slope of 1 / (1 + cos(x0) / 2) in x0 peaks at cos(x0) = 1 - sqrt(3).
COS_PEAK = 1.0 - np.sqrt(3.0)
GINV_SLOPE = 0.5 * np.sqrt(1.0 - COS_PEAK**2) / (1.0 + 0.5 * COS_PEAK) ** 2


def varying_gain_model(lipschitz_ginv=GINV_SLOPE):
    """Pendulum drift with the state-dependent actuation 1 + cos(x0) / 2."""
    pend = pendulum_model(0.1, 1.0, 9.81)
    return PlanningModel(
        gamma=2, m=1, f_d=pend.f_d,
        g_d=lambda x: (1.0 + 0.5 * np.cos(x[..., :1]))[..., None],
        lipschitz_f=pend.lipschitz_f, lipschitz_ginv=lipschitz_ginv,
        name="varying-gain",
    )


def coupled_gain_model():
    """Double integrator in R^2 with the upper-triangular, state-dependent
    actuation [[1, sin(x0) / 2], [0, 1 + cos(x1) / 5]]."""
    chain = integrator_chain(2, 2)

    def g_d(x):
        one, zero = np.ones_like(x[..., 0]), np.zeros_like(x[..., 0])
        rows = [[one, 0.5 * np.sin(x[..., 0])], [zero, 1.0 + 0.2 * np.cos(x[..., 1])]]
        return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)

    return PlanningModel(gamma=2, m=2, f_d=chain.f_d, g_d=g_d, lipschitz_f=0.0,
                         lipschitz_ginv=1.0, name="coupled-gain")


def row_models():
    return [pendulum_model(0.1, 1.0, 9.81), integrator_chain(2, 2), varying_gain_model(),
            coupled_gain_model()]


def loop_flat_input(model, x_d, q_gamma):
    # The per-state flat input that the row-wise one replaced.
    x_d = np.asarray(x_d, dtype=float).reshape(-1)
    q_gamma = np.asarray(q_gamma, dtype=float).reshape(-1)
    g = np.atleast_2d(model.g_d(x_d))
    cond = np.linalg.cond(g)
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularActuationError(f"g_d singular at state {x_d}")
    return np.linalg.solve(g, q_gamma - model.f_d(x_d))


# -- flat input ------------------------------------------------------------


def test_flat_input_double_integrator_identity():
    model = integrator_chain(2, 1)
    q = np.array([3.7])
    assert np.allclose(flat_input(model, np.array([0.1, 0.2]), q), q)


def test_flat_input_pendulum_origin():
    model = pendulum_model(1.0, 1.0, 9.81)
    assert np.allclose(flat_input(model, np.zeros(2), np.zeros(1)), 0.0)


def test_flat_input_pendulum_gravity_compensation():
    # theta = pi/2, zero commanded acceleration: torque cancels gravity.
    model = pendulum_model(1.0, 1.0, 9.81)
    u = flat_input(model, np.array([np.pi / 2, 0.0]), np.zeros(1))
    assert np.isclose(u[0], -9.81, atol=1e-12)


def test_flat_input_singular_actuation():
    model = integrator_chain(2, 1)
    bad = type(model)(
        gamma=2, m=1, f_d=model.f_d, g_d=lambda x: np.array([[0.0]]),
        lipschitz_f=0.0, lipschitz_ginv=0.0,
    )
    with pytest.raises(SingularActuationError):
        flat_input(bad, np.zeros(2), np.zeros(1))


@pytest.mark.parametrize("model", row_models(), ids=lambda m: m.name)
def test_flat_input_rows_equal_per_state_solve(model):
    rng = np.random.default_rng(3)
    xs = rng.uniform(-4.0, 4.0, size=(3, 7, model.n))
    qs = rng.normal(scale=5.0, size=(3, 7, model.m))
    got = flat_input(model, xs, qs)
    assert got.shape == (3, 7, model.m)
    ref = np.array([[loop_flat_input(model, x, q) for x, q in zip(xr, qr)]
                    for xr, qr in zip(xs, qs)])
    assert np.array_equal(got, ref)
    assert np.array_equal(flat_input(model, xs[1, 2], qs[1, 2]), ref[1, 2])


@pytest.mark.parametrize("model", row_models(), ids=lambda m: m.name)
def test_state_derivative_rows_equal_per_state_code(model):
    rng = np.random.default_rng(4)
    xs = rng.uniform(-4.0, 4.0, size=(3, 7, model.n))
    us = rng.normal(size=(3, 7, model.m))
    ref = np.empty_like(xs)
    for idx in np.ndindex(xs.shape[:-1]):
        ref[idx] = model.drift_field(xs[idx])
        ref[idx][model.n - model.m :] += model.g_d(xs[idx]) @ us[idx]
    assert np.array_equal(model.state_derivative(xs, us), ref)
    assert np.array_equal(model.state_derivative(xs[2, 1], us[2, 1]), ref[2, 1])


def test_flat_input_singular_on_one_state_of_batch():
    # g = x0 vanishes only at the fourth state of the batch.
    model = integrator_chain(2, 1)
    bad = type(model)(
        gamma=2, m=1, f_d=model.f_d, g_d=lambda x: x[..., :1, None],
        lipschitz_f=0.0, lipschitz_ginv=0.0,
    )
    xs = np.column_stack([np.linspace(1.0, 2.0, 6), np.zeros(6)])
    assert np.all(np.isfinite(flat_input(bad, xs, np.ones((6, 1)))))
    xs[3, 0] = 0.0
    with pytest.raises(SingularActuationError, match=r"state \[0\. 0\.\]"):
        flat_input(bad, xs, np.ones((6, 1)))


# -- pendulum model --------------------------------------------------------


def test_pendulum_drift_at_origin_zero():
    model = pendulum_model(0.5, 2.0, 9.81)
    assert np.allclose(model.f_d(np.zeros(2)), 0.0)


def test_pendulum_lipschitz_f_is_g_over_l():
    model = pendulum_model(1.0, 2.0, 9.81)
    assert np.isclose(model.lipschitz_f, 9.81 / 2.0)
    # |d/dtheta (g/l) sin| = (g/l)|cos| <= g/l, attained at theta = 0.
    thetas = np.linspace(-np.pi, np.pi, 201)
    slopes = np.abs(np.gradient((9.81 / 2.0) * np.sin(thetas), thetas))
    assert np.max(slopes) <= model.lipschitz_f + 1e-3


def test_pendulum_constant_actuation_lipschitz_zero():
    model = pendulum_model(1.0, 1.0, 9.81)
    assert model.lipschitz_ginv == 0.0


def test_pendulum_rejects_nonpositive_parameters():
    nan = float("nan")
    for mass, length in ((0.0, 1.0), (1.0, -1.0), (nan, 1.0), (1.0, nan)):
        with pytest.raises(ValueError):
            pendulum_model(mass, length, 9.81)


def test_validate_lipschitz_pendulum():
    model = pendulum_model(0.1, 1.0, 9.81)
    cs = box_constraints([-1.0, -7.5], [2 * np.pi + 1, 7.5], u_max=5.0)
    assert validate_lipschitz(model, cs, samples=2000)


def test_validate_lipschitz_detects_understated_constant():
    model = pendulum_model(0.1, 1.0, 9.81)
    cheat = type(model)(
        gamma=2, m=1, f_d=model.f_d, g_d=model.g_d,
        lipschitz_f=0.1 * model.lipschitz_f, lipschitz_ginv=0.0,
    )
    cs = box_constraints([-1.0, -7.5], [2 * np.pi + 1, 7.5], u_max=5.0)
    assert not validate_lipschitz(cheat, cs, samples=2000)


def test_validate_lipschitz_rejects_understated_ginv_for_state_dependent_g():
    cs = box_constraints([-1.0, -7.5], [2 * np.pi + 1, 7.5], u_max=5.0)
    assert validate_lipschitz(varying_gain_model(), cs, samples=2000)
    assert not validate_lipschitz(varying_gain_model(0.5 * GINV_SLOPE), cs,
                                  samples=2000)


def loop_validate_lipschitz(model, cs, samples, seed=0, slack=1e-9):
    # The per-sample check that the row-wise validator replaced.
    lo, hi = cs.bounding_box()
    rng = np.random.default_rng(seed)
    xs = rng.uniform(lo, hi, size=(samples, model.n))
    ys = rng.uniform(lo, hi, size=(samples, model.n))
    for x, y in zip(xs, ys):
        dx = np.max(np.abs(x - y))
        if dx < 1e-12:
            continue
        df = np.max(np.abs(model.f_d(x) - model.f_d(y)))
        if df > model.lipschitz_f * dx + slack:
            return False
        gi_x = np.linalg.inv(np.atleast_2d(model.g_d(x)))
        gi_y = np.linalg.inv(np.atleast_2d(model.g_d(y)))
        dg = np.max(np.abs(gi_x - gi_y))
        if dg > model.lipschitz_ginv * dx + slack:
            return False
    return True


@pytest.mark.parametrize("scale", [1.0, 0.9, 0.5])
def test_validate_lipschitz_equals_per_sample_loop(scale):
    # Constants scaled below the true slope sit near the sampled maximum,
    # so the two validators must agree sample for sample.
    pend = pendulum_model(0.1, 1.0, 9.81)
    cheats = [
        type(pend)(gamma=2, m=1, f_d=pend.f_d, g_d=pend.g_d,
                   lipschitz_f=scale * pend.lipschitz_f, lipschitz_ginv=0.0),
        varying_gain_model(scale * GINV_SLOPE),
        integrator_chain(2, 2),
    ]
    for model in cheats:
        cs = box_constraints([-3.0] * model.n, [3.0] * model.n, u_max=1.0)
        for samples in (1, 40, 500):
            assert validate_lipschitz(model, cs, samples) == \
                loop_validate_lipschitz(model, cs, samples)


@pytest.mark.parametrize("model", row_models(), ids=lambda m: m.name)
def test_default_q_gamma_bound_equals_per_sample_loop(model):
    cs = box_constraints([-3.0] * model.n, [3.0] * model.n, u_max=2.0)
    lo, hi = cs.bounding_box()
    xs = np.random.default_rng(0).uniform(lo, hi, size=(512, model.n))
    f_max = float(np.max(np.abs(model.f_d(xs))))
    g_max = max(
        float(np.max(np.sum(np.abs(np.atleast_2d(model.g_d(x))), axis=1))) for x in xs
    )
    assert default_q_gamma_bound(model, cs) == f_max + g_max * cs.u_max


# -- integrator chain ------------------------------------------------------


def test_integrator_dimensions():
    model = integrator_chain(2, 2)
    assert model.n == 4
    assert np.allclose(model.f_d(np.ones(4)), 0.0)
    assert validate_lipschitz(model, box_constraints([-1] * 4, [1] * 4, 1.0),
                              samples=500)


def test_dynamic_feasibility_of_flat_input():
    # State curve from any smooth output plus flat_input satisfies the
    # chain dynamics on a dense grid.
    model = pendulum_model(0.2, 1.0, 9.81)
    rng = np.random.default_rng(0)
    curve = BezierCurve(1.0, rng.normal(size=(1, 6)))
    H = derivative_map(5, 1.0)
    X = state_matrix(curve.points, 2, 1.0)
    q2 = curve.points @ H @ H
    for t in np.linspace(0, 1, 50):
        z = basis_matrix(5, 1.0, [float(t)])[:, 0]
        x = X @ z
        q = q2 @ z
        u = flat_input(model, x, q)
        dx = model.state_derivative(x, u)
        # Velocity consistency is structural; acceleration must match q.
        assert np.allclose(dx[1], q, atol=1e-8)


# -- tracking certificate --------------------------------------------------


def test_certificate_error_bound_affine():
    cert = TrackingCertificate(0.1, 0.2, 1.0, 1.0, 1.0)
    assert np.isclose(cert.error_bound(2.0), 0.5)


def test_certificate_exact_is_zero_error():
    cert = TrackingCertificate.exact()
    assert cert.error_bound(10.0) == 0.0


def test_certificate_rejects_negative_parameters():
    with pytest.raises(ValueError):
        TrackingCertificate(-0.1, 0.0, 1.0, 1.0, 1.0)


# -- constraint set --------------------------------------------------------


def test_constraint_set_shape_mismatch():
    with pytest.raises(ValueError):
        ConstraintSet(np.eye(2), np.ones(3), u_max=1.0)


def test_constraint_set_rejects_u_max_out_of_range():
    for u_max in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"u_max={u_max}"):
            ConstraintSet(np.eye(2), np.ones(2), u_max=u_max)


def test_constraint_set_membership():
    cs = box_constraints([-1, -1], [1, 1], u_max=2.0)
    assert cs.contains([0.5, -0.5])
    assert not cs.contains([1.5, 0.0])


# -- energy controller -----------------------------------------------------


def test_energy_controller_respects_torque_limits():
    ctrl = pendulum_energy_controller(0.1, 1.0, 9.81, u_pump=0.04, u_catch=0.15)
    rng = np.random.default_rng(1)
    for _ in range(500):
        x = rng.uniform([-1.0, -7.5], [2 * np.pi + 1, 7.5])
        assert abs(ctrl(x)) <= 0.15 + 1e-12


def test_energy_controller_pumps_toward_upright_energy():
    ctrl = pendulum_energy_controller(0.1, 1.0, 9.81, u_pump=0.04, u_catch=0.15)
    # Hanging down with positive velocity and low energy: torque aids motion.
    u = ctrl(np.array([np.pi, 1.0]))
    assert u > 0.0


# -- batched drift and the RK4 helper ---------------------------------------


@pytest.mark.parametrize("model", [pendulum_model(0.1, 1.0, 9.81), integrator_chain(2, 2),
                                   integrator_chain(3, 1)], ids=lambda m: m.name)
def test_drift_field_is_row_wise_over_batches(model):
    xs = np.random.default_rng(0).uniform(-4.0, 4.0, size=(3, 5, model.n))
    batch = model.drift_field(xs)
    f = model.f_d(xs)
    assert batch.shape == xs.shape and f.shape == xs.shape[:-1] + (model.m,)
    for idx in np.ndindex(xs.shape[:-1]):
        assert np.array_equal(batch[idx], model.drift_field(xs[idx]))
        assert np.array_equal(f[idx], model.f_d(xs[idx]))


def test_rk4_step_is_fourth_order_taylor_of_linear_flow():
    # For x' = A x one RK4 step is sum_{i<=4} (hA)^i / i! applied to x.
    A = np.array([[0.0, 1.0], [-2.0, -0.3]])
    h, x0 = 0.1, np.array([1.0, -0.5])
    (x1,) = rk4(lambda x, j: A @ x, x0, h, 1)
    taylor = sum(np.linalg.matrix_power(h * A, i) / np.prod(np.arange(1, i + 1))
                 for i in range(5))
    assert np.allclose(x1, taylor @ x0, rtol=0, atol=1e-14)


def test_rk4_half_step_index_and_yields():
    # f sees j = 2i, 2i+1, 2i+1, 2i+2 in step i; every yield is a new array.
    seen = []

    def f(x, j):
        seen.append(j)
        return np.zeros_like(x)

    states = list(rk4(f, np.ones(2), 0.5, 3))
    assert seen == [0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6]
    assert len(states) == 3 and len({id(x) for x in states}) == 3


def test_rk4_row_steps_match_scalar_runs():
    # An array step broadcast over a batch does each row's scalar arithmetic.
    model = pendulum_model(0.1, 1.0, 9.81)
    x0 = np.random.default_rng(1).uniform(-3.0, 3.0, size=(6, 2))
    h = np.linspace(-0.02, 0.03, 6)
    *_, batch = rk4(lambda x, j: model.drift_field(x), x0, h[:, None], 20)
    for row, hi, x in zip(batch, h, x0):
        *_, single = rk4(lambda y, j: model.drift_field(y), x, hi, 20)
        assert np.array_equal(row, single)
