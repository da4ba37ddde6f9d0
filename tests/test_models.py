"""Planning models, flat inputs, certificates, and constraint sets."""

import numpy as np
import pytest

from bezreach.bezier import BezierCurve, derivative_map, state_matrix
from bezreach.models import (
    ConstraintSet,
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
    with pytest.raises(ValueError):
        pendulum_model(0.0, 1.0, 9.81)


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
        from bezreach.bezier import bernstein_basis

        z = bernstein_basis(5, 1.0, float(t))
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


def test_constraint_set_membership():
    cs = box_constraints([-1, -1], [1, 1], u_max=2.0)
    assert cs.contains([0.5, -0.5])
    assert not cs.contains([1.5, 0.0])


def test_effective_u_max_with_weights():
    cs = ConstraintSet(np.eye(2), np.ones(2), u_max=4.0, W=np.diag([2.0, 1.0]))
    assert np.isclose(cs.effective_u_max(), 2.0)


def test_constraint_set_compactness():
    assert box_constraints([-1, -1], [1, 1], 1.0).is_compact()
    half = ConstraintSet(np.array([[1.0, 0.0]]), np.array([1.0]), u_max=1.0)
    assert not half.is_compact()


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
