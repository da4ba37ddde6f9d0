"""Certificate synthesis: row formulas, the norm-row lift, and the
control-point polytope, all checked against independent oracles."""

import numpy as np
import pytest

from bezreach.bezier import (
    BezierCurve,
    basis_matrix,
    boundary_matrix,
    derivative_map,
    solve_boundary,
    split_matrices,
    stacked_derivative_vec,
    state_matrix,
)
from bezreach.constraints import (
    InfeasibleCertificateError,
    LiftedLinearConstraints,
    MixedConstraintRow,
    _level_set_radius,
    _psd_projection_2x2,
    default_q_gamma_bound,
    input_bound_row,
    lift_rows,
    refined_polytope,
    sigma_box,
    state_bound_rows,
)
from bezreach.models import (
    ConstraintSet,
    PlanningModel,
    TrackingCertificate,
    flat_input,
    integrator_chain,
    pendulum_model,
    rk4,
    validate_lipschitz,
)


def box_constraints(lo, hi, u_max):
    n = len(lo)
    C = np.vstack([np.eye(n), -np.eye(n)])
    d = np.concatenate([hi, -np.asarray(lo)])
    return ConstraintSet(C, d, u_max=u_max)


# -- input row -------------------------------------------------------------


def test_tracker_gain_below_one_is_refused():
    # The tracker passes u_d through with gain 1, so an input row that
    # charges ||u_d|| with L_k < 1 would accept curves that exceed u_max.
    for lipschitz_k in (0.0, 0.3, 0.5, 0.999, float("nan")):
        with pytest.raises(ValueError, match="lipschitz_k"):
            TrackingCertificate(0.0, 0.0, 1.0, 1.0, lipschitz_k)
    # Likewise the tracking error enters the state with gain 1, so state
    # rows that charge e0 with L_pi < 1 are too loose; every constant must
    # be finite, and e0, L_e and L_psi nonnegative.
    nan, inf = float("nan"), float("inf")
    refused = {
        "lipschitz_pi": (0.999, 0.5, 0.0, -1.0, nan, inf),
        "lipschitz_psi": (-2.0, -1e-12, nan, inf),
        "e0": (-0.1, nan, inf),
        "lipschitz_e": (-0.1, nan, inf),
        "lipschitz_k": (inf,),
    }
    for name, values in refused.items():
        for value in values:
            fields = dict(e0=0.0, lipschitz_e=0.0, lipschitz_pi=1.0,
                          lipschitz_psi=1.0, lipschitz_k=1.0)
            fields[name] = value
            with pytest.raises(ValueError, match=f"{name}={value}"):
                TrackingCertificate(**fields)
    TrackingCertificate(0.0, 0.0, 1.0, 0.0, 1.0)  # every floor is allowed


def test_exact_tracking_charges_the_feedforward():
    row = input_bound_row(TrackingCertificate.exact(), np.zeros(2), u_max=3.0)
    assert np.allclose(row.a1, 0.0)
    assert row.a2 == 2.0 and row.a3 == 1.0
    assert np.isclose(row.b, 3.0)


def test_input_row_exact_tracking_a3():
    cert = TrackingCertificate(0.0, 0.0, 1.0, 1.0, 1.5)
    row = input_bound_row(cert, np.zeros(2), u_max=3.0)
    assert np.isclose(row.a3, 1.5)


def test_input_row_formula_oracle():
    # L_k=2, L_psi=0.5, L_e=0.1, u_max=5, K=1: a2=3, a3=2.2, b=4.
    cert = TrackingCertificate(0.5, 0.1, 1.0, 0.5, 2.0)
    row = input_bound_row(cert, np.zeros(2), u_max=5.0)
    assert np.isclose(row.a2, 3.0)
    assert np.isclose(row.a3, 2.2)
    # K = L_k e0 = 2 * 0.5 = 1.
    assert np.isclose(row.b, 4.0)


def test_input_row_infeasible_deficit():
    from bezreach.reachability import ReachSpec

    cert = TrackingCertificate(2.0, 0.0, 1.0, 1.0, 1.0)
    with pytest.raises(InfeasibleCertificateError):
        input_bound_row(cert, np.zeros(2), u_max=1.0)
    # The row's right-hand side is u_max - L_k e0, so at L_k = 2 an e0 of
    # 0.5 leaves it no margin and 0.6 a negative one, although e0 < u_max.
    for e0 in (0.5, 0.6):
        spec = ReachSpec(integrator_chain(2, 1), TrackingCertificate(e0, 0.0, 1.0, 1.0, 2.0),
                         box_constraints([-1.0, -1.0], [1.0, 1.0], 1.0), order=3,
                         horizon=1.0, x_ref=np.zeros(2), q_gamma_bound=10.0)
        with pytest.raises(InfeasibleCertificateError, match=r"u_max=1.0 .* L_k\*e0"):
            spec.certificate(np.zeros(2))


# -- state rows ------------------------------------------------------------


def test_state_rows_exact_tracking_unchanged():
    cs = box_constraints([-1, -1], [1, 1], 1.0)
    rows = state_bound_rows(cs, TrackingCertificate.exact())
    for row, c, d in zip(rows, cs.C, cs.d):
        assert np.allclose(row.a1, c)
        assert row.a2 == 0.0 and row.a3 == 0.0
        assert np.isclose(row.b, d)


def test_state_row_substitution_oracle():
    # C = [1 0], L_pi=1, L_e=0, e0=0.1, d=2: b = 1.9, a3 = 0.
    cs = ConstraintSet(np.array([[1.0, 0.0]]), np.array([2.0]), u_max=1.0)
    cert = TrackingCertificate(0.1, 0.0, 1.0, 1.0, 1.0)
    (row,) = state_bound_rows(cs, cert)
    assert np.isclose(row.b, 1.9)
    assert row.a3 == 0.0


def test_state_row_zero_row():
    cs = ConstraintSet(np.array([[0.0, 0.0]]), np.array([3.0]), u_max=1.0)
    cert = TrackingCertificate(0.5, 0.2, 1.0, 1.0, 1.0)
    (row,) = state_bound_rows(cs, cert)
    assert np.allclose(row.a1, 0.0)
    assert np.isclose(row.b, 3.0)


def test_mixed_row_rejects_negative_norm_coefficients():
    for a2, a3 in ((-1.0, 0.0), (0.0, -1.0), (float("nan"), 0.0), (0.0, float("nan"))):
        with pytest.raises(ValueError):
            MixedConstraintRow(np.zeros(2), a2, a3, 1.0)


# -- lift ------------------------------------------------------------------


def test_lift_pure_state_row_passthrough():
    model = integrator_chain(2, 1)
    row = MixedConstraintRow(np.array([1.0, -2.0]), 0.0, 0.0, 0.7)
    lifted = lift_rows([row], model, np.zeros(2), np.array([1.0, 1.0]))
    assert np.allclose(lifted.L[0], [1.0, -2.0, 0.0])
    assert np.isclose(lifted.h[0], 0.7)


def loop_expand_norm_row(a1, c, delta, x_ref, f_ref):
    """The row-by-row signed-permutation expansion `_expand_norm_row` replaced."""
    n, m = x_ref.shape[0], f_ref.shape[0]
    rows, rhs = [], []
    for i in range(n):
        for j in range(m):
            for s1 in (1.0, -1.0):
                for s2 in (1.0, -1.0):
                    lx = a1.copy()
                    lx[i] += c[0] * s1
                    lq = np.zeros(m)
                    lq[j] = c[1] * s2
                    rows.append(np.concatenate([lx, lq]))
                    rhs.append(delta + c[0] * s1 * x_ref[i] + c[1] * s2 * f_ref[j])
    return np.array(rows), np.array(rhs)


def loop_sigma_box_rows(s_max, x_ref, f_ref):
    """The row-by-row sigma-box rows `lift_rows` replaced."""
    n, m = x_ref.shape[0], f_ref.shape[0]
    box_L = np.zeros((2 * (n + m), n + m))
    box_h = np.zeros(2 * (n + m))
    for i in range(n):
        box_L[2 * i, i] = 1.0
        box_h[2 * i] = s_max[0] + x_ref[i]
        box_L[2 * i + 1, i] = -1.0
        box_h[2 * i + 1] = s_max[0] - x_ref[i]
    for j in range(m):
        r = 2 * n + 2 * j
        box_L[r, n + j] = 1.0
        box_h[r] = s_max[1] + f_ref[j]
        box_L[r + 1, n + j] = -1.0
        box_h[r + 1] = s_max[1] - f_ref[j]
    return box_L, box_h


def assert_bitwise_equal(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "model",
    [pendulum_model(0.1, 1.0, 9.81), integrator_chain(2, 1), integrator_chain(4, 1),
     integrator_chain(1, 2), integrator_chain(2, 2)],
    ids=lambda model: model.name,
)
def test_lift_rows_bitwise_equal_to_loop_construction(model):
    # n in {2, 4}, m in {1, 2}; state terms both zero and nonzero.
    n, m = model.n, model.m
    rng = np.random.default_rng(10 * n + m)
    for trial in range(6):
        a1 = rng.normal(size=n) if trial % 2 else np.zeros(n)
        x_ref = rng.normal(size=n)
        s_max = rng.uniform(0.5, 3.0, size=2)
        row = MixedConstraintRow(a1, float(rng.uniform(0.0, 1.0)), 0.5, 5.0)
        lifted = lift_rows([row], model, x_ref, s_max)
        f_ref = np.atleast_1d(model.f_d(x_ref))
        # The level set as lift_rows derives it, then the loop expansion.
        c, delta = reference_level_set(row, model, x_ref, s_max)
        norm_L, norm_h = loop_expand_norm_row(a1, c, delta, x_ref, f_ref)
        assert_bitwise_equal(lifted.L[: 4 * n * m], norm_L)
        assert_bitwise_equal(lifted.h[: 4 * n * m], norm_h)
        box_L, box_h = loop_sigma_box_rows(s_max, x_ref, f_ref)
        assert_bitwise_equal(lifted.L[-2 * (n + m):], box_L)
        assert_bitwise_equal(lifted.h[-2 * (n + m):], box_h)


def reference_level_set(row, model, x_ref, s_max):
    """(c, delta) of a norm row: the cut direction and radius."""
    g0 = float(np.max(np.sum(np.abs(np.linalg.inv(model.g_d(x_ref))), axis=1)))
    L_f, L_G = model.lipschitz_f, model.lipschitz_ginv
    M = 0.5 * row.a3 * np.array([[2.0 * L_G * L_f, L_G], [L_G, 0.0]])
    N = np.array([row.a3 * L_f * g0 + row.a2, row.a3 * g0])
    M_hat = _psd_projection_2x2(M)
    c = N + M_hat @ s_max
    return c, _level_set_radius(M_hat, N, c, row.b, s_max, not np.any(row.a1))


# -- the lift as it was built row by row, per reference ----------------------


def reference_lift_rows(rows, model, x_ref, s_max):
    """`lift_rows` before its reference-independent work was cached: every
    row's M_hat, expansion pattern and block rebuilt on each call."""
    n, m = model.n, model.m
    f_ref = np.atleast_1d(model.f_d(x_ref))
    L_blocks, h_blocks = [], []
    for row in rows:
        if row.a2 == 0.0 and row.a3 == 0.0:
            L_blocks.append(np.concatenate([row.a1, np.zeros(m)])[None, :])
            h_blocks.append(np.array([row.b]))
            continue
        c, delta = reference_level_set(row, model, x_ref, s_max)
        i, j, k1, k2 = np.indices((n, m, 2, 2)).reshape(4, -1)
        s1, s2 = 1.0 - 2.0 * k1, 1.0 - 2.0 * k2
        r = np.arange(i.size)
        block = np.zeros((i.size, n + m))
        block[:, :n] = row.a1
        block[r, i] += c[0] * s1
        block[r, n + j] = c[1] * s2
        L_blocks.append(block)
        h_blocks.append(delta + c[0] * s1 * x_ref[i] + c[1] * s2 * f_ref[j])
    idx = np.arange(n + m)
    box_L = np.zeros((2 * (n + m), n + m))
    box_L[2 * idx, idx] = 1.0
    box_L[2 * idx + 1, idx] = -1.0
    radius = np.repeat(s_max, [n, m])
    center = np.concatenate([x_ref, f_ref])
    L_blocks.append(box_L)
    h_blocks.append(np.column_stack([radius + center, radius - center]).ravel())
    return np.vstack(L_blocks), np.concatenate(h_blocks)


def reference_sigma_box(model, cs, x_ref, q_gamma_bound):
    """`sigma_box` for one reference, as scalars."""
    lo, hi = cs.bounding_box()
    s1 = float(np.max(np.maximum(np.abs(lo - x_ref), np.abs(hi - x_ref))))
    s2 = float(q_gamma_bound + np.max(np.abs(np.atleast_1d(model.f_d(x_ref)))))
    return np.array([s1, s2])


def reference_certificate(spec, refs):
    """`ReachSpec.certificate_for` as it was: the rows, the sigma box and
    the lift rebuilt per reference, and F assembled one segment at a time."""
    p, k, gamma, m = spec.order, spec.refinement, spec.model.gamma, spec.model.m
    powers = np.stack([np.linalg.matrix_power(derivative_map(p, spec.horizon / k), l)
                       for l in range(gamma + 1)])
    F_blocks, G_blocks = [], []
    for ref, Q in zip(refs, split_matrices(p, k)):
        rows = [input_bound_row(spec.cert, ref, spec.cs.u_max),
                *state_bound_rows(spec.cs, spec.cert)]
        L, h = reference_lift_rows(rows, spec.model, ref, reference_sigma_box(
            spec.model, spec.cs, ref, spec.q_gamma_bound))
        W = Q @ powers
        F_blocks.append(np.einsum("rla,lcj->jrca", L.reshape(-1, gamma + 1, m), W)
                        .reshape(-1, m * (p + 1)))
        G_blocks.append(np.tile(h, p + 1))
    return np.vstack(F_blocks), np.concatenate(G_blocks)


def varying_actuation_model():
    """Pendulum-like chain with a state-dependent g: g^-1 has Lipschitz
    constant > 0, so every norm row's M_hat is nonzero."""
    from bezreach.models import PlanningModel

    return PlanningModel(
        gamma=2, m=1,
        f_d=lambda x: 9.81 * np.sin(x[..., :1]),
        g_d=lambda x: (1.0 + 0.5 * np.cos(x[..., :1]))[..., None],
        lipschitz_f=9.81, lipschitz_ginv=2.0, name="varying",
    )


@pytest.mark.parametrize("model", [pendulum_model(0.1, 1.0, 9.81), varying_actuation_model(),
                                   integrator_chain(2, 2)], ids=lambda model: model.name)
def test_lift_rows_equals_per_row_construction(model):
    # Rows with a1 = 0 (closed-form radius), with a1 != 0 and a2 > 0 (the
    # vertex-max branch of `_level_set_radius`), and linear rows, in an
    # order that interleaves them; the same rows on several references,
    # as a certificate lifts them.
    n, m = model.n, model.m
    rng = np.random.default_rng(n + 7 * m)
    rows = [MixedConstraintRow(np.zeros(n), 0.7, 0.2, 9.0),
            MixedConstraintRow(rng.normal(size=n), 0.0, 0.0, 1.5),
            MixedConstraintRow(rng.normal(size=n), 0.3, 0.1, 12.0),
            MixedConstraintRow(rng.normal(size=n), 0.0, 0.0, 2.5)]
    for _ in range(5):
        x_ref = rng.normal(size=n)
        s_max = rng.uniform(0.5, 3.0, size=2)
        lifted = lift_rows(rows, model, x_ref, s_max)
        L, h = reference_lift_rows(rows, model, x_ref, s_max)
        assert_bitwise_equal(lifted.L, L)
        assert_bitwise_equal(lifted.h, h)


def certificate_cases():
    from bezreach.reachability import ReachSpec

    pend_cs = box_constraints([-1.0, -7.5], [2 * np.pi + 1, 7.5], 5.0)
    cert = TrackingCertificate(0.005, 0.0, 1.0, 1.0, 1.0)
    # lipschitz_e > 0 turns the state rows into norm rows with a1 != 0.
    loose = TrackingCertificate(0.005, 0.02, 1.0, 1.0, 1.0)
    chain_cs = box_constraints(-np.ones(4), np.ones(4), 2.0)
    rng = np.random.default_rng(3)
    pend_anchors = rng.uniform([-0.5, -5.0], [2 * np.pi + 0.5, 5.0], size=(3, 2))
    yield ReachSpec(pendulum_model(0.1, 1.0, 9.81), cert, pend_cs, order=3, horizon=0.15,
                    refinement=10, reference_policy="drift", q_gamma_bound=70.0), pend_anchors
    yield ReachSpec(varying_actuation_model(), loose, pend_cs, order=3, horizon=0.15,
                    refinement=4, reference_policy="drift", q_gamma_bound=70.0), pend_anchors
    for k in (1, 4):
        yield ReachSpec(integrator_chain(2, 2), cert, chain_cs, order=3, horizon=1.0,
                        refinement=k, reference_policy="fixed", x_ref=np.zeros(4),
                        q_gamma_bound=10.0), np.zeros((1, 4))
    yield ReachSpec(integrator_chain(2, 2), loose, chain_cs, order=4, horizon=1.0,
                    refinement=4, reference_policy="drift",
                    q_gamma_bound=10.0), rng.uniform(-0.5, 0.5, size=(2, 4))


def test_certificates_equal_per_reference_construction():
    cases = 0
    for spec, anchors in certificate_cases():
        for direction in ("forward", "backward"):
            for anchor in anchors:
                refs = spec.references(anchor, direction)
                built = spec.certificate_for(refs)
                F, G = reference_certificate(spec, refs)
                assert np.array_equal(built.F, F) and np.array_equal(built.G, G)
                cases += 1
    assert cases == 2 * (3 + 3 + 1 + 1 + 2)


def test_sigma_box_row_wise_equals_one_reference():
    model = pendulum_model(0.1, 1.0, 9.81)
    cs = box_constraints([-1.0, -7.5], [2 * np.pi + 1, 7.5], 5.0)
    refs = np.random.default_rng(4).uniform([-1.0, -7.0], [7.0, 7.0], size=(3, 10, 2))
    boxes = sigma_box(model, cs, refs, 70.0)
    assert boxes.shape == (3, 10, 2)
    for ref, box in zip(refs.reshape(-1, 2), boxes.reshape(-1, 2)):
        assert_bitwise_equal(box, reference_sigma_box(model, cs, ref, 70.0))
        assert_bitwise_equal(box, sigma_box(model, cs, ref, 70.0))


def sample_in_lift(rng, lifted, n, m, count, x_ref, s_max):
    """Rejection-sample points satisfying L [x; q] <= h from the sigma box."""
    f_off = np.zeros(n + m)
    lo = np.concatenate([x_ref - s_max[0], -np.full(m, s_max[1])])
    hi = np.concatenate([x_ref + s_max[0], np.full(m, s_max[1])])
    out = []
    while len(out) < count:
        xs = rng.uniform(lo, hi, size=(4096, n + m))
        ok = np.all(lifted.L @ xs.T <= lifted.h[:, None] + 1e-12, axis=0)
        out.extend(xs[ok])
    return np.array(out[:count])


def test_lift_exact_on_integrator():
    # L_f = L_G = 0: the lift is exact, so points on the level-set
    # boundary meet the source inequality with near-zero slack.
    model = integrator_chain(2, 1)
    x_ref = np.array([0.3, -0.1])
    s_max = np.array([1.0, 2.0])
    row = MixedConstraintRow(np.zeros(2), 1.5, 1.0, 0.5)
    lifted = lift_rows([row], model, x_ref, s_max)
    rng = np.random.default_rng(0)
    pts = sample_in_lift(rng, lifted, 2, 1, 3000, x_ref, s_max)
    worst = -np.inf
    for z in pts:
        x, q = z[:2], z[2:]
        u = flat_input(model, x, q)
        lhs = 1.5 * np.max(np.abs(x - x_ref)) + 1.0 * np.max(np.abs(u))
        assert lhs <= 0.5 + 1e-9
        worst = max(worst, lhs)
    # Exactness: the boundary is attainable (some samples come close).
    assert worst >= 0.5 - 0.05


def test_lift_sound_on_pendulum_monte_carlo():
    model = pendulum_model(0.5, 1.0, 9.81)
    cs = box_constraints([-np.pi, -4.0], [np.pi, 4.0], u_max=8.0)
    x_ref = np.array([0.4, 0.2])
    s_max = sigma_box(model, cs, x_ref, q_gamma_bound=30.0)
    row = MixedConstraintRow(np.array([0.0, 0.0]), 0.8, 0.4, 6.0)
    lifted = lift_rows([row], model, x_ref, s_max)
    rng = np.random.default_rng(1)
    pts = sample_in_lift(rng, lifted, 2, 1, 5000, x_ref, s_max)
    for z in pts:
        x, q = z[:2], z[2:]
        u = flat_input(model, x, q)
        lhs = 0.8 * np.max(np.abs(x - x_ref)) + 0.4 * np.max(np.abs(u))
        assert lhs <= 6.0 + 1e-9


def cut_polygon_vertices(s_max, c, delta):
    """Vertices of {0 <= s <= s_max, c^T s <= delta} (a 2-D polygon)."""
    corners = np.array([[0.0, 0.0], [s_max[0], 0.0], [0.0, s_max[1]], s_max])
    verts = [v for v in corners if c @ v <= delta + 1e-15]
    for a, b in ((0, 1), (0, 2), (1, 3), (2, 3)):
        da, db = c @ corners[a] - delta, c @ corners[b] - delta
        if da * db < 0:
            t = da / (da - db)
            verts.append(corners[a] + t * (corners[b] - corners[a]))
    return np.array(verts) if verts else np.empty((0, 2))


def level_set_holds(M_hat, N, c, b, s_max, delta):
    poly = cut_polygon_vertices(s_max, c, delta)
    if poly.size == 0:
        return True
    q = np.einsum("ij,jk,ik->i", poly, M_hat, poly) + poly @ N
    return float(np.max(q)) <= b + 1e-12


def bisection_radius(M_hat, N, c, b, s_max, tol=1e-9):
    """Oracle: largest delta whose cut polygon keeps the quadratic <= b,
    by bisection on the containment predicate."""
    cap = float(c @ s_max)
    if level_set_holds(M_hat, N, c, b, s_max, cap):
        return cap
    if not level_set_holds(M_hat, N, c, b, s_max, 0.0):
        return -np.inf
    lo, hi = 0.0, cap
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if level_set_holds(M_hat, N, c, b, s_max, mid):
            lo = mid
        else:
            hi = mid
    return lo


def random_norm_row(rng, coupled):
    """(M_hat, N, c, b, s_max) built as lift_rows builds them for a
    pure-norm row; `coupled` rows have L_G > 0, so M_hat != 0."""
    a2 = 0.0 if rng.random() < 0.1 else rng.uniform(0.0, 3.0)
    a3 = 0.0 if rng.random() < 0.1 and a2 > 0 else rng.uniform(0.05, 3.0)
    L_f = 0.0 if rng.random() < 0.2 else rng.uniform(0.0, 10.0)
    L_G = rng.uniform(0.01, 2.0) if coupled else 0.0
    g0 = rng.uniform(0.1, 3.0)
    s_max = rng.uniform(0.1, 5.0, size=2)
    M = 0.5 * a3 * np.array([[2.0 * L_G * L_f, L_G], [L_G, 0.0]])
    N = np.array([a3 * L_f * g0 + a2, a3 * g0])
    M_hat = _psd_projection_2x2(M)
    q_top = float(s_max @ M_hat @ s_max + N @ s_max)
    b = rng.uniform(-0.1, 1.2) * q_top
    return M_hat, N, N + M_hat @ s_max, b, s_max


def test_level_set_radius_matches_bisection_oracle():
    rng = np.random.default_rng(21)
    for trial in range(2000):
        M_hat, N, c, b, s_max = random_norm_row(rng, coupled=trial % 2 == 1)
        exact = _level_set_radius(M_hat, N, c, b, s_max, a1_zero=True)
        oracle = bisection_radius(M_hat, N, c, b, s_max)
        if np.isinf(oracle):
            assert exact == oracle
            continue
        assert abs(exact - oracle) <= 1e-9 * max(1.0, abs(exact))
        assert level_set_holds(M_hat, N, c, b, s_max, exact)


def test_state_row_radius_is_b_by_box_containment():
    # A row with a state term lifts with radius b because the quadratic
    # never exceeds the cut on the box: s^T M_hat s + N^T s <= c^T s for
    # c = N + M_hat s_max (equality at 0 and s_max), checked on random
    # coupled rows (L_G > 0, so M_hat != 0) at the corners and inside.
    rng = np.random.default_rng(23)
    for _ in range(500):
        M_hat, N, c, b, s_max = random_norm_row(rng, coupled=True)
        assert _level_set_radius(M_hat, N, c, b, s_max, a1_zero=False) == b
        corners = np.array([[0.0, 0.0], [s_max[0], 0.0], [0.0, s_max[1]], s_max])
        s = np.vstack([corners, rng.uniform(0.0, s_max, size=(200, 2))])
        q = np.einsum("ij,jk,ik->i", s, M_hat, s) + s @ N
        assert np.all(q <= s @ c + 1e-12 * max(1.0, float(c @ s_max)))


def test_level_set_radius_uncoupled_closed_form():
    # M_hat = 0 (L_G = 0, as for both shipped models): min(b, c . s_max).
    s_max = np.array([2.0, 3.0])
    N = np.array([0.7, 1.3])
    for b in (0.0, 0.5, 1.5, 4.0, 10.0):
        radius = _level_set_radius(np.zeros((2, 2)), N, N, b, s_max, a1_zero=True)
        assert radius == pytest.approx(min(b, N @ s_max), rel=1e-15)
    assert _level_set_radius(np.zeros((2, 2)), N, N, -0.1, s_max, True) == -np.inf


def test_lift_infeasible_box_raises():
    from bezreach.constraints import InfeasibleReductionError

    model = pendulum_model(0.5, 1.0, 9.81)
    row = MixedConstraintRow(np.zeros(2), 1.0, 1.0, -100.0)
    with pytest.raises(InfeasibleReductionError):
        lift_rows([row], model, np.zeros(2), np.array([1.0, 1.0]))


def test_lift_charges_the_entrywise_slope_of_g_inverse_m_times():
    # L_G bounds the slope of each entry of g^-1, so over m inputs the
    # matrix norm of g^-1 moves by up to m L_G.  A sheared two-input
    # model whose constant validate_lipschitz accepts: every point inside
    # the lifted input row must keep ||g^-1(x_d) q|| <= b.  Charging only
    # L_G admitted x_d = (1, 0), q = (3, 3), whose input is 4.5 > 4.
    L = 0.25

    def g_inv(x):
        x0 = np.asarray(x, dtype=float)[..., 0]
        G = np.zeros(x0.shape + (2, 2))
        G[..., 0, 0] = 1.0 + L * x0
        G[..., 0, 1] = L * x0
        G[..., 1, 1] = 1.0
        return G

    model = PlanningModel(gamma=1, m=2, f_d=lambda x: np.zeros(np.shape(x)[:-1] + (2,)),
                          g_d=lambda x: np.linalg.inv(g_inv(x)), lipschitz_f=0.0,
                          lipschitz_ginv=L, name="sheared")
    cs = box_constraints([-1, -1], [1, 1], 4.0)
    assert validate_lipschitz(model, cs)
    lifted = lift_rows([MixedConstraintRow(np.zeros(2), 0.0, 1.0, 4.0)], model,
                       np.zeros(2), np.array([1.0, 5.0]))
    t1, t2, sign = np.meshgrid(np.linspace(0.0, 1.0, 41), np.linspace(0.0, 5.0, 201),
                               [1.0, -1.0], indexing="ij")
    x_d = np.stack([sign * t1, np.zeros_like(t1)], axis=-1).reshape(-1, 2)
    q = np.stack([t2, t2], axis=-1).reshape(-1, 2)
    inside = np.all(np.hstack([x_d, q]) @ lifted.L.T <= lifted.h, axis=1)
    assert inside.sum() > 100
    u = (g_inv(x_d[inside]) @ q[inside][..., None])[..., 0]
    assert np.abs(u).max() <= 4.0


def test_sigma_box_positive_and_finite():
    model = pendulum_model(0.5, 1.0, 9.81)
    cs = box_constraints([-1, -2], [1, 2], 3.0)
    s = sigma_box(model, cs, np.zeros(2), default_q_gamma_bound(model, cs))
    assert s.shape == (2,)
    assert np.all(s > 0) and np.all(np.isfinite(s))


# -- control-point polytope ------------------------------------------------


def test_empty_lift_accepts_everything():
    lifted = LiftedLinearConstraints(L=np.zeros((0, 3)), h=np.zeros(0))
    cert = refined_polytope([lifted], 3, 1.0, 2, 1)
    assert cert.F.shape[0] == 0
    assert cert.accepts(np.random.default_rng(0).normal(size=(1, 4)))


def test_accepts_is_slack_within_tolerance():
    # accepts(p, tol) reads slack: on random curves near a certificate's
    # boundary, on NaN points (neither accepted), and on a certificate
    # with no rows (slack inf, so every curve is accepted).
    model = integrator_chain(2, 1)
    cs = box_constraints([-1, -1], [1, 1], 2.0)
    rows = [input_bound_row(TrackingCertificate.exact(), np.zeros(2), 2.0)]
    rows += state_bound_rows(cs, TrackingCertificate.exact())
    lifted = lift_rows(rows, model, np.zeros(2), np.array([1.0, 2.0]))
    empty = LiftedLinearConstraints(L=np.zeros((0, 3)), h=np.zeros(0))
    rng = np.random.default_rng(7)
    for cert in (refined_polytope([lifted], 3, 1.0, 2, 1),
                 refined_polytope([empty], 3, 1.0, 2, 1)):
        curves = [rng.uniform(-1.0, 1.0, size=(1, 4)) * rng.uniform(0.0, 0.6)
                  for _ in range(300)]
        curves += [np.array([[0.0, np.nan, 0.0, 0.0]]), np.full((1, 4), np.nan)]
        verdicts = set()
        for P in curves:
            for tol in (0.0, 1e-8, 0.1):
                got = cert.accepts(P, tol)
                assert got == (cert.slack(P) >= -tol)
                verdicts.add(got)
        if cert.F.shape[0]:
            assert verdicts == {True, False}
            assert not cert.accepts(curves[-1], np.inf)
        else:
            assert cert.slack(curves[0]) == np.inf and cert.accepts(curves[0], 0.0)


def test_polytope_equals_per_point_enumeration():
    # Integrator + box + exact tracking: acceptance must coincide with
    # imposing the lifted rows directly on each state-space control point.
    model = integrator_chain(2, 1)
    cs = box_constraints([-1, -1], [1, 1], 2.0)
    rows = [input_bound_row(TrackingCertificate.exact(), np.zeros(2), 2.0)]
    rows += state_bound_rows(cs, TrackingCertificate.exact())
    lifted = lift_rows(rows, model, np.zeros(2), np.array([1.0, 2.0]))
    p, T = 3, 1.0
    cert = refined_polytope([lifted], p, T, 2, 1)
    H = derivative_map(p, T)
    rng = np.random.default_rng(2)
    for _ in range(200):
        P = rng.uniform(-1.5, 1.5, size=(1, p + 1))
        stack = np.vstack([P, P @ H, P @ H @ H])  # x, v, q'' per column
        direct = np.all(lifted.L @ stack <= lifted.h[:, None] + 1e-10)
        assert cert.accepts(P, tol=1e-10) == direct


def test_accepted_curves_satisfy_continuous_constraints():
    model = integrator_chain(2, 1)
    cs = box_constraints([-1, -1], [1, 1], 2.0)
    rows = state_bound_rows(cs, TrackingCertificate.exact())
    lifted = lift_rows(rows, model, np.zeros(2), np.array([1.0, 2.0]))
    p, T = 4, 1.5
    cert = refined_polytope([lifted], p, T, 2, 1)
    rng = np.random.default_rng(3)
    ts = np.linspace(0, T, 2000)
    Z = basis_matrix(p, T, ts)
    accepted = 0
    while accepted < 50:
        P = rng.uniform(-1.2, 1.2, size=(1, p + 1))
        if not cert.accepts(P):
            continue
        accepted += 1
        X = state_matrix(P, 2, T) @ Z
        assert np.all(cs.C @ X <= cs.d[:, None] + 1e-9)


def test_rejected_when_control_point_outside():
    model = integrator_chain(2, 1)
    cs = box_constraints([-1, -1], [1, 1], 2.0)
    rows = state_bound_rows(cs, TrackingCertificate.exact())
    lifted = lift_rows(rows, model, np.zeros(2), np.array([1.0, 2.0]))
    cert = refined_polytope([lifted], 3, 1.0, 2, 1)
    P = np.array([[0.0, 5.0, 0.0, 0.0]])
    assert not cert.accepts(P)


def test_monotonicity_in_u_max():
    model = pendulum_model(0.5, 1.0, 9.81)
    cs_lo = box_constraints([-np.pi, -4.0], [np.pi, 4.0], u_max=2.0)
    cs_hi = box_constraints([-np.pi, -4.0], [np.pi, 4.0], u_max=5.0)
    cert = TrackingCertificate(0.01, 0.0, 1.0, 1.0, 1.0)
    x_ref = np.zeros(2)
    s = np.array([np.pi, 20.0])

    def build(cs):
        rows = [input_bound_row(cert, x_ref, cs.u_max)]
        rows += state_bound_rows(cs, cert)
        return refined_polytope([lift_rows(rows, model, x_ref, s)], 3, 1.0, 2, 1)

    lo, hi = build(cs_lo), build(cs_hi)
    assert np.array_equal(lo.F, hi.F)
    assert np.all(hi.G >= lo.G - 1e-12)


# -- refinement ------------------------------------------------------------


def make_pendulum_lift(x_ref, u_max=5.0, q_bound=40.0):
    model = pendulum_model(0.2, 1.0, 9.81)
    cs = box_constraints([-2 * np.pi, -6.0], [2 * np.pi, 6.0], u_max)
    cert = TrackingCertificate(0.01, 0.0, 1.0, 1.0, 1.0)
    rows = [input_bound_row(cert, x_ref, u_max)]
    rows += state_bound_rows(cs, cert)
    s = sigma_box(model, cs, x_ref, q_gamma_bound=q_bound)
    return lift_rows(rows, model, x_ref, s)


def kron_refined_polytope(lifted_segments, p, T, gamma, m):
    """The assembly refined_polytope replaced: each segment's rows imposed
    per control point through the vectorized derivative stack, composed
    with the segment's split map."""
    k = len(lifted_segments)
    ext = stacked_derivative_vec(p, T / k, m, gamma + 1)
    F = [np.kron(np.eye(p + 1), ls.L) @ ext @ np.kron(Q.T, np.eye(m))
         for ls, Q in zip(lifted_segments, split_matrices(p, k))]
    return np.vstack(F), np.concatenate([np.tile(ls.h, p + 1) for ls in lifted_segments])


@pytest.mark.parametrize("k", [1, 2, 4, 10])
def test_refined_polytope_matches_kron_construction(k):
    from bezreach.reachability import ReachSpec

    pend = pendulum_model(0.1, 1.0, 9.81)
    pend_cs = box_constraints([-0.5, -7.0], [2 * np.pi + 0.5, 7.0], 5.0)
    chain = integrator_chain(2, 2)
    chain_cs = box_constraints(-np.ones(4), np.ones(4), 2.0)
    cert = TrackingCertificate(0.005, 0.0, 1.0, 1.0, 1.0)
    rng = np.random.default_rng(k)
    cases = [(ReachSpec(pend, cert, pend_cs, order=3, horizon=0.15, refinement=k,
                        reference_policy="drift", q_gamma_bound=70.0), a)
             for a in rng.uniform([-0.3, -5.0], [2 * np.pi + 0.3, 5.0], size=(4, 2))]
    cases += [(ReachSpec(chain, cert, chain_cs, order=4, horizon=1.0, refinement=k,
                         reference_policy="drift", q_gamma_bound=10.0), a)
              for a in rng.uniform(-0.5, 0.5, size=(2, 4))]
    for spec, anchor in cases:
        m = spec.model.m
        for direction in ("forward", "backward"):
            refs = spec.references(anchor, direction)
            lifted = [lift_rows([input_bound_row(cert, r, spec.cs.u_max),
                                 *state_bound_rows(spec.cs, cert)], spec.model, r,
                                sigma_box(spec.model, spec.cs, r, spec.q_gamma_bound))
                      for r in refs]
            cert_poly = refined_polytope(lifted, spec.order, spec.horizon, 2, m)
            F, G = kron_refined_polytope(lifted, spec.order, spec.horizon, 2, m)
            assert np.array_equal(cert_poly.G, G)
            assert cert_poly.F.shape == F.shape
            assert np.max(np.abs(cert_poly.F - F)) <= 1e-12 * np.max(np.abs(F))
            built = spec.certificate_for(refs)
            assert np.array_equal(built.F, cert_poly.F)
            assert np.array_equal(built.G, cert_poly.G)


def test_refined_acceptance_matches_split_oracle():
    # A curve passes the refined certificate iff each split segment,
    # rescaled to its own duration T/k, passes the per-segment base.
    x_ref = np.array([0.5, 0.0])
    lifted = make_pendulum_lift(x_ref)
    p, T, k = 3, 1.0, 4
    ref = refined_polytope([lifted] * k, p, T, 2, 1)
    seg_base = refined_polytope([lifted], p, T / k, 2, 1)
    Qs = split_matrices(p, k)
    rng = np.random.default_rng(4)
    for _ in range(100):
        P = rng.uniform(-1.0, 1.0, size=(1, p + 1))
        direct = all(seg_base.accepts(P @ Q, tol=1e-9) for Q in Qs)
        assert ref.accepts(P, tol=1e-9) == direct


def test_refinement_reduces_conservatism_on_swing():
    # A drift-consistent swing that one coarse reference rejects is
    # accepted once the reference is resampled along the segment.
    model = pendulum_model(0.1, 1.0, 9.81)
    cs = box_constraints([-1.0, -7.5], [2 * np.pi + 1, 7.5], u_max=2.0)
    cert = TrackingCertificate(0.005, 0.0, 1.0, 1.0, 1.0)
    from bezreach.reachability import ReachSpec

    x0 = np.array([np.pi + 0.8, 2.0])
    coarse = ReachSpec(model, cert, cs, order=3, horizon=0.3, refinement=1,
                       reference_policy="drift", q_gamma_bound=70.0)
    fine = ReachSpec(model, cert, cs, order=3, horizon=0.3, refinement=20,
                     reference_policy="drift", q_gamma_bound=70.0)
    # A short hop along the drift flow (64 RK4 steps).
    *_, xT = rk4(lambda x, j: model.drift_field(x), x0, 0.3 / 64, 64)
    D = boundary_matrix(3, 2, 0.3)
    P = solve_boundary(D, x0, xT)
    assert fine.certificate(x0, "forward").accepts(P)
    assert not coarse.certificate(x0, "forward").accepts(P)
