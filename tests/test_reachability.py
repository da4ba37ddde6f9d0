"""Forward/backward reachable polytopes and their defining identities."""

import numpy as np
import pytest

from bezreach import constraints, lp, reachability
from bezreach.bezier import basis_matrix, state_matrix
from bezreach.models import (
    ConstraintSet,
    TrackingCertificate,
    integrator_chain,
    pendulum_model,
)
from bezreach.planner import build_graph, extract_trajectory, search
from bezreach.reachability import ReachSpec, sample_cloud, volume_estimate


def box_constraints(lo, hi, u_max):
    n = len(lo)
    C = np.vstack([np.eye(n), -np.eye(n)])
    d = np.concatenate([hi, -np.asarray(lo)])
    return ConstraintSet(C, d, u_max=u_max)


def integrator_spec(u_max=2.0, order=3, horizon=1.0, refinement=1):
    model = integrator_chain(2, 1)
    cs = box_constraints([-1, -1], [1, 1], u_max)
    cert = TrackingCertificate(0.01, 0.0, 1.0, 1.0, 1.0)
    return ReachSpec(
        model, cert, cs, order=order, horizon=horizon, refinement=refinement,
        reference_policy="fixed", x_ref=np.zeros(2), q_gamma_bound=10.0,
    )


def pendulum_spec(u_max=2.0, refinement=1, policy="fixed"):
    model = pendulum_model(0.1, 1.0, 9.81)
    cs = box_constraints([-1.0, -7.5], [2 * np.pi + 1, 7.5], u_max)
    cert = TrackingCertificate(0.005, 0.0, 1.0, 1.0, 1.0)
    return ReachSpec(
        model, cert, cs, order=3, horizon=0.3, refinement=refinement,
        reference_policy=policy,
        x_ref=np.array([np.pi, 0.0]) if policy == "fixed" else None,
        q_gamma_bound=70.0,
    )


def test_rest_point_reaches_itself():
    spec = integrator_spec()
    x0 = np.array([0.2, 0.0])
    assert spec.forward_polytope(x0).contains(x0, tol=1e-7)


def test_unknown_reference_policy_rejected():
    model = integrator_chain(2, 1)
    cs = box_constraints([-1, -1], [1, 1], 1.0)
    with pytest.raises(ValueError):
        ReachSpec(model, TrackingCertificate.exact(), cs, order=3, horizon=1.0,
                  reference_policy="nope")


def test_fixed_policy_requires_reference():
    model = integrator_chain(2, 1)
    cs = box_constraints([-1, -1], [1, 1], 1.0)
    with pytest.raises(ValueError):
        ReachSpec(model, TrackingCertificate.exact(), cs, order=3, horizon=1.0,
                  reference_policy="fixed")


def test_tightening_u_max_shrinks_forward_set():
    wide = integrator_spec(u_max=2.0)
    tight = integrator_spec(u_max=0.5)
    x0 = np.array([0.0, 0.0])
    pts, _ = sample_cloud(tight.forward_polytope(x0), 1000, seed=0)
    wide_poly = wide.forward_polytope(x0)
    for p in pts:
        assert wide_poly.contains(p, tol=1e-7)


def test_membership_yields_certified_curve():
    spec = integrator_spec()
    x0 = np.array([0.1, -0.2])
    poly = spec.forward_polytope(x0)
    pts, _ = sample_cloud(poly, 200, seed=1)
    cert = spec.certificate(x0, "forward")
    for xT in pts:
        curve = spec.curve_between(x0, xT)
        assert cert.accepts(curve.points, tol=1e-7)


def test_members_pass_dense_grid_soundness():
    spec = integrator_spec()
    cs = spec.cs
    x0 = np.array([0.1, -0.2])
    pts, _ = sample_cloud(spec.forward_polytope(x0), 50, seed=2)
    ts = np.linspace(0, spec.horizon, 500)
    Z = basis_matrix(spec.order, spec.horizon, ts)
    for xT in pts:
        curve = spec.curve_between(x0, xT)
        X = state_matrix(curve.points, 2, spec.horizon) @ Z
        # State rows only; the e0 tightening leaves real margin.
        assert np.all(cs.C @ X <= cs.d[:, None] + 1e-6)


def test_forward_backward_duality_fixed_policy():
    spec = integrator_spec()
    rng = np.random.default_rng(3)
    for _ in range(200):
        x0 = rng.uniform(-0.8, 0.8, size=2)
        xT = rng.uniform(-0.8, 0.8, size=2)
        fwd = spec.forward_polytope(x0).contains(xT, tol=1e-7)
        bwd = spec.backward_polytope(xT).contains(x0, tol=1e-7)
        assert fwd == bwd


def test_self_membership_symmetry():
    spec = integrator_spec()
    rng = np.random.default_rng(4)
    for _ in range(50):
        x = rng.uniform(-0.9, 0.9, size=2)
        f = spec.forward_polytope(x).contains(x, tol=1e-7)
        b = spec.backward_polytope(x).contains(x, tol=1e-7)
        assert f == b


def test_backward_empty_far_outside_constraints():
    spec = integrator_spec()
    far = np.array([50.0, 0.0])
    assert lp.feasible(spec.backward_polytope(far)) is None


def test_edge_feasible_rest_point():
    spec = integrator_spec()
    v = np.array([0.1, 0.0])
    graph = build_graph(v[None, :], spec)
    w = graph.edges[(0, 0)]
    assert spec.forward_polytope(v).contains(w, tol=1e-8)
    assert spec.backward_polytope(v).contains(w, tol=1e-8)


def test_edge_feasible_far_apart_empty():
    spec = integrator_spec(u_max=0.2)
    graph = build_graph(np.array([[-0.9, 0.0], [0.9, 0.0]]), spec)
    assert (0, 1) not in graph.edges


def test_drift_policy_references_follow_flow():
    spec = pendulum_spec(policy="drift", refinement=4)
    anchor = np.array([np.pi + 0.5, 1.0])
    refs = spec.references(anchor, "forward")
    assert len(refs) == 4
    # Midpoint of the first subsegment is close to the anchor for short T.
    assert np.linalg.norm(refs[0] - anchor) < 0.5
    # The references advance along the flow.
    assert not np.allclose(refs[0], refs[-1])


def drift_flow_oracle(model, x0, t, steps=64):
    """Scalar RK4 drift flow from x0 over signed time t, one restart per
    call: the per-reference loop that `references` replaced."""
    x = np.asarray(x0, dtype=float).copy()
    h = t / steps
    for _ in range(steps):
        k1 = model.drift_field(x)
        k2 = model.drift_field(x + 0.5 * h * k1)
        k3 = model.drift_field(x + 0.5 * h * k2)
        k4 = model.drift_field(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


@pytest.mark.parametrize("k", [1, 4, 10])
@pytest.mark.parametrize("kind", ["pendulum", "integrator2x2"])
def test_drift_references_match_scalar_restarts(kind, k):
    # One batched flow over the k midpoints does the same IEEE arithmetic
    # per row as k separate restarts, so the references are bit-identical.
    if kind == "pendulum":
        model = pendulum_model(0.1, 1.0, 9.81)
        cs = box_constraints([-1.0, -7.5], [2 * np.pi + 1, 7.5], 2.0)
        anchors = np.random.default_rng(k).uniform([-1.0, -7.0], [7.0, 7.0], (20, 2))
    else:
        model = integrator_chain(2, 2)
        cs = box_constraints([-1.0] * 4, [1.0] * 4, 2.0)
        anchors = np.random.default_rng(k).uniform(-1.0, 1.0, (5, 4))
    T = 0.3
    spec = ReachSpec(model, TrackingCertificate(0.005, 0.0, 1.0, 1.0, 1.0), cs,
                     order=3, horizon=T, refinement=k, reference_policy="drift",
                     q_gamma_bound=70.0)
    for direction in ("forward", "backward"):
        batch = spec.references(anchors, direction)
        assert batch.shape == (anchors.shape[0], k, anchors.shape[1])
        for anchor, batched in zip(anchors, batch):
            refs = spec.references(anchor, direction)
            assert len(refs) == k
            assert np.array_equal(batched, refs)
            for i, ref in enumerate(refs):
                t_mid = (i + 0.5) * T / k
                t = t_mid if direction == "forward" else -(T - t_mid)
                assert np.array_equal(ref, drift_flow_oracle(model, anchor, t))
        # The batched lookup builds the same certificates as one anchor
        # at a time.
        fresh = ReachSpec(model, spec.cert, cs, order=3, horizon=T, refinement=k,
                          reference_policy="drift", q_gamma_bound=70.0)
        for anchor, cert in zip(anchors, spec.certificates(anchors, direction)):
            one = fresh.certificate(anchor, direction)
            assert np.array_equal(cert.F, one.F) and np.array_equal(cert.G, one.G)


def test_default_q_gamma_bound_resolved_once_per_spec(monkeypatch):
    real = constraints.default_q_gamma_bound
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(constraints, "default_q_gamma_bound", counting)
    monkeypatch.setattr(reachability, "default_q_gamma_bound", counting, raising=False)
    spec = pendulum_spec(policy="drift", refinement=10)
    implicit = ReachSpec(spec.model, spec.cert, spec.cs, order=3, horizon=0.3,
                         refinement=10, reference_policy="drift")
    queries = [(np.array(a), d) for a in ([np.pi, 0.0], [np.pi + 0.5, 1.0])
               for d in ("forward", "backward")]
    certs = [implicit.certificate(a, d) for a, d in queries]
    assert len(calls) == 1
    explicit = ReachSpec(spec.model, spec.cert, spec.cs, order=3, horizon=0.3,
                         refinement=10, reference_policy="drift",
                         q_gamma_bound=real(spec.model, spec.cs))
    for cert, (a, d) in zip(certs, queries):
        other = explicit.certificate(a, d)
        assert np.array_equal(cert.F, other.F) and np.array_equal(cert.G, other.G)


def test_state_box_is_reduced_once_per_constraint_set(monkeypatch):
    spec = pendulum_spec(policy="drift", refinement=10)
    expected = lp.bounding_box(spec.cs.polytope)
    rows_in = []
    real_reduce = lp.reduce_2d

    def counting_reduce(poly, *args, **kwargs):
        rows_in.append(poly.A.shape[0])
        return real_reduce(poly, *args, **kwargs)

    monkeypatch.setattr(lp, "reduce_2d", counting_reduce)
    for anchor in ([np.pi, 0.0], [np.pi + 0.5, 1.0]):
        for direction in ("forward", "backward"):
            spec.certificate(np.array(anchor), direction)
    # 40 references share one reduction of the 4-row state box.
    assert rows_in == [4]
    lo, hi = spec.cs.bounding_box()
    assert np.array_equal(lo, expected[0]) and np.array_equal(hi, expected[1])
    with pytest.raises(ValueError):
        lo[0] = 0.0


def test_build_graph_makes_one_reference_flow_per_direction(monkeypatch):
    spec = pendulum_spec(policy="drift", refinement=4)
    flows = []
    built = []
    real_references = ReachSpec.references
    real_certificate_for = ReachSpec.certificate_for

    def counting_references(self, anchors, direction):
        flows.append((np.shape(anchors), direction))
        return real_references(self, anchors, direction)

    def counting_certificate_for(self, refs):
        built.append(1)
        return real_certificate_for(self, refs)

    monkeypatch.setattr(ReachSpec, "references", counting_references)
    monkeypatch.setattr(ReachSpec, "certificate_for", counting_certificate_for)
    rng = np.random.default_rng(8)
    vertices = rng.uniform([np.pi - 0.3, -1.0], [np.pi + 0.3, 1.0], size=(6, 2))
    vertices = np.vstack([vertices, vertices[:2]])  # repeated anchors share one
    build_graph(vertices, spec)
    assert flows == [((6, 2), "forward"), ((6, 2), "backward")]
    assert len(built) == 12
    for v in vertices:
        spec.certificate(v, "forward")
        spec.certificate(v, "backward")
    assert len(flows) == 2 and len(built) == 12


def test_build_makes_each_certificate_once_whatever_the_cache_size(monkeypatch):
    # A build takes its sets straight from the certificates of its batch,
    # so a cache smaller than the build (16 of 24 certificates) evicts
    # nothing it still needs: one certificate per vertex and direction.
    model = pendulum_model(0.1, 1.0, 9.81)
    cs = box_constraints([-1.0, -7.5], [2 * np.pi + 1, 7.5], 5.0)
    cert = TrackingCertificate(0.005, 0.0, 1.0, 1.0, 1.0)

    def swingup_spec():
        return ReachSpec(model, cert, cs, order=3, horizon=0.15, refinement=10,
                         reference_policy="drift", q_gamma_bound=70.0)

    vertices = np.random.default_rng(12).uniform([np.pi - 1.0, -3.0], [np.pi + 1.0, 3.0],
                                                 size=(12, 2))
    ref = build_graph(vertices, swingup_spec())
    built = []
    real_certificate_for = ReachSpec.certificate_for

    def counting_certificate_for(self, refs):
        built.append(1)
        return real_certificate_for(self, refs)

    monkeypatch.setattr(reachability, "CACHE_SIZE", 16)
    monkeypatch.setattr(ReachSpec, "certificate_for", counting_certificate_for)
    graph = build_graph(vertices, swingup_spec())
    assert len(built) == 24
    assert ref.edges and sorted(graph.edges) == sorted(ref.edges)
    assert all(np.array_equal(graph.edges[k], w) for k, w in ref.edges.items())


def test_drift_build_projects_each_norm_row_once(monkeypatch):
    # The PSD projection of a norm row depends on the row and the model's
    # Lipschitz constants, not on the reference: one eigh per distinct
    # norm row for the whole build (here the input row; the state rows are
    # linear), where lifting per reference made k per certificate.  Every
    # segment still gets its own lift_rows call.
    spec = pendulum_spec(policy="drift", refinement=4)
    counts = {"eigh": 0, "lift_rows": 0, "certificate_for": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    monkeypatch.setattr(reachability, "lift_rows", counted("lift_rows", reachability.lift_rows))
    monkeypatch.setattr(ReachSpec, "certificate_for",
                        counted("certificate_for", ReachSpec.certificate_for))
    constraints._lift_plan_cached.cache_clear()
    rng = np.random.default_rng(9)
    vertices = rng.uniform([np.pi - 0.5, -1.5], [np.pi + 0.5, 1.5], size=(9, 2))
    build_graph(vertices, spec)
    assert counts == {"eigh": 1, "lift_rows": 4 * 18, "certificate_for": 18}


def test_certificate_cache_is_bounded_and_rebuilds_identically():
    spec = pendulum_spec(policy="drift")
    count = reachability.CACHE_SIZE + 50
    anchors = np.column_stack([np.linspace(3.0, 3.3, count), np.zeros(count)])
    certs = spec.certificates(anchors)
    assert len(certs) == count and len(spec._cache) == reachability.CACHE_SIZE
    # The first anchors were evicted; asking again rebuilds them.
    again = spec.certificate(anchors[0])
    assert again is not certs[0]
    assert np.array_equal(again.F, certs[0].F) and np.array_equal(again.G, certs[0].G)
    assert len(spec._cache) == reachability.CACHE_SIZE


def test_extraction_after_eviction_matches_an_unbounded_cache(monkeypatch):
    verts = np.array([[np.pi, 0.0], [np.pi + 0.05, 0.1], [np.pi + 0.1, 0.2],
                      [np.pi - 0.05, -0.1], [np.pi + 0.15, 0.0]])
    graphs = []
    for size in (reachability.CACHE_SIZE, 4):
        monkeypatch.setattr(reachability, "CACHE_SIZE", size)
        spec = pendulum_spec(u_max=5.0, refinement=2, policy="drift")
        graph = build_graph(verts, spec)
        assert len(spec._cache) == min(size, 2 * len(verts))
        graphs.append((graph, extract_trajectory(graph, search(graph, 3, 4))))
    (ref, ref_traj), (graph, traj) = graphs
    assert sorted(graph.edges) == sorted(ref.edges)
    assert all(np.array_equal(graph.edges[k], w) for k, w in ref.edges.items())
    assert len(traj.segments) == len(ref_traj.segments) == 2
    for seg, ref_seg in zip(traj.segments, ref_traj.segments):
        assert np.array_equal(seg.points, ref_seg.points)


def test_sample_cloud_deterministic():
    spec = integrator_spec()
    poly = spec.forward_polytope(np.zeros(2))
    a, ra = sample_cloud(poly, 100, seed=5)
    b, rb = sample_cloud(poly, 100, seed=5)
    assert np.array_equal(a, b) and ra == rb


def monte_carlo_area(poly, lo, hi, draws, seed):
    xs = np.random.default_rng(seed).uniform(lo, hi, size=(draws, 2))
    ok = np.all(poly.A @ xs.T <= poly.b[:, None] + 1e-9, axis=0)
    return float(np.prod(np.subtract(hi, lo))) * float(np.mean(ok))


def test_volume_estimate_unit_box():
    box = lp.Polytope(
        np.vstack([np.eye(2), -np.eye(2)]), np.ones(4)
    )
    assert volume_estimate(box) == 4.0


def test_volume_estimate_matches_monte_carlo_oracle():
    spec = integrator_spec()
    for x0 in ([0.0, 0.0], [0.1, -0.2], [-0.3, 0.2]):
        poly = spec.forward_polytope(np.array(x0))
        lo, hi = lp.bounding_box(poly)
        draws = 200_000
        oracle = monte_carlo_area(poly, lo, hi, draws, seed=0)
        # Binomial standard error of the hit fraction, scaled to area.
        box_area = float(np.prod(hi - lo))
        p = oracle / box_area
        sigma = box_area * np.sqrt(p * (1 - p) / draws)
        assert abs(volume_estimate(poly) - oracle) <= 5 * sigma + 1e-12


def test_volume_estimate_rejects_unbounded_and_non_2d():
    half = lp.Polytope(np.array([[1.0, 0.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        volume_estimate(half)
    cube = lp.Polytope(np.vstack([np.eye(3), -np.eye(3)]), np.ones(6))
    with pytest.raises(ValueError):
        volume_estimate(cube)


def test_volume_estimate_empty():
    empty = lp.Polytope(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([-1.0, -1.0]))
    assert volume_estimate(empty) == 0.0


@pytest.mark.parametrize("refinement", [0, -1, 2.5])
def test_spec_refuses_a_refinement_that_is_not_a_positive_integer(refinement):
    with pytest.raises(ValueError, match="refinement"):
        integrator_spec(refinement=refinement)


@pytest.mark.parametrize("x_ref", [np.zeros(3), np.zeros(1)])
def test_spec_refuses_a_fixed_reference_of_the_wrong_size(x_ref):
    model = integrator_chain(2, 1)
    cs = box_constraints([-1, -1], [1, 1], 2.0)
    with pytest.raises(ValueError, match="x_ref"):
        ReachSpec(model, TrackingCertificate.exact(), cs, order=3, horizon=1.0,
                  reference_policy="fixed", x_ref=x_ref, q_gamma_bound=10.0)
