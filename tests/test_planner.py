"""Graph construction, search, and certified trajectory extraction."""

import heapq
import itertools

import numpy as np
import pytest

from bezreach import lp
from bezreach.constraints import CertificatePolytope
from bezreach.models import (
    ConstraintSet,
    TrackingCertificate,
    integrator_chain,
    pendulum_energy_controller,
    pendulum_model,
)
from bezreach.planner import (
    EmptyGraphError,
    InternalInconsistencyError,
    PlannedTrajectory,
    ReachGraph,
    UnreachableGoalError,
    build_graph,
    controlled_waypoints,
    extract_trajectory,
    sample_vertices,
    search,
)
from bezreach.reachability import ReachSpec


def box_constraints(lo, hi, u_max):
    n = len(lo)
    C = np.vstack([np.eye(n), -np.eye(n)])
    d = np.concatenate([hi, -np.asarray(lo)])
    return ConstraintSet(C, d, u_max=u_max)


def integrator_spec(u_max=2.0):
    model = integrator_chain(2, 1)
    cs = box_constraints([-1, -1], [1, 1], u_max)
    cert = TrackingCertificate(0.01, 0.0, 1.0, 1.0, 1.0)
    return ReachSpec(model, cert, cs, order=3, horizon=1.0,
                     reference_policy="fixed", x_ref=np.zeros(2),
                     q_gamma_bound=10.0)


# -- vertex sampling -------------------------------------------------------


def test_degenerate_box_single_vertex():
    pt = np.array([0.3, -0.7])
    verts = sample_vertices((pt, pt), 1, seed=0)
    assert np.allclose(verts, pt)


def test_sampling_deterministic():
    bounds = (np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    a = sample_vertices(bounds, 50, seed=7)
    b = sample_vertices(bounds, 50, seed=7)
    assert np.array_equal(a, b)


def test_sampling_mean_near_box_center():
    bounds = (np.array([-1.0, 2.0]), np.array([1.0, 4.0]))
    verts = sample_vertices(bounds, 10_000, seed=8)
    center = np.array([0.0, 3.0])
    # Uniform variance (hi-lo)^2/12; mean of N samples within 3 sigma.
    sigma = (2.0 / np.sqrt(12.0)) / np.sqrt(10_000)
    assert np.all(np.abs(verts.mean(axis=0) - center) <= 3 * sigma)


def test_sampling_appends_included_states():
    bounds = (np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    start = np.array([0.1, 0.1])
    goal = np.array([-0.2, 0.3])
    verts = sample_vertices(bounds, 10, seed=9, include=[start, goal])
    assert verts.shape[0] == 12
    assert np.allclose(verts[-2], start)
    assert np.allclose(verts[-1], goal)


def test_sampling_zero_count_rejected():
    bounds = (np.zeros(2), np.ones(2))
    with pytest.raises(EmptyGraphError):
        sample_vertices(bounds, 0, seed=0)


# -- graph construction ----------------------------------------------------


def test_single_feasible_vertex_self_edge():
    spec = integrator_spec()
    graph = build_graph(np.array([[0.1, 0.0]]), spec)
    assert (0, 0) in graph.edges


def test_stored_witnesses_verify_membership():
    spec = integrator_spec()
    verts = sample_vertices((np.array([-0.5, -0.5]), np.array([0.5, 0.5])),
                            8, seed=10)
    graph = build_graph(verts, spec)
    for (i, j), w in graph.edges.items():
        assert spec.forward_polytope(verts[i]).contains(w, tol=1e-7)
        assert spec.backward_polytope(verts[j]).contains(w, tol=1e-7)


def test_edge_set_monotone_in_u_max():
    verts = sample_vertices((np.array([-0.8, -0.8]), np.array([0.8, 0.8])),
                            15, seed=11)
    counts = []
    edge_sets = []
    for u_max in (0.3, 0.7, 1.5, 3.0):
        graph = build_graph(verts, integrator_spec(u_max))
        edge_sets.append(set(graph.edges))
        counts.append(len(graph.edges))
    for small, big in zip(edge_sets, edge_sets[1:]):
        assert small <= big
    assert counts == sorted(counts)


def test_graph_deterministic():
    spec = integrator_spec()
    verts = sample_vertices((np.array([-0.5, -0.5]), np.array([0.5, 0.5])),
                            10, seed=13)
    a = build_graph(verts, spec)
    b = build_graph(verts, spec)
    assert set(a.edges) == set(b.edges)
    for k in a.edges:
        assert np.array_equal(a.edges[k], b.edges[k])


def dint4d_spec():
    model = integrator_chain(2, 2)
    cs = box_constraints(-np.ones(4), np.ones(4), 2.0)
    cert = TrackingCertificate(0.01, 0.0, 1.0, 1.0, 1.0)
    return ReachSpec(model, cert, cs, order=3, horizon=1.0,
                     reference_policy="fixed", x_ref=np.zeros(4),
                     q_gamma_bound=10.0)


def dint4d_vertices(seed):
    return sample_vertices((-0.7 * np.ones(4), 0.7 * np.ones(4)), 6, seed=seed)


def recording_feasible(monkeypatch):
    """Wrap lp.feasible; the returned list collects each call's result."""
    results = []
    real_feasible = lp.feasible

    def feasible(poly, *args, **kwargs):
        w = real_feasible(poly, *args, **kwargs)
        results.append(w)
        return w

    monkeypatch.setattr(lp, "feasible", feasible)
    return results


def assert_edges_match_oracle(spec, verts, graph, max_margin):
    """For every pair with |margin| > 1e-6, (i, j) is an edge exactly when
    F(v_i) n B(v_j) has interior; every witness lies in both sets."""
    fwd = [spec.forward_polytope(v) for v in verts]
    bwd = [spec.backward_polytope(v) for v in verts]
    for i, j in itertools.product(range(len(verts)), repeat=2):
        both = fwd[i].intersect(bwd[j])
        margin = max_margin(both.A, both.b)
        if abs(margin) > 1e-6:
            assert ((i, j) in graph.edges) == (margin > 0), (i, j, margin)
    for (i, j), w in graph.edges.items():
        assert fwd[i].contains(w, tol=1e-7) and bwd[j].contains(w, tol=1e-7)


def test_4d_graph_matches_linprog_oracle(monkeypatch, max_margin):
    spec = dint4d_spec()
    results = recording_feasible(monkeypatch)
    for seed in range(3):
        verts = dint4d_vertices(seed)
        assert_edges_match_oracle(spec, verts, build_graph(verts, spec), max_margin)
    # The LP tier decided some pairs each way.
    verdicts = [w is not None for w in results]
    assert any(verdicts) and not all(verdicts)


def test_4d_feasibility_lps_stay_within_pivot_budget(monkeypatch):
    # The 40 feasibility LPs of the 4-D oracle graphs took 1,608 pivots
    # with a primal phase one under Bland's rule, and take 501 with the
    # dual phase one under Dantzig pricing.
    counts = {"calls": 0, "pivots": 0, "inside": False}
    real_pivot, real_feasible = lp._pivot, lp.feasible

    def pivot(*args):
        counts["pivots"] += counts["inside"]
        return real_pivot(*args)

    def feasible(poly, *args, **kwargs):
        counts["calls"] += 1
        counts["inside"] = True
        try:
            return real_feasible(poly, *args, **kwargs)
        finally:
            counts["inside"] = False

    monkeypatch.setattr(lp, "_pivot", pivot)
    monkeypatch.setattr(lp, "feasible", feasible)
    spec = dint4d_spec()
    for seed in range(3):
        build_graph(dint4d_vertices(seed), spec)
    assert counts["calls"] == 40 and counts["pivots"] <= 800, counts


def primal_bounding_box(poly):
    """Reference box: one primal phase two per direction from the deepest
    point, on an (m+1)-row tableau over the step from it with every
    slack basic, as the library computed boxes before the batched dual."""
    out = lp._deepest(poly.A, poly.b)
    if out is None:
        return None
    A, b, x = out
    m, n = A.shape
    ext = []
    for c in np.vstack([np.eye(n), -np.eye(n)]):
        T = np.zeros((m + 1, 2 * n + m + 1))
        T[:m, :n], T[:m, n : 2 * n], T[:m, 2 * n : -1] = A, -A, np.eye(m)
        T[:m, -1] = np.maximum(b - A @ x, 0.0)
        T[-1, :n], T[-1, n : 2 * n] = -c, c
        basis = 2 * n + np.arange(m)
        if lp._simplex(T, basis, T.shape[1] - 1, 400 + 100 * (m + n)) == "unbounded":
            ext.append(np.inf)
            continue
        vals = np.zeros(T.shape[1] - 1)
        vals[basis] = T[:-1, -1]
        ext.append(c @ (x + vals[:n] - vals[n : 2 * n]))
    return -np.array(ext[n:]), np.array(ext[:n])


def dint4d_fixed_vertices(seed):
    """The vertices of the `dint4d-fixed` benchmark workload at run seed
    `seed` (its spec is `dint4d_spec`)."""
    verts = sample_vertices((-0.5 * np.ones(4), 0.5 * np.ones(4)), 5, seed=3)
    return verts + np.random.default_rng(seed).uniform(-0.01, 0.01, size=verts.shape)


def test_batched_boxes_keep_4d_graphs_byte_identical(monkeypatch):
    """The 4-D benchmark and oracle graphs have the same edge keys and
    witness bytes as with per-set primal boxes."""
    spec = dint4d_spec()
    cases = [dint4d_fixed_vertices(seed) for seed in range(3)]
    cases += [dint4d_vertices(seed) for seed in range(3)]
    graphs = [build_graph(verts, spec) for verts in cases]
    monkeypatch.setattr(lp, "bounding_boxes",
                        lambda polys: [primal_bounding_box(P) for P in polys])
    for verts, graph in zip(cases, graphs):
        ref = build_graph(verts, spec)
        assert sorted(graph.edges) == sorted(ref.edges)
        assert all(graph.edges[k].tobytes() == w.tobytes() for k, w in ref.edges.items())
    assert [len(g.edges) for g in graphs] == [24, 24, 23, 10, 13, 15]


def test_box_pass_is_three_batched_runs_whatever_the_vertex_count(monkeypatch):
    """A 4-D build solves every box in three batched simplex runs
    (deepest points, dual phase one, dual phase two) while its box LPs
    fit one block, and runs the scalar simplex only for its pair LPs."""
    spec = dint4d_spec()
    spec.cs.bounding_box()  # the state box, solved once per constraint set
    runs, scalar = [], []
    real_batch, real_simplex = lp._simplex_batch, lp._simplex
    monkeypatch.setattr(lp, "_simplex_batch",
                        lambda T, *args: runs.append(T.shape[0]) or real_batch(T, *args))
    monkeypatch.setattr(lp, "_simplex", lambda *args: scalar.append(1) or real_simplex(*args))
    results = recording_feasible(monkeypatch)
    for count in (3, 8, 16):
        assert 16 * count <= lp._BLOCK
        runs.clear(), scalar.clear(), results.clear()
        build_graph(sample_vertices((-0.5 * np.ones(4), 0.5 * np.ones(4)), count, seed=5), spec)
        assert runs == [2 * count, 16 * count, 16 * count], (count, runs)
        assert len(scalar) == len(results) > 0


def small_drift_graph_case():
    """Pendulum, drift policy (k = 4): six energy-pump waypoints from
    hanging plus two samples."""
    model = pendulum_model(0.1, 1.0, 9.81)
    cs = box_constraints([-1.0, -7.5], [2 * np.pi + 1, 7.5], 5.0)
    spec = ReachSpec(model, TrackingCertificate(0.005, 0.0, 1.0, 1.0, 1.0), cs, order=3,
                     horizon=0.15, refinement=4, reference_policy="drift",
                     q_gamma_bound=70.0)
    ctrl = pendulum_energy_controller(0.1, 1.0, 9.81, u_pump=1.0, u_catch=0.15)
    wps = controlled_waypoints(model, np.array([np.pi, 0.0]), ctrl, hop=0.3, max_hops=6)
    verts = sample_vertices((np.array([-0.5, -7.0]), np.array([2 * np.pi + 0.5, 7.0])), 2,
                            seed=11, include=list(wps))
    return spec, verts


def monotone_case(u_max):
    """One of the integrator graphs of `test_edge_set_monotone_in_u_max`."""
    return integrator_spec(u_max), sample_vertices((-0.8 * np.ones(2), 0.8 * np.ones(2)),
                                                   15, seed=11)


@pytest.mark.parametrize("u_max", [0.3, 0.7, 1.5, 3.0, pytest.param(None, id="drift")])
def test_2d_graph_matches_linprog_oracle(u_max, max_margin):
    if u_max is None:
        # The drift graph plus one vertex outside C_X: its forward and
        # backward sets are empty, so their boxes reach the overlap mask.
        spec, verts = small_drift_graph_case()
        verts = np.vstack([verts, [2 * np.pi + 2.0, 0.0]])
        assert lp.bounding_box(spec.forward_polytope(verts[-1])) is None
        assert lp.bounding_box(spec.backward_polytope(verts[-1])) is None
    else:
        spec, verts = monotone_case(u_max)
    assert_edges_match_oracle(spec, verts, build_graph(verts, spec), max_margin)


def test_every_witness_is_a_vertex_or_an_lp_result(monkeypatch):
    """A stored witness is a vertex or the very point `lp.feasible`
    returned for that pair: no third source of witnesses."""
    results = recording_feasible(monkeypatch)
    for spec, verts in (monotone_case(1.5), monotone_case(3.0), small_drift_graph_case()):
        results.clear()
        graph = build_graph(verts, spec)
        for (i, j), w in graph.edges.items():
            is_vertex = np.any(np.all(verts == w, axis=1))
            assert is_vertex or any(w is r for r in results), (i, j)


def test_lp_tier_witnesses_leave_certificate_slack(monkeypatch):
    """An LP-tier witness is the deepest point of F(v_i) n B(v_j), so both
    of its curves meet their certificates with slack >= 0."""
    results = recording_feasible(monkeypatch)
    spec4 = dint4d_spec()
    cases = [(spec4, dint4d_vertices(seed)) for seed in range(3)]
    cases.append(small_drift_graph_case())
    checked = []
    for spec, verts in cases:
        results.clear()
        graph = build_graph(verts, spec)
        for (i, j), w in graph.edges.items():
            if not any(w is r for r in results):
                continue  # a vertex witness
            for cert, curve in ((spec.certificate(verts[i], "forward"),
                                 spec.curve_between(verts[i], w)),
                                (spec.certificate(verts[j], "backward"),
                                 spec.curve_between(w, verts[j]))):
                vec = curve.points.reshape(-1, order="F")
                assert np.min(cert.G - cert.F @ vec) >= 0.0, (i, j)
            checked.append(spec is spec4)
    assert sum(checked) >= 20 and not all(checked), checked


def test_every_stored_edge_leaves_certificate_slack():
    """`extract_trajectory` accepts a curve only if it meets its
    certificate without tolerance, so both curves of every stored edge
    must have min(G - F vec(p)) >= 0: on every graph these tests build,
    whichever tier found the witness."""
    cases = [(integrator_spec(), np.array(v)) for v in
             ([[0.0, 0.0]], [[0.1, 0.0]], [[0.1, 0.0], [-0.1, 0.0]], [[0.2, 0.0], [-0.2, 0.0]])]
    for half, count, seed in ((0.5, 8, 10), (0.5, 10, 13), (0.4, 6, 15)):
        cases.append((integrator_spec(),
                      sample_vertices((-half * np.ones(2), half * np.ones(2)), count, seed=seed)))
    cases += [monotone_case(u_max) for u_max in (0.3, 0.7, 1.5, 3.0)]
    cases += [(dint4d_spec(), dint4d_vertices(seed)) for seed in range(3)]
    cases.append(small_drift_graph_case())
    edges = 0
    for spec, verts in cases:
        graph = build_graph(verts, spec)
        for (i, j), w in graph.edges.items():
            for cert, curve in ((spec.certificate(verts[i], "forward"),
                                 spec.curve_between(verts[i], w)),
                                (spec.certificate(verts[j], "backward"),
                                 spec.curve_between(w, verts[j]))):
                vec = curve.points.reshape(-1, order="F")
                assert np.min(cert.G - cert.F @ vec) >= 0.0, (i, j)
        edges += len(graph.edges)
    assert edges >= 300, edges


# -- search ------------------------------------------------------------------


def make_graph(num, edges, spec=None):
    spec = integrator_spec() if spec is None else spec
    verts = np.zeros((num, 2))
    return ReachGraph(verts, {e: np.zeros(2) for e in edges}, seed=0, spec=spec)


def test_search_trivial_path():
    graph = make_graph(3, [(0, 1)])
    assert search(graph, 0, 0) == [0]


def test_search_single_edge():
    graph = make_graph(2, [(0, 1)])
    assert search(graph, 0, 1) == [0, 1]


def test_search_unreachable_reports_component():
    graph = make_graph(4, [(0, 1), (1, 0)])
    with pytest.raises(UnreachableGoalError) as exc:
        search(graph, 0, 3)
    assert exc.value.component_size == 2


def fewest_hops(edges, num, start, goal):
    """Exact shortest-path length: the fewest hops h <= num + 1 for which
    A^h counts a walk from start to goal (at most 8^9 walks, no overflow)."""
    A = np.zeros((num, num), dtype=np.int64)
    for a, b in edges:
        A[a, b] = 1
    for hops in range(1, num + 2):
        if np.linalg.matrix_power(A, hops)[start, goal] > 0:
            return hops
    return None


def small_graphs():
    """30 random graphs of 3-8 vertices as (num, edges), start 0, goal num - 1."""
    rng = np.random.default_rng(14)
    for _ in range(30):
        num = int(rng.integers(3, 9))
        edges = {
            (i, j)
            for i in range(num)
            for j in range(num)
            if i != j and rng.random() < 0.3
        }
        yield num, edges


def test_search_matches_brute_force_small_graphs():
    for num, edges in small_graphs():
        graph = make_graph(num, edges)
        start, goal = 0, num - 1
        expected = fewest_hops(edges, num, start, goal)
        if expected is None:
            with pytest.raises(UnreachableGoalError):
                search(graph, start, goal)
        else:
            path = search(graph, start, goal)
            assert len(path) - 1 == expected
            assert path[0] == start and path[-1] == goal
            assert all((a, b) in edges for a, b in zip(path, path[1:]))


def uniform_cost_search(graph, start, goal):
    """Reference: Dijkstra over edges of cost two horizons, ties broken by
    vertex index; returns the path, or the size of start's component."""
    if start == goal:
        return [start]
    cost = 2.0 * graph.spec.horizon
    adj = {}
    for (i, j) in graph.edges:
        if i != j:
            adj.setdefault(i, []).append(j)
    for v in adj:
        adj[v].sort()
    dist = {start: 0.0}
    parent = {}
    heap = [(0.0, start)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        if u == goal:
            path = [goal]
            while path[-1] != start:
                path.append(parent[path[-1]])
            return path[::-1]
        for v in adj.get(u, []):
            nd = d + cost
            if v not in dist or nd < dist[v] - 1e-12:
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
    return len(done)


def test_search_matches_uniform_cost_reference():
    # Same path and component size as uniform-cost search with index
    # tie-breaks, on the small graphs and on 600 random graphs of up to
    # 40 vertices with self-loops, sparse to dense.
    spec = integrator_spec()
    cases = [(num, edges, 0, num - 1) for num, edges in small_graphs()]
    rng = np.random.default_rng(15)
    for _ in range(600):
        num = int(rng.integers(1, 41))
        mask = rng.random((num, num)) < rng.uniform(0.02, 0.5)
        edges = set(map(tuple, np.argwhere(mask).tolist()))
        cases.append((num, edges, int(rng.integers(num)), int(rng.integers(num))))
    unreachable = 0
    for num, edges, start, goal in cases:
        graph = make_graph(num, edges, spec)
        expected = uniform_cost_search(graph, start, goal)
        if isinstance(expected, list):
            assert search(graph, start, goal) == expected
        else:
            with pytest.raises(UnreachableGoalError) as exc:
                search(graph, start, goal)
            assert exc.value.component_size == expected
            unreachable += 1
    assert 50 <= unreachable <= len(cases) - 200, unreachable


# -- trajectory extraction ---------------------------------------------------


def test_extract_empty_path():
    spec = integrator_spec()
    graph = build_graph(np.array([[0.0, 0.0]]), spec)
    traj = extract_trajectory(graph, [0])
    assert traj.segments == []


def test_extract_one_edge_two_segments():
    spec = integrator_spec()
    verts = np.array([[0.1, 0.0], [-0.1, 0.0]])
    graph = build_graph(verts, spec)
    assert (0, 1) in graph.edges
    traj = extract_trajectory(graph, [0, 1])
    assert len(traj.segments) == 2
    # Segments meet at the witness with matching state and velocity.
    w = graph.edges[(0, 1)]
    mid = traj.sample_states(np.array([spec.horizon]))[:, 0]
    assert np.allclose(mid, w, atol=1e-8)


def test_extracted_segments_satisfy_certificates():
    spec = integrator_spec()
    verts = sample_vertices((np.array([-0.4, -0.4]), np.array([0.4, 0.4])),
                            6, seed=15)
    graph = build_graph(verts, spec)
    path = search(graph, 0, 5)
    traj = extract_trajectory(graph, path)
    cert = spec.certificate(verts[0], "forward")
    for seg in traj.segments:
        assert cert.accepts(seg.points, tol=1e-6)


@pytest.mark.parametrize("case", ["integrator", "drift"])
def test_extraction_keeps_each_curves_certificate_slack(case):
    # Recomputed per curve from the certificate that justified its edge:
    # forward from v_i for the outbound curve, backward from v_j for the
    # inbound one.
    if case == "drift":
        spec, verts = small_drift_graph_case()
        start, goal = 2, 6
    else:
        spec = integrator_spec()
        verts = sample_vertices((np.array([-0.4, -0.4]), np.array([0.4, 0.4])), 6, seed=15)
        start, goal = 0, 5
    graph = build_graph(verts, spec)
    path = search(graph, start, goal)
    traj = extract_trajectory(graph, path)
    expected = []
    for i, j in zip(path, path[1:]):
        w = graph.edges[(i, j)]
        for cert, curve in ((spec.certificate(verts[i], "forward"),
                             spec.curve_between(verts[i], w)),
                            (spec.certificate(verts[j], "backward"),
                             spec.curve_between(w, verts[j]))):
            vec = curve.points.reshape(-1, order="F")
            expected.append(float(np.min(cert.G - cert.F @ vec)))
    assert len(expected) == 2 * (len(path) - 1) > 0
    assert traj.segment_slack == expected
    assert min(traj.segment_slack) >= 0.0
    # A trajectory built from its segments alone carries no slack.
    assert PlannedTrajectory.from_json_dict(traj.to_json_dict()).segment_slack is None


@pytest.mark.parametrize("slack", [-1e-300, float("nan")])
def test_extraction_refuses_a_curve_without_slack(monkeypatch, slack):
    spec = integrator_spec()
    graph = build_graph(np.array([[0.1, 0.0], [-0.1, 0.0]]), spec)
    monkeypatch.setattr(CertificatePolytope, "slack", lambda self, points: slack)
    with pytest.raises(InternalInconsistencyError, match=r"edge \(0, 1\): outbound"):
        extract_trajectory(graph, [0, 1])


def de_casteljau(points, s):
    """Curve value at phase s in [0, 1] by repeated linear interpolation."""
    while points.shape[1] > 1:
        points = (1.0 - s) * points[:, :-1] + s * points[:, 1:]
    return points[:, 0]


def test_trajectory_sampling_matches_pointwise_eval():
    # Oracle: find each time's segment by walking the durations (a time on
    # a junction belongs to the earlier segment), then evaluate the
    # segment's derivatives 0..gamma by de Casteljau.
    spec = integrator_spec()
    verts = np.array([[0.2, 0.0], [-0.2, 0.0]])
    graph = build_graph(verts, spec)
    traj = extract_trajectory(graph, [0, 1, 0])
    ends = np.cumsum([seg.duration for seg in traj.segments])
    ts = np.union1d(np.linspace(0, traj.total_duration, 37), ends)
    X = traj.sample_states(ts)
    Q = traj.sample_q_gamma(ts)
    for i, t in enumerate(ts):
        acc = 0.0
        for idx, seg in enumerate(traj.segments):
            if t <= acc + seg.duration or idx == len(traj.segments) - 1:
                break
            acc += seg.duration
        s = min(max((t - acc) / seg.duration, 0.0), 1.0)
        derivs = [seg]
        for _ in range(traj.gamma):
            derivs.append(derivs[-1].derivative())
        values = [de_casteljau(c.points, s) for c in derivs]
        assert np.allclose(X[:, i], np.concatenate(values[:-1]), atol=1e-10)
        assert np.allclose(Q[:, i], values[-1], atol=1e-10)


@pytest.mark.parametrize("gamma", [1, 2, 3])
def test_trajectory_matrices_equal_the_per_power_construction(gamma):
    # One derivative stack per segment gives, bit for bit, the state
    # matrix and the q^(gamma) points built power by power.
    from bezreach.bezier import BezierCurve, derivative_map, state_matrix

    rng = np.random.default_rng(gamma)
    for p in range(3, 9):
        for m in (1, 2):
            T = rng.uniform(0.1, 2.0)
            seg = BezierCurve(T, rng.normal(size=(m, p + 1)))
            traj = PlannedTrajectory([seg], gamma=gamma)
            H = derivative_map(p, T)
            assert np.array_equal(traj._state_mats[0], state_matrix(seg.points, gamma, T))
            assert np.array_equal(traj._qgamma_pts[0],
                                  seg.points @ np.linalg.matrix_power(H, gamma))


def test_sampling_an_empty_trajectory_is_an_error():
    traj = PlannedTrajectory([], gamma=2)
    with pytest.raises(ValueError, match="empty trajectory"):
        traj.sample_states(np.array([0.0]))
    with pytest.raises(ValueError, match="empty trajectory"):
        traj.sample_q_gamma(np.array([0.0]))


def test_trajectory_json_round_trip():
    spec = integrator_spec()
    verts = np.array([[0.2, 0.0], [-0.2, 0.0]])
    graph = build_graph(verts, spec)
    traj = extract_trajectory(graph, [0, 1])
    back = PlannedTrajectory.from_json_dict(traj.to_json_dict())
    assert len(back.segments) == len(traj.segments)
    for a, b in zip(traj.segments, back.segments):
        assert np.array_equal(a.points, b.points)


def test_trajectory_rejects_discontinuous_segments():
    from bezreach.bezier import BezierCurve

    seg1 = BezierCurve(1.0, np.array([[0.0, 0.0, 0.0, 0.0]]))
    seg2 = BezierCurve(1.0, np.array([[5.0, 5.0, 5.0, 5.0]]))
    with pytest.raises(ValueError):
        PlannedTrajectory([seg1, seg2], gamma=2)


# -- waypoint seeding --------------------------------------------------------


def test_controlled_waypoints_spacing_and_stop():
    model = pendulum_model(0.1, 1.0, 9.81)
    ctrl = pendulum_energy_controller(0.1, 1.0, 9.81, u_pump=0.04, u_catch=0.15)
    two_pi = 2 * np.pi

    def near_upright(x):
        dth = x[0] - two_pi * round(x[0] / two_pi)
        return abs(dth) < 0.015 and abs(x[1]) < 0.03

    wps = controlled_waypoints(model, np.array([np.pi, 0.0]), ctrl, hop=0.3,
                               max_hops=400, stop=near_upright)
    assert wps.shape[0] > 5
    assert near_upright(wps[-1])
    # The swing-up stays inside the planning box used downstream.
    assert np.all(wps[:, 1] >= -7.5) and np.all(wps[:, 1] <= 7.5)


def test_controlled_waypoints_deterministic():
    model = pendulum_model(0.1, 1.0, 9.81)
    ctrl = pendulum_energy_controller(0.1, 1.0, 9.81, u_pump=0.04, u_catch=0.15)
    a = controlled_waypoints(model, np.array([np.pi, 0.0]), ctrl, 0.3, 20)
    b = controlled_waypoints(model, np.array([np.pi, 0.0]), ctrl, 0.3, 20)
    assert np.array_equal(a, b)
