"""LP solver and 2-D polytope reduction against brute-force oracles."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import spatial

from bezreach import lp


def random_polytope(rng, rows=6, scale=2.0):
    A = rng.normal(size=(rows, 2))
    # Offset keeps a decent fraction of instances feasible.
    b = rng.uniform(-0.5, scale, size=rows)
    return lp.Polytope(A, b)


def grid_feasible(poly, lo=-5.0, hi=5.0, res=400):
    xs = np.linspace(lo, hi, res)
    X, Y = np.meshgrid(xs, xs)
    pts = np.column_stack([X.ravel(), Y.ravel()])
    ok = np.all(poly.A @ pts.T <= poly.b[:, None] + 1e-9, axis=0)
    return pts[ok]


def test_contradictory_bounds_infeasible():
    poly = lp.Polytope(np.array([[-1.0], [1.0]]), np.array([0.0, -1.0]))
    assert lp.feasible(poly) is None


def test_overlapping_boxes_witness():
    unit = lp.Polytope(np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1]]),
                       np.array([1.0, 1, 1, 1]))
    shifted = lp.Polytope(unit.A, np.array([1.5, -0.5, 1.5, -0.5]))
    w = lp.feasible(unit.intersect(shifted))
    assert w is not None
    assert unit.contains(w) and shifted.contains(w)


def test_feasibility_matches_grid_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        poly = random_polytope(rng)
        # Keep the instance bounded so the grid covers it.
        box = lp.Polytope(
            np.vstack([poly.A, [[1, 0], [-1, 0], [0, 1], [0, -1]]]),
            np.concatenate([poly.b, [4.0, 4, 4, 4]]),
        )
        pts = grid_feasible(box)
        w = lp.feasible(box)
        if pts.shape[0] > 0:
            assert w is not None and box.contains(w, tol=1e-7)
        elif w is not None:
            # The grid can miss thin slivers; the witness must still check out.
            assert box.contains(w, tol=1e-7)


def test_maximize_unit_box():
    box = lp.Polytope(np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1]]),
                      np.ones(4))
    res = lp.maximize(box, [1.0, 1.0])
    assert res.status == "optimal"
    assert np.isclose(res.value, 2.0, atol=1e-8)


def test_maximize_infeasible_signal():
    poly = lp.Polytope(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([-1.0, -1.0]))
    assert lp.maximize(poly, [1.0, 0.0]).status == "infeasible"


def test_maximize_unbounded_flag():
    half = lp.Polytope(np.array([[1.0, 0.0]]), np.array([1.0]))
    assert lp.maximize(half, [-1.0, 0.0]).status == "unbounded"


def test_maximize_matches_vertex_oracle():
    rng = np.random.default_rng(1)
    for _ in range(50):
        poly = random_polytope(rng)
        box = lp.Polytope(
            np.vstack([poly.A, [[1, 0], [-1, 0], [0, 1], [0, -1]]]),
            np.concatenate([poly.b, [4.0, 4, 4, 4]]),
        )
        verts = lp.reduce_2d(box).vertices
        c = rng.normal(size=2)
        res = lp.maximize(box, c)
        if verts is None or verts.shape[0] == 0:
            assert res.status == "infeasible" or res.value is not None
            continue
        best = float(np.max(verts @ c))
        assert res.status == "optimal"
        assert np.isclose(res.value, best, atol=1e-6)


def test_feasible_rejects_violating_witness(monkeypatch):
    unit = lp.Polytope(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
    monkeypatch.setattr(lp, "_deepest", lambda A, b: (A, b, np.full(A.shape[1], 5.0)))
    with pytest.raises(lp.WitnessError):
        lp.feasible(unit)


def test_feasible_witness_check_survives_optimize_flag():
    # The check must not be an assert, which `python -O` strips.
    src = Path(__file__).resolve().parents[1] / "src"
    test = f"{__file__}::test_feasible_rejects_violating_witness"
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_witness_satisfies_constraints():
    rng = np.random.default_rng(2)
    for _ in range(50):
        poly = random_polytope(rng, rows=8)
        w = lp.feasible(poly)
        if w is not None:
            assert poly.contains(w, tol=1e-7)


def test_determinism():
    rng = np.random.default_rng(3)
    poly = random_polytope(rng)
    a = lp.feasible(poly)
    b = lp.feasible(poly)
    if a is None:
        assert b is None
    else:
        assert np.array_equal(a, b)


def test_bounding_box_of_box():
    box = lp.Polytope(np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1]]),
                      np.array([2.0, 1.0, 3.0, 0.5]))
    lo, hi = lp.bounding_box(box)
    assert np.allclose(lo, [-1.0, -0.5], atol=1e-8)
    assert np.allclose(hi, [2.0, 3.0], atol=1e-8)


def test_bounding_box_2d_matches_lp_box():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 120:
        poly = random_polytope(rng, rows=int(rng.integers(3, 12)))
        box = lp.Polytope(
            np.vstack([poly.A, [[1, 0], [-1, 0], [0, 1], [0, -1]]]),
            np.concatenate([poly.b, [4.0, 4, 4, 4]]),
        )
        if lp.feasible(box) is None:
            assert lp.bounding_box(box) is None
            continue
        lo, hi = lp.bounding_box(box)
        for i in range(2):
            e = np.eye(2)[i]
            assert abs(hi[i] - lp.maximize(box, e).value) <= 1e-8
            assert abs(lo[i] + lp.maximize(box, -e).value) <= 1e-8
        checked += 1


def test_bounding_box_unbounded_direction():
    half = lp.Polytope(np.array([[1.0, 0.0]]), np.array([1.0]))
    lo, hi = lp.bounding_box(half)
    assert hi[0] <= 1.0 + 1e-8
    assert np.isinf(lo[0]) and np.isinf(lo[1]) and np.isinf(hi[1])


def test_reduce_2d_set_equivalence():
    rng = np.random.default_rng(4)
    for _ in range(100):
        rows = int(rng.integers(4, 30))
        poly = random_polytope(rng, rows=rows)
        box = lp.Polytope(
            np.vstack([poly.A, [[1, 0], [-1, 0], [0, 1], [0, -1]]]),
            np.concatenate([poly.b, [4.0, 4, 4, 4]]),
        )
        red = lp.reduce_2d(box)
        assert red.A.shape[0] <= box.A.shape[0]
        pts = rng.uniform(-4.5, 4.5, size=(400, 2))
        in_orig = np.all(box.A @ pts.T <= box.b[:, None] + 1e-7, axis=0)
        in_red = np.all(red.A @ pts.T <= red.b[:, None] + 1e-7, axis=0)
        # The reduced set may be inflated by the tolerance but never smaller.
        assert np.all(in_red[in_orig])
        strict_out = np.max(box.A @ pts.T - box.b[:, None], axis=0) > 1e-6
        assert not np.any(in_red & strict_out)


def test_reduce_2d_empty_marker():
    poly = lp.Polytope(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([-1.0, -1.0]))
    red = lp.reduce_2d(poly)
    assert lp.feasible(red) is None


def test_reduce_2d_passes_through_unbounded():
    half = lp.Polytope(np.array([[1.0, 0.0]]), np.array([1.0]))
    red = lp.reduce_2d(half)
    assert np.array_equal(red.A, half.A) and np.array_equal(red.b, half.b)


def test_polygon_vertices_unit_box():
    box = lp.Polytope(np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1]]), np.ones(4))
    verts = lp.reduce_2d(box).vertices
    assert verts.shape == (4, 2)
    assert np.allclose(np.sort(np.abs(verts), axis=0), 1.0)


def test_polytope_rejects_nonfinite_data():
    with pytest.raises(ValueError):
        lp.Polytope(np.array([[np.inf, 0.0]]), np.array([1.0]))


# -- row scaling and n > 2 ---------------------------------------------------


def loop_pivot(T, basis, row, col):
    """Row-by-row reference for the vectorized pivot."""
    T[row] /= T[row, col]
    for r in range(T.shape[0]):
        if r != row and abs(T[r, col]) > 1e-14:
            T[r] -= T[r, col] * T[row]
    basis[row] = col


def test_pivot_is_bit_identical_to_row_loop():
    rng = np.random.default_rng(12)
    for _ in range(50):
        T = rng.normal(size=(9, 14))
        T[rng.random(T.shape) < 0.3] = 0.0
        T[rng.integers(9), :] *= 1e-15  # rows under the skip threshold
        row, col = int(rng.integers(8)), int(rng.integers(13))
        T[row, col] = rng.uniform(0.5, 2.0)
        ref, got = T.copy(), T.copy()
        basis_ref, basis_got = np.arange(8), np.arange(8)
        loop_pivot(ref, basis_ref, row, col)
        lp._pivot(got, basis_got, row, col)
        assert np.array_equal(ref, got) and np.array_equal(basis_ref, basis_got)


@pytest.mark.parametrize("s", [1e-6, 1e-3, 1.0, 1e3, 1e6])
def test_empty_set_verdict_is_scale_invariant(s):
    # x1 <= -1e-5 and x1 >= 1e-5: empty by 2e-5 whatever the row scale.
    A = np.array([[1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0, 1]])
    b = np.array([-1e-5, -1e-5, 1.0, 1.0])
    poly = lp.Polytope(s * A, s * b)
    assert lp.feasible(poly) is None
    assert lp.maximize(poly, [0.0, 1.0, 0.0]).status == "infeasible"
    assert lp.bounding_box(poly) is None


@pytest.mark.parametrize("length", [1e-3, 1.0, 10.0, 1e3])
def test_sets_empty_within_tolerance_never_raise(length):
    # Either verdict is fine for a gap below the feasibility tolerance,
    # but a witness must meet the caller's rows within 1e-7.
    A = length * np.array([[1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for gap in (1e-9, 1e-8, 5e-8, 8e-8, 2e-7):
        b = length * np.array([-gap / 2, -gap / 2, 1.0, 1.0])
        w = lp.feasible(lp.Polytope(A, b))
        if w is not None:
            assert np.all(A @ w <= b + 1e-7)


def test_zero_rows_drop_or_empty_the_set():
    cube = np.vstack([np.eye(3), -np.eye(3), np.zeros((1, 3))])
    empty = lp.Polytope(cube, np.r_[np.ones(6), -1e-3])
    assert lp.feasible(empty) is None
    assert lp.maximize(empty, [1.0, 0.0, 0.0]).status == "infeasible"
    assert lp.bounding_box(empty) is None
    # Within the 1e-7 feasibility tolerance a zero row is dropped.
    cube_tol = lp.Polytope(cube, np.r_[np.ones(6), -1e-9])
    assert lp.feasible(cube_tol) is not None
    lo, hi = lp.bounding_box(cube_tol)
    assert np.allclose(lo, -1.0, atol=1e-12) and np.allclose(hi, 1.0, atol=1e-12)


def random_polytope_nd(rng, n, rows, kind=None):
    """Random rows, bounded or not, empty or not, with a degenerate
    vertex (several rows through one point) in a third of the draws;
    `kind` 0, 1 or 2 picks the plain, boxed or degenerate family."""
    A = rng.normal(size=(rows, n))
    b = rng.uniform(-0.5, 2.0, size=rows)
    if kind is None:
        kind = rng.integers(3)
    if kind == 1:  # bounded: add a box
        A = np.vstack([A, np.eye(n), -np.eye(n)])
        b = np.concatenate([b, np.full(2 * n, 3.0)])
    elif kind == 2:  # degenerate: many rows through one point
        x0 = rng.uniform(-1.0, 1.0, size=n)
        k = int(rng.integers(n + 1, 2 * n + 3))
        b[:k] = A[:k] @ x0
    return lp.Polytope(A, b)


def rows_rewritten(poly, rng):
    """The same set from positively rescaled rows, looser or equal
    duplicates of some rows, and zero rows with b >= 0."""
    m, n = poly.A.shape
    scale = 10.0 ** rng.uniform(-3.0, 3.0, size=m)
    dup = rng.choice(m, size=max(1, m // 2))
    dup_scale = 10.0 ** rng.uniform(-3.0, 3.0, size=dup.size)
    slack = np.where(rng.random(dup.size) < 0.5, 0.0, rng.uniform(0.0, 1.0, dup.size))
    A = np.vstack([poly.A * scale[:, None], poly.A[dup] * dup_scale[:, None],
                   np.zeros((2, n))])
    b = np.concatenate([poly.b * scale, (poly.b[dup] + slack) * dup_scale, [0.0, 1.0]])
    return lp.Polytope(A, b)


def test_row_rescaling_duplicates_and_zero_rows_keep_verdicts():
    rng = np.random.default_rng(11)
    for trial in range(60):
        n = 2 + trial % 3
        poly = random_polytope_nd(rng, n, int(rng.integers(3, 12)))
        other = rows_rewritten(poly, rng)
        w = lp.feasible(poly)
        assert (w is None) == (lp.feasible(other) is None)
        c = rng.normal(size=n)
        r1, r2 = lp.maximize(poly, c), lp.maximize(other, c)
        assert r1.status == r2.status
        if r1.status == "optimal":
            assert abs(r1.value - r2.value) <= 1e-9 * max(1.0, abs(r1.value))
        box1, box2 = lp.bounding_box(poly), lp.bounding_box(other)
        assert (box1 is None) == (box2 is None) == (w is None)
        if box1 is not None:
            for u, v in zip(box1, box2):
                assert np.array_equal(np.isinf(u), np.isinf(v))
                fin = np.isfinite(u)
                assert np.all(np.abs(u[fin] - v[fin]) <= 1e-9 * np.maximum(1.0, np.abs(u[fin])))


def oracle_instances(seed, count):
    rng = np.random.default_rng(seed)
    for trial in range(count):
        n = 3 + trial % 2
        yield rng, n, random_polytope_nd(rng, n, int(rng.integers(n + 1, 4 * n + 4)))


def test_feasible_matches_linprog_oracle(max_margin):
    verdicts = {True: 0, False: 0}
    for _, n, poly in oracle_instances(21, 200):
        margin = max_margin(poly.A, poly.b)
        if abs(margin) <= 1e-6:
            continue
        w = lp.feasible(poly)
        assert (w is not None) == (margin > 0)
        if w is not None:
            assert poly.contains(w, tol=1e-7)
            # The witness is the deepest point, capped at unit depth.
            depth = np.min((poly.b - poly.A @ w) / np.linalg.norm(poly.A, axis=1))
            assert depth >= min(margin, 1.0) - 1e-9
        verdicts[margin > 0] += 1
    assert min(verdicts.values()) >= 20, verdicts


def test_maximize_matches_linprog_oracle(linprog, max_margin):
    statuses = {"optimal": 0, "unbounded": 0, "infeasible": 0}
    for rng, n, poly in oracle_instances(22, 200):
        if abs(max_margin(poly.A, poly.b)) <= 1e-6:
            continue
        c = rng.normal(size=n)
        ref = linprog(-c, A_ub=poly.A, b_ub=poly.b, bounds=[(None, None)] * n,
                      method="highs")
        res = lp.maximize(poly, c)
        assert res.status == {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status]
        if res.status == "optimal":
            assert abs(res.value + ref.fun) <= 1e-7 * max(1.0, abs(ref.fun))
            assert poly.contains(res.x, tol=1e-7)
        statuses[res.status] += 1
    assert min(statuses.values()) >= 20, statuses


def test_bounding_box_matches_linprog_box(linprog, max_margin):
    checked = 0
    for _, n, poly in oracle_instances(23, 120):
        if abs(max_margin(poly.A, poly.b)) <= 1e-6:
            continue
        box = lp.bounding_box(poly)
        free = [(None, None)] * n
        for i, c in enumerate(np.eye(n)):
            hi = linprog(-c, A_ub=poly.A, b_ub=poly.b, bounds=free, method="highs")
            lo = linprog(c, A_ub=poly.A, b_ub=poly.b, bounds=free, method="highs")
            if hi.status == 2:
                assert box is None
                break
            for got, ref, sign in ((box[1][i], hi, -1.0), (box[0][i], lo, 1.0)):
                if ref.status == 3:
                    assert got == -sign * np.inf
                else:
                    assert abs(got - sign * ref.fun) <= 1e-7 * max(1.0, abs(ref.fun))
        checked += 1
    assert checked >= 100


def unique_reduce_rows(A, b):
    """Reference row merge: groups from np.unique over the rounded unit rows."""
    norms = np.sqrt(np.einsum("ij,ij->i", A, A))
    zero = norms == 0.0
    if np.any(b[zero] < -1e-7):
        return None
    A = A[~zero] / norms[~zero, None]
    b = b[~zero] / norms[~zero]
    key = np.round(A * 1e12) + 0.0
    _, first, group = np.unique(key, axis=0, return_index=True, return_inverse=True)
    rhs = np.full(first.shape[0], np.inf)
    np.minimum.at(rhs, group.reshape(-1), b)
    order = np.argsort(first)
    return A[first[order]], rhs[order], float(norms.max(initial=0.0))


def test_reduce_rows_is_bitwise_equal_to_unique_version():
    rng = np.random.default_rng(41)
    sets = [(P.A, P.b) for _, _, P in oracle_instances(21, 60)]
    for trial in range(200):
        poly = random_polytope_nd(rng, 2 + trial % 4, int(rng.integers(1, 30)))
        other = rows_rewritten(poly, rng)
        # Rows parallel to within about 1e-12, and signed zeros.
        near = other.A * (1.0 + rng.uniform(-1e-12, 1e-12, other.A.shape))
        near[rng.random(near.shape) < 0.1] *= 0.0
        near[rng.random(near.shape) < 0.1] *= -0.0
        sets += [(poly.A, poly.b), (other.A, other.b), (near, other.b)]
    sets.append((np.zeros((3, 2)), np.array([1.0, 0.0, -1e-8])))
    sets.append((np.zeros((2, 3)), np.array([1.0, -1e-3])))
    merged = 0
    for A, b in sets:
        got, ref = lp._reduce_rows(A, b), unique_reduce_rows(A, b)
        assert (got is None) == (ref is None)
        if ref is not None:
            assert all(np.array_equal(g, r) for g, r in zip(got, ref))
            merged += got[0].shape[0] < np.count_nonzero(np.any(A != 0.0, axis=1))
    assert merged >= 200, merged


def beale_tableau():
    """Beale's LP, min -3/4 x1 + 20 x2 - 1/2 x3 + 6 x4 subject to
    1/4 x1 - 8 x2 - x3 + 9 x4 <= 0, 1/2 x1 - 12 x2 - 1/2 x3 + 3 x4 <= 0,
    x3 <= 1, x >= 0, as a tableau with the slacks basic; Dantzig pricing
    with the smallest-index ratio tie rule cycles on it."""
    A = np.array([[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]])
    T = np.zeros((4, 8))
    T[:3, :4], T[:3, 4:7], T[2, -1] = A, np.eye(3), 1.0
    T[-1, :4] = [-0.75, 20.0, -0.5, 6.0]
    return A, T, np.arange(4, 7)


def counting_bland(monkeypatch):
    calls = []
    real = lp._bland

    def bland(reduced):
        calls.append(1)
        return real(reduced)

    monkeypatch.setattr(lp, "_bland", bland)
    return calls


def test_beale_cycling_lp_terminates_by_bland_fallback(monkeypatch, linprog):
    A, T, basis = beale_tableau()
    c = -T[-1, :4]
    ref = linprog(-c, A_ub=A, b_ub=T[:3, -1], method="highs")
    calls = counting_bland(monkeypatch)
    assert lp._simplex(T, basis, 7, 100) == "optimal"
    assert abs(T[-1, -1] + ref.fun) <= 1e-12 and calls
    # Without the fallback, Dantzig pricing cycles.
    monkeypatch.setattr(lp, "_STALL", 10**9)
    A, T, basis = beale_tableau()
    with pytest.raises(lp.IterationLimitError):
        lp._simplex(T, basis, 7, 100)
    monkeypatch.undo()
    # Through the public API, with x >= 0 as rows.
    res = lp.maximize(lp.Polytope(np.vstack([A, -np.eye(4)]), np.r_[0.0, 0.0, 1.0, np.zeros(4)]), c)
    assert res.status == "optimal" and abs(res.value + ref.fun) <= 1e-9


def test_degenerate_family_terminates_and_matches_linprog(monkeypatch, linprog, max_margin):
    """Sets with several rows through one point, down to the point alone
    (margin 0), where the verdict may go either way but the optima
    must agree whenever both solvers find the set feasible."""
    calls = counting_bland(monkeypatch)
    rng = np.random.default_rng(42)
    statuses = {"optimal": 0, "unbounded": 0, "infeasible": 0}
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}
    points = 0
    for trial in range(150):
        n = 2 + trial % 4
        poly = random_polytope_nd(rng, n, int(rng.integers(n + 1, 4 * n + 4)), kind=2)
        sure = abs(max_margin(poly.A, poly.b)) > 1e-6
        points += not sure
        # Near a single point the 5e-8 emptiness threshold moves optima
        # further than on a set with interior.
        tol = 1e-7 if sure else 1e-6
        c = rng.normal(size=n)
        free = [(None, None)] * n
        ref = linprog(-c, A_ub=poly.A, b_ub=poly.b, bounds=free, method="highs")
        res = lp.maximize(poly, c)
        assert (lp.feasible(poly) is None) == (res.status == "infeasible")
        if sure:
            assert res.status == status[ref.status]
        if res.status == "optimal" and ref.status == 0:
            assert abs(res.value + ref.fun) <= tol * max(1.0, abs(ref.fun))
        statuses[res.status] += 1
        box = lp.bounding_box(poly)
        assert (box is None) == (res.status == "infeasible")
        for i, e in enumerate(np.eye(n) if box is not None else []):
            for got, sign in ((box[1][i], 1.0), (box[0][i], -1.0)):
                ref = linprog(-sign * e, A_ub=poly.A, b_ub=poly.b, bounds=free, method="highs")
                if ref.status == 3:
                    assert got == sign * np.inf
                elif ref.status == 0:
                    assert abs(got + sign * ref.fun) <= tol * max(1.0, abs(ref.fun))
    assert min(statuses.values()) >= 10 and points >= 10, (statuses, points)
    assert calls, "the Bland fallback never ran"


def test_vertices_equal_scalar_meet():
    """`_vertices` is bit-identical to placing each vertex on the first of
    its two lines one pair at a time."""
    rng = np.random.default_rng(5)
    for rows in (3, 8, 40):
        A = unit_rows(np.sort(rng.uniform(-np.pi, np.pi, rows)))
        b = rng.uniform(-1.0, 3.0, rows)
        lines = sorted(rng.choice(rows, size=min(rows, 12), replace=False).tolist())
        expected = []
        for i, j in zip(lines, lines[1:] + lines[:1]):
            (xi, yi), (xj, yj) = A[i].tolist(), A[j].tolist()
            t = (b[j] - b[i] * (xi * xj + yi * yj)) / (xi * yj - yi * xj)
            expected.append([b[i] * xi - t * yi, b[i] * yi + t * xi])
        assert np.array_equal(lp._vertices(A, b, lines), expected)


def test_reduce_2d_degenerate_vertices_keep_the_set(linprog):
    """Several rows through one point, where rounding alone decides which
    of them is redundant (some draws are the point alone): the polygon's
    vertices satisfy every input row, and the box read off them matches
    the oracle's, so no line the set needs was dropped."""
    free = [(None, None)] * 2
    checked = 0
    for seed in range(400):
        rng = np.random.default_rng(seed)
        for _ in range(3):
            poly = random_polytope_nd(rng, 2, 9, kind=2)
            verts = lp.reduce_2d(poly).vertices
            if verts is not None:
                assert np.all(poly.A @ verts.T <= poly.b[:, None] + 1e-9), seed
            refs = [linprog(-c, A_ub=poly.A, b_ub=poly.b, bounds=free, method="highs")
                    for c in np.vstack([np.eye(2), -np.eye(2)])]
            box = lp.bounding_box(poly)
            if any(r.status == 2 for r in refs):
                assert box is None, seed
            elif all(r.status == 0 for r in refs):
                hi, lo = -np.array([r.fun for r in refs[:2]]), np.array([r.fun for r in refs[2:]])
                assert np.allclose(box, [lo, hi], rtol=0.0, atol=1e-7), seed
                checked += 1
    assert checked >= 300, checked


# -- reduce_2d against SciPy's half-space intersection ---------------------


def scipy_polygon(A, b, linprog):
    """Radius of the largest disc in {A x <= b} (negative when the set is
    empty, by a distance), and the set's ccw vertices from scipy.spatial
    when the radius is at least 1e-6 (else None)."""
    norms = np.linalg.norm(A, axis=1)
    res = linprog(np.r_[0.0, 0.0, -1.0], A_ub=np.column_stack([A, norms]), b_ub=b,
                  bounds=[(None, None)] * 2 + [(None, 1.0)], method="highs")
    assert res.status == 0, res.message
    if res.x[2] < 1e-6:
        return res.x[2], None
    pts = spatial.HalfspaceIntersection(np.column_stack([A, -b]), res.x[:2]).intersections
    return res.x[2], pts[spatial.ConvexHull(pts).vertices]


def hausdorff(P, Q):
    """Hausdorff distance between two convex polygons (ccw vertex rows)."""

    def to(pts, V):
        E = np.roll(V, -1, axis=0) - V
        rel = pts[:, None, :] - V[None]
        t = np.einsum("pek,ek->pe", rel, E) / np.maximum(np.einsum("ek,ek->e", E, E), 1e-300)
        gap = rel - np.clip(t, 0.0, 1.0)[..., None] * E
        inside = np.all(E[:, 0] * rel[..., 1] - E[:, 1] * rel[..., 0] >= 0.0, axis=1)
        return np.where(inside, 0.0, np.linalg.norm(gap, axis=-1).min(axis=1))

    return max(to(P, Q).max(), to(Q, P).max())


def check_against_scipy(A, b, linprog):
    """1 if reduce_2d matches the oracle polygon of a set with interior,
    0 if the set is empty by a margin and comes back as the empty marker,
    None if the oracle cannot tell."""
    red = lp.reduce_2d(lp.Polytope(A, b))
    radius, ref = scipy_polygon(A, b, linprog)
    if ref is not None:
        assert hausdorff(red.vertices, ref) <= 1e-9
        # Never smaller: the oracle's vertices satisfy every reduced row.
        assert np.all(red.A @ ref.T <= red.b[:, None])
        assert red.A.shape[0] <= A.shape[0]
        return 1
    if radius < -1e-6:
        assert red.vertices is not None and red.vertices.shape[0] == 0
        return 0
    return None


def rotate(A, angles):
    c, s = np.cos(angles), np.sin(angles)
    return np.column_stack([c * A[:, 0] - s * A[:, 1], s * A[:, 0] + c * A[:, 1]])


def unit_rows(angles):
    angles = np.asarray(angles, dtype=float)
    return np.column_stack([np.cos(angles), np.sin(angles)])


def test_reduce_2d_matches_scipy_on_random_sets(linprog):
    """Bounded random sets with exact duplicates, rescaled copies, rows
    parallel to within 1e-12, and extra lines through polygon vertices."""
    rng = np.random.default_rng(31)
    counts = {0: 0, 1: 0}
    for trial in range(300):
        rows = int(rng.integers(3, 40))
        A = unit_rows(rng.uniform(-np.pi, np.pi, rows)) * rng.uniform(0.1, 10.0, (rows, 1))
        b = rng.uniform(-0.1, 2.0, size=rows) * np.linalg.norm(A, axis=1)
        A = np.vstack([A, [[1, 0], [-1, 0], [0, 1], [0, -1]]])
        b = np.concatenate([b, [4.0, 4, 4, 4]])
        pick = rng.integers(0, A.shape[0], size=A.shape[0] // 2)
        scale = rng.uniform(0.5, 2.0, size=pick.size)
        near = rotate(A[pick], rng.uniform(-1e-12, 1e-12, pick.size))
        A = np.vstack([A, A[pick] * scale[:, None], near])
        b = np.concatenate([b, b[pick] * scale, b[pick] + rng.uniform(-1e-12, 1e-12, pick.size)])
        if trial % 3 == 0:
            red = lp.reduce_2d(lp.Polytope(A, b))
            if red.vertices is not None and red.vertices.shape[0]:
                # Supporting lines that touch the polygon at one vertex.
                v = red.vertices[rng.integers(0, red.vertices.shape[0], size=5)]
                extra = unit_rows(rng.uniform(-np.pi, np.pi, 5))
                keep = np.max(extra @ red.vertices.T, axis=1) <= np.sum(extra * v, axis=1) + 1e-12
                A = np.vstack([A, extra[keep]])
                b = np.concatenate([b, np.sum(extra * v, axis=1)[keep]])
        verdict = check_against_scipy(A, b, linprog)
        if verdict is not None:
            counts[verdict] += 1
    assert counts[1] >= 100 and counts[0] >= 20, counts


def test_reduce_2d_empty_unbounded_and_segment_sets(linprog):
    def rows(angles, theta):
        return unit_rows(np.array(angles) + theta)

    # Empty: the empty marker, also between two opposite rows.
    for theta in (0.0, 0.3, 2.0):
        for A, b in ((rows([0.0, 2 * np.pi / 3, 4 * np.pi / 3], theta), -np.ones(3)),
                     (rows([0.0, np.pi, np.pi / 2, -np.pi / 2], theta), [-1.0, 0.5, 1, 1]),
                     (rows([0.0, np.pi / 2, np.pi], theta), [-1.0, 0.0, -1.0]),
                     (rows([0.0, np.pi], theta), [0.5, -0.5 - 1e-8])):
            red = lp.reduce_2d(lp.Polytope(A, b))
            assert red.vertices.shape == (0, 2) and lp.feasible(red) is None
    # Normals within a closed half circle: unbounded, returned unchanged.
    for theta in (0.0, 0.3, 2.0):
        for angles, b in (([0.0, 0.5], [1.0, 1.0]), ([0.0, np.pi], [1.0, 1.0]),
                          ([0.0, np.pi], [0.5, -0.5]),
                          ([0.0, 1.0, 2.0, np.pi], [1.0, 1.0, 1.0, 1.0]),
                          ([0.0, np.pi / 2, np.pi], [-1.0, 2.0, 1.0])):
            poly = lp.Polytope(rows(angles, theta), b)
            red = lp.reduce_2d(poly)
            assert red is poly and red.vertices is None
    # A row and a rescaled copy that `_reduce_rows` keeps apart (their
    # unit normals round to different keys) and that sort as one angle.
    a = unit_rows([-0.2527628064589411])
    A = np.vstack([a, 0.685808009620064 * a, [[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]])
    b = np.array([1.0, 0.685808009620064, 1.0, 1.0, 1.0])
    assert lp._reduce_rows(A, b)[0].shape[0] == 5
    _, ref = scipy_polygon(A, b, linprog)
    assert hausdorff(lp.reduce_2d(lp.Polytope(A, b)).vertices, ref) <= 1e-12
    # A segment, axis-aligned and rotated: the input's rows with the
    # polygon attached, which contains the segment.
    for theta in (0.0, 0.3, 2.0):
        A = rotate(np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1]]), np.full(4, theta))
        b = np.array([0.3, -0.3, 1.0, 2.0])
        red = lp.reduce_2d(lp.Polytope(A, b))
        seg = rotate(np.array([[0.3, 1.0], [0.3, -2.0]]), np.full(2, theta))
        assert np.array_equal(red.A, A) and np.array_equal(red.b, b)
        assert hausdorff(red.vertices, seg) <= 1e-8
        assert np.all(np.abs(A @ red.vertices.T - b[:, None]).min(axis=0) <= 1e-8)


def test_reduce_2d_matches_scipy_on_swingup_polytopes(linprog, monkeypatch):
    # The 34 forward and backward sets of the pendulum swing-up graph
    # (drift policy, k = 10): about 720 rows each, half of them parallel.
    from bezreach.models import (
        ConstraintSet,
        TrackingCertificate,
        pendulum_energy_controller,
        pendulum_model,
    )
    from bezreach.planner import controlled_waypoints, sample_vertices
    from bezreach.reachability import ReachSpec

    model = pendulum_model(0.1, 1.0, 9.81)
    cs = ConstraintSet(np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1]]),
                       np.array([2 * np.pi + 1, 1.0, 7.5, 7.5]), u_max=5.0)
    spec = ReachSpec(model, TrackingCertificate(0.005, 0.0, 1.0, 1.0, 1.0), cs, order=3,
                     horizon=0.15, refinement=10, reference_policy="drift",
                     q_gamma_bound=70.0)
    ctrl = pendulum_energy_controller(0.1, 1.0, 9.81, u_pump=1.0, u_catch=0.15)

    def near_upright(x):
        return abs(x[0] - 2 * np.pi * round(x[0] / (2 * np.pi))) < 0.015 and abs(x[1]) < 0.03

    origin = np.array([np.pi, 0.0])
    wps = controlled_waypoints(model, origin, ctrl, hop=0.3, max_hops=400, stop=near_upright)
    vertices = sample_vertices((np.array([-0.5, -7.0]), np.array([2 * np.pi + 0.5, 7.0])), 4,
                               seed=11, include=[origin, *wps[1:], np.array([2 * np.pi, 0.0])])
    monkeypatch.setattr(lp, "reduce_2d", lambda poly: poly)
    polys = [spec.forward_polytope(v) for v in vertices]
    polys += [spec.backward_polytope(v) for v in vertices]
    monkeypatch.undo()
    assert len(polys) == 34
    assert sum(check_against_scipy(P.A, P.b, linprog) == 1 for P in polys) == 34


# -- the outer-polygon filter against the unfiltered pass -------------------


def unfiltered_reduce_2d(poly):
    """`reduce_2d` without `_outer_filter`: every merged row goes through
    the one deque pass."""
    rows = lp._reduce_rows(poly.A, poly.b)
    if rows is None:
        return lp.EMPTY_2D
    A, b, _ = rows
    if A.shape[0] == 0:
        return poly
    angle = np.arctan2(A[:, 1], A[:, 0])
    order = np.argsort(angle)
    gaps = np.diff(angle[order], append=angle[order[0]] + 2 * np.pi)
    widest = int(np.argmax(gaps))
    order = np.roll(order, -(widest + 1))
    A, b = A[order], b[order]
    if gaps[widest] > np.pi - 1e-12:
        if gaps[widest] < np.pi + 1e-12 and b[0] + b[-1] < -lp._PAD:
            return lp.EMPTY_2D
        return poly
    lines = lp._polygon(A, b)
    verts = None if lines is None else lp._vertices(A, b, lines)
    if verts is None or np.any(A @ verts.T > b[:, None] + lp._PAD):
        lines = lp._polygon(A, b + lp._PAD)
        return lp.EMPTY_2D if lines is None else lp.Polytope(poly.A, poly.b,
                                                             lp._vertices(A, b, lines))
    edges = np.hypot(*(verts - np.roll(verts, 1, axis=0)).T)
    if np.count_nonzero(edges >= 1e-12) < 3:
        return lp.Polytope(poly.A, poly.b, verts)
    return lp.Polytope(A[lines], b[lines] + lp._PAD, verts)


def assert_same_reduction(poly):
    got, want = lp.reduce_2d(poly), unfiltered_reduce_2d(poly)
    assert np.array_equal(got.A, want.A) and np.array_equal(got.b, want.b)
    assert (got.vertices is None) == (want.vertices is None)
    assert got.vertices is None or np.array_equal(got.vertices, want.vertices)


def counting_filter(monkeypatch):
    """Patch `_outer_filter` to count the calls that filtered (not None)."""
    calls = {"filtered": 0, "declined": 0}
    real = lp._outer_filter

    def counted(A, b, angle):
        keep = real(A, b, angle)
        calls["declined" if keep is None else "filtered"] += 1
        return keep

    monkeypatch.setattr(lp, "_outer_filter", counted)
    return calls


def test_outer_filter_keeps_random_reductions(monkeypatch):
    calls = counting_filter(monkeypatch)
    for seed in range(400):
        rng = np.random.default_rng(seed)
        for _ in range(3):
            assert_same_reduction(random_polytope_nd(rng, 2, 9, kind=2))
    rng = np.random.default_rng(41)
    for trial in range(300):
        assert_same_reduction(random_polytope_nd(rng, 2, int(rng.integers(3, 200))))
        # Many rows with exact and near-parallel copies and lines through
        # the polygon's vertices, as in the scipy comparison above.
        rows = int(rng.integers(20, 300))
        A = unit_rows(rng.uniform(-np.pi, np.pi, rows)) * rng.uniform(0.1, 10.0, (rows, 1))
        b = rng.uniform(-0.1, 2.0, size=rows) * np.linalg.norm(A, axis=1)
        pick = rng.integers(0, rows, size=rows // 2)
        A = np.vstack([A, [[1, 0], [-1, 0], [0, 1], [0, -1]], A[pick] * 1.5,
                       rotate(A[pick], rng.uniform(-1e-12, 1e-12, pick.size))])
        b = np.concatenate([b, [4.0, 4, 4, 4], b[pick] * 1.5,
                            b[pick] + rng.uniform(-1e-12, 1e-12, pick.size)])
        red = lp.reduce_2d(lp.Polytope(A, b))
        if red.vertices is not None and red.vertices.shape[0]:
            v = red.vertices[rng.integers(0, red.vertices.shape[0], size=5)]
            extra = unit_rows(rng.uniform(-np.pi, np.pi, 5))
            A, b = np.vstack([A, extra]), np.concatenate([b, np.sum(extra * v, axis=1)])
        assert_same_reduction(lp.Polytope(A, b))
    assert calls["filtered"] >= 300, calls


def test_outer_filter_declines_a_sector_gap_of_pi():
    # Rows at 0.5 and 7 degrees share a sector, which keeps the tighter
    # one at 0.5; the next row, at 186.9 degrees, is 179.9 degrees past
    # 7 but 186.4 past 0.5.  The set is a bounded triangle-like polygon,
    # yet its sector rows leave a gap of more than pi.
    A = unit_rows(np.deg2rad([0.5, 7.0, 186.9, 270.0]))
    b = np.array([1.0, 2.0, 1.0, 3.0])
    poly = lp.Polytope(A, b)
    merged, rhs, _ = lp._reduce_rows(A, b)
    angle = np.arctan2(merged[:, 1], merged[:, 0])
    assert lp._outer_filter(merged, rhs, angle) is None
    red = lp.reduce_2d(poly)
    assert red.vertices is not None and red.vertices.shape[0] >= 3
    assert_same_reduction(poly)


def test_outer_filter_keeps_swingup_build_reductions(monkeypatch):
    # Every polytope reduced in a build of the swing-up drift graph
    # (k = 10): the state box, then the forward and backward sets of all
    # vertices, about 720 rows each.
    from bezreach.models import (
        ConstraintSet,
        TrackingCertificate,
        pendulum_energy_controller,
        pendulum_model,
    )
    from bezreach.planner import build_graph, controlled_waypoints, sample_vertices
    from bezreach.reachability import ReachSpec

    model = pendulum_model(0.1, 1.0, 9.81)
    cs = ConstraintSet(np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1]]),
                       np.array([2 * np.pi + 1, 1.0, 7.5, 7.5]), u_max=5.0)
    spec = ReachSpec(model, TrackingCertificate(0.005, 0.0, 1.0, 1.0, 1.0), cs, order=3,
                     horizon=0.15, refinement=10, reference_policy="drift",
                     q_gamma_bound=70.0)
    ctrl = pendulum_energy_controller(0.1, 1.0, 9.81, u_pump=1.0, u_catch=0.15)

    def near_upright(x):
        return abs(x[0] - 2 * np.pi * round(x[0] / (2 * np.pi))) < 0.015 and abs(x[1]) < 0.03

    origin = np.array([np.pi, 0.0])
    wps = controlled_waypoints(model, origin, ctrl, hop=0.3, max_hops=400, stop=near_upright)
    vertices = sample_vertices((np.array([-0.5, -7.0]), np.array([2 * np.pi + 0.5, 7.0])), 4,
                               seed=11, include=[origin, *wps[1:], np.array([2 * np.pi, 0.0])])
    inputs = []
    real = lp.reduce_2d
    monkeypatch.setattr(lp, "reduce_2d", lambda poly: inputs.append(poly) or real(poly))
    build_graph(vertices, spec)
    monkeypatch.undo()
    assert len(inputs) == 35
    calls = counting_filter(monkeypatch)
    for poly in inputs:
        assert_same_reduction(poly)
    assert calls == {"filtered": len(inputs), "declined": 0}


# -- batched box pass ----------------------------------------------------------


def drift_pair_polytope():
    """Forward set of a 4-D drift certificate (a decoupled pendulum pair,
    k = 4): 832 rows, 476 after merging."""
    from bezreach.models import ConstraintSet, PlanningModel, TrackingCertificate
    from bezreach.reachability import ReachSpec

    pair = PlanningModel(gamma=2, m=2, f_d=lambda x: 9.81 * np.sin(x[..., :2]),
                         g_d=lambda x: 10.0 * np.eye(2), lipschitz_f=9.81,
                         lipschitz_ginv=0.0, name="pendulum-pair")
    hi = np.array([1.0, 1.0, 3.0, 3.0])
    cs = ConstraintSet(np.vstack([np.eye(4), -np.eye(4)]), np.r_[hi, hi], u_max=5.0)
    spec = ReachSpec(pair, TrackingCertificate(0.005, 0.0, 1.0, 1.0, 1.0), cs, order=3,
                     horizon=0.3, refinement=4, reference_policy="drift",
                     q_gamma_bound=60.0)
    return spec.forward_polytope(np.array([0.2, -0.1, 0.3, 0.1]))


def mixed_batch():
    """3-D and 4-D sets in one list: random plain, boxed and degenerate
    sets (some empty, some unbounded), rank-deficient sets (rows in the
    first n - 1 coordinates), sets whose second column is nonpositive
    with some zeros (their dual phase one can end with an artificial at
    level zero in a row with entries), a set with no rows, a single
    point, and the drift set."""
    rng = np.random.default_rng(61)
    sets = [random_polytope_nd(rng, 3 + t % 2, int(rng.integers(4, 16))) for t in range(90)]
    for n in (3, 4):
        for t in range(6):
            poly = random_polytope_nd(rng, n, int(rng.integers(3, 10)), kind=t % 3)
            A = poly.A.copy()
            A[:, -1] = 0.0
            sets.append(lp.Polytope(A, poly.b))
            A = rng.normal(size=(int(rng.integers(n + 2, 12)), n))
            A[:, 1] = -np.abs(A[:, 1]) * (rng.random(A.shape[0]) < 0.4)
            sets.append(lp.Polytope(A, rng.uniform(0.1, 2.0, size=A.shape[0])))
        sets.append(lp.Polytope(np.zeros((2, n)), np.array([0.0, 1.0])))
        point = rng.uniform(-1.0, 1.0, n)
        sets.append(lp.Polytope(np.vstack([np.eye(n), -np.eye(n)]), np.r_[point, -point]))
    sets.append(drift_pair_polytope())
    return sets


def test_bounding_boxes_match_linprog_on_a_mixed_batch(linprog, max_margin):
    sets = mixed_batch()
    assert sets[-1].A.shape == (832, 4)
    assert lp._reduce_rows(sets[-1].A, sets[-1].b)[0].shape[0] == 476
    boxes = lp.bounding_boxes(sets)
    kinds = {"empty": 0, "unbounded": 0, "bounded": 0}
    for poly, box in zip(sets, boxes):
        n = poly.dim
        sure = abs(max_margin(poly.A, poly.b)) > 1e-6
        tol = 1e-7 if sure else 1e-6
        free = [(None, None)] * n
        refs = [linprog(-sign * e, A_ub=poly.A, b_ub=poly.b, bounds=free, method="highs")
                for sign in (1.0, -1.0) for e in np.eye(n)]
        if sure:
            assert (box is None) == (refs[0].status == 2)
        if box is None:
            kinds["empty"] += 1
            continue
        for got, ref, sign in zip(np.r_[box[1], box[0]], refs, np.repeat([1.0, -1.0], n)):
            if ref.status == 3:
                assert got == sign * np.inf
            elif ref.status == 0:
                assert abs(got + sign * ref.fun) <= tol * max(1.0, abs(ref.fun))
        kinds["unbounded" if np.isinf(np.r_[box]).any() else "bounded"] += 1
    assert min(kinds.values()) >= 15, kinds


def test_bounding_boxes_equal_a_per_set_loop():
    sets = mixed_batch()
    for poly, box in zip(sets, lp.bounding_boxes(sets)):
        one = lp.bounding_box(poly)
        assert (box is None) == (one is None)
        if box is not None:
            for u, v in zip(box, one):
                assert np.array_equal(np.isinf(u), np.isinf(v))
                fin = np.isfinite(u)
                assert np.all(np.abs(u[fin] - v[fin]) <= 1e-12)


def test_batched_deepest_points_equal_scalar_ones():
    sets = mixed_batch()
    empty = 0
    for n in (3, 4):
        group = [P for P in sets if P.dim == n]
        for poly, got in zip(group, lp._deepest_all(group)):
            want = lp._deepest(poly.A, poly.b)
            assert (got is None) == (want is None)
            empty += got is None
            if got is not None:
                assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert empty >= 10


def test_pivot_batch_is_bit_identical_to_pivot():
    rng = np.random.default_rng(13)
    T = rng.normal(size=(20, 9, 14))
    T[rng.random(T.shape) < 0.3] = 0.0
    T[np.arange(20), rng.integers(9, size=20)] *= 1e-15  # rows under the skip threshold
    basis = np.tile(np.arange(8), (20, 1))
    rows, cols = rng.integers(8, size=20), rng.integers(13, size=20)
    T[np.arange(20), rows, cols] = rng.uniform(0.5, 2.0, size=20)
    want, want_basis = T.copy(), basis.copy()
    for k, (r, c) in enumerate(zip(rows, cols)):
        lp._pivot(want[k], want_basis[k], int(r), int(c))
    lp._pivot_batch(T, basis, rows, cols)
    assert np.array_equal(T, want) and np.array_equal(basis, want_basis)


def test_beale_cycling_lp_terminates_inside_a_batch(monkeypatch, linprog):
    """Beale's LP next to an unbounded LP and an optimal one in one
    stack: the batched loop takes the Bland fallback for it and ends
    each LP as the scalar loop does."""
    A, T, basis = beale_tableau()
    ref = linprog(T[-1, :4], A_ub=A, b_ub=T[:3, -1], method="highs")
    unbounded, optimal = T.copy(), T.copy()
    unbounded[-1, :4] = [0.0, -1.0, 0.0, 0.0]
    optimal[-1, :4] = [1.0, 1.0, 1.0, 1.0]
    stack = np.stack([unbounded, T, optimal])
    bases = np.tile(basis, (3, 1))
    calls = counting_bland(monkeypatch)
    assert lp._simplex_batch(stack, bases, 7, 100).tolist() == [True, False, False]
    assert abs(stack[1, -1, -1] + ref.fun) <= 1e-12 and calls
    for k, tableau in enumerate((unbounded, T, optimal)):
        status = lp._simplex(tableau, basis.copy(), 7, 100)
        assert status == ("unbounded" if k == 0 else "optimal")
        assert np.array_equal(stack[k], tableau)
    # Without the fallback, Dantzig pricing cycles inside the batch too.
    monkeypatch.setattr(lp, "_STALL", 10**9)
    _, T, basis = beale_tableau()
    with pytest.raises(lp.IterationLimitError):
        lp._simplex_batch(np.stack([T, T]), np.tile(basis, (2, 1)), 7, 100)
