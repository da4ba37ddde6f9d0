"""LP solver and 2-D polytope reduction against brute-force oracles."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
    monkeypatch.setattr(lp, "_extract", lambda T, basis, n: np.full(n, 5.0))
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


def random_polytope_nd(rng, n, rows):
    """Random rows, bounded or not, empty or not, with a degenerate
    vertex (several rows through one point) in a third of the draws."""
    A = rng.normal(size=(rows, n))
    b = rng.uniform(-0.5, 2.0, size=rows)
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
