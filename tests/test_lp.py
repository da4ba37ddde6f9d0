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
