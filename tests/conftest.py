"""Shared LP oracles.  SciPy serves the tests only (the `test` extra
installs it); the library itself stays NumPy-only."""

import numpy as np
import pytest
from scipy import optimize


@pytest.fixture
def linprog():
    return optimize.linprog


@pytest.fixture
def max_margin(linprog):
    """Largest t <= 1 with A x + t ||a_i|| <= b for some x: positive when
    {A x <= b} has interior, negative when it is empty, by a distance."""

    def margin(A, b) -> float:
        norms = np.linalg.norm(A, axis=1)
        zero = norms == 0.0
        if np.any(b[zero] < 0.0):
            return float(np.min(b[zero]))
        A_unit = A[~zero] / norms[~zero, None]
        n = A.shape[1]
        res = linprog(
            np.r_[np.zeros(n), -1.0],
            A_ub=np.column_stack([A_unit, np.ones(A_unit.shape[0])]),
            b_ub=b[~zero] / norms[~zero],
            bounds=[(None, None)] * n + [(None, 1.0)],
            method="highs",
        )
        if res.status != 0:
            raise RuntimeError(f"max-margin LP failed: {res.message}")
        return -float(res.fun)

    return margin
