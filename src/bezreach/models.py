"""Planning models, tracking certificates, and constraint sets.

A planning model is a gamma-chain of integrators whose top derivative is
control affine: q^(gamma) = f_d(x) + g_d(x) u.  Models are immutable
evaluators with analytically supplied Lipschitz constants over the state
constraint set, both per unit of ||x - y|| (infinity norm): L_f
(`lipschitz_f`) bounds ||f_d(x) - f_d(y)|| and L_G (`lipschitz_ginv`)
bounds each entry of g_d(x)^-1 - g_d(y)^-1, so every layer charges
||g_d^-1|| a change of at most m L_G; a sampling validator cross-checks
both.
Every model map acts row-wise on states of shape (..., n): `f_d` returns
(..., m) and `g_d` matrices that broadcast against (..., m, m), so a
constant actuation returns its one (m, m) matrix.  `rk4` is the one
fixed-step integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from . import lp


class SingularActuationError(RuntimeError):
    """Actuation matrix not invertible at the queried state."""


@dataclass(frozen=True)
class PlanningModel:
    gamma: int
    m: int
    f_d: Callable[[np.ndarray], np.ndarray]
    g_d: Callable[[np.ndarray], np.ndarray]
    lipschitz_f: float
    lipschitz_ginv: float
    name: str = ""

    @property
    def n(self) -> int:
        return self.gamma * self.m

    def drift_field(self, x: np.ndarray) -> np.ndarray:
        """Unforced state derivative of the chain dynamics, row-wise over
        states of shape (..., n)."""
        x = np.asarray(x, dtype=float)
        return np.concatenate([x[..., self.m :], self.f_d(x)], axis=-1)

    def state_derivative(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Chain dynamics under inputs u of shape (..., m), row-wise."""
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        top = self.f_d(x) + (self.g_d(x) @ u[..., None])[..., 0]
        return np.concatenate([x[..., self.m :], top], axis=-1)


def rk4(
    f: Callable[[np.ndarray, int], np.ndarray], x0: np.ndarray, h, steps: int
) -> Iterator[np.ndarray]:
    """Fixed-step RK4 of x' = f(x, j), where j indexes half steps (step i
    evaluates f at j = 2i, 2i + 1, 2i + 1, 2i + 2).  Yields a new array
    with the state after each step.  The step h may be an array that
    broadcasts over x, e.g. one step per row of a batch of states."""
    x = np.asarray(x0, dtype=float)
    for i in range(steps):
        j = 2 * i
        k1 = f(x, j)
        k2 = f(x + 0.5 * h * k1, j + 1)
        k3 = f(x + 0.5 * h * k2, j + 1)
        k4 = f(x + h * k3, j + 2)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        yield x


def flat_input(model: PlanningModel, x_d: np.ndarray, q_gamma: np.ndarray) -> np.ndarray:
    """Inputs reproducing the top derivatives q_gamma (..., m) at the
    states x_d (..., n), row-wise."""
    x_d = np.asarray(x_d, dtype=float)
    q_gamma = np.asarray(q_gamma, dtype=float)
    g = model.g_d(x_d)
    cond = np.broadcast_to(np.linalg.cond(g), x_d.shape[:-1])
    if not np.all(cond <= 1e12):  # also catches inf and NaN
        i = np.unravel_index(np.argmin(cond <= 1e12), cond.shape)
        raise SingularActuationError(
            f"g_d singular at state {x_d[i]} (condition number {cond[i]:.3e})"
        )
    return np.linalg.solve(g, (q_gamma - model.f_d(x_d))[..., None])[..., 0]


def pendulum_model(mass: float, length: float, gravity: float) -> PlanningModel:
    """Torque-controlled pendulum as a gamma=2 chain.

    theta'' = (g/l) sin(theta) + u / (m l^2); theta = 0 is the unstable
    upright equilibrium under this sign convention, theta = pi hangs down.
    """
    if not (mass > 0 and length > 0):
        raise ValueError("mass and length must be positive")
    a = gravity / length
    ginv = mass * length**2

    def f_d(x):
        return a * np.sin(x[..., :1])

    def g_d(x):
        return np.array([[1.0 / ginv]])

    return PlanningModel(
        gamma=2,
        m=1,
        f_d=f_d,
        g_d=g_d,
        lipschitz_f=abs(a),
        lipschitz_ginv=0.0,
        name="pendulum",
    )


def integrator_chain(gamma: int, m: int) -> PlanningModel:
    """Canonical linear test model: f == 0, g == I."""
    if gamma < 1 or m < 1:
        raise ValueError("gamma and m must be >= 1")
    eye = np.eye(m)
    return PlanningModel(
        gamma=gamma,
        m=m,
        f_d=lambda x: np.zeros(np.shape(x)[:-1] + (m,)),
        g_d=lambda x: eye.copy(),
        lipschitz_f=0.0,
        lipschitz_ginv=0.0,
        name=f"integrator{gamma}x{m}",
    )


def pendulum_energy_controller(
    mass: float,
    length: float,
    gravity: float,
    u_pump: float,
    u_catch: float,
):
    """Low-torque swing-up policy used to seed planner waypoints.

    Pumps energy toward the upright level with a proportional torque
    (gain 6) and hands over to a gentle linear catch near the top.
    Torque stays within max(u_pump, u_catch), so the policy traces
    trajectories close to the drift flow -- exactly the regime the
    drift-referenced certificates can certify.
    """
    ml2 = mass * length**2
    mgl = mass * gravity * length
    gl = gravity / length
    e_top = mgl

    def controller(x) -> float:
        theta, omega = float(x[0]), float(x[1])
        energy = 0.5 * ml2 * omega * omega + mgl * np.cos(theta)
        wrap = round(theta / (2.0 * np.pi))
        dth = theta - 2.0 * np.pi * wrap
        if abs(dth) < 0.25 and abs(omega) < 1.0:
            u = ml2 * (-gl * np.sin(theta) - 5.0 * dth - 3.5 * omega)
            return float(min(max(u, -u_catch), u_catch))
        s = np.sign(omega) if abs(omega) > 1e-3 else 1.0
        return float(min(max(6.0 * (e_top - energy) * s, -u_pump), u_pump))

    return controller


# (field, least value, why) for each constant of a TrackingCertificate.
_CERTIFICATE_FLOORS = (
    ("e0", 0.0, ""),
    ("lipschitz_e", 0.0, ""),
    ("lipschitz_pi", 1.0, ", the gain with which the tracking error enters the state"),
    ("lipschitz_psi", 0.0, ""),
    ("lipschitz_k", 1.0, ", the gain with which the tracker passes the planning input through"),
)


@dataclass(frozen=True)
class TrackingCertificate:
    """Affine tracking-error bound e(u) = e0 + L_e * ||u|| plus the
    interface Lipschitz constants of the surrounding layer maps.

    The tracker (`sim.tracker_input`) passes the planning input u_d
    through with gain 1, and the tracking error enters the state with
    gain 1, so the rows that charge them with L_k and L_pi are sound only
    for L_k >= 1 and L_pi >= 1.
    """

    e0: float
    lipschitz_e: float
    lipschitz_pi: float
    lipschitz_psi: float
    lipschitz_k: float

    def __post_init__(self):
        for name, floor, why in _CERTIFICATE_FLOORS:
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= floor):
                raise ValueError(f"{name}={value} must be finite and at least {floor:g}{why}")

    def error_bound(self, u_norm):
        """e(u) for an input norm, or elementwise for an array of them."""
        return self.e0 + self.lipschitz_e * abs(u_norm)

    @staticmethod
    def exact() -> "TrackingCertificate":
        return TrackingCertificate(0.0, 0.0, 1.0, 1.0, 1.0)


@dataclass(frozen=True)
class ConstraintSet:
    """State polytope C x <= d plus the input bound ||u|| <= u_max
    (infinity norms)."""

    C: np.ndarray
    d: np.ndarray
    u_max: float

    def __post_init__(self):
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        d = np.asarray(self.d, dtype=float).reshape(-1)
        if C.shape[0] != d.shape[0]:
            raise ValueError("C and d row counts differ")
        if not (math.isfinite(self.u_max) and self.u_max > 0):
            raise ValueError(f"u_max={self.u_max} must be finite and positive")
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "d", d)

    @property
    def n(self) -> int:
        return self.C.shape[1]

    @property
    def polytope(self) -> lp.Polytope:
        return lp.Polytope(self.C, self.d)

    def contains(self, x) -> bool:
        return self.polytope.contains(x, 1e-9)

    def row_norms(self) -> np.ndarray:
        """||C_r||_1 per row: the dual of the infinity norm, so an error of
        infinity norm e moves C_r x by at most e ||C_r||_1."""
        return np.abs(self.C).sum(axis=1)

    def bounding_box(self):
        """Per-coordinate (lo, hi) box of C_X, solved on the first call and
        then served read-only from the instance."""
        box = self.__dict__.get("_box")
        if box is None:
            box = lp.bounding_box(self.polytope)
            if box is None:
                raise ValueError("state constraint set is empty")
            for bound in box:
                bound.flags.writeable = False
            object.__setattr__(self, "_box", box)
        return box


def validate_lipschitz(
    model: PlanningModel,
    cs: ConstraintSet,
    samples: int = 10_000,
    seed: int = 0,
    slack: float = 1e-9,
) -> bool:
    """Sampled difference quotients of f_d and g_d^-1 over the bounding
    box of C_X never exceed the stored constants."""
    lo, hi = cs.bounding_box()
    rng = np.random.default_rng(seed)
    xs = rng.uniform(lo, hi, size=(samples, model.n))
    ys = rng.uniform(lo, hi, size=(samples, model.n))
    dx = np.max(np.abs(xs - ys), axis=-1)
    df = np.max(np.abs(model.f_d(xs) - model.f_d(ys)), axis=-1)
    gi_x = np.linalg.inv(model.g_d(xs))
    gi_y = np.linalg.inv(model.g_d(ys))
    dg = np.max(np.abs(gi_x - gi_y), axis=(-2, -1))
    ok = (df <= model.lipschitz_f * dx + slack) & (dg <= model.lipschitz_ginv * dx + slack)
    return bool(np.all(ok | (dx < 1e-12)))
