"""Closed-loop verification of planned trajectories.

The planning-model loop is integrated with fixed-step RK4 (`models.rk4`)
under a feedback-linearizing feedforward plus PD tracker.  The tracker's
inverse cancels, g (u_d + g^-1 K e) = g u_d + K e, so an RK4 stage is
affine in x plus the model's drift: one matvec, the precomputed row of
the half step (K x_ref, and g u_d when g is constant) and f_d(x), with
g_d(x) u_d added only when g depends on the state.  The RK4 iteration is
the rollout's only loop: the feedforward, the disturbances, the applied
inputs and the margins are each computed over all steps at once, one row
per step.  The tracking certificate is exercised by
injecting a disturbance v with ||v|| <= e(u_d) on top of the integrated
state; the monitor then checks the state polytope and the input bound
||u|| <= u_max at every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import ConstraintSet, PlanningModel, TrackingCertificate, flat_input, rk4
from .planner import PlannedTrajectory

VIOLATION_TOL = 1e-6

DISTURBANCE_POLICIES = ("zero", "worst", "random")


class DivergenceError(RuntimeError):
    """Simulated state left the 10x safety box around C_X."""


@dataclass(frozen=True)
class RolloutResult:
    t: np.ndarray
    x_ref: np.ndarray  # reference states, one column per step
    x_sim: np.ndarray  # integrated tracker states
    x_cl: np.ndarray  # disturbed (certificate-surface) states
    u_d: np.ndarray  # planning inputs along the reference
    u: np.ndarray  # applied tracker inputs at the disturbed state
    state_margin: np.ndarray
    input_margin: np.ndarray
    violation: bool


@dataclass(frozen=True)
class MarginReport:
    min_state_margin: float
    min_input_margin: float
    passed: bool
    steps: int


def _tracker_gains(gamma: int, kp: float, kd: float) -> np.ndarray:
    gains = np.zeros(gamma)
    gains[0] = kp
    if gamma >= 2:
        gains[1] = kd
    return gains


def _box(cs: ConstraintSet):
    """Centre and half widths of C_X's bounding box.  A coordinate that
    C_X leaves unbounded has half width inf and centre 0 (not inf - inf)."""
    lo, hi = cs.bounding_box()
    half = 0.5 * (hi - lo)
    bounded = np.isfinite(half)
    return 0.5 * (np.where(bounded, lo, 0.0) + np.where(bounded, hi, 0.0)), half


def feedback_gain(model: PlanningModel, cs: ConstraintSet, kp: float, kd: float) -> float:
    """Bound over C_X on the gain from tracking error to the tracker's
    feedback g^-1(x) K (x_ref - x): (sum |gains|) * sup ||g^-1(x)||.  The
    sup is ||g^-1(c)|| + m L_G r at the centre c and infinity radius r
    of C_X's bounding box, as each entry of g^-1 moves by at most L_G
    per unit of ||x - c||.  The certificate's input row charges this
    feedback as L_k * e, so it is sound only if the bound is <= L_k."""
    center, half = _box(cs)
    sup = np.linalg.norm(np.linalg.inv(model.g_d(center)), np.inf)
    if model.lipschitz_ginv:  # a constant g needs no radius, even an infinite one
        sup += model.m * model.lipschitz_ginv * np.max(half)
    return float(np.sum(np.abs(_tracker_gains(model.gamma, kp, kd))) * sup)


def tracker_input(
    model: PlanningModel,
    x: np.ndarray,
    x_ref: np.ndarray,
    u_d: np.ndarray,
    gains: np.ndarray,
) -> np.ndarray:
    """Feedforward plus PD feedback through the actuation inverse, row-wise
    over states x, x_ref (..., n) and feedforwards u_d (..., m)."""
    err = x_ref - x
    fb = gains @ err.reshape(err.shape[:-1] + (model.gamma, model.m))
    return u_d + np.linalg.solve(model.g_d(x), fb[..., None])[..., 0]


def _disturbance(policy, rng, bound, cs, x_sim):
    """Disturbances of infinity norm bound (steps,) on the integrated
    states x_sim (steps, n), one row per step.  "worst" pushes along the
    signs of the row that is tightest at x_sim, so x_sim + v attains the
    least state margin over the whole ball."""
    if policy == "zero":
        return np.zeros_like(x_sim)
    if policy == "random":
        return bound[:, None] * rng.choice([-1.0, 1.0], size=x_sim.shape)
    margins = cs.d - x_sim @ cs.C.T - bound[:, None] * cs.row_norms()
    row = cs.C[np.argmin(margins, axis=1)]
    return bound[:, None] * np.where(row >= 0.0, 1.0, -1.0)


def rollout(
    model: PlanningModel,
    trajectory: PlannedTrajectory,
    cs: ConstraintSet,
    cert: TrackingCertificate,
    kp: float = 0.5,
    kd: float = 0.5,
    disturbance: str = "zero",
    seed: int = 0,
    disturbance_scale: float = 1.0,
    dt: float | None = None,
    x0: np.ndarray | None = None,
) -> RolloutResult:
    """Roll out the tracked loop and evaluate the constraint margins."""
    if disturbance not in DISTURBANCE_POLICIES:
        raise ValueError(f"unknown disturbance policy {disturbance!r}")
    seg_T = min(trajectory.segments, key=lambda seg: seg.duration).duration
    if dt is None:
        dt = seg_T / 500.0
    # Written so that a NaN dt fails it too.
    if not dt > 0.0:
        raise ValueError(f"dt={dt} must be positive")
    if dt > seg_T / 200.0:
        raise ValueError(f"dt={dt} too coarse; need dt <= {seg_T / 200.0}")
    gain = feedback_gain(model, cs, kp, kd)
    # Written so that a NaN gain fails it too.
    if not gain <= cert.lipschitz_k:
        raise ValueError(f"kp={kp}, kd={kd} give the tracker a feedback gain of {gain} "
                         f"over C_X, above the certificate's lipschitz_k={cert.lipschitz_k}")
    total = trajectory.total_duration
    steps = int(round(total / dt))
    t_grid = np.linspace(0.0, total, steps + 1)
    gains = _tracker_gains(model.gamma, kp, kd)
    rng = np.random.default_rng(seed)

    # center +- 10 half, so both sides are infinite where C_X is unbounded.
    center, half = _box(cs)
    safe_lo, safe_hi = center - 10.0 * half, center + 10.0 * half

    # Reference and feedforward on the half-step grid for the RK4 stages,
    # one row per half step.
    t_half = np.linspace(0.0, total, 2 * steps + 1)
    x_ref_half = trajectory.sample_states(t_half).T
    ud_half = flat_input(model, x_ref_half, trajectory.sample_q_gamma(t_half).T)

    # A stage is dx = A x + b[j] + (0, f_d(x)): the chain shift and -K in
    # A, K x_ref (and g u_d when g is constant) in b, one row per half step.
    m = model.m
    K = np.kron(gains, np.eye(m))
    A = np.zeros((model.n, model.n))
    A[:-m, m:] = np.eye(model.n - m)
    A[-m:] = -K
    b = np.zeros_like(x_ref_half)
    b[:, -m:] = x_ref_half @ K.T
    g = model.g_d(x_ref_half)
    if g.ndim == 2:  # one (m, m) matrix: g is constant
        b[:, -m:] += ud_half @ g.T

    def drift_stage(x, j):
        dx = A @ x + b[j]
        dx[-m:] += model.f_d(x)
        return dx

    def actuated_stage(x, j):
        dx = drift_stage(x, j)
        dx[-m:] += model.g_d(x) @ ud_half[j]
        return dx

    stage = drift_stage if g.ndim == 2 else actuated_stage
    x = x_ref_half[0] if x0 is None else np.asarray(x0, dtype=float)
    if x.shape != (model.n,):
        raise ValueError(f"x0 has shape {x.shape}; expected ({model.n},)")
    x_sim = np.empty((steps + 1, model.n))
    x_sim[0] = x
    for i, x in enumerate(rk4(stage, x, total / steps, steps), start=1):
        # Written so that a NaN state fails it too.
        if not ((safe_lo <= x) & (x <= safe_hi)).all():
            raise DivergenceError(f"state {x} left the safety box at t={t_grid[i]}")
        x_sim[i] = x

    x_ref, u_d = x_ref_half[::2], ud_half[::2]
    bound = disturbance_scale * cert.error_bound(np.max(np.abs(u_d), axis=1))
    x_cl = x_sim + _disturbance(disturbance, rng, bound, cs, x_sim)
    u = tracker_input(model, x_cl, x_ref, u_d, gains)

    state_margin, input_margin, passed = _margins(cs, x_cl.T, u.T)
    return RolloutResult(
        t=t_grid,
        x_ref=x_ref.T,
        x_sim=x_sim.T,
        x_cl=x_cl.T,
        u_d=u_d.T,
        u=u.T,
        state_margin=state_margin,
        input_margin=input_margin,
        violation=not passed,
    )


def _margins(cs: ConstraintSet, x_cl: np.ndarray, u: np.ndarray):
    """Per-step state and input margins of states x_cl and inputs u (one
    column per step), and whether no margin falls below -VIOLATION_TOL."""
    state_margin = np.min(cs.d[:, None] - cs.C @ x_cl, axis=0)
    input_margin = cs.u_max - np.max(np.abs(u), axis=0)
    passed = bool(np.min(state_margin) >= -VIOLATION_TOL
                  and np.min(input_margin) >= -VIOLATION_TOL)
    return state_margin, input_margin, passed


def monitor(result: RolloutResult, cs: ConstraintSet) -> MarginReport:
    """Recompute aggregate margins from the rollout states and inputs."""
    steps = result.x_cl.shape[1] if result.x_cl.size else 0
    if steps == 0:
        return MarginReport(np.inf, np.inf, True, 0)
    state_margin, input_margin, passed = _margins(cs, result.x_cl, result.u)
    return MarginReport(
        min_state_margin=float(np.min(state_margin)),
        min_input_margin=float(np.min(input_margin)),
        passed=passed,
        steps=steps,
    )
