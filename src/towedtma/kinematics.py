"""Discrete-time relative motion models for bearings-only tracking.

Internal units are kilometres and minutes throughout: positions in km,
velocities in km/min, angles in radians, turn rates in rad/min. Courses
and bearings are measured clockwise from true north (the +y axis), so a
velocity vector is ``speed * (sin(course), cos(course))``.

Two motion models are provided. The constant-velocity (CV) model carries a
4-dim state ``[x, y, vx, vy]``. The constant-turn (CT) model appends the
turn rate as a fifth state component; a positive turn rate rotates the
velocity vector counter-clockwise in the east/north plane (equivalently,
decreases the compass course).

All functions here are pure and safe to call from concurrent workers. No
other module branches on the model kind; they ask the MotionModel instead.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

# 1 knot = 1.852 km/h
KNOT = 1.852 / 60.0  # km/min

CV = "cv"
CT = "ct"
MODEL_KINDS = (CV, CT)

# Below this turn-rate magnitude the trigonometric ratios in the CT
# transition are replaced by their Taylor limits (the exact expressions
# are 0/0 at psi = 0).
PSI_EPS = 1e-8


@dataclass(frozen=True)
class ObserverState:
    """Ownship (towed-array) state, known exactly at every instant.

    Attributes:
        x, y: position east/north (km)
        vx, vy: velocity east/north (km/min)
        heading: array heading (rad, clockwise from true north, in (-pi, pi])
    """

    x: float
    y: float
    vx: float
    vy: float
    heading: float

    @property
    def vel(self) -> np.ndarray:
        return np.array([self.vx, self.vy])


@dataclass(frozen=True)
class MotionModel:
    """Discrete-time motion model descriptor.

    Attributes:
        kind: one of MODEL_KINDS
        T: sampling interval (min)
        q1: white-noise intensity of the position/velocity block (km^2/min^3)
        q2: turn-rate noise intensity (1/min^3), used by the CT model only
    """

    kind: str
    T: float
    q1: float
    q2: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown motion model kind {self.kind!r}")
        if not 0 < self.T < math.inf:  # NaN and inf fail too
            raise ValueError(f"T: sampling interval must be positive and finite, got {self.T}")
        for name in ("q1", "q2"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name}: noise intensity must be nonnegative and finite")

    @property
    def dim(self) -> int:
        return 4 if self.kind == CV else 5

    @property
    def linear(self) -> bool:
        return self.kind == CV


@functools.lru_cache(maxsize=32)
def cv_mat(T: float) -> np.ndarray:
    """Constant-velocity transition matrix [[I2, T*I2], [0, I2]].

    Cached per sampling interval and returned read-only.
    """
    F = np.eye(4)
    F[0, 2] = T
    F[1, 3] = T
    F.setflags(write=False)
    return F


def _cv_step(s: list, T: float) -> list:
    # one CV step of a state given as a list of floats
    x, y, vx, vy = s
    return [x + T * vx, y + T * vy, vx, vy]


def cv_transition(state: np.ndarray, T: float) -> np.ndarray:
    """Advance a 4-dim CV state by one sampling interval.

    Accepts a single state of shape (4,), computed on Python floats, or a
    batch of shape (m, 4). Noise and observer input are applied by the
    caller.
    """
    s = np.asarray(state, dtype=float)
    if s.shape[-1] != 4:
        raise ValueError(f"CV state must have 4 components, got shape {s.shape}")
    if s.ndim == 1:
        return np.array(_cv_step(s.tolist(), T))
    out = s.copy()
    out[..., 0] += T * s[..., 2]
    out[..., 1] += T * s[..., 3]
    return out


def sin_cos(x: float) -> tuple[float, float]:
    """(sin x, cos x) of one angle as floats, from libm.

    libm and numpy round these alike on the supported platforms (the tests
    check), but math.sin and math.cos raise ValueError on +/-inf; there
    numpy's NaN, and its invalid-value warning, are kept.
    """
    if math.isinf(x):
        return float(np.sin(x)), float(np.cos(x))
    return math.sin(x), math.cos(x)


def _ct_coeffs(psi, T: float) -> tuple:
    """CT transition coefficients (a, b, cos(psi*T), sin(psi*T)).

    a = sin(psi*T)/psi and b = (1 - cos(psi*T))/psi, with Taylor limits
    near zero. A float turn rate, which the single-state callers pass, is
    computed with ``math`` and gives four floats; anything else is taken
    as an array of turn rates and gives four arrays. The two paths agree
    bit for bit where libm and numpy round sin/cos alike (the tests check).
    """
    if isinstance(psi, float):
        sn, cs = sin_cos(psi * T)
        if abs(psi) < PSI_EPS:
            return float(T), psi * T * T / 2.0, cs, sn
        return sn / psi, (1.0 - cs) / psi, cs, sn
    psi = np.asarray(psi, dtype=float)
    psiT = psi * T
    cs = np.cos(psiT)
    sn = np.sin(psiT)
    # one reduction decides the common case; NaN and empty arrays fall through
    if psi.size and np.abs(psi).min() >= PSI_EPS:
        return sn / psi, (1.0 - cs) / psi, cs, sn
    small = np.abs(psi) < PSI_EPS
    safe = np.where(small, 1.0, psi)
    a = np.where(small, T, sn / safe)
    b = np.where(small, psiT * T / 2.0, (1.0 - cs) / safe)
    return a, b, cs, sn


def _ct_step(s: list, T: float) -> list:
    # one CT step of a state given as a list of floats, in the batch
    # formulas' operation order
    x, y, vx, vy, psi = s
    a, b, cs, sn = _ct_coeffs(psi, T)
    return [x + a * vx - b * vy, y + b * vx + a * vy, cs * vx - sn * vy, sn * vx + cs * vy, psi]


def ct_transition(state: np.ndarray, T: float) -> np.ndarray:
    """Advance a 5-dim CT state [x, y, vx, vy, psi] by one interval.

    The turn rate is taken from the state's fifth component and persists
    unchanged. Accepts shape (5,) or a batch (m, 5); a single state is
    computed on Python floats in the batch formulas' operation order.
    """
    s = np.asarray(state, dtype=float)
    if s.shape[-1] != 5:
        raise ValueError(f"CT state must have 5 components, got shape {s.shape}")
    if s.ndim == 1:
        return np.array(_ct_step(s.tolist(), T))
    psi = s[..., 4]
    a, b, cs, sn = _ct_coeffs(psi, T)
    vx, vy = s[..., 2], s[..., 3]
    out = np.empty_like(s)
    out[..., 0] = s[..., 0] + a * vx - b * vy
    out[..., 1] = s[..., 1] + b * vx + a * vy
    out[..., 2] = cs * vx - sn * vy
    out[..., 3] = sn * vx + cs * vy
    out[..., 4] = psi
    return out


def transition(model: MotionModel, state: np.ndarray) -> np.ndarray:
    """Apply the model's deterministic transition (no noise, no input)."""
    if model.kind == CV:
        return cv_transition(state, model.T)
    return ct_transition(state, model.T)


def propagate(
    model: MotionModel, state0: np.ndarray, steps: int, incr: Optional[np.ndarray] = None
) -> np.ndarray:
    """States 0..steps of x_{k+1} = f(x_k) + incr[k], shape (steps + 1, dim).

    ``incr`` is a (steps, dim) array of additive increments (process noise
    and any input), or None for the noise-free recurrence. The recurrence
    runs on Python floats, through the single-state transition's own step,
    so each row has the bits of ``transition(model, row) + incr[k]``.
    """
    step = _cv_step if model.kind == CV else _ct_step
    T = model.T
    s = np.asarray(state0, dtype=float).tolist()
    flat = list(s)  # one flat list converts faster than a list of rows
    if incr is None:
        for _ in range(steps):
            s = step(s, T)
            flat += s
    else:
        for d in incr.tolist():
            s = list(map(operator.add, step(s, T), d))
            flat += s
    return np.array(flat).reshape(steps + 1, len(s))


def observer_input(
    obs_prev: ObserverState,
    obs_now: ObserverState,
    model: MotionModel,
    state: np.ndarray,
) -> np.ndarray:
    """Input vector capturing the observer's own acceleration over one step.

    Relative dynamics follow x_k = f(x_{k-1}) + noise - u, where u is the
    observer state minus its model-propagated previous state. For the CT
    model the propagation uses the turn rate of ``state`` (a filter passes
    its current estimate); the fifth component is always zero. The CV
    input does not depend on ``state``.

    The result vanishes identically whenever the observer itself moves
    according to the model's homogeneous dynamics.
    """
    T = model.T
    if model.kind == CV:
        return np.array(
            [
                obs_now.x - obs_prev.x - T * obs_prev.vx,
                obs_now.y - obs_prev.y - T * obs_prev.vy,
                obs_now.vx - obs_prev.vx,
                obs_now.vy - obs_prev.vy,
            ]
        )
    a, b, cs, sn = _ct_coeffs(float(state[4]), T)
    return np.array(
        [
            obs_now.x - obs_prev.x - a * obs_prev.vx + b * obs_prev.vy,
            obs_now.y - obs_prev.y - b * obs_prev.vx - a * obs_prev.vy,
            obs_now.vx - cs * obs_prev.vx + sn * obs_prev.vy,
            obs_now.vy - sn * obs_prev.vx - cs * obs_prev.vy,
            0.0,
        ]
    )


@functools.lru_cache(maxsize=32)
def process_noise_cov(model: MotionModel) -> np.ndarray:
    """Process noise covariance: 4x4 for CV, 5x5 block-diagonal for CT.

    The result is cached per model and returned read-only.
    """
    T = model.T
    q = model.q1
    Q4 = np.zeros((4, 4))
    Q4[0, 0] = Q4[1, 1] = q * T**3 / 3.0
    Q4[2, 2] = Q4[3, 3] = q * T
    Q4[0, 2] = Q4[2, 0] = q * T**2 / 2.0
    Q4[1, 3] = Q4[3, 1] = q * T**2 / 2.0
    if model.kind == CV:
        Q4.setflags(write=False)
        return Q4
    Q5 = np.zeros((5, 5))
    Q5[:4, :4] = Q4
    Q5[4, 4] = model.q2 * T
    Q5.setflags(write=False)
    return Q5


@functools.lru_cache(maxsize=32)
def process_noise_root(model: MotionModel) -> Optional[np.ndarray]:
    """Eigen square root Lq of the process noise, Lq Lq^T = Q; None if Q is zero.

    An eigen root, not a Cholesky factor, since Q may be singular (a zero
    noise block). Cached per model and returned read-only.
    """
    Q = process_noise_cov(model)
    if not Q.any():
        return None
    w, V = np.linalg.eigh(Q)
    Lq = V * np.sqrt(np.clip(w, 0.0, None))
    Lq.setflags(write=False)
    return Lq


def process_jacobian(model: MotionModel, state: np.ndarray) -> np.ndarray:
    """Jacobian of the deterministic transition at ``state``.

    For CV this is the constant transition matrix. For CT the 5x5 matrix
    augments the turn-dependent transition with the analytic partial
    derivatives of each transitioned component with respect to psi.
    """
    T = model.T
    if model.kind == CV:
        return cv_mat(T)
    s = np.asarray(state, dtype=float)
    if s.shape != (5,):
        raise ValueError(f"CT state must have shape (5,), got {s.shape}")
    _, _, vx, vy, psi = s.tolist()
    a, b, cs, sn = _ct_coeffs(psi, T)
    if abs(psi) < PSI_EPS:
        # Taylor limits of d/dpsi of the trig ratios
        da = -psi * T**3 / 3.0
        db = T**2 / 2.0
    else:
        psi2 = psi * psi  # inf, not OverflowError, past the float range
        # 1 - cos(psi*T) as 2 sin^2(psi*T/2), which keeps its digits near psi = 0
        sh, _ = sin_cos(psi * T / 2.0)
        da = (psi * T * cs - sn) / psi2
        db = (psi * T * sn - 2.0 * sh * sh) / psi2
    return np.array(
        [
            [1.0, 0.0, a, -b, da * vx - db * vy],
            [0.0, 1.0, b, a, db * vx + da * vy],
            [0.0, 0.0, cs, -sn, -T * sn * vx - T * cs * vy],
            [0.0, 0.0, sn, cs, T * cs * vx - T * sn * vy],
            [0.0, 0.0, 0.0, 0.0, 1.0],
        ]
    )


def vel_from_course(speed: float, course: float) -> np.ndarray:
    """Velocity vector for a speed (km/min) and compass course (rad)."""
    return np.array([speed * np.sin(course), speed * np.cos(course)])
