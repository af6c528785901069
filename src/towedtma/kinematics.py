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

All functions here are pure and safe to call from concurrent workers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# 1 knot = 1.852 km/h
KNOT = 1.852 / 60.0  # km/min

CV = "cv"
CT = "ct"

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

    @property
    def speed(self) -> float:
        return float(np.hypot(self.vx, self.vy))


@dataclass(frozen=True)
class MotionModel:
    """Discrete-time motion model descriptor.

    Attributes:
        kind: "cv" or "ct"
        T: sampling interval (min)
        q1: white-noise intensity of the position/velocity block (km^2/min^3)
        q2: turn-rate noise intensity (1/min^3), used by the CT model only
    """

    kind: str
    T: float
    q1: float
    q2: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in (CV, CT):
            raise ValueError(f"unknown motion model kind {self.kind!r}")
        if not self.T > 0:
            raise ValueError(f"sampling interval must be positive, got {self.T}")
        if self.q1 < 0 or self.q2 < 0:
            raise ValueError("noise intensities must be nonnegative")

    @property
    def dim(self) -> int:
        return 4 if self.kind == CV else 5


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


def cv_transition(state: np.ndarray, T: float) -> np.ndarray:
    """Advance a 4-dim CV state by one sampling interval.

    Accepts a single state of shape (4,) or a batch of shape (m, 4).
    Noise and observer input are applied by the caller.
    """
    s = np.asarray(state, dtype=float)
    if s.shape[-1] != 4:
        raise ValueError(f"CV state must have 4 components, got shape {s.shape}")
    out = s.copy()
    out[..., 0] += T * s[..., 2]
    out[..., 1] += T * s[..., 3]
    return out


def _ct_coeffs(psi, T: float) -> tuple[np.ndarray, ...]:
    """CT transition coefficients (a, b, cos(psi*T), sin(psi*T)).

    a = sin(psi*T)/psi and b = (1 - cos(psi*T))/psi, with Taylor limits
    near zero. Accepts a scalar or an array of turn rates.
    """
    psi = np.asarray(psi, dtype=float)
    cs = np.cos(psi * T)
    sn = np.sin(psi * T)
    small = np.abs(psi) < PSI_EPS
    safe = np.where(small, 1.0, psi)
    a = np.where(small, T, sn / safe)
    b = np.where(small, psi * T * T / 2.0, (1.0 - cs) / safe)
    return a, b, cs, sn


def ct_transition(state: np.ndarray, T: float) -> np.ndarray:
    """Advance a 5-dim CT state [x, y, vx, vy, psi] by one interval.

    The turn rate is taken from the state's fifth component and persists
    unchanged. Accepts shape (5,) or a batch (m, 5).
    """
    s = np.asarray(state, dtype=float)
    if s.shape[-1] != 5:
        raise ValueError(f"CT state must have 5 components, got shape {s.shape}")
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


def observer_input(
    obs_prev: ObserverState,
    obs_now: ObserverState,
    model: MotionModel,
    turn_rate: float = 0.0,
) -> np.ndarray:
    """Input vector capturing the observer's own acceleration over one step.

    Relative dynamics follow x_k = f(x_{k-1}) + noise - u, where u is the
    observer state minus its model-propagated previous state. For the CT
    model the propagation uses ``turn_rate`` (a filter passes its current
    turn-rate estimate; the truth generator passes the true rate); the
    fifth component is always zero.

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
    a, b, cs, sn = map(float, _ct_coeffs(turn_rate, T))
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
    psi = s[4]
    vx, vy = s[2], s[3]
    a, b, cs, sn = map(float, _ct_coeffs(psi, T))
    if abs(psi) < PSI_EPS:
        # Taylor limits of d/dpsi of the trig ratios
        da = -psi * T**3 / 3.0
        db = T**2 / 2.0
    else:
        da = (psi * T * cs - sn) / psi**2
        db = (psi * T * sn - (1.0 - cs)) / psi**2
    J = np.zeros((5, 5))
    J[0, 0] = J[1, 1] = 1.0
    J[0, 2], J[0, 3] = a, -b
    J[1, 2], J[1, 3] = b, a
    J[2, 2], J[2, 3] = cs, -sn
    J[3, 2], J[3, 3] = sn, cs
    J[0, 4] = da * vx - db * vy
    J[1, 4] = db * vx + da * vy
    J[2, 4] = -T * sn * vx - T * cs * vy
    J[3, 4] = T * cs * vx - T * sn * vy
    J[4, 4] = 1.0
    return J


def vel_from_course(speed: float, course: float) -> np.ndarray:
    """Velocity vector for a speed (km/min) and compass course (rad)."""
    return np.array([speed * np.sin(course), speed * np.cos(course)])
