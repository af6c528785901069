"""Bearing measurement model and mirror-image (ghost) geometry.

A straight towed line array senses the bearing of a contact but not which
side of the array axis it is on: a contact at bearing theta is
indistinguishable from one at ``2*h - theta``, where h is the array
heading. The sensor therefore reports a mirrored pair of bearings at every
step, one of which is the true (noisy) detection and the other its ghost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


class ZeroRangeError(ValueError):
    """Raised when the bearing of a zero-range geometry is requested."""


@dataclass(frozen=True)
class BearingPair:
    """The two mirrored bearing detections at one time step.

    One slot is the exact mirror of the other about the array axis: a pair
    from :func:`measure` satisfies ``y2 == wrap_angle(2*heading - y1)``, and
    once the slots are swapped ``y1 == wrap_angle(2*heading - y2)`` holds
    instead. Which slot holds the true detection is unknown to the tracker.
    """

    y1: float
    y2: float
    heading: float
    t: int = 0


def wrap_angle(a):
    """Wrap an angle (or array of angles) to (-pi, pi].

    A non-finite angle gives NaN. A float and a one-element array give the
    same bits; both give +0.0 for -0.0.
    """
    if isinstance(a, (float, int)):
        if not math.isfinite(a):
            return a - a  # NaN, as the array arithmetic gives
        w = a - TWO_PI * round(a / TWO_PI)
        # round-half-even can leave the result on the wrong boundary
        if w > np.pi:
            w -= TWO_PI
        elif w <= -np.pi:
            w += TWO_PI
        return w + 0.0  # exact, and -0.0 becomes +0.0 as on the array branch
    a = np.asarray(a, dtype=float)
    if a.ndim and a.size and np.abs(a).max() < np.pi:
        return a + 0.0  # already inside: the same bits, +0.0 for -0.0
    # a 0-d input gives a numpy scalar, which the masks cannot write to
    w = np.atleast_1d(a - TWO_PI * np.rint(a / TWO_PI))
    w[w > np.pi] -= TWO_PI
    w[w <= -np.pi] += TWO_PI
    return w if a.ndim else float(w[0])


def true_bearing(rel: np.ndarray) -> float:
    """Four-quadrant bearing atan2(x, y) of a relative state, in (-pi, pi]."""
    x, y = float(rel[0]), float(rel[1])
    if x == 0.0 and y == 0.0:
        raise ZeroRangeError("bearing undefined at zero range")
    return float(np.arctan2(x, y))


def ghost_bearing(theta: float, heading: float) -> float:
    """Mirror a bearing across the array axis: wrap(2*heading - theta)."""
    return wrap_angle(2.0 * heading - theta)


def bearing_jacobian(rel: np.ndarray) -> np.ndarray:
    """Row vector of partial derivatives of the bearing, sized to the state."""
    x, y = float(rel[0]), float(rel[1])
    r2 = x * x + y * y
    if r2 == 0.0:
        raise ZeroRangeError("bearing Jacobian undefined at zero range")
    J = np.zeros(len(rel))
    J[0] = y / r2
    J[1] = -x / r2
    return J


def measure(
    rel: np.ndarray,
    heading: float,
    noise_std: float,
    rng: np.random.Generator,
    t: int = 0,
) -> BearingPair:
    """Synthesize the mirrored bearing pair for a relative state.

    The first slot holds wrap(gamma + nu) with nu ~ N(0, noise_std^2); the
    second holds its exact mirror about the array axis, so the same noise
    draw enters both with opposite sign.
    """
    theta = true_bearing(rel)
    y1 = wrap_angle(theta + noise_std * rng.standard_normal())
    ghost = ghost_bearing(y1, heading)
    return BearingPair(y1=float(y1), y2=float(ghost), heading=float(heading), t=t)


def reflect_state(state: np.ndarray, axis: float) -> np.ndarray:
    """Reflect a relative state across the line through the origin at
    compass angle ``axis``.

    Position and velocity components reflect; a turn-rate component (after
    the velocity, if present) changes sign because the turn sense is mirrored.
    """
    s = np.asarray(state, dtype=float)
    c2, s2 = np.cos(2.0 * axis), np.sin(2.0 * axis)
    M = np.array([[-c2, s2], [s2, c2]])
    out = s.copy()
    out[0:2] = M @ s[0:2]
    out[2:4] = M @ s[2:4]
    out[4:] = -s[4:]
    return out
