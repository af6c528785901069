"""Calibration kernel: the machine's momentary speed, measured apart from the program.

The sandbox this benchmark was built on runs its two cores at two speeds:
a fixed piece of work takes either about 28 or about 48 ms, in phases
of a few seconds to a minute, as other tenants of the host come and go.
Run-to-run spread of raw wall times is therefore up to 2x, far above any
useful regression bound. Every timed interval (one Monte Carlo call, one
track, one cell's stretch of a CLI command) is instead scaled by ``REF_S / t``, where ``t``
is the time this kernel takes next to the interval: times are reported
"at reference speed", the speed at which the kernel takes ``REF_S``. The
kernel is plain Python and small numpy and LAPACK calls, like the
program's hot loops, and never calls the program, so a change to the
program moves the scaled times as it moves raw ones.

The kernel mirrors a Gauss-Hermite sigma-point step with numpy's own
functions: the 3-point rule (``hermegauss``), the 3^5 index grid
(``meshgrid``), a 5x5 Cholesky factor, 243 points through it, their
weighted mean and covariance and a Gaussian weight each. Over eight
minutes of alternating it with GHF, CKF, UKF, EKF and SRF tracks while the
host's speed swung twofold, the median ratio of track to kernel time
drifted between 20-s windows by 0.016-0.026 (interquartile range over
median); a kernel of bare Cholesky factorisations drifted by 0.031-0.065
and one without the rule and grid by 0.040-0.075, most for GHF, whose
own time is mostly such numpy calls.
"""

from __future__ import annotations

import time

import numpy as np
from numpy.polynomial import hermite_e

REF_S = 0.001


_RNG = np.random.default_rng(0)
_COV = np.cov(_RNG.standard_normal((5, 20))) + 5.0 * np.eye(5)


def _pass() -> float:
    x, w = hermite_e.hermegauss(3)
    grid = np.stack(np.meshgrid(*([np.arange(3)] * 5), indexing="ij"), axis=-1).reshape(-1, 5)
    pts = x[grid] @ np.linalg.cholesky(_COV).T + 1.0
    wt = np.prod(w[grid], axis=1)
    wt /= wt.sum()
    dev = pts - wt @ pts
    return float(((dev * wt[:, None]).T @ dev)[0, 0] + np.exp(-0.5 * (dev * dev).sum(axis=1)) @ wt)


def kernel_s() -> float:
    """Seconds one pass of the fixed kernel takes now (about 1 ms)."""
    acc = 0.0
    for _ in range(2):  # untimed: first calls pay for lazy set-up
        acc += _pass()
    t0 = time.perf_counter()
    for _ in range(5):
        acc += _pass()
    return time.perf_counter() - t0


def settled_kernel_s() -> float:
    """Median of three kernel times: one reading that a burst cannot set alone."""
    return sorted(kernel_s() for _ in range(3))[1]


# Kernel times before and after an interval that differ by more than this
# share mark an interval during which the machine changed speed.
STEADY_TOL = 0.2


class Speed:
    """Scale factors for consecutive timed intervals.

    The kernel runs between intervals; each interval is scaled by the mean
    of the kernel times taken just before and just after it. ``steady``
    tells whether the two agreed, i.e. whether the factor can be trusted
    for the interval's individual latencies.
    """

    def __init__(self) -> None:
        self._last = kernel_s()
        self.steady = True

    def next(self) -> float:
        """Factor for the interval that has just ended."""
        now = kernel_s()
        k = REF_S / (0.5 * (self._last + now))
        self.steady = abs(now / self._last - 1.0) <= STEADY_TOL
        self._last = now
        return k
