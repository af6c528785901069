"""Gaussian filters sharing a uniform predict/update contract.

Five recursive estimators are provided: an extended Kalman filter and four
deterministic sample-point filters (unscented, cubature, Gauss-Hermite, and
the shifted Rayleigh filter). All of them represent beliefs as a Gaussian
mean/covariance pair and, besides the posterior, report the quantities a
likelihood-weighted filter bank needs: the predicted measurement, the
innovation covariance, and the log-likelihood of the measurement (scalar
Gaussian on the wrapped innovation, or for the shifted Rayleigh filter the
bivariate density of its own pseudo-measurement).

The scalar-measurement update is written against a pluggable measurement
model so the same machinery runs bearing measurements, mirrored-bearing
measurements, and linear test stubs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import hermite_e
from scipy.special import ndtr

from . import kinematics, sensing
from .kinematics import CV, MotionModel

EKF = "ekf"
UKF = "ukf"
CKF = "ckf"
GHF = "ghf"
SRF = "srf"
FILTER_KINDS = (EKF, UKF, CKF, GHF, SRF)


class FilterNumericsError(RuntimeError):
    """Numerical failure inside a filter step (non-PSD covariance etc.)."""


@dataclass
class GaussianBelief:
    """Mean vector and covariance matrix of a state estimate."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        self.mean = np.asarray(self.mean, dtype=float)
        self.cov = np.asarray(self.cov, dtype=float)
        n = self.mean.shape[0]
        if self.cov.shape != (n, n):
            raise ValueError(
                f"covariance shape {self.cov.shape} does not match state dim {n}"
            )

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass
class WeightedPointSet:
    """Deterministic sample points (rows) with their weights."""

    points: np.ndarray
    weights: np.ndarray

    def mean(self) -> np.ndarray:
        return self.weights @ self.points

    def cov(self) -> np.ndarray:
        d = self.points - self.mean()
        return (self.weights[:, None] * d).T @ d


@dataclass
class UpdateOutcome:
    """Result of one measurement update."""

    posterior: GaussianBelief
    pred_meas: float
    innov_cov: float
    log_likelihood: float


@dataclass(frozen=True)
class MeasurementModel:
    """Scalar measurement function with its Jacobian.

    ``fn`` must broadcast over a leading batch axis; ``jac`` returns the
    derivative row at a single state. Angular models get their residuals
    and point-set statistics wrapped to (-pi, pi].
    """

    fn: Callable[[np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray], np.ndarray]
    angular: bool = True


# the towed-array bearing model atan2(x, y)
BEARING = MeasurementModel(
    fn=lambda x: np.arctan2(x[..., 0], x[..., 1]),
    jac=sensing.bearing_jacobian,
    angular=True,
)


def normal_log_pdf(resid: float, var: float) -> float:
    """Log density of a zero-mean scalar normal with variance ``var``."""
    return -0.5 * (resid * resid / var + math.log(2.0 * math.pi * var))


def symmetrize(P: np.ndarray) -> np.ndarray:
    return (P + P.T) / 2.0


def chol_psd(P: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor, retrying once with a small jitter.

    Raises FilterNumericsError if the jittered matrix still fails.
    """
    try:
        return np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        n = P.shape[0]
        jitter = 1e-10 * np.trace(P) / n
        if not np.isfinite(jitter) or jitter <= 0:
            raise FilterNumericsError("covariance is not positive semidefinite")
        try:
            return np.linalg.cholesky(P + jitter * np.eye(n))
        except np.linalg.LinAlgError as exc:
            raise FilterNumericsError(
                "covariance is not positive semidefinite"
            ) from exc


def unscented_points(belief: GaussianBelief) -> WeightedPointSet:
    """Standard unscented transform: 2n+1 points at mean +/- sqrt(n+k) L.

    kappa is Julier's heuristic n + kappa = 3, matching the Gaussian
    fourth moment. For the 4- and 5-dim states used here the center weight
    goes negative; the transform stays moment-correct and in practice
    tracks better than the kappa = 0 fallback, so the heuristic is kept for
    all n.
    """
    n = belief.dim
    kappa = 3.0 - n
    L = chol_psd(belief.cov)
    scale = np.sqrt(n + kappa)
    pts = np.empty((2 * n + 1, n))
    pts[0] = belief.mean
    pts[1 : n + 1] = belief.mean + scale * L.T
    pts[n + 1 :] = belief.mean - scale * L.T
    w = np.full(2 * n + 1, 1.0 / (2.0 * (n + kappa)))
    w[0] = kappa / (n + kappa)
    return WeightedPointSet(points=pts, weights=w)


def cubature_points(belief: GaussianBelief) -> WeightedPointSet:
    """Third-degree spherical-radial cubature: 2n equally weighted points."""
    n = belief.dim
    L = chol_psd(belief.cov)
    scale = np.sqrt(n)
    pts = np.empty((2 * n, n))
    pts[:n] = belief.mean + scale * L.T
    pts[n:] = belief.mean - scale * L.T
    w = np.full(2 * n, 1.0 / (2.0 * n))
    return WeightedPointSet(points=pts, weights=w)


@functools.lru_cache(maxsize=16)
def _gauss_hermite_grid(order: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Standard-normal abscissae (order**n, n) and weights of the tensor grid.

    Shared by every call with the same (order, n), so both are read-only.
    """
    x1, w1 = hermite_e.hermegauss(order)
    w1 = w1 / w1.sum()
    idx = np.stack(
        np.meshgrid(*([np.arange(order)] * n), indexing="ij"), axis=-1
    ).reshape(-1, n)
    xi = x1[idx]
    w = np.prod(w1[idx], axis=1)
    xi.setflags(write=False)
    w.setflags(write=False)
    return xi, w


def gauss_hermite_points(belief: GaussianBelief) -> WeightedPointSet:
    """Third-order tensor-product Gauss-Hermite grid of 3**n points.

    Univariate abscissae for the standard normal weight are mapped through
    mean + L xi, with weights the products of the univariate weights. The
    weights array is shared between calls and read-only.
    """
    xi, w = _gauss_hermite_grid(3, belief.dim)
    L = chol_psd(belief.cov)
    pts = belief.mean + xi @ L.T
    return WeightedPointSet(points=pts, weights=w)


def points_for(kind: str, belief: GaussianBelief) -> WeightedPointSet:
    """Point set used by a sample-point filter (SRF borrows cubature).

    The UKF takes Julier's kappa = 3 - n and the GHF a third-order grid.
    """
    if kind == UKF:
        return unscented_points(belief)
    if kind in (CKF, SRF):
        return cubature_points(belief)
    if kind == GHF:
        return gauss_hermite_points(belief)
    raise ValueError(f"filter kind {kind!r} has no point set")


def predict(
    belief: GaussianBelief,
    model: MotionModel,
    u: Optional[np.ndarray],
    kind: str,
) -> GaussianBelief:
    """Time update through the motion model, minus the observer input.

    The EKF propagates the mean through the transition and the covariance
    through the process Jacobian. Sample-point filters propagate their
    point set, rebuild the first two moments, and subtract the input from
    the reconstructed mean. The SRF uses the exact linear propagation for
    the CV model and cubature points for the CT model.
    """
    if kind not in FILTER_KINDS:
        raise ValueError(f"unknown filter kind {kind!r}")
    n = belief.dim
    if n != model.dim:
        raise ValueError(f"belief dim {n} does not match model dim {model.dim}")
    if u is None:
        u = np.zeros(n)
    Q = kinematics.process_noise_cov(model)

    linear = model.kind == CV
    if kind == EKF or (kind == SRF and linear):
        F = kinematics.process_jacobian(model, belief.mean)
        mean = kinematics.transition(model, belief.mean) - u
        cov = F @ belief.cov @ F.T + Q
    else:
        ps = points_for(kind, belief)
        prop = kinematics.transition(model, ps.points)
        m = ps.weights @ prop
        d = prop - m
        cov = (ps.weights[:, None] * d).T @ d + Q
        mean = m - u
    return GaussianBelief(mean=mean, cov=symmetrize(cov))


def update(
    belief: GaussianBelief,
    y: float,
    noise_std: float,
    kind: str,
    meas: MeasurementModel = BEARING,
) -> UpdateOutcome:
    """Measurement update of any filter kind.

    The SRF runs :func:`srf_update`, which is defined for bearings only.
    The other kinds make a scalar moment-matching update: innovations of
    angular models are wrapped before the gain is applied, and the reported
    log-likelihood is the Gaussian density of that innovation. Raises
    FilterNumericsError on a nonpositive innovation covariance.
    """
    if kind == SRF:
        if meas is not BEARING:
            raise ValueError("the shifted Rayleigh filter updates bearings only")
        return srf_update(belief, y, noise_std)
    R = noise_std**2
    m, P = belief.mean, belief.cov

    if kind == EKF:
        H = meas.jac(m)
        yhat = float(meas.fn(m))
        Pxy = P @ H
        Pyy = float(H @ Pxy) + R
    else:
        ps = points_for(kind, belief)
        g = np.asarray(meas.fn(ps.points), dtype=float)
        if meas.angular:
            ref = float(meas.fn(m))
            g = ref + sensing.wrap_angle(g - ref)
        yhat = float(ps.weights @ g)
        dy = g - yhat
        dx = ps.points - m
        Pyy = float(ps.weights @ (dy * dy)) + R
        Pxy = (ps.weights * dy) @ dx

    if Pyy <= 0 or not np.isfinite(Pyy):
        raise FilterNumericsError(f"innovation covariance {Pyy} is not positive")
    innov = sensing.wrap_angle(y - yhat) if meas.angular else y - yhat
    K = Pxy / Pyy
    mean = m + K * innov
    cov = symmetrize(P - Pyy * np.outer(K, K))
    return UpdateOutcome(
        posterior=GaussianBelief(mean=mean, cov=cov),
        pred_meas=yhat,
        innov_cov=Pyy,
        log_likelihood=normal_log_pdf(innov, Pyy),
    )


def shifted_rayleigh_moments(u: float) -> tuple[float, float]:
    """First and second moments of r ~ c * r * exp(-(r-u)^2/2) on r >= 0."""
    if u < -35.0:
        # far tail: the density degenerates to a Gamma(2) with rate |u|
        return -2.0 / u, 6.0 / (u * u)
    # the standard normal density and distribution function, as numpy
    # scalars; bit-identical to scipy.stats.norm, without importing it
    phi = np.exp(-np.asarray(u) ** 2 / 2.0) / np.sqrt(2.0 * np.pi)
    Phi = ndtr(u)
    den = u * Phi + phi
    rho1 = ((1.0 + u * u) * Phi + u * phi) / den
    rho2 = ((u * u + 2.0) * phi + u * (3.0 + u * u) * Phi) / den
    return float(rho1), float(rho2)


def srf_matched_noise(belief: GaussianBelief, noise_std: float) -> float:
    """Planar noise level matched to the bearing noise: sigma^2 E|z|^2.

    E|z|^2 expands to x^2 + y^2 + P(1,1) + P(2,2) at the prior.
    """
    m, P = belief.mean, belief.cov
    return noise_std**2 * float(m[0] ** 2 + m[1] ** 2 + P[0, 0] + P[1, 1])


def srf_update(belief: GaussianBelief, y: float, noise_std: float) -> UpdateOutcome:
    """Shifted Rayleigh measurement update for a bearing.

    The bearing is recast as the direction of the noisy planar position
    b = [sin y, cos y]. With the matched planar noise covariance
    R = sigma^2 (|z|^2 + tr Pz) I, the position conditioned on the measured
    direction has an exactly computable shifted-Rayleigh range law, whose
    first two moments give the posterior by Gaussian moment matching. The
    reported log-likelihood is that of the bivariate normal density of the
    conditioned pseudo-measurement, which the filter bank consumes directly;
    it stays finite where the density itself underflows.
    """
    m, P = belief.mean, belief.cov
    n = belief.dim
    zhat = m[:2]
    S = P[:2, :2]
    r2 = float(zhat @ zhat)
    if r2 == 0.0:
        raise sensing.ZeroRangeError("SRF update undefined at zero predicted range")
    Rm = srf_matched_noise(belief, noise_std)
    V = S + Rm * np.eye(2)
    detV = V[0, 0] * V[1, 1] - V[0, 1] * V[1, 0]
    if detV <= 0 or not np.isfinite(detV):
        raise FilterNumericsError("SRF planar covariance is not positive definite")
    Vi = np.array([[V[1, 1], -V[0, 1]], [-V[1, 0], V[0, 0]]]) / detV

    b = np.array([np.sin(y), np.cos(y)])
    a = float(b @ Vi @ b)
    u = float(b @ Vi @ zhat) / np.sqrt(a)
    rho1, rho2 = shifted_rayleigh_moments(u)

    gamma = rho1 / np.sqrt(a)
    zcond = gamma * b
    var_r = max(rho2 - rho1 * rho1, 0.0) / a

    C = P[:, :2]
    G = C @ Vi
    mean = m + G @ (zcond - zhat)
    cov = P - G @ C.T + var_r * np.outer(G @ b, G @ b)
    cov = symmetrize(cov)

    resid = zcond - zhat
    quad = float(resid @ Vi @ resid)
    log_likelihood = -0.5 * (quad + math.log(detV)) - math.log(2.0 * math.pi)

    pred = float(np.arctan2(zhat[0], zhat[1]))
    tang = np.array([np.cos(pred), -np.sin(pred)])
    innov_cov = float(tang @ V @ tang) / r2

    return UpdateOutcome(
        posterior=GaussianBelief(mean=mean, cov=cov),
        pred_meas=pred,
        innov_cov=innov_cov,
        log_likelihood=log_likelihood,
    )
