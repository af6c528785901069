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
model. The tracker uses one, ``BEARING``: each side of the bank updates
on its own slot's bearing (see ``lrtma``), so no mirrored-bearing model
exists. The tests plug in linear stubs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.linalg import _umath_linalg
from numpy.polynomial import hermite_e

from . import kinematics, sensing
from .kinematics import MotionModel

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

    def moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Weighted mean and covariance of the points."""
        mean = self.weights @ self.points
        d = self.points - mean
        return mean, (self.weights[:, None] * d).T @ d


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
    S = P + P.T
    S /= 2.0
    return S


def _cholesky(P: np.ndarray) -> np.ndarray:
    """``np.linalg.cholesky`` of a square float matrix, without its wrapper.

    This calls the LAPACK gufunc that ``np.linalg.cholesky`` calls, in the
    same floating-point error state, and gives the same bits. A failed
    factorisation sets the invalid flag (and fills the factor with NaN):
    where the wrapper raises LinAlgError this raises FloatingPointError.
    The gufunc's module is private to numpy, so the tests pin it against
    ``np.linalg.cholesky``.
    """
    with np.errstate(all="ignore", invalid="raise"):
        return _umath_linalg.cholesky_lo(P, signature="d->d")


def chol_psd(P: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor, retrying once with a small jitter.

    Raises FilterNumericsError if the jittered matrix still fails.
    """
    try:
        return _cholesky(P)
    except FloatingPointError:
        n = P.shape[0]
        jitter = 1e-10 * np.trace(P) / n
        if not np.isfinite(jitter) or jitter <= 0:
            raise FilterNumericsError("covariance is not positive semidefinite")
        try:
            return _cholesky(P + jitter * np.eye(n))
        except FloatingPointError as exc:
            raise FilterNumericsError(
                "covariance is not positive semidefinite"
            ) from exc


@functools.lru_cache(maxsize=16)
def _unit_points(kind: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit points xi (rows) and weights of a kind's point set at dim n.

    A belief's set is mean + xi L^T with L its Cholesky factor. The UKF
    takes the 2n+1 points 0, +/- sqrt(n+kappa) e_i with Julier's kappa =
    3 - n (n + kappa = 3, the Gaussian fourth moment); at n = 4, 5 the
    centre weight is negative, which stays moment-correct and tracks better
    than kappa = 0. The CKF (and the SRF's CT prediction) takes the 2n
    third-degree spherical-radial cubature points +/- sqrt(n) e_i, and the
    GHF the third-order tensor-product Gauss-Hermite grid of 3**n points.
    Both arrays are shared between calls and read-only.
    """
    eye = np.eye(n)
    if kind == UKF:
        kappa = 3.0 - n
        scale = np.sqrt(n + kappa)
        xi = np.vstack([np.zeros(n), scale * eye, -scale * eye])
        w = np.full(2 * n + 1, 1.0 / (2.0 * (n + kappa)))
        w[0] = kappa / (n + kappa)
    elif kind in (CKF, SRF):
        xi = np.vstack([np.sqrt(n) * eye, -np.sqrt(n) * eye])
        w = np.full(2 * n, 1.0 / (2.0 * n))
    elif kind == GHF:
        x1, w1 = hermite_e.hermegauss(3)
        w1 = w1 / w1.sum()
        idx = np.stack(
            np.meshgrid(*([np.arange(3)] * n), indexing="ij"), axis=-1
        ).reshape(-1, n)
        xi = x1[idx]
        w = np.prod(w1[idx], axis=1)
    else:
        raise ValueError(f"filter kind {kind!r} has no point set")
    xi.setflags(write=False)
    w.setflags(write=False)
    return xi, w


def points_for(kind: str, belief: GaussianBelief) -> WeightedPointSet:
    """Point set of a sample-point filter: mean + xi L^T, see _unit_points."""
    xi, w = _unit_points(kind, belief.dim)
    return WeightedPointSet(points=belief.mean + xi @ chol_psd(belief.cov).T, weights=w)


def predict(
    belief: GaussianBelief,
    model: MotionModel,
    u: np.ndarray,
    kind: str,
) -> GaussianBelief:
    """Time update through the motion model, minus the observer input.

    The input ``u`` is required: an array of the model's dimension, zeros
    for an observer that moves by the model's own dynamics. The EKF
    propagates the mean through the transition and the covariance through
    the process Jacobian. Sample-point filters propagate their point set,
    rebuild the first two moments, and subtract the input from the
    reconstructed mean. The SRF uses the exact linear propagation for a
    linear model and cubature points otherwise.
    """
    if kind not in FILTER_KINDS:
        raise ValueError(f"unknown filter kind {kind!r}")
    n = belief.dim
    if n != model.dim:
        raise ValueError(f"belief dim {n} does not match model dim {model.dim}")
    Q = kinematics.process_noise_cov(model)

    if kind == EKF or (kind == SRF and model.linear):
        F = kinematics.process_jacobian(model, belief.mean)
        mean = kinematics.transition(model, belief.mean) - u
        cov = F @ belief.cov @ F.T + Q
    else:
        ps = points_for(kind, belief)
        prop = WeightedPointSet(kinematics.transition(model, ps.points), ps.weights)
        mean, cov = prop.moments()
        mean = mean - u
        cov = cov + Q
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

    if Pyy <= 0 or not math.isfinite(Pyy):
        raise FilterNumericsError(f"innovation covariance {Pyy} is not positive")
    innov = sensing.wrap_angle(y - yhat) if meas.angular else y - yhat
    K = Pxy / Pyy
    mean = m + K * innov
    cov = symmetrize(P - Pyy * (K[:, None] * K))
    return UpdateOutcome(
        posterior=GaussianBelief(mean=mean, cov=cov),
        pred_meas=yhat,
        innov_cov=Pyy,
        log_likelihood=normal_log_pdf(innov, Pyy),
    )


_SQRT1_2 = math.sqrt(0.5)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def shifted_rayleigh_moments(u: float) -> tuple[float, float]:
    """First and second moments of r ~ c * r * exp(-(r-u)^2/2) on r >= 0."""
    if u < -35.0:
        # far tail: the density degenerates to a Gamma(2) with rate |u|
        return -2.0 / u, 6.0 / (u * u)
    # the standard normal density and distribution function; erfc keeps
    # Phi's relative accuracy in the lower tail, where 1 + erf would cancel
    phi = math.exp(-(u * u) / 2.0) / _SQRT_2PI
    Phi = 0.5 * math.erfc(-u * _SQRT1_2)
    den = u * Phi + phi
    rho1 = ((1.0 + u * u) * Phi + u * phi) / den
    rho2 = ((u * u + 2.0) * phi + u * (3.0 + u * u) * Phi) / den
    return rho1, rho2


def srf_matched_noise(belief: GaussianBelief, noise_std: float) -> float:
    """Planar noise level matched to the bearing noise: sigma^2 E|z|^2.

    E|z|^2 expands to x^2 + y^2 + P(1,1) + P(2,2) at the prior.
    """
    m, P = belief.mean, belief.cov
    return noise_std**2 * float(m[0] ** 2 + m[1] ** 2 + P[0, 0] + P[1, 1])


def srf_diagnostics(zhat: np.ndarray, V: np.ndarray, r2: float) -> tuple[float, float]:
    """The SRF's predicted bearing and its linearised innovation variance.

    The variance is the planar covariance V projected on the bearing's
    tangent, over the squared predicted range r2.
    """
    pred = float(np.arctan2(zhat[0], zhat[1]))
    tang = np.array([np.cos(pred), -np.sin(pred)])
    return pred, float(tang @ V @ tang) / r2


class SrfUpdateOutcome(UpdateOutcome):
    """An SRF update's outcome whose ``pred_meas`` and ``innov_cov`` are
    computed by :func:`srf_diagnostics` the first time either is read.

    The filter bank reads only the posterior and the log-likelihood, so a
    tracking run never builds them.
    """

    def __init__(self, posterior: GaussianBelief, log_likelihood: float,
                 zhat: np.ndarray, V: tuple, r2: float) -> None:
        self.posterior = posterior
        self.log_likelihood = log_likelihood
        self._diagnostic_inputs = (zhat, V, r2)

    @functools.cached_property
    def _diagnostics(self) -> tuple[float, float]:
        zhat, V, r2 = self._diagnostic_inputs
        return srf_diagnostics(zhat, np.array(V), r2)

    @property
    def pred_meas(self) -> float:
        return self._diagnostics[0]

    @property
    def innov_cov(self) -> float:
        return self._diagnostics[1]


def srf_update(belief: GaussianBelief, y: float, noise_std: float) -> UpdateOutcome:
    """Shifted Rayleigh measurement update for a bearing.

    The bearing is recast as the direction of the noisy planar position
    b = [sin y, cos y]. With the matched planar noise covariance
    R = sigma^2 (|z|^2 + tr Pz) I, the position conditioned on the measured
    direction has an exactly computable shifted-Rayleigh range law, whose
    first two moments give the posterior by Gaussian moment matching. The
    reported log-likelihood is that of the bivariate normal density of the
    conditioned pseudo-measurement, which the filter bank consumes directly;
    it stays finite where the density itself underflows. The predicted
    bearing and innovation variance are built on read (see
    :class:`SrfUpdateOutcome`).
    """
    m, P = belief.mean, belief.cov
    zhat = m[:2]
    r2 = float(zhat @ zhat)
    if r2 == 0.0:
        raise sensing.ZeroRangeError("SRF update undefined at zero predicted range")
    Rm = srf_matched_noise(belief, noise_std)
    # V = S + Rm * I entry by entry, the operations numpy's broadcast makes
    (s00, s01), (s10, s11) = P[:2, :2].tolist()
    V = ((s00 + Rm * 1.0, s01 + Rm * 0.0), (s10 + Rm * 0.0, s11 + Rm * 1.0))
    (v00, v01), (v10, v11) = V
    detV = v00 * v11 - v01 * v10
    if detV <= 0 or not math.isfinite(detV):
        raise FilterNumericsError("SRF planar covariance is not positive definite")
    Vi = np.array([[v11 / detV, -v01 / detV], [-v10 / detV, v00 / detV]])

    b = np.array(kinematics.sin_cos(y))
    bVi = b @ Vi
    a = float(bVi @ b)
    # NaN below zero, as np.sqrt gives, where math.sqrt would raise
    sqrt_a = math.sqrt(a) if a >= 0.0 else math.nan
    u = float(bVi @ zhat) / sqrt_a
    rho1, rho2 = shifted_rayleigh_moments(u)

    zcond = (rho1 / sqrt_a) * b
    var_r = max(rho2 - rho1 * rho1, 0.0) / a

    C = P[:, :2]
    G = C @ Vi
    resid = zcond - zhat
    Gb = G @ b
    mean = m + G @ resid
    cov = symmetrize(P - G @ C.T + var_r * (Gb[:, None] * Gb))

    quad = float(resid @ Vi @ resid)
    log_likelihood = -0.5 * (quad + math.log(detV)) - math.log(2.0 * math.pi)

    return SrfUpdateOutcome(GaussianBelief(mean=mean, cov=cov), log_likelihood, zhat, V, r2)
