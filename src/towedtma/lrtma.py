"""Likelihood-weighted two-filter bank for left-right ambiguity resolution.

Two identical Gaussian filters run in parallel, one per mirrored bearing
slot. Each side is initialized on the ray of its own first bearing and is
updated every step with its own slot's detection. Because the two slots
are exact mirrors about the array axis, updating a side against its own
slot with the direct bearing model is algebraically identical to
predicting the mirrored bearing 2h - gamma(x) with a negated measurement
Jacobian and comparing it to the opposite slot: the sign flips cancel in
the gain, the correction, and the likelihood.

While the array heading is constant both hypotheses explain their bearing
streams equally well and the weights hover near 1/2; an ownship maneuver
makes the mirror-side stream kinematically inconsistent, its likelihood
collapses, and the weight recursion drives the surviving side to one.

The recursion runs in the log domain: the bank carries the log-odds
log w1 - log w2 and adds the difference of the two sides' measurement
log-likelihoods each step, which is Bayes' rule with the normalizer
cancelled. The weights follow from the log-odds by two-term log-sum-exp
normalization. Evidence therefore accumulates without bound: a side whose
weight fell to e^-3000 stays that far behind, and one bad innovation on the
surviving side cannot hand the weight back, as it would if the weights
were kept as linear numbers that underflow and get clamped. The fused
output is the weighted Gaussian mixture of the two sides (mean plus
spread-of-means covariance) and is report-only: the side filters are never
reset from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gaussfilt, kinematics, sensing
from .gaussfilt import GaussianBelief, UpdateOutcome
from .kinematics import CT, MotionModel, ObserverState
from .sensing import BearingPair

@dataclass(frozen=True)
class InitPrior:
    """Polar prior used to start a side filter from its first bearing.

    All fields are in internal units: km, km/min, rad, rad/min.
    """

    sigma_r: float
    sigma_theta: float
    sigma_s: float
    sigma_c: float
    r_bar: float
    s_bar: float
    sigma_psi: float = np.deg2rad(3.5)

    def __post_init__(self) -> None:
        for name in ("sigma_r", "sigma_theta", "sigma_s", "sigma_c"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class FilterBankState:
    """The two side beliefs, their log-odds, and the fused output.

    ``log_odds`` is log w1 - log w2; +inf pins all weight on side 1.
    """

    belief1: GaussianBelief
    belief2: GaussianBelief
    log_odds: float
    fused: GaussianBelief
    t: int

    @property
    def w1(self) -> float:
        return side_weights(self.log_odds)[0]

    @property
    def w2(self) -> float:
        return side_weights(self.log_odds)[1]


def init_side(
    first_bearing: float,
    prior: InitPrior,
    obs: ObserverState,
    model: MotionModel,
) -> GaussianBelief:
    """Relative-state belief from one first bearing and the polar prior.

    The position mean sits at the prior range along the bearing ray; the
    velocity mean assumes the prior speed on the closing course
    (bearing + pi) minus the known observer velocity. The covariance is
    the polar prior pushed through the linearized polar-to-Cartesian map.
    In CT mode the turn-rate component is appended with zero mean.
    """
    th = first_bearing
    cbar = sensing.wrap_angle(th + np.pi)
    pos = prior.r_bar * np.array([np.sin(th), np.cos(th)])
    vel = prior.s_bar * np.array([np.sin(cbar), np.cos(cbar)]) - obs.vel

    Jp = np.array(
        [
            [np.sin(th), prior.r_bar * np.cos(th)],
            [np.cos(th), -prior.r_bar * np.sin(th)],
        ]
    )
    Jv = np.array(
        [
            [np.sin(cbar), prior.s_bar * np.cos(cbar)],
            [np.cos(cbar), -prior.s_bar * np.sin(cbar)],
        ]
    )
    Ppos = Jp @ np.diag([prior.sigma_r**2, prior.sigma_theta**2]) @ Jp.T
    Pvel = Jv @ np.diag([prior.sigma_s**2, prior.sigma_c**2]) @ Jv.T

    n = model.dim
    mean = np.zeros(n)
    cov = np.zeros((n, n))
    mean[0:2], mean[2:4] = pos, vel
    cov[0:2, 0:2], cov[2:4, 2:4] = Ppos, Pvel
    if model.kind == CT:
        cov[4, 4] = prior.sigma_psi**2
    return GaussianBelief(mean=mean, cov=cov)


def _logistic(x: float) -> float:
    # 1 / (1 + e^-x) without overflowing for either sign of x
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def side_weights(log_odds: float) -> tuple[float, float]:
    """Weights (w1, w2) normalized from the log-odds log w1 - log w2.

    This is log-sum-exp normalization of the two log-weights. Negating the
    log-odds swaps the weights bit for bit, which keeps the bank exactly
    mirror-equivariant.
    """
    return _logistic(log_odds), _logistic(-log_odds)


def update_log_odds(log_odds: float, ll1: float, ll2: float) -> float:
    """Bayes-recursive update of log w1 - log w2 by the side log-likelihoods.

    Infinite log-odds (a side with exactly zero weight) are absorbing. If
    both posterior numerators are exactly zero the sum is undefined and the
    previous log-odds are kept.
    """
    post = log_odds + (ll1 - ll2)
    return log_odds if math.isnan(post) else post


def fuse(
    b1: GaussianBelief, b2: GaussianBelief, w: tuple[float, float]
) -> GaussianBelief:
    """Gaussian-mixture mean and spread-of-means covariance of the sides."""
    if b1.dim != b2.dim:
        raise ValueError(f"side dims differ: {b1.dim} vs {b2.dim}")
    w1, w2 = w
    mean = w1 * b1.mean + w2 * b2.mean
    d1 = b1.mean - mean
    d2 = b2.mean - mean
    cov = w1 * (b1.cov + np.outer(d1, d1)) + w2 * (b2.cov + np.outer(d2, d2))
    return GaussianBelief(mean=mean, cov=gaussfilt.symmetrize(cov))


def bank_from_sides(
    b1: GaussianBelief, b2: GaussianBelief, t: int
) -> FilterBankState:
    """Bank holding two fresh side beliefs at equal weights."""
    return FilterBankState(
        belief1=b1, belief2=b2, log_odds=0.0, fused=fuse(b1, b2, (0.5, 0.5)), t=t
    )


def init_bank(
    pair: BearingPair,
    prior: InitPrior,
    obs: ObserverState,
    model: MotionModel,
) -> FilterBankState:
    """Start the bank from the first mirrored pair with equal weights."""
    b1 = init_side(pair.y1, prior, obs, model)
    b2 = init_side(pair.y2, prior, obs, model)
    return bank_from_sides(b1, b2, pair.t)


def side_step(
    belief: GaussianBelief,
    y: float,
    obs_prev: ObserverState,
    obs_now: ObserverState,
    model: MotionModel,
    filter_kind: str,
    noise_std: float,
) -> UpdateOutcome:
    """One recursion of a single side filter: observer input, predict, update.

    The CT observer input is taken at the side's own turn-rate estimate.
    Raises FilterNumericsError on a non-finite posterior mean; other
    numerical failures of the filter propagate unchanged.
    """
    turn_rate = float(belief.mean[4]) if model.kind == CT else 0.0
    u = kinematics.observer_input(obs_prev, obs_now, model, turn_rate=turn_rate)
    prior = gaussfilt.predict(belief, model, u, filter_kind)
    out = gaussfilt.update(prior, y, noise_std, filter_kind)
    if not np.all(np.isfinite(out.posterior.mean)):
        raise gaussfilt.FilterNumericsError("non-finite estimate")
    return out


def step(
    bank: FilterBankState,
    meas: BearingPair,
    obs_prev: ObserverState,
    obs_now: ObserverState,
    model: MotionModel,
    filter_kind: str,
    noise_std: float,
) -> FilterBankState:
    """One recursion of the bank: :func:`side_step` on each side, weight, fuse.

    Numerical failures propagate as exceptions; the Monte Carlo harness
    flags the run as diverged rather than aborting.
    """
    out1, out2 = (
        side_step(belief, y, obs_prev, obs_now, model, filter_kind, noise_std)
        for belief, y in ((bank.belief1, meas.y1), (bank.belief2, meas.y2))
    )
    log_odds = update_log_odds(bank.log_odds, out1.log_likelihood, out2.log_likelihood)
    return FilterBankState(
        belief1=out1.posterior,
        belief2=out2.posterior,
        log_odds=log_odds,
        fused=fuse(out1.posterior, out2.posterior, side_weights(log_odds)),
        t=bank.t + 1,
    )
