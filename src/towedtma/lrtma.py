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
were kept as linear numbers that underflow and get clamped. A stretch of
bad innovations still can: the bank keeps weighing both sides, so a
decided bank whose true-side filter goes astray for several steps hands
the weight to the ghost. The fused output is the weighted Gaussian mixture
of the two sides. Its mean, the tracker's point estimate, comes with each
step; its spread-of-means covariance is built the first time it is read.
The side filters are never reset from either.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import gaussfilt, kinematics
from .gaussfilt import GaussianBelief, UpdateOutcome
from .kinematics import MotionModel, ObserverState
from .sensing import BearingPair

# A bank whose larger side weight reaches this has decided its side.
DECIDED_WEIGHT = 0.99


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
    sigma_psi: float

    def __post_init__(self) -> None:
        for name in ("sigma_r", "sigma_theta", "sigma_s", "sigma_c", "r_bar", "s_bar", "sigma_psi"):
            if not 0 < getattr(self, name) < math.inf:  # NaN and inf fail too
                raise ValueError(f"{name} must be positive and finite")


@dataclass
class FilterBankState:
    """The two side beliefs, their log-odds, and the fused output.

    ``log_odds`` is log w1 - log w2. ``mean``, the fused point estimate, is
    set on construction: the weighted mixture mean of the sides for finite
    log-odds. ``fused`` adds the mixture covariance and is built the first
    time it is read; its mean is ``mean`` bit for bit. Infinite log-odds
    settle the bank on one side (+inf: side 1, -inf: side 2), and ``fused``
    is then that side's belief object itself, ``mean`` that belief's mean.
    """

    belief1: GaussianBelief
    belief2: GaussianBelief
    log_odds: float
    t: int
    mean: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if math.isinf(self.log_odds):
            self.mean = (self.belief1 if self.log_odds > 0 else self.belief2).mean
        else:
            self.mean = _mixture_mean(self.belief1, self.belief2, side_weights(self.log_odds))

    @functools.cached_property
    def fused(self) -> GaussianBelief:
        if math.isinf(self.log_odds):
            # not fuse(b, b, (1, 0)): its symmetrize would move the bits
            return self.belief1 if self.log_odds > 0 else self.belief2
        return fuse(self.belief1, self.belief2, side_weights(self.log_odds))

    @property
    def w1(self) -> float:
        return side_weights(self.log_odds)[0]

    @property
    def w2(self) -> float:
        return side_weights(self.log_odds)[1]


def _polar_cov(th: float, rho: float, sigma_rho: float, sigma_ang: float) -> np.ndarray:
    """Linearized covariance of rho * (sin th, cos th) under polar spreads."""
    sn, cs = kinematics.sin_cos(th)
    J = np.array([[sn, rho * cs], [cs, -rho * sn]])
    return J @ np.diag([sigma_rho**2, sigma_ang**2]) @ J.T


def init_side(
    first_bearing: float,
    prior: InitPrior,
    obs: ObserverState,
    model: MotionModel,
    draw: Sequence[float] = (0.0, 0.0, 0.0, 0.0, 0.0),
) -> GaussianBelief:
    """Relative-state belief from one first bearing and the polar prior.

    The mean is the polar point ``draw`` standard deviations from the prior
    means of (range, bearing, speed, course, turn rate): the position at
    the range along the bearing ray, and the target closing on the course
    c = bearing + course offset, i.e. velocity -speed * (sin c, cos c)
    less the known observer velocity. Negating the bearing direction, not
    adding pi, keeps the side of a mirrored bearing exactly mirrored. A
    turn-rate component (CT) follows the velocity. The covariance is the
    undrawn prior pushed through the linearized polar map; the velocity's
    Jacobian is the negated position form, whose sign cancels.
    """
    d_r, d_th, d_s, d_c, d_psi = draw
    b = first_bearing + prior.sigma_theta * d_th
    c = b + prior.sigma_c * d_c
    r = prior.r_bar + prior.sigma_r * d_r
    s = prior.s_bar + prior.sigma_s * d_s

    n = model.dim
    mean = np.zeros(n)
    cov = np.zeros((n, n))
    mean[0:2] = r * np.array(kinematics.sin_cos(b))
    mean[2:4] = -s * np.array(kinematics.sin_cos(c)) - obs.vel
    mean[4:] = prior.sigma_psi * d_psi
    cov[0:2, 0:2] = _polar_cov(first_bearing, prior.r_bar, prior.sigma_r, prior.sigma_theta)
    cov[2:4, 2:4] = _polar_cov(first_bearing, prior.s_bar, prior.sigma_s, prior.sigma_c)
    cov[4:, 4:] = prior.sigma_psi**2
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


def _mixture_mean(
    b1: GaussianBelief, b2: GaussianBelief, w: tuple[float, float]
) -> np.ndarray:
    # the one expression of the fused mean, shared by the bank and fuse
    return w[0] * b1.mean + w[1] * b2.mean


def fuse(
    b1: GaussianBelief, b2: GaussianBelief, w: tuple[float, float]
) -> GaussianBelief:
    """Gaussian-mixture mean and spread-of-means covariance of the sides."""
    if b1.dim != b2.dim:
        raise ValueError(f"side dims differ: {b1.dim} vs {b2.dim}")
    w1, w2 = w
    mean = _mixture_mean(b1, b2, w)
    d1 = b1.mean - mean
    d2 = b2.mean - mean
    cov = w1 * (b1.cov + d1[:, None] * d1) + w2 * (b2.cov + d2[:, None] * d2)
    return GaussianBelief(mean=mean, cov=gaussfilt.symmetrize(cov))


def init_bank(
    pair: BearingPair,
    prior: InitPrior,
    obs: ObserverState,
    model: MotionModel,
    draw: Sequence[float] = (0.0,) * 5,
    log_odds: float = 0.0,
) -> FilterBankState:
    """Start the bank from the first mirrored pair, its polar draw and log-odds.

    Slot 1 starts ``draw`` standard deviations from the prior means, slot 2
    at the mirrored draw: its bearing, course and turn-rate offsets are
    negated, as ``0.0 - d`` so that a zero offset stays +0.0 as in the
    undrawn start. Infinite log-odds start a bank settled on one slot: only
    that slot's side is built, and the one belief fills both slots.
    """
    # floats, so that init_side does no numpy-scalar arithmetic
    d_r, d_th, d_s, d_c, d_psi = draw = tuple(map(float, draw))
    mirror = (d_r, 0.0 - d_th, d_s, 0.0 - d_c, 0.0 - d_psi)
    if math.isinf(log_odds):
        y, d = (pair.y1, draw) if log_odds > 0 else (pair.y2, mirror)
        b = init_side(y, prior, obs, model, d)
        return FilterBankState(b, b, log_odds, pair.t)
    b1 = init_side(pair.y1, prior, obs, model, draw)
    b2 = init_side(pair.y2, prior, obs, model, mirror)
    return FilterBankState(b1, b2, log_odds, pair.t)


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

    The observer input is taken at the side's own state estimate.
    Raises FilterNumericsError on a non-finite posterior mean; other
    numerical failures of the filter propagate unchanged.
    """
    u = kinematics.observer_input(obs_prev, obs_now, model, belief.mean)
    prior = gaussfilt.predict(belief, model, u, filter_kind)
    out = gaussfilt.update(prior, y, noise_std, filter_kind)
    if not all(map(math.isfinite, out.posterior.mean.tolist())):
        raise gaussfilt.FilterNumericsError("non-finite estimate")
    return out


# Failures of a stacked step that the side-by-side step redoes (ZeroRangeError
# and LinAlgError are ValueErrors, FloatingPointError an ArithmeticError)
_REDONE = (gaussfilt.FilterNumericsError, ValueError, ArithmeticError)


def _stacked_sides(
    bank: FilterBankState,
    meas: BearingPair,
    obs_prev: ObserverState,
    obs_now: ObserverState,
    model: MotionModel,
    filter_kind: str,
    noise_std: float,
) -> list[UpdateOutcome]:
    """:func:`side_step` on both sides of a resolved bank, through one
    predict of both sides and then one update per side.

    Each side keeps its own observer input, point sets and bearing, so each
    outcome has the bits of its side's :func:`side_step`.
    """
    sides = bank.belief1, bank.belief2
    u = [kinematics.observer_input(obs_prev, obs_now, model, b.mean) for b in sides]
    priors = gaussfilt.predict(sides, model, u, filter_kind)
    outs = [gaussfilt.update(prior, y, noise_std, filter_kind)
            for prior, y in zip(priors, (meas.y1, meas.y2))]
    for out in outs:
        if not all(map(math.isfinite, out.posterior.mean.tolist())):
            raise gaussfilt.FilterNumericsError("non-finite estimate")
    return outs


def step(
    bank: FilterBankState,
    meas: BearingPair,
    obs_prev: ObserverState,
    obs_now: ObserverState,
    model: MotionModel,
    filter_kind: str,
    noise_std: float,
) -> FilterBankState:
    """One recursion of the bank: :func:`side_step` on each side, weight, fused mean.

    A settled bank (infinite log-odds) steps only its live side, on that
    slot's bearing, and keeps its log-odds; a side of weight 0 cannot move
    the fused output. Both slots then hold the live side's posterior.
    A resolved bank for which :func:`gaussfilt.stacks` holds predicts both
    sides in one call (:func:`_stacked_sides`). A failure there is redone
    side by side, so the step raises what the side-by-side step raises first:
    side 1's predict, then its update, then side 2's. Numerical failures
    propagate as exceptions; the Monte Carlo harness flags the run as
    diverged rather than aborting.
    """
    args = (obs_prev, obs_now, model, filter_kind, noise_std)
    if math.isinf(bank.log_odds):
        live, y = (bank.belief1, meas.y1) if bank.log_odds > 0 else (bank.belief2, meas.y2)
        post = side_step(live, y, *args).posterior
        return FilterBankState(post, post, bank.log_odds, bank.t + 1)
    outs = None
    if gaussfilt.stacks(filter_kind, model):
        try:
            outs = _stacked_sides(bank, meas, *args)
        except _REDONE:
            pass
    if outs is None:
        outs = side_step(bank.belief1, meas.y1, *args), side_step(bank.belief2, meas.y2, *args)
    out1, out2 = outs
    log_odds = update_log_odds(bank.log_odds, out1.log_likelihood, out2.log_likelihood)
    return FilterBankState(out1.posterior, out2.posterior, log_odds, bank.t + 1)
