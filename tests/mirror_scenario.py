"""A bearing scenario and its reflection across true north, for mirror tests.

The reflection negates every east component (x, vx), every angle and the
turn rate, and swaps the bearing slots. Its arithmetic is exact sign
flipping, so the bank run on the reflected scenario must be the original
bank with its sides swapped and its state reflected.
"""

import numpy as np

from towedtma import lrtma, sensing, simkit
from towedtma.kinematics import ObserverState
from towedtma.sensing import BearingPair, wrap_angle


def reflect_observer(o: ObserverState) -> ObserverState:
    return ObserverState(x=-o.x, y=o.y, vx=-o.vx, vy=o.vy, heading=-o.heading)


def reflect_pair(p: BearingPair) -> BearingPair:
    return BearingPair(y1=-p.y2, y2=-p.y1, heading=-p.heading, t=p.t)


def reflection(dim: int) -> np.ndarray:
    """The state reflection D: x, vx and (CT) the turn rate change sign."""
    return np.diag([-1.0, 1.0, -1.0, 1.0, -1.0][:dim])


def mirrored_banks(cfg: simkit.ScenarioConfig, filter_kind: str, noise_seed: int):
    """Run the bank on cfg's noise-free truth and on its reflection.

    The bearings carry noise from ``default_rng(noise_seed)``, with the true
    detection in slot 1. Yields (bank, reflected bank) for t = 1..horizon.
    """
    model, prior, sigma = cfg.motion_model(), cfg.prior(), cfg.sigma_theta_rad
    observers = simkit.gen_observer_track(cfg)
    observers_r = [reflect_observer(o) for o in observers]
    rel = simkit.relative_truth(simkit.gen_target_track(cfg), observers)
    nu = np.random.default_rng(noise_seed).normal(size=cfg.horizon + 1) * sigma
    pairs = []
    for k in range(1, cfg.horizon + 1):
        h = observers[k].heading
        y1 = wrap_angle(sensing.true_bearing(rel[k]) + nu[k])
        pairs.append(BearingPair(y1=y1, y2=wrap_angle(2.0 * h - y1), heading=h, t=k))
    pairs_r = [reflect_pair(p) for p in pairs]

    bank = lrtma.init_bank(pairs[0], prior, observers[1], model)
    bank_r = lrtma.init_bank(pairs_r[0], prior, observers_r[1], model)
    yield bank, bank_r
    for k in range(2, cfg.horizon + 1):
        args = (model, filter_kind, sigma)
        bank = lrtma.step(bank, pairs[k - 1], observers[k - 1], observers[k], *args)
        bank_r = lrtma.step(bank_r, pairs_r[k - 1], observers_r[k - 1], observers_r[k], *args)
        yield bank, bank_r


def reflects_exactly(bank: lrtma.FilterBankState, bank_r: lrtma.FilterBankState) -> bool:
    """Whether ``bank_r`` is D (``bank`` with its sides swapped), entry for entry.

    ``==`` per entry: the reflection may turn a 0.0 into -0.0.
    """
    D = reflection(bank.fused.dim)
    beliefs = ((bank_r.belief1, bank.belief2), (bank_r.belief2, bank.belief1),
               (bank_r.fused, bank.fused))
    return (bank_r.w1 == bank.w2 and bank_r.w2 == bank.w1 and all(
        np.array_equal(r.mean, D @ b.mean) and np.array_equal(r.cov, D @ b.cov @ D)
        for r, b in beliefs))
