"""A bearing scenario and its reflection across true north, for mirror tests.

The reflection negates every east component (x, vx), every angle and the
turn rate, and swaps the bearing slots. Its arithmetic is exact sign
flipping, so the bank run on the reflected scenario must be the original
bank with its sides swapped and its state reflected.
"""

import dataclasses

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
    detection in slot 1. Both runs go through :func:`simkit.track_run` at
    log-odds 0 from a zero polar draw. Returns (bank, reflected bank) pairs
    for t = 1..horizon.
    """
    cfg = dataclasses.replace(cfg, filter_kind=filter_kind)
    observers = simkit.gen_observer_track(cfg)
    target = simkit.gen_target_track(cfg)
    rel = simkit.relative_truth(target, observers)
    nu = np.random.default_rng(noise_seed).normal(size=cfg.horizon + 1) * cfg.sigma_theta_rad
    pairs = []
    for k in range(1, cfg.horizon + 1):
        h = observers[k].heading
        y1 = wrap_angle(sensing.true_bearing(rel[k]) + nu[k])
        pairs.append(BearingPair(y1=y1, y2=wrap_angle(2.0 * h - y1), heading=h, t=k))
    D = reflection(target.shape[1])
    inputs = simkit.RunInputs(observers, target, rel[1:], pairs, 1, np.zeros(5))
    reflected = simkit.RunInputs([reflect_observer(o) for o in observers], target @ D,
                                 rel[1:] @ D, [reflect_pair(p) for p in pairs], 2, np.zeros(5))
    rec, rec_r = (simkit.track_run(i, cfg, 0.0) for i in (inputs, reflected))
    assert rec.failure is None and rec_r.failure is None
    return zip(rec.estimates, rec_r.estimates)


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
