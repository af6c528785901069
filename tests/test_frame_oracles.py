"""Frame oracles: a run rescaled or rotated as a whole keeps its side decision.

Both transformations leave the exact side posterior unchanged. Each test
tracks a few synthesised runs in resolved mode (initial log-odds 0) before
and after the transformation.

* **Scale by 2.** Every length and speed doubles, q1 quadruples and the
  prior's lengths double; the bearings do not move. IEEE arithmetic scales
  by a power of two exactly, so the log-odds keep their bits for the EKF
  and the point filters. The SRF's likelihood takes log det V, and det V
  scales by 16, so it agrees to rounding. In CV the whole config is scaled
  and the run synthesised from it; a scaled CT config would draw another
  truth (``process_noise_root`` orders its columns by eigenvalue, and
  scaling q1 reorders them), so in CT the synthesised inputs are scaled.
* **Rotation by alpha.** Observers and truth rotate about the origin, and
  alpha is added to both bearings and the heading. The models, Q, the
  polar prior and the bearing model all commute with it, so a filter whose
  log-odds move depends on its frame's orientation. The EKF and the SRF in
  CV must agree to rounding. The point filters' sets are fixed in the state
  axes, so they do not rotate with the frame: their gaps are printed
  (``pytest -s``), not asserted.
"""

import dataclasses
import math

import numpy as np
import pytest

from towedtma import sensing
from towedtma.kinematics import CT, CV, ObserverState
from towedtma.sensing import BearingPair
from towedtma.simkit import RunInputs, ScenarioConfig, run_seed, synthesize_run, track_run

SEEDS = (0, 1, 2)
ALPHAS_DEG = (30.0, -75.0, 160.0)
ROTATION_RTOL = 1e-8


def scaled_config(cfg: ScenarioConfig, c: float) -> ScenarioConfig:
    p = cfg.init_prior
    prior = dataclasses.replace(p, sigma_r_km=c * p.sigma_r_km, sigma_s_kn=c * p.sigma_s_kn,
                                r_bar_km=c * p.r_bar_km, s_bar_kn=c * p.s_bar_kn)
    return dataclasses.replace(
        cfg, target_speed_kn=c * cfg.target_speed_kn, observer_speed_kn=c * cfg.observer_speed_kn,
        q1=c * c * cfg.q1, initial_range_km=c * cfg.initial_range_km,
        track_bound_km=c * cfg.track_bound_km, init_prior=prior)


def scaled_inputs(inputs: RunInputs, c: float) -> RunInputs:
    def scale(states):
        out = np.array(states, dtype=float)
        out[:, :4] *= c
        return out

    observers = [ObserverState(c * o.x, c * o.y, c * o.vx, c * o.vy, o.heading)
                 for o in inputs.observers]
    return dataclasses.replace(inputs, observers=observers, target_abs=scale(inputs.target_abs),
                               truth_rel=scale(inputs.truth_rel))


def rotated_inputs(inputs: RunInputs, alpha: float) -> RunInputs:
    """The run turned clockwise by ``alpha``: every bearing gains alpha."""
    ca, sa = math.cos(alpha), math.sin(alpha)

    def turn(x, y):
        return x * ca + y * sa, -x * sa + y * ca

    def rotate(states):
        out = np.array(states, dtype=float)
        for i in (0, 2):
            out[:, i], out[:, i + 1] = turn(out[:, i], out[:, i + 1])
        return out

    def bearing(b):
        return sensing.wrap_angle(b + alpha)

    observers = [ObserverState(*turn(o.x, o.y), *turn(o.vx, o.vy), bearing(o.heading))
                 for o in inputs.observers]
    pairs = [BearingPair(bearing(p.y1), bearing(p.y2), bearing(p.heading), p.t)
             for p in inputs.measurements]
    return dataclasses.replace(inputs, observers=observers, target_abs=rotate(inputs.target_abs),
                               truth_rel=rotate(inputs.truth_rel), measurements=pairs)


def log_odds(rec) -> np.ndarray:
    return np.array([e.log_odds for e in rec.estimates])


def outcome(rec) -> tuple:
    return rec.failure is None, rec.diverged


@pytest.mark.parametrize("case", [CV, CT])
@pytest.mark.parametrize("kind", ["ekf", "ukf", "ckf", "ghf", "srf"])
def test_scale_by_two_keeps_the_log_odds(kind, case):
    cfg = ScenarioConfig(filter_kind=kind, model_kind=case)
    big = scaled_config(cfg, 2.0)
    for i in SEEDS:
        seed = run_seed(cfg.seed, i)
        inputs = synthesize_run(cfg, seed)
        if case == CV:
            scaled = synthesize_run(big, seed)
            # the synthesis is scale-equivariant bit for bit
            assert np.array_equal(scaled.truth_rel, 2.0 * inputs.truth_rel)
            assert [(p.y1, p.y2) for p in scaled.measurements] == [
                (p.y1, p.y2) for p in inputs.measurements]
        else:
            scaled = scaled_inputs(inputs, 2.0)
        want, got = track_run(inputs, cfg, 0.0), track_run(scaled, big, 0.0)
        assert outcome(got) == outcome(want)
        if kind == "srf":
            np.testing.assert_allclose(log_odds(got), log_odds(want), rtol=0.0, atol=1e-12)
        else:
            assert log_odds(got).tobytes() == log_odds(want).tobytes()
            if case == CV:
                for g, w in zip(got.estimates, want.estimates):
                    assert g.mean.tobytes() == (2.0 * w.mean).tobytes()


def rotation_gaps(kind: str, case: str):
    """Per seed and angle: the largest |log-odds gap| over the steps,
    relative to max(1, |log-odds|), and whether the outcome held."""
    cfg = ScenarioConfig(filter_kind=kind, model_kind=case)
    out = []
    for i in SEEDS:
        inputs = synthesize_run(cfg, run_seed(cfg.seed, i))
        want = track_run(inputs, cfg, 0.0)
        for alpha in ALPHAS_DEG:
            got = track_run(rotated_inputs(inputs, math.radians(alpha)), cfg, 0.0)
            lo_w, lo_g = log_odds(want), log_odds(got)
            with np.errstate(invalid="ignore"):
                gap = np.where(lo_g == lo_w, 0.0, np.abs(lo_g - lo_w) / np.maximum(1.0, np.abs(lo_w)))
            out.append((i, alpha, float(np.max(gap)), outcome(got) == outcome(want)))
    return out


@pytest.mark.parametrize("kind, case", [("ekf", CV), ("ekf", CT), ("srf", CV)])
def test_rotation_keeps_the_log_odds(kind, case):
    for seed, alpha, gap, same_outcome in rotation_gaps(kind, case):
        assert gap <= ROTATION_RTOL, (seed, alpha, gap)
        assert same_outcome, (seed, alpha)


@pytest.mark.parametrize("kind, case", [("ukf", CV), ("ckf", CV), ("ghf", CV), ("ukf", CT),
                                        ("ckf", CT), ("ghf", CT), ("srf", CT)])
def test_rotation_gaps_of_the_frame_bound_filters(kind, case):
    # printed, not asserted: these sets do not rotate with the frame
    gaps = rotation_gaps(kind, case)
    worst = max(gaps, key=lambda g: g[2])
    changed = sum(not same for *_, same in gaps)
    print(f"\n{kind}/{case}: largest relative log-odds gap {worst[2]:.3g} "
          f"(seed {worst[0]}, alpha {worst[1]:g} deg); "
          f"outcome changed in {changed} of {len(gaps)} rotated runs")
