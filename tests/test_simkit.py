import dataclasses
import math
import os
import re
from concurrent.futures import Future

import numpy as np
import pytest

from towedtma import gaussfilt, kinematics, lrtma, sensing, simkit
from towedtma.gaussfilt import FILTER_KINDS
from towedtma.kinematics import CT, CV, KNOT
from towedtma.simkit import (
    KNOWN_SIDE,
    RESOLVED,
    ConfigError,
    InitPriorConfig,
    ScenarioConfig,
    gen_observer_track,
    gen_target_track,
    relative_truth,
    run_monte_carlo,
    run_seed,
    simulate_run,
    summarize_run,
)


# values a field of each annotated type must reject: wrong types, and
# non-finite numbers for float fields
_BAD_VALUES = {
    "int": [1.5, True, "3", None, math.nan],
    "float": ["abc", False, None, [1.0], math.inf, -math.inf, math.nan],
    "str": [5, None],
    "InitPriorConfig": [5, {}, None],
}
_BAD_FIELD_CASES = [
    pytest.param(cls, f.name, v, id=f"{cls.__name__}.{f.name}={v!r}")
    for cls in (ScenarioConfig, InitPriorConfig)
    for f in dataclasses.fields(cls)
    for v in _BAD_VALUES[f.type]
]


class TestConfig:
    @pytest.mark.parametrize("cls, name, value", _BAD_FIELD_CASES)
    def test_bad_field_value_raises_naming_field(self, cls, name, value):
        label = ("init_prior." if cls is InitPriorConfig else "") + name
        pattern = f"^{re.escape(label)}: "
        with pytest.raises(ConfigError, match=pattern):
            cls(**{name: value})
        with pytest.raises(ConfigError, match=pattern):
            dataclasses.replace(cls(), **{name: value})

    @pytest.mark.parametrize("name", ["q1", "target_course0_deg", "T"])
    def test_float_fields_keep_ints(self, name):
        cfg = ScenarioConfig(**{name: 2})
        assert type(getattr(cfg, name)) is int

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="^seed: must be nonnegative"):
            ScenarioConfig(seed=-1)

    @pytest.mark.parametrize("kind", FILTER_KINDS)
    @pytest.mark.parametrize("case", [CV, CT])
    def test_benchmark_cell_configs_valid(self, kind, case):
        # the form in which benchmarks/workloads.py builds each cell's config
        cfg = ScenarioConfig(filter_kind=kind, model_kind=case, n_runs=2, seed=2**32 - 1)
        assert dataclasses.replace(cfg) == cfg
        assert (cfg.filter_kind, cfg.model_kind, cfg.n_runs) == (kind, case, 2)


class TestObserverTrack:
    def test_speed_constant_throughout(self):
        cfg = ScenarioConfig()
        for o in gen_observer_track(cfg):
            assert o.speed == pytest.approx(5.0 * KNOT, abs=1e-12)

    def test_course_midpoint_of_maneuver(self):
        cfg = ScenarioConfig()
        assert np.degrees(simkit.observer_course(cfg, 15.0)) == pytest.approx(80.0)

    def test_course_endpoints(self):
        cfg = ScenarioConfig()
        assert np.degrees(simkit.observer_course(cfg, 13.0)) == pytest.approx(140.0)
        assert np.degrees(simkit.observer_course(cfg, 17.0)) == pytest.approx(20.0)
        assert np.degrees(simkit.observer_course(cfg, 30.0)) == pytest.approx(20.0)

    def test_position_continuity(self):
        cfg = ScenarioConfig()
        track = gen_observer_track(cfg)
        speed = 5.0 * KNOT
        for a, b in zip(track[:-1], track[1:]):
            step = np.hypot(b.x - a.x, b.y - a.y)
            assert step <= speed * cfg.T + 1e-12

    def test_heading_equals_course(self):
        cfg = ScenarioConfig()
        track = gen_observer_track(cfg)
        assert track[0].heading == pytest.approx(np.deg2rad(140.0))
        assert track[-1].heading == pytest.approx(np.deg2rad(20.0))


class TestTargetTrack:
    def test_cv_course_constant(self):
        cfg = ScenarioConfig(model_kind=CV)
        track = gen_target_track(cfg)
        for k in range(len(track)):
            course = np.degrees(np.arctan2(track[k, 2], track[k, 3]))
            assert course == pytest.approx(-140.0, abs=1e-9)

    def test_ct_terminal_course_clockwise_contract(self):
        # positive configured rate = clockwise course change: -140 + 90 = -50
        cfg = ScenarioConfig(model_kind=CT, target_turn_rate_deg_min=3.0)
        track = gen_target_track(cfg)
        course = np.degrees(np.arctan2(track[-1, 2], track[-1, 3]))
        assert course == pytest.approx(-50.0, abs=1e-6)

    def test_ct_default_turns_counterclockwise(self):
        cfg = ScenarioConfig(model_kind=CT)
        track = gen_target_track(cfg)
        course = np.degrees(np.arctan2(track[-1, 2], track[-1, 3]))
        assert course == pytest.approx(130.0, abs=1e-6)

    def test_initial_range(self):
        cfg = ScenarioConfig()
        track = gen_target_track(cfg)
        assert np.hypot(track[0, 0], track[0, 1]) == pytest.approx(5.0)

    def test_speed_is_four_knots(self):
        cfg = ScenarioConfig()
        track = gen_target_track(cfg)
        assert np.hypot(track[0, 2], track[0, 3]) == pytest.approx(4.0 * KNOT)

    def test_process_noise_perturbs(self):
        cfg = ScenarioConfig()
        nominal = gen_target_track(cfg)
        noisy = gen_target_track(cfg, np.random.default_rng(0))
        assert not np.allclose(nominal, noisy)

    def test_truth_self_consistency(self):
        cfg = ScenarioConfig()
        obs = gen_observer_track(cfg)
        tgt = gen_target_track(cfg)
        rel = relative_truth(tgt, obs)
        for k, o in enumerate(obs):
            assert rel[k, 0] == tgt[k, 0] - o.x
            assert rel[k, 1] == tgt[k, 1] - o.y
            assert rel[k, 2] == tgt[k, 2] - o.vx
            assert rel[k, 3] == tgt[k, 3] - o.vy


class TestSimulateRun:
    def test_same_seed_identical(self):
        cfg = ScenarioConfig(filter_kind="ekf", n_runs=1)
        a = simulate_run(cfg, run_seed(cfg.seed, 0))
        b = simulate_run(cfg, run_seed(cfg.seed, 0))
        assert a.true_slot == b.true_slot
        assert np.array_equal(a.truth_rel, b.truth_rel)
        for pa, pb in zip(a.measurements, b.measurements):
            assert pa == pb
        for ea, eb in zip(a.estimates, b.estimates):
            assert np.array_equal(ea.fused.mean, eb.fused.mean)
            assert ea.w1 == eb.w1

    def test_different_seeds_differ(self):
        cfg = ScenarioConfig(filter_kind="ekf", n_runs=1)
        a = simulate_run(cfg, run_seed(cfg.seed, 0))
        b = simulate_run(cfg, run_seed(cfg.seed, 1))
        assert not np.array_equal(
            [p.y1 for p in a.measurements], [p.y1 for p in b.measurements]
        )

    def test_sequence_lengths(self):
        cfg = ScenarioConfig(filter_kind="ukf")
        rec = simulate_run(cfg, run_seed(cfg.seed, 3))
        assert len(rec.truth_rel) == cfg.horizon
        assert len(rec.measurements) == cfg.horizon
        assert len(rec.estimates) == cfg.horizon
        assert len(rec.observers) == cfg.horizon + 1

    def test_mirror_pair_invariant(self):
        cfg = ScenarioConfig(filter_kind="ekf")
        rec = simulate_run(cfg, run_seed(cfg.seed, 5))
        for p in rec.measurements:
            assert sensing.wrap_angle(p.y1 + p.y2 - 2 * p.heading) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_known_side_mode_single_filter(self):
        cfg = ScenarioConfig(filter_kind="ckf")
        rec = simulate_run(cfg, run_seed(cfg.seed, 2), mode=KNOWN_SIDE)
        for e in rec.estimates:
            assert e.w1 == 1.0
            assert e.w2 == 0.0
            assert np.array_equal(e.fused.mean, e.belief1.mean)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            simulate_run(ScenarioConfig(), 0, mode="oracle")

    def test_slot_randomization_hits_both(self):
        cfg = ScenarioConfig(filter_kind="ekf")
        slots = {
            simulate_run(cfg, run_seed(cfg.seed, i)).true_slot for i in range(12)
        }
        assert slots == {1, 2}


class TestMonteCarlo:
    def test_single_run_equals_simulate_run(self):
        cfg = ScenarioConfig(filter_kind="ekf", n_runs=1)
        got = run_monte_carlo(cfg)[0]
        want = summarize_run(simulate_run(cfg, run_seed(cfg.seed, 0)))
        assert np.array_equal(got.pos_err, want.pos_err)
        assert got.terminal_range_error == want.terminal_range_error
        assert got.terminal_max_weight == want.terminal_max_weight

    def test_worker_count_invariance(self):
        cfg = ScenarioConfig(filter_kind="ekf", n_runs=12)
        serial = run_monte_carlo(cfg, workers=1)
        parallel = run_monte_carlo(cfg, workers=2)
        for a, b in zip(serial, parallel):
            assert np.array_equal(a.pos_err, b.pos_err)
            assert a.terminal_range_error == b.terminal_range_error
            assert a.diverged == b.diverged

    def test_runs_are_paired_across_modes(self):
        # same master seed -> identical truth and measurement draws, so the
        # known-side run equals the bank's true side at initialization, for
        # either true slot
        cfg = ScenarioConfig(filter_kind="ekf", n_runs=1)
        slots = set()
        for i in range(6):
            res = simulate_run(cfg, run_seed(cfg.seed, i), mode=RESOLVED)
            kn = simulate_run(cfg, run_seed(cfg.seed, i), mode=KNOWN_SIDE)
            assert np.array_equal(res.truth_rel, kn.truth_rel)
            assert res.measurements == kn.measurements
            assert res.true_slot == kn.true_slot
            slots.add(res.true_slot)
            first = res.estimates[0]
            true_belief = first.belief1 if res.true_slot == 1 else first.belief2
            assert np.array_equal(kn.estimates[0].fused.mean, true_belief.mean)
            assert np.array_equal(kn.estimates[0].fused.cov, true_belief.cov)
        assert slots == {1, 2}

    def test_known_side_run_is_a_side_step_loop(self):
        for kind, case in (("ekf", CV), ("srf", CT)):
            cfg = ScenarioConfig(filter_kind=kind, model_kind=case)
            rec = simulate_run(cfg, run_seed(cfg.seed, 1), mode=KNOWN_SIDE)
            assert rec.failure is None
            model = cfg.motion_model()
            belief = rec.estimates[0].fused
            for k in range(2, cfg.horizon + 1):
                pair = rec.measurements[k - 1]
                y = pair.y1 if rec.true_slot == 1 else pair.y2
                belief = lrtma.side_step(
                    belief, y, rec.observers[k - 1], rec.observers[k], model, kind,
                    cfg.sigma_theta_rad,
                ).posterior
                est = rec.estimates[k - 1]
                assert est.t == k
                assert np.array_equal(est.fused.mean, belief.mean)
                assert np.array_equal(est.fused.cov, belief.cov)

    def test_n_runs_validation(self):
        with pytest.raises(ConfigError, match="^n_runs: "):
            run_monte_carlo(ScenarioConfig(n_runs=0))

    def test_pool_capped_at_cpu_count(self, monkeypatch):
        # a stand-in pool that records its size and runs each chunk in-process
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                fut = Future()
                fut.set_result(fn(*args))
                return fut

        cfg = ScenarioConfig(filter_kind="ekf", n_runs=8)
        serial = run_monte_carlo(cfg)
        monkeypatch.setattr(simkit, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        pooled = run_monte_carlo(cfg, workers=64)
        assert sizes == [3]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert len(run_monte_carlo(cfg, workers=64)) == cfg.n_runs
        assert sizes == [3]
        for a, b in zip(serial, pooled):
            assert np.array_equal(a.pos_err, b.pos_err)
            assert a.terminal_range_error == b.terminal_range_error

    def test_injected_failure_flags_only_its_run(self, monkeypatch):
        cfg = ScenarioConfig(filter_kind="ukf", model_kind=CT, n_runs=4)
        clean = run_monte_carlo(cfg)
        run_index, calls = [-1], [0]
        simulate, chol = simkit.simulate_run, gaussfilt.chol_psd

        def counting_simulate(*args, **kwargs):
            run_index[0] += 1
            return simulate(*args, **kwargs)

        def failing_chol(P):
            # four factorizations per resolved UKF step: call 100 is in step 26
            if run_index[0] == 1:
                calls[0] += 1
                if calls[0] == 100:
                    raise gaussfilt.FilterNumericsError("injected")
            return chol(P)

        monkeypatch.setattr(simkit, "simulate_run", counting_simulate)
        monkeypatch.setattr(gaussfilt, "chol_psd", failing_chol)
        sums = run_monte_carlo(cfg)
        assert calls[0] == 100
        assert [s.failure for s in sums] == [None, "FilterNumericsError: injected", None, None]
        bad = sums[1]
        assert bad.failed and bad.diverged and math.isnan(bad.terminal_range_error)
        assert np.array_equal(bad.pos_err[:20], clean[1].pos_err[:20])
        for i in (0, 2, 3):
            a, b = sums[i], clean[i]
            assert np.array_equal(a.pos_err, b.pos_err)
            assert np.array_equal(a.vel_err, b.vel_err)
            assert (a.terminal_range_error, a.terminal_max_weight, a.first_decided_step,
                    a.diverged, a.failed, a.failure) == (
                b.terminal_range_error, b.terminal_max_weight, b.first_decided_step,
                b.diverged, b.failed, b.failure)
