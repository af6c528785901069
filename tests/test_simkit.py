import concurrent.futures
import dataclasses
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import towedtma
from towedtma import cli, gaussfilt, kinematics, lrtma, sensing, simkit
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
    synthesize_run,
    track_run,
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
            assert np.hypot(o.vx, o.vy) == pytest.approx(5.0 * KNOT, abs=1e-12)

    def test_heading_follows_the_maneuver_plan(self):
        # 140 deg until the turn starts at 13 min, 20 deg from its end at 17
        track = gen_observer_track(ScenarioConfig())
        for k, course_deg in ((13, 140.0), (15, 80.0), (17, 20.0), (30, 20.0)):
            assert np.degrees(track[k].heading) == pytest.approx(course_deg)

    @pytest.mark.parametrize("coarse, fine, plan", [
        ((0.75, 40), (0.25, 120), {}),
        ((1.0, 30), (0.1, 300), {"maneuver_start_min": 12.4, "maneuver_end_min": 16.6}),
    ])
    def test_track_does_not_depend_on_the_sampling_interval(self, coarse, fine, plan):
        # the maneuver's breaks split coarse steps and fall on fine samples,
        # so the coarse track checks the arc integration across a split step
        a = gen_observer_track(ScenarioConfig(T=coarse[0], horizon=coarse[1], **plan))
        b = gen_observer_track(ScenarioConfig(T=fine[0], horizon=fine[1], **plan))
        for oa, ob in zip(a, b[::round(coarse[0] / fine[0])], strict=True):
            assert np.allclose(dataclasses.astuple(oa)[:4], dataclasses.astuple(ob)[:4],
                               rtol=0.0, atol=1e-12)
            assert oa.heading == ob.heading

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

    def test_cached_track_shared_across_seeds_filters_and_cases(self):
        simkit._observer_track.cache_clear()
        for seed in (1, 2):
            for kind in ("ekf", "srf"):
                run_monte_carlo(ScenarioConfig(seed=seed, filter_kind=kind, n_runs=2))
        simulate_run(ScenarioConfig(model_kind=CT, n_runs=3), run_seed(5, 0))
        assert simkit._observer_track.cache_info().misses == 1
        # an ownship field is part of the key
        simulate_run(ScenarioConfig(observer_speed_kn=6.0), run_seed(5, 0))
        assert simkit._observer_track.cache_info().misses == 2

    @pytest.mark.parametrize("name, value", [
        ("T", 0.75), ("horizon", 40), ("observer_speed_kn", 6.0), ("observer_course0_deg", 130.0),
        ("observer_course_final_deg", 30.0), ("maneuver_start_min", 12.4),
        ("maneuver_end_min", 16.6),
    ])
    def test_each_plan_field_keys_its_own_track(self, name, value):
        simkit._observer_track.cache_clear()
        base = gen_observer_track(ScenarioConfig())
        track = gen_observer_track(ScenarioConfig(**{name: value}))
        assert simkit._observer_track.cache_info().misses == 2
        assert track != base

    @pytest.mark.parametrize("name, value", [
        ("seed", 9), ("n_runs", 7), ("filter_kind", "srf"), ("model_kind", CT),
        ("initial_bearing_deg", 30.0), ("q1", 0.0),
        ("init_prior", InitPriorConfig(r_bar_km=8.0)),
    ])
    def test_fields_outside_the_plan_reuse_the_track(self, name, value):
        base = gen_observer_track(ScenarioConfig())
        misses = simkit._observer_track.cache_info().misses
        assert gen_observer_track(ScenarioConfig(**{name: value})) == base
        assert simkit._observer_track.cache_info().misses == misses

    def test_mutating_a_returned_track_leaves_the_next_whole(self):
        cfg = ScenarioConfig()
        want = gen_observer_track(cfg)
        got = gen_observer_track(cfg)
        got[3] = got[0]
        got.append(got[0])
        del got[:5]
        assert gen_observer_track(cfg) == want

    def test_an_int_and_a_float_plan_value_keep_apart(self):
        # T = 2**53 - 1 is one number as an int and as a float, but only the
        # float's sample times round, so the two integrate apart: neither
        # config may be served the other's cached track
        T = 2**53 - 1
        as_int = gen_observer_track(ScenarioConfig(T=T))
        assert gen_observer_track(ScenarioConfig(T=float(T))) != as_int


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

    @pytest.mark.parametrize("T, horizon", [(1.0, 30), (0.5, 60)])
    @pytest.mark.parametrize("noise", ["default", "zero"])
    @pytest.mark.parametrize("case", [CV, CT])
    def test_noise_block_is_the_per_step_stream(self, case, noise, T, horizon):
        # the truth draws its noise as one (horizon, n) block and takes every
        # increment from one stacked matmul; that must be the stream of one
        # standard_normal(n) call per step times the eigen root, bit for
        # bit, and leave the generator where the per-step loop leaves it.
        # Zero process noise draws nothing.
        cfg = ScenarioConfig(model_kind=case, T=T, horizon=horizon)
        if noise == "zero":
            cfg = dataclasses.replace(cfg, q1=0.0, q2=0.0)
        model = cfg.motion_model()
        rng_block, rng_loop = np.random.default_rng(8), np.random.default_rng(8)
        track = gen_target_track(cfg, rng_block)
        Q = kinematics.process_noise_cov(model)
        w, V = np.linalg.eigh(Q)
        Lq = V * np.sqrt(np.clip(w, 0.0, None))
        want = [gen_target_track(cfg)[0]]
        for _ in range(cfg.horizon):
            nxt = kinematics.transition(model, want[-1])
            if Q.any():
                nxt = nxt + Lq @ rng_loop.standard_normal(model.dim)
            want.append(nxt)
        assert np.array_equal(np.array(want).view(np.uint64), track.view(np.uint64))
        if noise == "zero":
            assert np.array_equal(track, gen_target_track(cfg))
            assert rng_block.bit_generator.state == np.random.default_rng(8).bit_generator.state
        assert rng_block.standard_normal() == rng_loop.standard_normal()

    def test_noise_root_is_cached_and_read_only(self):
        model = ScenarioConfig(model_kind=CT).motion_model()
        Lq = kinematics.process_noise_root(model)
        assert kinematics.process_noise_root(model) is Lq
        assert not Lq.flags.writeable
        np.testing.assert_allclose(Lq @ Lq.T, kinematics.process_noise_cov(model), atol=1e-18)
        zero = dataclasses.replace(model, q1=0.0, q2=0.0)
        assert kinematics.process_noise_root(zero) is None

    def test_relative_truth_leaves_rows_past_the_observers(self):
        cfg = ScenarioConfig(model_kind=CT)
        obs = gen_observer_track(cfg)[:10]
        tgt = gen_target_track(cfg, np.random.default_rng(2))
        rel = relative_truth(tgt, obs)
        assert np.array_equal(rel[10:], tgt[10:])
        assert np.array_equal(rel[:10, 4], tgt[:10, 4])
        want = [[t - o for t, o in zip(row[:4], (o.x, o.y, o.vx, o.vy))]
                for row, o in zip(tgt.tolist(), obs)]
        assert np.array_equal(rel[:10, :4].view(np.uint64), np.array(want).view(np.uint64))

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
        # run 1 has its true detection in slot 2: the bank is settled there,
        # and holds the one true-side filter in both slots
        cfg = ScenarioConfig(filter_kind="ckf")
        rec = simulate_run(cfg, run_seed(cfg.seed, 1), mode=KNOWN_SIDE)
        assert rec.true_slot == 2
        for e in rec.estimates:
            assert lrtma.side_weights(e.log_odds)[rec.true_slot - 1] == 1.0
            assert lrtma.side_weights(e.log_odds)[2 - rec.true_slot] == 0.0
            assert e.belief1 is e.belief2 is e.fused

    @pytest.mark.parametrize("mode", [RESOLVED, KNOWN_SIDE])
    @pytest.mark.parametrize("kind, case", [("ekf", CV), ("srf", CT)])
    def test_every_estimate_is_a_step_on_the_recorded_pair(self, kind, case, mode):
        # one feed: both modes step the bank on the pairs the run records, so
        # lrtma.step on an estimate and the next recorded pair gives the next
        # estimate bit for bit, whichever slot holds the true detection
        cfg = ScenarioConfig(filter_kind=kind, model_kind=case)
        args = (cfg.motion_model(), kind, cfg.sigma_theta_rad)
        slots = set()
        for i in (1, 2):
            rec = simulate_run(cfg, run_seed(cfg.seed, i), mode=mode)
            assert rec.failure is None
            slots.add(rec.true_slot)
            for k in range(2, cfg.horizon + 1):
                got = lrtma.step(rec.estimates[k - 2], rec.measurements[k - 1],
                                 rec.observers[k - 1], rec.observers[k], *args)
                assert _bank_bytes(got) == _bank_bytes(rec.estimates[k - 1])
        assert slots == {1, 2}

    @pytest.mark.parametrize("case", [CV, CT])
    def test_first_bank_starts_from_the_runs_polar_draw(self, case):
        # each side is init_side on its own first bearing with the run's polar
        # draw, slot 2 with the angular offsets negated; known-side mode
        # starts its true side the same way
        cfg = ScenarioConfig(model_kind=case)
        args = (cfg.prior(), gen_observer_track(cfg)[1], cfg.motion_model())
        for i in range(6):
            ss = run_seed(cfg.seed, i)
            init_stream = np.random.SeedSequence(ss.entropy, spawn_key=ss.spawn_key + (3,))
            draw = np.random.default_rng(init_stream).standard_normal(5)
            assert synthesize_run(cfg, ss).polar_draw.tobytes() == draw.tobytes()
            rec = simulate_run(cfg, ss)
            known = simulate_run(cfg, ss, mode=KNOWN_SIDE)
            p = rec.measurements[0]
            want = {
                1: lrtma.init_side(p.y1, *args, draw),
                2: lrtma.init_side(p.y2, *args, draw * [1.0, -1.0, 1.0, -1.0, -1.0]),
            }
            first = rec.estimates[0]
            for got, slot in ((first.belief1, 1), (first.belief2, 2),
                              (known.estimates[0].fused, rec.true_slot)):
                assert got.mean.tobytes() == want[slot].mean.tobytes()
                assert got.cov.tobytes() == want[slot].cov.tobytes()

    @pytest.mark.parametrize("kind, case", [("ekf", CV), ("srf", CT)])
    def test_one_synthesis_tracks_both_modes(self, kind, case):
        # track_run on one synthesize_run at log-odds 0 and at the settled
        # +-inf gives the resolved and known-side runs bit for bit, and leaves
        # the inputs as they were, so both modes can share one synthesis
        cfg = ScenarioConfig(filter_kind=kind, model_kind=case)
        slots = set()
        for i in (1, 2):
            ss = run_seed(cfg.seed, i)
            inputs = synthesize_run(cfg, ss)
            before = _input_bytes(inputs)
            slots.add(inputs.true_slot)
            settled = math.inf if inputs.true_slot == 1 else -math.inf
            for log_odds, mode in ((0.0, RESOLVED), (settled, KNOWN_SIDE)):
                got, want = track_run(inputs, cfg, log_odds), simulate_run(cfg, ss, mode=mode)
                assert (got.true_slot, got.failure) == (want.true_slot, want.failure)
                assert ([_bank_bytes(e) for e in got.estimates]
                        == [_bank_bytes(e) for e in want.estimates])
            assert _input_bytes(inputs) == before
        assert slots == {1, 2}

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            simulate_run(ScenarioConfig(), run_seed(0, 0), mode="oracle")

    def test_slot_randomization_hits_both(self):
        cfg = ScenarioConfig(filter_kind="ekf")
        slots = {
            simulate_run(cfg, run_seed(cfg.seed, i)).true_slot for i in range(12)
        }
        assert slots == {1, 2}


class TestSummarizeRun:
    @pytest.mark.parametrize("mode", [RESOLVED, KNOWN_SIDE])
    def test_matches_per_estimate_loop(self, mode):
        # stacked errors and one side_weights per estimate give the values
        # the per-estimate reduction gives
        cfg = ScenarioConfig(filter_kind="ekf", model_kind=CT)
        rec = simulate_run(cfg, run_seed(cfg.seed, 4), mode=mode)
        got = summarize_run(rec)
        for k, est in enumerate(rec.estimates):
            assert np.array_equal(got.pos_err[k], est.fused.mean[0:2] - rec.truth_rel[k][0:2])
            assert np.array_equal(got.vel_err[k], est.fused.mean[2:4] - rec.truth_rel[k][2:4])
        decided = [e.t for e in rec.estimates if max(e.w1, e.w2) >= 0.99]
        assert got.first_decided_step == (decided[0] if decided else None)
        last = rec.estimates[-1]
        assert got.terminal_max_weight == max(last.w1, last.w2)
        assert got.pos_err.shape == got.vel_err.shape == (cfg.horizon, 2)


class TestMonteCarlo:
    def test_single_run_equals_simulate_run(self):
        cfg = ScenarioConfig(filter_kind="ekf", n_runs=1)
        got = run_monte_carlo(cfg)[0]
        want = summarize_run(simulate_run(cfg, run_seed(cfg.seed, 0)))
        assert np.array_equal(got.pos_err, want.pos_err)
        assert got.terminal_range_error == want.terminal_range_error
        assert got.terminal_max_weight == want.terminal_max_weight

    @pytest.mark.parametrize("n_runs", [5, 12, 13])
    @pytest.mark.parametrize("mode", [RESOLVED, KNOWN_SIDE])
    def test_worker_count_invariance(self, mode, n_runs):
        cfg = ScenarioConfig(filter_kind="ekf", n_runs=n_runs)
        serial = run_monte_carlo(cfg, mode=mode, workers=1)
        parallel = run_monte_carlo(cfg, mode=mode, workers=2)
        assert _summary_bytes(serial) == _summary_bytes(parallel)

    def test_runs_are_paired_across_modes(self):
        # same master seed -> identical truth and measurement draws, for
        # either true slot; the first banks are compared in
        # test_first_bank_starts_from_the_runs_polar_draw
        cfg = ScenarioConfig(filter_kind="ekf", n_runs=1)
        slots = set()
        for i in range(6):
            res = simulate_run(cfg, run_seed(cfg.seed, i), mode=RESOLVED)
            kn = simulate_run(cfg, run_seed(cfg.seed, i), mode=KNOWN_SIDE)
            assert np.array_equal(res.truth_rel, kn.truth_rel)
            assert res.measurements == kn.measurements
            assert res.true_slot == kn.true_slot
            slots.add(res.true_slot)
        assert slots == {1, 2}

    def test_known_side_run_is_a_side_step_loop(self, monkeypatch):
        # the run is a bank settled on its true slot (log-odds +inf on slot
        # 1, -inf on slot 2) and stepped by lrtma.step: one filter on the
        # true bearing; run 1 has its true detection in slot 2
        real_step, stepped = lrtma.step, []

        def counted(bank, *args):
            stepped.append(bank.log_odds)
            return real_step(bank, *args)

        monkeypatch.setattr(lrtma, "step", counted)
        for kind, case in (("ekf", CV), ("srf", CT)):
            cfg = ScenarioConfig(filter_kind=kind, model_kind=case)
            stepped.clear()
            rec = simulate_run(cfg, run_seed(cfg.seed, 1), mode=KNOWN_SIDE)
            assert rec.failure is None
            settled = math.inf if rec.true_slot == 1 else -math.inf
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
            assert [est.log_odds for est in rec.estimates] == [settled] * cfg.horizon
            assert stepped == [settled] * (cfg.horizon - 1)

    @pytest.mark.parametrize("case", [CV, CT])
    def test_engine_never_builds_the_mixture_covariance(self, monkeypatch, case):
        # the summaries read each bank's fused mean; only fuse builds the covariance
        cfgs = [ScenarioConfig(filter_kind=kind, model_kind=case, n_runs=2)
                for kind in FILTER_KINDS]
        want = [_summary_bytes(run_monte_carlo(cfg)) for cfg in cfgs]

        def no_fuse(*args):
            raise gaussfilt.FilterNumericsError("fuse called")

        monkeypatch.setattr(lrtma, "fuse", no_fuse)
        got = [run_monte_carlo(cfg) for cfg in cfgs]
        assert [s.failure for sums in got for s in sums] == [None] * 2 * len(cfgs)
        assert [_summary_bytes(sums) for sums in got] == want

    @pytest.mark.parametrize("case", [CV, CT])
    def test_engine_never_builds_the_srf_diagnostics(self, monkeypatch, case):
        # the bank reads an SRF update's posterior and log-likelihood only;
        # its predicted bearing and innovation variance are built on read
        cfg = ScenarioConfig(filter_kind="srf", model_kind=case, n_runs=3)
        want = [_summary_bytes(run_monte_carlo(cfg, mode)) for mode in simkit.MODES]

        def no_diagnostics(*args):
            raise gaussfilt.FilterNumericsError("srf_diagnostics called")

        monkeypatch.setattr(gaussfilt, "srf_diagnostics", no_diagnostics)
        got = [run_monte_carlo(cfg, mode) for mode in simkit.MODES]
        assert [s.failure for sums in got for s in sums] == [None] * 2 * cfg.n_runs
        assert [_summary_bytes(sums) for sums in got] == want

    def test_serial_run_imports_no_process_pool(self, tmp_path):
        code = (
            "import sys\n"
            "from towedtma import cli\n"
            "assert cli.main(['montecarlo', '--filter', 'ekf', '--case', 'cv', '--mode',\n"
            "                 'resolved', '--runs', '1', '--out', sys.argv[1]]) == 0\n"
            "print('loaded:', *(m for m in ('concurrent.futures.process', 'multiprocessing')\n"
            "                   if m in sys.modules))\n"
        )
        src = str(Path(towedtma.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "loaded:"

    def test_n_runs_validation(self):
        with pytest.raises(ConfigError, match="^n_runs: "):
            run_monte_carlo(ScenarioConfig(n_runs=0))

    def test_pool_capped_at_usable_cpus(self, monkeypatch):
        # the cap is the affinity set, which cpu_count over-counts
        log = []
        monkeypatch.setattr(simkit, "_POOL", None)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _inline_pool(log))
        monkeypatch.setattr(os, "cpu_count", lambda: 16)
        cfg = ScenarioConfig(filter_kind="ekf", n_runs=8)
        serial = run_monte_carlo(cfg)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
        pooled = run_monte_carlo(cfg, workers=64)
        assert log == [("start", 3)]
        assert _summary_bytes(serial) == _summary_bytes(pooled)
        # another worker count joins the old pool before starting its own
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1, 2}, raising=False)
        run_monte_carlo(cfg, workers=64)
        assert log == [("start", 3), ("shutdown", True), ("start", 2)]

    def test_pool_capped_at_cpu_count(self, monkeypatch):
        # where the platform has no affinity call
        log = []
        monkeypatch.setattr(simkit, "_POOL", None)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _inline_pool(log))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        cfg = ScenarioConfig(filter_kind="ekf", n_runs=8)
        run_monte_carlo(cfg, workers=64)
        assert log == [("start", 3)]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert len(run_monte_carlo(cfg, workers=64)) == cfg.n_runs
        assert log == [("start", 3)]

    @pytest.mark.parametrize(
        "n_runs, sizes",
        [(8, [1] * 8), (13, [2] * 6 + [1]), (500, [63] * 7 + [59]), (5000, [625] * 8)],
    )
    def test_pool_gets_about_four_chunks_per_worker(self, monkeypatch, n_runs, sizes):
        pool = _inline_pool([])
        monkeypatch.setattr(simkit, "_POOL", None)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(simkit, "_run_summary", lambda cfg, mode, index: index)
        assert run_monte_carlo(ScenarioConfig(n_runs=n_runs), workers=2) == list(range(n_runs))
        assert pool.sizes == sizes

    def test_broken_pool_fails_the_call_and_is_dropped(self, monkeypatch):
        log = []
        monkeypatch.setattr(simkit, "_POOL", None)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            _inline_pool(log, broken_chunk=1))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cfg = ScenarioConfig(filter_kind="ekf", n_runs=8)
        with pytest.raises(BrokenProcessPool):
            run_monte_carlo(cfg, workers=2)
        assert simkit._POOL is None
        assert log == [("start", 2), ("shutdown", True)]
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _inline_pool(log))
        assert _summary_bytes(run_monte_carlo(cfg, workers=2)) == _summary_bytes(
            run_monte_carlo(cfg))
        assert log[2:] == [("start", 2)]

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


def _bank_bytes(bank) -> tuple:
    """The log-odds, time and every belief of a bank, exactly."""
    beliefs = (bank.belief1, bank.belief2, bank.fused)
    return (repr(bank.log_odds), bank.t,
            *(a.tobytes() for b in beliefs for a in (b.mean, b.cov)))


def _input_bytes(inputs) -> list:
    """Every array of a run's inputs, its observers and its pairs, exactly."""
    rows = [[dataclasses.astuple(x) for x in xs] for xs in (inputs.observers, inputs.measurements)]
    arrays = (inputs.target_abs, inputs.truth_rel, inputs.polar_draw, *map(np.array, rows))
    return [inputs.true_slot] + [a.tobytes() for a in arrays]


def _summary_bytes(sums) -> list:
    """Every summary field but the wall time, exactly."""
    return [
        [v.tobytes() if isinstance(v, np.ndarray) else repr(v)
         for k, v in vars(s).items() if k != "wall_time"]
        for s in sums
    ]


def _inline_pool(log: list, broken_chunk: int = -1):
    """Stand-in executor that runs each chunk in-process and logs its life;
    reading chunk ``broken_chunk`` of a ``map`` fails as if its worker died.
    ``sizes`` holds the run count of every chunk it was handed."""

    class InlinePool:
        sizes: list[int] = []

        def __init__(self, max_workers):
            log.append(("start", max_workers))

        def map(self, fn, iterable, chunksize=1):
            items = list(iterable)
            chunks = [items[i:i + chunksize] for i in range(0, len(items), chunksize)]
            self.sizes.extend(len(chunk) for chunk in chunks)

            def results():
                for i, chunk in enumerate(chunks):
                    if i == broken_chunk:
                        raise BrokenProcessPool("worker died")
                    yield from map(fn, chunk)

            return results()

        def shutdown(self, wait=True):
            log.append(("shutdown", wait))

    return InlinePool


@pytest.fixture
def fresh_pool(monkeypatch):
    """No cached pool to start with; the pool the test starts is joined at its end."""
    monkeypatch.setattr(simkit, "_POOL", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    yield
    simkit._close_pool()


def _worker_pids_gone(pids, timeout_s: float = 30.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while any(os.path.exists(f"/proc/{pid}") for pid in pids):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc/<pid>")
class TestWorkerPool:
    def test_one_pool_per_process(self, fresh_pool, monkeypatch, tmp_path):
        sizes = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        cfg = ScenarioConfig(filter_kind="ekf", n_runs=4)
        run_monte_carlo(cfg, workers=2)
        run_monte_carlo(cfg, mode=KNOWN_SIDE, workers=2)
        argv = ["montecarlo", "--filter", "ekf,srf,ckf", "--case", "cv", "--mode", "resolved",
                "--workers", "2", "--runs", "4", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert sizes == [2]

    def test_killed_worker_is_replaced(self, fresh_pool):
        cfg = ScenarioConfig(filter_kind="ekf", n_runs=8)
        serial = run_monte_carlo(cfg)
        before = {p.pid for p in multiprocessing.active_children()}
        assert _summary_bytes(run_monte_carlo(cfg, workers=2)) == _summary_bytes(serial)
        pids = {p.pid for p in multiprocessing.active_children()} - before
        assert len(pids) == 2
        os.kill(min(pids), signal.SIGKILL)
        # the pool notices the death and joins both of its workers
        assert _worker_pids_gone(pids)
        assert _summary_bytes(run_monte_carlo(cfg, workers=2)) == _summary_bytes(serial)

    def test_workers_end_with_the_interpreter(self):
        code = (
            "import multiprocessing, os\n"
            "from towedtma import simkit\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "simkit.run_monte_carlo(simkit.ScenarioConfig(n_runs=4), workers=2)\n"
            "print(*(p.pid for p in multiprocessing.active_children()))\n"
        )
        src = str(Path(towedtma.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        pids = proc.stdout.split()
        assert len(pids) == 2
        assert not [pid for pid in pids if os.path.exists(f"/proc/{pid}")]
