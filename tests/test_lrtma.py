import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from towedtma import gaussfilt, kinematics, lrtma, sensing, simkit
from towedtma.gaussfilt import EKF, UKF, GaussianBelief, normal_log_pdf
from towedtma.kinematics import CT, CV, KNOT, MotionModel, ObserverState
from towedtma.lrtma import (
    InitPrior,
    fuse,
    init_bank,
    init_side,
    side_weights,
    step,
    update_log_odds,
)
from towedtma.sensing import BearingPair, wrap_angle

from mirror_scenario import (
    mirrored_banks,
    reflect_observer,
    reflect_pair,
    reflection,
    reflects_exactly,
)


def default_prior():
    return InitPrior(
        sigma_r=2.0,
        sigma_theta=np.deg2rad(1.5),
        sigma_s=2.0 * KNOT,
        sigma_c=np.pi / np.sqrt(12.0),
        r_bar=5.0,
        s_bar=4.0 * KNOT,
        sigma_psi=np.deg2rad(3.5),
    )


def observer(course_deg=140.0, speed_kn=5.0, x=0.0, y=0.0):
    c = np.deg2rad(course_deg)
    v = kinematics.vel_from_course(speed_kn * KNOT, c)
    return ObserverState(x=x, y=y, vx=v[0], vy=v[1], heading=wrap_angle(c))


def cv_model():
    return MotionModel(kind=CV, T=1.0, q1=1.944e-6)


class TestInitSide:
    def test_position_mean_on_bearing_ray(self):
        b = init_side(0.0, default_prior(), observer(), cv_model())
        assert np.allclose(b.mean[:2], [0.0, 5.0])

    def test_degenerate_prior_position_block(self):
        prior = InitPrior(
            sigma_r=1e-12,
            sigma_theta=1e-12,
            sigma_s=2.0 * KNOT,
            sigma_c=np.pi / np.sqrt(12.0),
            r_bar=5.0,
            s_bar=4.0 * KNOT,
            sigma_psi=np.deg2rad(3.5),
        )
        b = init_side(0.7, prior, observer(), cv_model())
        assert np.allclose(b.cov[:2, :2], 0.0, atol=1e-20)

    def test_velocity_mean_closing_course(self):
        obs = observer()
        theta = 0.5
        b = init_side(theta, default_prior(), obs, cv_model())
        c = theta + np.pi
        want = 4.0 * KNOT * np.array([np.sin(c), np.cos(c)]) - obs.vel
        assert np.allclose(b.mean[2:4], want)

    def test_ct_mode_appends_turn_rate(self):
        model = MotionModel(kind=CT, T=1.0, q1=1e-6, q2=1e-7)
        b = init_side(0.3, default_prior(), observer(), model)
        assert b.dim == 5
        assert b.mean[4] == 0.0
        assert b.cov[4, 4] == pytest.approx(np.deg2rad(3.5) ** 2)

    def test_covariance_matches_sampling_oracle(self):
        # push a million polar draws through the exact transform and compare
        # with the linearized covariance entry by entry
        rng = np.random.default_rng(99)
        prior = default_prior()
        obs = observer()
        theta = np.deg2rad(45.0)
        b = init_side(theta, prior, obs, cv_model())
        n = 1_000_000
        r = prior.r_bar + prior.sigma_r * rng.standard_normal(n)
        th = theta + prior.sigma_theta * rng.standard_normal(n)
        s = prior.s_bar + prior.sigma_s * rng.standard_normal(n)
        c = theta + np.pi + prior.sigma_c * rng.standard_normal(n)
        samples = np.stack(
            [
                r * np.sin(th),
                r * np.cos(th),
                s * np.sin(c) - obs.vx,
                s * np.cos(c) - obs.vy,
            ],
            axis=1,
        )
        emp = np.cov(samples.T)
        # position block: the bearing/range linearization is tight at the
        # benchmark prior, so sampling agrees within 5% per entry
        for i in range(2):
            for j in range(2):
                assert b.cov[i, j] == pytest.approx(emp[i, j], rel=0.05)
        # velocity block: at a course spread of 52 deg the linearized map is
        # only a same-order approximation of the exact polar covariance, so
        # check the implementation against its defining formula instead and
        # keep a factor-level sanity bound against the samples
        cbar = theta + np.pi
        Jv = np.array(
            [
                [np.sin(cbar), prior.s_bar * np.cos(cbar)],
                [np.cos(cbar), -prior.s_bar * np.sin(cbar)],
            ]
        )
        want = Jv @ np.diag([prior.sigma_s**2, prior.sigma_c**2]) @ Jv.T
        assert np.allclose(b.cov[2:4, 2:4], want, rtol=1e-12)
        for i in range(2, 4):
            assert 0.5 < b.cov[i, i] / emp[i, i] < 2.0

    @given(
        theta=st.floats(-np.pi, np.pi),
        draw=st.lists(st.floats(-1.9, 1.9), min_size=5, max_size=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_drawn_mean_is_its_polar_point(self, theta, draw):
        # read range, bearing, speed, course and turn rate back from the mean
        prior, obs = default_prior(), observer()
        model = MotionModel(kind=CT, T=1.0, q1=1e-6, q2=1e-7)
        b = init_side(theta, prior, obs, model, draw)
        d_r, d_th, d_s, d_c, d_psi = draw
        x, y, vx, vy, psi = b.mean
        vx, vy = vx + obs.vx, vy + obs.vy  # the target's own velocity
        bearing = theta + prior.sigma_theta * d_th
        course = bearing + prior.sigma_c * d_c + np.pi  # closing on the bearing
        assert np.hypot(x, y) == pytest.approx(prior.r_bar + prior.sigma_r * d_r, rel=1e-12)
        assert wrap_angle(np.arctan2(x, y) - bearing) == pytest.approx(0.0, abs=1e-12)
        assert np.hypot(vx, vy) == pytest.approx(prior.s_bar + prior.sigma_s * d_s, rel=1e-9)
        assert wrap_angle(np.arctan2(vx, vy) - course) == pytest.approx(0.0, abs=1e-9)
        assert psi == prior.sigma_psi * d_psi
        # the claimed covariance is the undrawn prior's
        assert np.array_equal(b.cov, init_side(theta, prior, obs, model).cov)

    @given(
        y1=st.floats(-np.pi, np.pi),
        heading=st.floats(-np.pi, np.pi),
        xyv=st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4),
        case=st.sampled_from([CV, CT]),
        draw=st.lists(st.floats(-4.0, 4.0), min_size=5, max_size=5),
        log_odds=st.sampled_from([0.0, math.inf, -math.inf]),
    )
    @example(y1=np.pi, heading=0.0, xyv=[0.0, 0.0, 0.1, 0.1], case=CV,
             draw=[0.0] * 5, log_odds=0.0)
    @example(y1=np.nextafter(-np.pi, 0.0), heading=np.pi / 2, xyv=[1.0, -2.0, 0.1, 0.1],
             case=CT, draw=[0.0] * 5, log_odds=0.0)
    @example(y1=0.4, heading=1.0, xyv=[1.0, -2.0, 0.1, 0.1], case=CT,
             draw=[0.0] * 5, log_odds=math.inf)
    @settings(max_examples=300, deadline=None)
    def test_init_bank_on_a_reflected_pair_is_the_mirrored_bank(
        self, y1, heading, xyv, case, draw, log_odds
    ):
        # reflecting the pair and the observer across north must give the
        # bank with its sides swapped, its log-odds negated and D applied to
        # mean and covariance, for every polar draw and initial log-odds
        model = MotionModel(kind=case, T=1.0, q1=1e-6, q2=1e-7)
        obs = ObserverState(*xyv, heading=heading)
        pair = BearingPair(y1=y1, y2=wrap_angle(2.0 * heading - y1), heading=heading, t=1)
        draw = np.array(draw)
        bank = init_bank(pair, default_prior(), obs, model, draw, log_odds)
        bank_r = init_bank(
            reflect_pair(pair), default_prior(), reflect_observer(obs), model, draw, -log_odds
        )
        assert reflects_exactly(bank, bank_r)
        if math.isinf(log_odds):
            # a settled start builds the live side once and fills both slots
            assert bank.belief1 is bank.belief2 is bank.fused
            assert bank_r.belief1 is bank_r.belief2 is bank_r.fused

    @pytest.mark.parametrize("value", [0.0, -5.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["r_bar", "s_bar", "sigma_psi", "sigma_r"])
    def test_prior_rejects_nonpositive_range_and_turn_spread(self, name, value):
        # a negative prior range would put the side on the reciprocal ray; a
        # negative prior speed opens along the bearing instead of closing,
        # and a zero one gives the velocity block a zero eigenvalue, since
        # the course spread scales with it; a non-finite value makes the
        # first belief non-finite
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(default_prior(), **{name: value})


class TestLikelihood:
    # the bank weighs sides by the update's log-likelihood: a scalar normal
    # log-density of the wrapped innovation

    def test_peak_value(self):
        s = 0.01
        assert normal_log_pdf(0.0, s) == pytest.approx(-0.5 * np.log(2 * np.pi * s))

    def test_one_sigma_ratio(self):
        s = 0.02
        peak = normal_log_pdf(0.0, s)
        assert normal_log_pdf(np.sqrt(s), s) == pytest.approx(peak - 0.5)

    def test_wrap_invariance(self):
        b = GaussianBelief(np.array([3.0, 4.0, 0.0, 0.0]), np.diag([0.2, 0.3, 1e-3, 1e-3]))
        out = gaussfilt.update(b, 0.9, 0.02, EKF)
        wrapped = gaussfilt.update(b, 0.9 + 2 * np.pi, 0.02, EKF)
        assert wrapped.log_likelihood == pytest.approx(out.log_likelihood, rel=1e-9)

    def test_matches_update_log_likelihood(self):
        b = GaussianBelief(np.array([3.0, 4.0, 0.0, 0.0]), np.diag([0.2, 0.3, 1e-3, 1e-3]))
        y = 0.9
        out = gaussfilt.update(b, y, 0.02, EKF)
        resid = wrap_angle(y - out.pred_meas)
        assert normal_log_pdf(resid, out.innov_cov) == out.log_likelihood


def bayes_weights(w, p1, p2):
    """Posterior weights from prior weights and linear likelihoods, by the
    bank's log-domain recursion (log 0 = -inf)."""
    with np.errstate(divide="ignore"):
        lw1, lw2, ll1, ll2 = map(float, np.log([w[0], w[1], p1, p2]))
    return side_weights(update_log_odds(lw1 - lw2, ll1, ll2))


class TestUpdateWeights:
    def test_symmetric(self):
        assert bayes_weights((0.5, 0.5), 3.0, 3.0) == (0.5, 0.5)

    def test_two_to_one(self):
        w1, w2 = bayes_weights((0.5, 0.5), 2.0, 1.0)
        assert w1 == pytest.approx(2.0 / 3.0)
        assert w2 == pytest.approx(1.0 / 3.0)

    def test_absorbing_zero(self):
        assert bayes_weights((1.0, 0.0), 0.0, 5.0) == (1.0, 0.0)
        assert bayes_weights((0.0, 1.0), 5.0, 0.0) == (0.0, 1.0)

    def test_underflow_floor(self):
        w1, w2 = bayes_weights((0.5, 0.5), 0.0, 0.0)
        assert w1 + w2 == pytest.approx(1.0)
        assert w1 == pytest.approx(0.5)

    def test_numerators_below_1e300_keep_bayes_order(self):
        # the ghost's weight is already below 1e-300, then a bad innovation
        # drops the true side's likelihood as well: both numerators p * w
        # are under 1e-300, but their ratio still puts the true side ahead
        w1, w2 = bayes_weights((1.0, 1e-310), 1e-305, 1e-2)
        n1, n2 = 1e-305 * 1.0, 1e-2 * 1e-310
        assert w2 == pytest.approx(n2 / (n1 + n2), rel=1e-6)
        assert w1 > 1.0 - 1e-6

    @given(
        w=st.floats(0.0, 1.0),
        p1=st.floats(0.0, 1e6),
        p2=st.floats(0.0, 1e6),
    )
    @settings(max_examples=300, deadline=None)
    def test_simplex_preserved(self, w, p1, p2):
        w1, w2 = bayes_weights((w, 1.0 - w), p1, p2)
        assert 0.0 <= w1 <= 1.0
        assert 0.0 <= w2 <= 1.0
        assert w1 + w2 == pytest.approx(1.0, abs=1e-12)


class TestLogOdds:
    def test_rejected_side_stays_rejected(self):
        # the ghost is e^-3000 behind when the true side sees a ~37 sigma
        # innovation (log-likelihood -707, which underflows in linear form)
        # and the ghost fits well: Bayes' rule leaves the true side on top
        post = update_log_odds(3000.0, -707.0, -5.0)
        assert post == 2298.0
        assert side_weights(post) == (1.0, 0.0)

    def test_evidence_accumulates_past_underflow(self):
        log_odds = 0.0
        for _ in range(3):
            log_odds = update_log_odds(log_odds, -1000.0, 0.0)
        assert log_odds == -3000.0
        # one good step for side 1 cannot undo three bad ones
        assert update_log_odds(log_odds, 0.0, -1000.0) == -2000.0

    def test_absorbing_and_both_zero(self):
        inf = float("inf")
        assert update_log_odds(inf, -inf, 0.0) == inf
        assert update_log_odds(-inf, 0.0, -inf) == -inf
        assert update_log_odds(0.7, -inf, -inf) == 0.7
        assert side_weights(inf) == (1.0, 0.0)
        assert side_weights(-inf) == (0.0, 1.0)
        assert side_weights(0.0) == (0.5, 0.5)

    @given(
        log_odds=st.floats(-1e4, 1e4),
        ll1=st.floats(-1e4, 1e2),
        ll2=st.floats(-1e4, 1e2),
    )
    @settings(max_examples=300, deadline=None)
    def test_swapping_sides_negates_exactly(self, log_odds, ll1, ll2):
        post = update_log_odds(log_odds, ll1, ll2)
        assert update_log_odds(-log_odds, ll2, ll1) == -post
        w1, w2 = side_weights(post)
        assert side_weights(-post) == (w2, w1)
        assert w1 + w2 == pytest.approx(1.0, abs=1e-12)


class TestFuse:
    def _belief(self, mean, cov):
        return GaussianBelief(np.asarray(mean, float), np.asarray(cov, float))

    def test_collapse_at_unit_weight(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(4, 4))
        b1 = self._belief(rng.normal(size=4), A @ A.T + np.eye(4))
        b2 = self._belief(rng.normal(size=4), np.eye(4))
        out = fuse(b1, b2, (1.0, 0.0))
        assert np.allclose(out.mean, b1.mean)
        assert np.allclose(out.cov, b1.cov)

    def test_identical_components(self):
        b = self._belief([1, 2, 3, 4], np.diag([1.0, 2, 3, 4]))
        for w in ((0.3, 0.7), (0.9, 0.1)):
            out = fuse(b, b, w)
            assert np.allclose(out.mean, b.mean)
            assert np.allclose(out.cov, b.cov)

    def test_symmetric_mixture_covariance(self):
        d = 0.8
        P = np.diag([0.5, 0.5, 0.1, 0.1])
        b1 = self._belief([d, 0, 0, 0], P)
        b2 = self._belief([-d, 0, 0, 0], P)
        out = fuse(b1, b2, (0.5, 0.5))
        want = P.copy()
        want[0, 0] += d * d
        assert np.allclose(out.mean, 0.0)
        assert np.allclose(out.cov, want)

    def test_dimension_mismatch(self):
        b1 = self._belief(np.zeros(4), np.eye(4))
        b2 = self._belief(np.zeros(5), np.eye(5))
        with pytest.raises(ValueError):
            fuse(b1, b2, (0.5, 0.5))

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([4, 5]),
        log_odds=st.sampled_from([0.0, 1e3, -1e3])
        | st.floats(allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_bank_fuses_sides_at_finite_log_odds(self, seed, n, log_odds):
        rng = np.random.default_rng(seed)
        b1, b2 = (self._belief(rng.normal(size=n), A @ A.T) for A in rng.normal(size=(2, n, n)))
        bank = lrtma.FilterBankState(b1, b2, log_odds, 1)
        want = fuse(b1, b2, side_weights(log_odds))
        # the step's mean first, then the mixture built on read
        assert bank.mean.tobytes() == want.mean.tobytes()
        got = bank.fused
        assert got.mean.tobytes() == want.mean.tobytes()
        assert got.cov.tobytes() == want.cov.tobytes()
        assert bank.fused is got
        for settled, live in ((math.inf, b1), (-math.inf, b2)):
            bank = lrtma.FilterBankState(b1, b2, settled, 1)
            assert bank.mean is live.mean
            assert bank.fused is live

    def test_interior_weights_spread_covariance(self):
        rng = np.random.default_rng(1)
        b1 = self._belief(rng.normal(size=4), np.eye(4))
        b2 = self._belief(rng.normal(size=4), 2 * np.eye(4))
        out = fuse(b1, b2, (0.4, 0.6))
        assert np.trace(out.cov) >= min(np.trace(b1.cov), np.trace(b2.cov)) - 1e-12


def run_near_noiseless_bank(model_kind=CV, steps=30, filter_kind=EKF):
    """Bank on a noise-free truth with its sides centred on the truth
    (slot 1) and its mirror, each with the covariance of a side started
    from that state's noise-free bearing. Returns (truth, banks) for
    t = 1..steps.

    A strictly zero measurement noise drives the posterior covariance to
    exact singularity, so the oracle run keeps a hundredth of a degree.
    """
    cfg = simkit.ScenarioConfig(
        model_kind=model_kind, sigma_theta_meas_deg=0.01, q1=0.0, q2=0.0, horizon=steps
    )
    model, prior, sigma = cfg.motion_model(), cfg.prior(), cfg.sigma_theta_rad
    obs = simkit.gen_observer_track(cfg)
    truth = simkit.relative_truth(simkit.gen_target_track(cfg), obs)[1:]
    rng = np.random.default_rng(0)

    def side(mean):
        cov = init_side(sensing.true_bearing(mean), prior, obs[1], model).cov
        return GaussianBelief(mean=mean, cov=cov)

    mirror = sensing.reflect_state(truth[0], obs[1].heading)
    banks = [lrtma.FilterBankState(side(truth[0]), side(mirror), 0.0, 1)]
    for k in range(2, steps + 1):
        pair = sensing.measure(truth[k - 1], obs[k].heading, sigma, rng, t=k)
        banks.append(step(banks[-1], pair, obs[k - 1], obs[k], model, filter_kind, sigma))
    return truth, banks


class TestStep:
    def test_near_noiseless_true_side_weight_nondecreasing(self):
        # the EKF's linearization is geometric, so with exact init the two
        # sides stay mirror images and the true side can only gain weight
        _, banks = run_near_noiseless_bank()
        w_true = [e.w1 for e in banks]
        for a, b in zip(w_true[1:], w_true[2:]):
            assert b >= a - 1e-9
        assert w_true[-1] > 0.999

    def test_near_noiseless_terminal_error(self):
        truth, banks = run_near_noiseless_bank()
        err = np.hypot(*(banks[-1].fused.mean[:2] - truth[-1][:2]))
        assert err < 0.05

    def test_on_axis_target_keeps_equal_weights(self):
        # target dead ahead on the array axis: both slots carry the same
        # bearing, the sides stay mirror images, weights stay 1/2
        model = cv_model()
        prior = default_prior()
        obs0 = observer(course_deg=0.0)
        theta = 0.0
        pair = BearingPair(y1=theta, y2=theta, heading=0.0, t=1)
        bank = init_bank(pair, prior, obs0, model)
        obs1 = ObserverState(
            x=obs0.x, y=obs0.y + 1.0 * obs0.vy, vx=obs0.vx, vy=obs0.vy, heading=0.0
        )
        nxt = step(bank, BearingPair(theta, theta, 0.0, 2), obs0, obs1, model, EKF, 0.02)
        assert nxt.w1 == pytest.approx(0.5, abs=1e-12)
        assert nxt.w2 == pytest.approx(0.5, abs=1e-12)

    def test_resolution_before_maneuver_end_case_one(self):
        # median first-decided step lands inside the ownship maneuver for
        # most runs of the benchmark geometry
        cfg = simkit.ScenarioConfig(filter_kind=UKF, model_kind=CV, n_runs=60)
        sums = simkit.run_monte_carlo(cfg)
        decided = [
            s.first_decided_step
            for s in sums
            if not s.diverged and s.first_decided_step is not None
        ]
        assert len(decided) >= 50
        frac_by_maneuver_end = np.mean(np.asarray(decided) <= 17)
        assert frac_by_maneuver_end > 0.5

    def test_single_bad_innovation_does_not_revive_ghost(self):
        # EKF/CV, master seed 0, run 98: the true side is decided by step
        # 14 and then sees a ~38 sigma innovation at step 22. Clamping the
        # linear weights at 1e-300 handed the weight to the ghost, and the
        # run ended 5.5 km off; the known-side run ends within 1 km.
        cfg = simkit.ScenarioConfig(filter_kind=EKF, model_kind=CV)
        seed = simkit.run_seed(cfg.seed, 98)
        rec = simkit.simulate_run(cfg, seed)
        known = simkit.simulate_run(cfg, seed, mode=simkit.KNOWN_SIDE)
        w_true = [e.w1 if rec.true_slot == 1 else e.w2 for e in rec.estimates]
        assert max(w_true[13:]) > 0.99
        assert min(w_true[13:]) > 0.5
        assert not known.diverged
        assert not rec.diverged
        assert rec.terminal_range_error < 1.0

    def test_weight_simplex_along_run(self):
        cfg = simkit.ScenarioConfig(filter_kind=EKF, model_kind=CV, n_runs=5)
        for i in range(5):
            rec = simkit.simulate_run(cfg, simkit.run_seed(cfg.seed, i))
            for e in rec.estimates:
                assert e.w1 + e.w2 == pytest.approx(1.0, abs=1e-12)
                assert 0.0 <= e.w1 <= 1.0


def one_step_inputs(model_kind=CV):
    """A fresh bank on the benchmark scenario with the next pair and observers."""
    cfg = simkit.ScenarioConfig(model_kind=model_kind)
    observers = simkit.gen_observer_track(cfg)
    rel = simkit.relative_truth(simkit.gen_target_track(cfg), observers)
    rng = np.random.default_rng(4)
    pairs = [
        sensing.measure(rel[k], observers[k].heading, cfg.sigma_theta_rad, rng, t=k)
        for k in (1, 2)
    ]
    bank = init_bank(pairs[0], cfg.prior(), observers[1], cfg.motion_model())
    return bank, pairs[1], observers[1], observers[2], cfg.motion_model(), cfg.sigma_theta_rad


def poison_update(monkeypatch, kind, bad_y=None):
    """Make the measurement update return a NaN posterior mean (for ``bad_y`` only)."""
    name = "srf_update" if kind == "srf" else "update"
    real = getattr(gaussfilt, name)

    def poisoned(belief, y, *args, **kwargs):
        out = real(belief, y, *args, **kwargs)
        if bad_y is None or y == bad_y:
            out.posterior.mean[0] = np.nan
        return out

    monkeypatch.setattr(gaussfilt, name, poisoned)


class TestSideStep:
    @pytest.mark.parametrize("model_kind", [CV, CT])
    @pytest.mark.parametrize("kind", ["ekf", "ukf", "srf"])
    def test_step_sides_are_side_steps(self, kind, model_kind):
        bank, pair, o1, o2, model, sigma = one_step_inputs(model_kind)
        if model_kind == CT:
            # different turn rates on the two sides: each side's observer
            # input must be taken at its own estimate
            bank.belief1.mean[4], bank.belief2.mean[4] = 0.04, -0.02
        nxt = step(bank, pair, o1, o2, model, kind, sigma)
        for belief, y, got in ((bank.belief1, pair.y1, nxt.belief1),
                               (bank.belief2, pair.y2, nxt.belief2)):
            want = lrtma.side_step(belief, y, o1, o2, model, kind, sigma).posterior
            assert np.array_equal(got.mean, want.mean)
            assert np.array_equal(got.cov, want.cov)

    @pytest.mark.parametrize("log_odds", [math.inf, -math.inf])
    @pytest.mark.parametrize("kind", ["ekf", "srf"])
    def test_settled_bank_steps_its_live_side_only(self, monkeypatch, kind, log_odds):
        bank, pair, o1, o2, model, sigma = one_step_inputs()
        live, y = (bank.belief1, pair.y1) if log_odds > 0 else (bank.belief2, pair.y2)
        settled = lrtma.FilterBankState(bank.belief1, bank.belief2, log_odds, bank.t)
        assert settled.fused is live
        real, calls = lrtma.side_step, []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(lrtma, "side_step", counted)
        nxt = step(settled, pair, o1, o2, model, kind, sigma)
        assert len(calls) == 1
        assert calls[0][0] is live and calls[0][1] == y
        want = real(live, y, o1, o2, model, kind, sigma).posterior
        assert nxt.belief1 is nxt.belief2 is nxt.fused
        assert nxt.fused.mean.tobytes() == want.mean.tobytes()
        assert nxt.fused.cov.tobytes() == want.cov.tobytes()
        assert nxt.log_odds == log_odds and nxt.t == bank.t + 1

    @pytest.mark.parametrize("kind", ["ekf", "srf"])
    def test_side_step_rejects_non_finite_posterior(self, monkeypatch, kind):
        bank, pair, o1, o2, model, sigma = one_step_inputs()
        poison_update(monkeypatch, kind)
        with pytest.raises(gaussfilt.FilterNumericsError, match="non-finite"):
            lrtma.side_step(bank.belief1, pair.y1, o1, o2, model, kind, sigma)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e308, -1e308])
    @pytest.mark.parametrize("model_kind", [CV, CT])
    def test_side_step_checks_every_mean_component(self, monkeypatch, model_kind, value):
        bank, pair, o1, o2, model, sigma = one_step_inputs(model_kind)
        real = gaussfilt.update
        for i in range(model.dim):
            def poisoned(*args, **kwargs):
                out = real(*args, **kwargs)
                out.posterior.mean[i] = value
                return out

            monkeypatch.setattr(gaussfilt, "update", poisoned)
            if math.isfinite(value):
                out = lrtma.side_step(bank.belief1, pair.y1, o1, o2, model, "ekf", sigma)
                assert out.posterior.mean[i] == value
                continue
            with pytest.raises(gaussfilt.FilterNumericsError, match="^non-finite estimate$"):
                lrtma.side_step(bank.belief1, pair.y1, o1, o2, model, "ekf", sigma)

    @pytest.mark.parametrize("psi", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("kind", ["ekf", "ckf", "srf"])
    def test_non_finite_turn_rate_is_a_filter_failure(self, kind, psi):
        # the CT coefficients of a non-finite turn rate are NaN, so the
        # side fails with the error a Monte Carlo run flags, never with the
        # ValueError math.cos raises on inf
        bank, pair, o1, o2, model, sigma = one_step_inputs(CT)
        bank.belief1.mean[4] = psi
        with np.errstate(invalid="ignore"), pytest.raises(gaussfilt.FilterNumericsError):
            lrtma.side_step(bank.belief1, pair.y1, o1, o2, model, kind, sigma)

    @pytest.mark.parametrize("y", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", gaussfilt.FILTER_KINDS)
    def test_non_finite_bearing_is_a_filter_failure(self, kind, y):
        # the wrapped innovation of a non-finite bearing is NaN, so the step
        # fails with the error a Monte Carlo run flags, never with the
        # ValueError or OverflowError that round() raises
        bank, pair, o1, o2, model, sigma = one_step_inputs()
        bad = BearingPair(y1=y, y2=pair.y2, heading=pair.heading, t=pair.t)
        with np.errstate(invalid="ignore"), pytest.raises(gaussfilt.FilterNumericsError):
            step(bank, bad, o1, o2, model, kind, sigma)

    @pytest.mark.parametrize("kind", ["ekf", "srf"])
    def test_step_rejects_one_non_finite_side(self, monkeypatch, kind):
        bank, pair, o1, o2, model, sigma = one_step_inputs()
        assert pair.y1 != pair.y2
        poison_update(monkeypatch, kind, bad_y=pair.y2)
        with pytest.raises(gaussfilt.FilterNumericsError, match="non-finite"):
            step(bank, pair, o1, o2, model, kind, sigma)


class TestMirrorEquivariance:
    # (first bearing in degrees, bearing-noise seed); (60, 123) catches a
    # closing course that is not sign-exact, such as wrap_angle(bearing + pi)
    CASES = [(45.0, 123), (60.0, 123), (-100.0, 88), (179.0, 5)]

    @pytest.mark.parametrize("bearing_deg, noise_seed", CASES)
    def test_ekf_bank_reflects_bitwise(self, bearing_deg, noise_seed):
        # reflect everything across true north (axis = 0): the reflection's
        # arithmetic is exact sign flipping, so the swapped bank must match
        # bit for bit, from the first bank on
        cfg = simkit.ScenarioConfig(model_kind=CV, initial_bearing_deg=bearing_deg)
        for t, (bank, bank_r) in enumerate(mirrored_banks(cfg, EKF, noise_seed), start=1):
            assert reflects_exactly(bank, bank_r), f"t={t}"

    @pytest.mark.parametrize("kind", ["ukf", "ckf", "ghf", "srf"])
    def test_point_filter_banks_reflect_tightly(self, kind):
        # point-set accumulation order differs between the mirrored runs, so
        # demand agreement to near machine precision rather than bitwise
        D = reflection(4)
        for bank, bank_r in mirrored_banks(simkit.ScenarioConfig(model_kind=CV), kind, 7):
            assert bank_r.w1 == pytest.approx(bank.w2, abs=1e-12)
            assert np.allclose(bank_r.fused.mean, D @ bank.fused.mean, atol=1e-10)
