import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest

from towedtma import gaussfilt, kinematics, sensing
from towedtma.gaussfilt import (
    CKF,
    EKF,
    GHF,
    SRF,
    UKF,
    FilterNumericsError,
    GaussianBelief,
    MeasurementModel,
    chol_psd,
    points_for,
    predict,
    srf_update,
    update,
)
from towedtma.kinematics import CT, CV, MotionModel


def random_belief(rng, n=4, scale=1.0):
    A = rng.normal(size=(n, n))
    return GaussianBelief(mean=rng.normal(size=n), cov=scale * (A @ A.T + n * np.eye(n)))


POINT_SCHEMES = [UKF, CKF, GHF, SRF]


class TestPointSets:
    @pytest.mark.parametrize("kind", POINT_SCHEMES)
    def test_moment_matching(self, kind):
        rng = np.random.default_rng(42)
        for n in (2, 4, 5):
            b = random_belief(rng, n)
            ps = points_for(kind, b)
            assert ps.weights.sum() == pytest.approx(1.0, abs=1e-12)
            mean, cov = ps.moments()
            assert np.allclose(mean, b.mean, atol=1e-10)
            assert np.allclose(cov, b.cov, atol=1e-10)

    def test_unscented_count_and_weights(self):
        b = random_belief(np.random.default_rng(0), 4)
        ps = points_for(UKF, b)  # kappa = 3 - n = -1
        assert ps.points.shape == (9, 4)
        assert ps.weights[0] == pytest.approx(-1.0 / 3.0)

    def test_cubature_count_and_weights(self):
        b = random_belief(np.random.default_rng(1), 4)
        ps = points_for(CKF, b)
        assert ps.points.shape == (8, 4)
        assert np.allclose(ps.weights, 0.125)
        srf = points_for(SRF, b)
        assert np.array_equal(srf.points, ps.points)
        assert np.array_equal(srf.weights, ps.weights)

    def test_unscented_and_cubature_match_slice_oracle(self):
        # the sets built row by row: centre, mean + scale L^T, mean - scale L^T
        rng = np.random.default_rng(5)
        for n in range(1, 6):
            b = random_belief(rng, n)
            L = np.linalg.cholesky(b.cov)
            kappa = 3.0 - n
            scale = np.sqrt(n + kappa)
            pts = np.empty((2 * n + 1, n))
            pts[0] = b.mean
            pts[1 : n + 1] = b.mean + scale * L.T
            pts[n + 1 :] = b.mean - scale * L.T
            w = np.full(2 * n + 1, 1.0 / (2.0 * (n + kappa)))
            w[0] = kappa / (n + kappa)
            ps = points_for(UKF, b)
            assert np.array_equal(ps.points, pts)
            assert np.array_equal(ps.weights, w)

            scale = np.sqrt(n)
            pts = np.empty((2 * n, n))
            pts[:n] = b.mean + scale * L.T
            pts[n:] = b.mean - scale * L.T
            ps = points_for(CKF, b)
            assert np.array_equal(ps.points, pts)
            assert np.array_equal(ps.weights, np.full(2 * n, 1.0 / (2.0 * n)))

    def test_point_less_kinds_are_refused(self):
        b = random_belief(np.random.default_rng(6), 4)
        for kind in (EKF, "nope"):
            with pytest.raises(ValueError, match="has no point set"):
                points_for(kind, b)

    def test_gauss_hermite_univariate_vs_jacobi_oracle(self):
        # Golub-Welsch on the Jacobi matrix for the N(0,1) weight, order 3
        J = np.diag(np.sqrt(np.arange(1, 3)), 1)
        J = J + J.T
        nodes, vecs = np.linalg.eigh(J)
        weights = vecs[0] ** 2
        xi, w = gaussfilt._unit_points(GHF, 1)
        got = sorted(zip(xi[:, 0], w))
        want = sorted(zip(nodes, weights))
        assert len(got) == 3
        for (gx, gw), (wx, ww) in zip(got, want):
            assert gx == pytest.approx(wx, abs=1e-12)
            assert gw == pytest.approx(ww, abs=1e-12)

    def test_gauss_hermite_points_are_third_order(self):
        b = GaussianBelief(mean=np.zeros(1), cov=np.eye(1))
        ps = points_for(GHF, b)
        assert np.allclose(sorted(ps.points[:, 0]), [-np.sqrt(3), 0, np.sqrt(3)])

    def test_gauss_hermite_grid_size(self):
        b = random_belief(np.random.default_rng(2), 5)
        assert points_for(GHF, b).points.shape == (243, 5)

    def test_gauss_hermite_polynomial_exactness(self):
        # exact for monomials up to degree 2*3-1 = 5 per axis against the
        # analytic N(0,1) moments (odd -> 0, even -> double factorial)
        moment = {0: 1.0, 2: 1.0, 4: 3.0}
        xi, w = gaussfilt._unit_points(GHF, 1)
        for deg in range(6):
            got = float(w @ xi[:, 0] ** deg)
            assert got == pytest.approx(moment.get(deg, 0.0), abs=1e-9)

    def test_gauss_hermite_grid_cache_matches_per_call_grid(self):
        from numpy.polynomial import hermite_e

        rng = np.random.default_rng(4)
        x1, w1 = hermite_e.hermegauss(3)
        w1 = w1 / w1.sum()
        for n in range(1, 6):
            b = random_belief(rng, n)
            L = np.linalg.cholesky(b.cov)
            idx = np.stack(
                np.meshgrid(*([np.arange(3)] * n), indexing="ij"), axis=-1
            ).reshape(-1, n)
            for _ in range(2):  # the first call fills the cache
                xi, w = gaussfilt._unit_points(GHF, n)
                assert np.array_equal(xi, x1[idx])
                assert np.array_equal(w, np.prod(w1[idx], axis=1))
                ps = points_for(GHF, b)
                assert np.array_equal(ps.points, b.mean + x1[idx] @ L.T)
                assert ps.weights is w

    @pytest.mark.parametrize("kind", POINT_SCHEMES)
    def test_unit_table_is_shared_and_read_only(self, kind):
        b = random_belief(np.random.default_rng(7), 4)
        xi, w = gaussfilt._unit_points(kind, 4)
        assert points_for(kind, b).weights is w
        assert gaussfilt._unit_points(kind, 4)[0] is xi
        for arr in (xi, w):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0


class TestCholPsd:
    def test_plain_cholesky(self):
        P = np.array([[4.0, 1.0], [1.0, 3.0]])
        L = chol_psd(P)
        assert np.allclose(L @ L.T, P)

    def test_jitter_recovers_semidefinite(self):
        P = np.diag([1.0, 0.0])  # singular but PSD
        L = chol_psd(P)
        assert np.allclose(L @ L.T, P, atol=1e-8)

    def test_indefinite_raises(self):
        with pytest.raises(FilterNumericsError):
            chol_psd(np.diag([1.0, -1.0]))


def cv_model(T=1.0, q1=0.0):
    return MotionModel(kind=CV, T=T, q1=q1)


class TestPredict:
    def test_linear_exactness_zero_noise(self):
        rng = np.random.default_rng(10)
        b = random_belief(rng, 4)
        model = cv_model()
        F = kinematics.cv_mat(1.0)
        out = predict(b, model, np.zeros(model.dim), EKF)
        assert np.allclose(out.mean, F @ b.mean, atol=1e-12)
        assert np.allclose(out.cov, F @ b.cov @ F.T, atol=1e-10)

    def test_all_filters_agree_on_linear_dynamics(self):
        rng = np.random.default_rng(11)
        b = random_belief(rng, 4)
        model = cv_model(q1=1e-6)
        u = rng.normal(size=4) * 0.01
        outs = [predict(b, model, u, kind) for kind in (EKF, UKF, CKF, GHF, SRF)]
        for o in outs[1:]:
            assert np.allclose(o.mean, outs[0].mean, atol=1e-9)
            assert np.allclose(o.cov, outs[0].cov, atol=1e-9)

    def test_ct_prediction_matches_monte_carlo(self):
        rng = np.random.default_rng(12)
        mean = np.array([2.0, 1.0, 0.1, -0.05, 0.08])
        cov = np.diag([0.04, 0.04, 1e-3, 1e-3, 4e-4])
        b = GaussianBelief(mean=mean, cov=cov)
        model = MotionModel(kind=CT, T=1.0, q1=0.0, q2=0.0)
        out = predict(b, model, np.zeros(model.dim), UKF)
        n = 1_000_000
        samples = rng.multivariate_normal(mean, cov, size=n)
        prop = kinematics.ct_transition(samples, 1.0)
        mc_mean = prop.mean(axis=0)
        mc_se = prop.std(axis=0) / np.sqrt(n)
        assert np.all(np.abs(out.mean - mc_mean) < 3 * mc_se + 1e-9)

    def test_dimension_mismatch(self):
        b = random_belief(np.random.default_rng(0), 4)
        model = MotionModel(kind=CT, T=1.0, q1=0.0)
        with pytest.raises(ValueError):
            predict(b, model, np.zeros(model.dim), EKF)


def linear_measurement():
    return MeasurementModel(
        fn=lambda x: x[..., 0],
        jac=lambda x: np.eye(len(x))[0],
        angular=False,
    )


class TestUpdate:
    @pytest.mark.parametrize("kind", [EKF, UKF, CKF, GHF])
    def test_zero_innovation_keeps_mean(self, kind):
        rng = np.random.default_rng(20)
        b = GaussianBelief(
            mean=np.array([3.0, 4.0, 0.1, 0.0]), cov=np.diag([0.5, 0.5, 0.01, 0.01])
        )
        out = update(b, sensing.true_bearing(b.mean), 0.02, kind)
        if kind == EKF:
            assert np.allclose(out.posterior.mean, b.mean, atol=1e-12)
        else:
            # point filters predict a slightly different bearing mean
            assert np.allclose(out.posterior.mean, b.mean, atol=1e-2)

    @pytest.mark.parametrize("kind", [EKF, UKF, CKF, GHF])
    def test_linear_stub_reproduces_kalman(self, kind):
        # closed-form scalar Kalman update as the oracle
        rng = np.random.default_rng(21)
        b = random_belief(rng, 4)
        y, r = 0.37, 0.3
        H = np.eye(4)[0]
        S = H @ b.cov @ H + r**2
        K = b.cov @ H / S
        mean = b.mean + K * (y - b.mean[0])
        cov = b.cov - S * np.outer(K, K)
        out = update(b, y, r, kind, meas=linear_measurement())
        assert np.allclose(out.posterior.mean, mean, atol=1e-9)
        assert np.allclose(out.posterior.cov, cov, atol=1e-9)
        assert out.pred_meas == pytest.approx(b.mean[0], abs=1e-10)
        assert out.innov_cov == pytest.approx(S, rel=1e-9)

    @pytest.mark.parametrize("kind", [EKF, UKF, CKF, GHF])
    def test_trace_decreases(self, kind):
        rng = np.random.default_rng(22)
        b = GaussianBelief(
            mean=np.array([3.0, 4.0, 0.1, 0.0]), cov=np.diag([1.0, 1.0, 0.02, 0.02])
        )
        out = update(b, 0.9, 0.03, kind)
        assert np.trace(out.posterior.cov) <= np.trace(b.cov) + 1e-12

    def test_posterior_symmetric(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            b = random_belief(rng, 4)
            out = update(b, 0.5, 0.05, UKF)
            P = out.posterior.cov
            assert np.allclose(P, P.T, atol=1e-12)

    def test_ekf_uses_bearing_jacobian(self):
        b = GaussianBelief(
            mean=np.array([3.0, 4.0, 0.1, 0.0]), cov=np.diag([0.5, 0.5, 0.01, 0.01])
        )
        y, r = 0.8, 0.02
        out = update(b, y, r, EKF)
        J = sensing.bearing_jacobian(b.mean)
        S = J @ b.cov @ J + r**2
        K = b.cov @ J / S
        innov = y - sensing.true_bearing(b.mean)
        assert out.innov_cov == pytest.approx(S, rel=1e-12)
        assert np.allclose(out.posterior.mean, b.mean + K * innov, atol=1e-12)
        assert np.allclose(out.posterior.cov, b.cov - S * np.outer(K, K), atol=1e-12)

    def test_wrapped_innovation(self):
        b = GaussianBelief(
            mean=np.array([0.1, -1.0, 0.0, 0.0]), cov=np.diag([0.3, 0.3, 0.01, 0.01])
        )
        # bearing near pi: a measurement just past -pi must act as a small
        # innovation, not a 2*pi jump
        theta = sensing.true_bearing(b.mean)
        y = sensing.wrap_angle(theta + 0.05)
        out = update(b, y, 0.05, EKF)
        assert np.linalg.norm(out.posterior.mean - b.mean) < 1.0

    def test_srf_kind_runs_srf_update(self):
        b = GaussianBelief(
            mean=np.array([3.0, 4.0, 0.1, 0.0]), cov=np.diag([0.5, 0.5, 0.01, 0.01])
        )
        got, ref = update(b, 0.7, 0.02, SRF), srf_update(b, 0.7, 0.02)
        assert np.array_equal(got.posterior.mean, ref.posterior.mean)
        assert np.array_equal(got.posterior.cov, ref.posterior.cov)
        assert (got.pred_meas, got.innov_cov, got.log_likelihood) == (
            ref.pred_meas, ref.innov_cov, ref.log_likelihood
        )
        with pytest.raises(ValueError, match="bearings only"):
            update(b, 0.7, 0.02, SRF, meas=linear_measurement())


class TestSrfUpdate:
    def test_direction_vector_unit_norm(self):
        for y in np.linspace(-np.pi, np.pi, 17):
            assert np.hypot(np.sin(y), np.cos(y)) == pytest.approx(1.0)

    def test_matched_noise_arithmetic(self):
        # sigma^2 (x^2 + y^2 + P11 + P22) with P = 0, (3, 4), sigma = 0.1
        b = GaussianBelief(
            mean=np.array([3.0, 4.0, 0.0, 0.0]), cov=np.zeros((4, 4))
        )
        assert gaussfilt.srf_matched_noise(b, 0.1) == pytest.approx(0.25)
        b2 = GaussianBelief(
            mean=np.array([3.0, 4.0, 0.0, 0.0]), cov=np.diag([2.0, 1.0, 9.0, 9.0])
        )
        assert gaussfilt.srf_matched_noise(b2, 0.1) == pytest.approx(0.28)

    def test_zero_innovation_fixed_point(self):
        b = GaussianBelief(
            mean=np.array([3.0, 4.0, 0.1, -0.1]),
            cov=np.diag([1e-6, 1e-6, 1e-6, 1e-6]),
        )
        out = srf_update(b, sensing.true_bearing(b.mean), 0.02)
        assert np.allclose(out.posterior.mean[:2], b.mean[:2], atol=1e-3)
        assert np.isfinite(out.log_likelihood)

    @staticmethod
    def _pseudo_measurement_log_density(b, y, sigma):
        # bivariate normal log-density, from scipy, of the range-conditioned
        # planar pseudo-measurement along the measured direction
        from scipy.stats import multivariate_normal

        zhat = b.mean[:2]
        V = b.cov[:2, :2] + gaussfilt.srf_matched_noise(b, sigma) * np.eye(2)
        d = np.array([np.sin(y), np.cos(y)])
        Vi = np.linalg.inv(V)
        a = d @ Vi @ d
        rho1, _ = gaussfilt.shifted_rayleigh_moments(d @ Vi @ zhat / np.sqrt(a))
        return multivariate_normal(zhat, V).logpdf(rho1 / np.sqrt(a) * d)

    def test_log_likelihood_matches_density(self):
        b = GaussianBelief(
            mean=np.array([3.0, 4.0, 0.1, -0.1]), cov=np.diag([0.5, 0.5, 0.01, 0.01])
        )
        for y in np.linspace(0.2, 1.2, 6):
            out = srf_update(b, y, 0.02)
            want = self._pseudo_measurement_log_density(b, y, 0.02)
            assert out.log_likelihood == pytest.approx(want, rel=1e-9)

    def test_log_likelihood_finite_where_linear_underflows(self):
        # bearing a quarter turn off a tight prior: the density is e^-(~1e6)
        b = GaussianBelief(mean=np.array([3.0, 4.0, 0.0, 0.0]), cov=1e-8 * np.eye(4))
        y = sensing.true_bearing(b.mean) + np.pi / 2
        out = srf_update(b, y, 1e-3)
        want = self._pseudo_measurement_log_density(b, y, 1e-3)
        assert np.exp(out.log_likelihood) == 0.0
        assert np.isfinite(out.log_likelihood)
        assert out.log_likelihood < -1e5
        assert out.log_likelihood == pytest.approx(want, rel=1e-8)

    def test_shifted_rayleigh_moments(self):
        # quadrature oracle for the normalized shifted Rayleigh moments
        from scipy.integrate import quad

        for u in (-3.0, -0.5, 0.0, 1.0, 4.0, 12.0):
            den = quad(lambda r: r * np.exp(-0.5 * (r - u) ** 2), 0, np.inf)[0]
            m1 = quad(lambda r: r**2 * np.exp(-0.5 * (r - u) ** 2), 0, np.inf)[0]
            m2 = quad(lambda r: r**3 * np.exp(-0.5 * (r - u) ** 2), 0, np.inf)[0]
            rho1, rho2 = gaussfilt.shifted_rayleigh_moments(u)
            assert rho1 == pytest.approx(m1 / den, rel=1e-9)
            assert rho2 == pytest.approx(m2 / den, rel=1e-9)

    @staticmethod
    def _moments_mp(u):
        # the same closed form, evaluated with 50 significant digits
        with mpmath.workdps(50):
            u = mpmath.mpf(u)
            phi = mpmath.npdf(u)
            Phi = mpmath.ncdf(u)
            den = u * Phi + phi
            rho1 = ((1 + u * u) * Phi + u * phi) / den
            rho2 = ((u * u + 2) * phi + u * (3 + u * u) * Phi) / den
            return rho1, rho2

    # (lower, upper, max relative error): u * Phi + phi cancels for u < 0, so
    # the closed form loses digits as u falls, down to the Gamma(2) branch
    # below -35
    MOMENT_BANDS = [
        (0.0, 40.0, 1e-14),
        (-10.0, 0.0, 1e-8),
        (-20.0, -10.0, 1e-6),
        (-35.0, -20.0, 1e-4),
    ]

    @pytest.mark.parametrize("lo, hi, rel", MOMENT_BANDS)
    def test_moments_accuracy_against_mpmath(self, lo, hi, rel):
        us = np.linspace(lo, hi, 301)
        if lo < 0.0:
            us = us[:-1]  # the band is [lo, hi) below zero
        worst = 0.0
        for u in us.tolist():
            got = gaussfilt.shifted_rayleigh_moments(u)
            for g, w in zip(got, self._moments_mp(u)):
                worst = max(worst, float(abs((g - w) / w)))
        assert worst <= rel

    def test_runtime_does_not_load_scipy(self):
        # scipy costs about 0.3 s of start-up; a lazy import would only move
        # that into the first SRF update, so check after running one too
        src = os.path.dirname(os.path.dirname(gaussfilt.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        code = """
import sys

def scipy_modules(stage):
    print(stage, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))

import towedtma
scipy_modules("import towedtma")
import towedtma.cli
scipy_modules("import towedtma.cli")
from towedtma import simkit
for case in ("cv", "ct"):
    cfg = simkit.ScenarioConfig(n_runs=1, filter_kind="srf", model_kind=case)
    assert len(simkit.run_monte_carlo(cfg)) == 1
    scipy_modules("srf run " + case)
"""
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.splitlines() == [
            "import towedtma []", "import towedtma.cli []", "srf run cv []", "srf run ct []"
        ]

    def test_far_tail_moments_finite(self):
        rho1, rho2 = gaussfilt.shifted_rayleigh_moments(-50.0)
        assert 0 < rho1 < 0.1
        assert 0 < rho2 < 0.01

    def test_reduces_covariance(self):
        b = GaussianBelief(
            mean=np.array([3.0, 4.0, 0.1, -0.1]), cov=np.diag([0.5, 0.5, 0.01, 0.01])
        )
        out = srf_update(b, 0.7, 0.02)
        assert np.trace(out.posterior.cov) < np.trace(b.cov)
        P = out.posterior.cov
        assert np.allclose(P, P.T)
        assert np.linalg.eigvalsh(P).min() > -1e-12

    def test_five_dim_state(self):
        b = GaussianBelief(
            mean=np.array([3.0, 4.0, 0.1, -0.1, 0.01]),
            cov=np.diag([0.5, 0.5, 0.01, 0.01, 1e-4]),
        )
        out = srf_update(b, 0.7, 0.02)
        assert out.posterior.dim == 5
        assert out.posterior.cov[4, 4] <= b.cov[4, 4] + 1e-15

    def test_agrees_with_ghf_on_cv_scenario(self):
        # cross-filter consistency: over a deterministic closing scenario the
        # SRF and GHF posteriors must stay within the GHF's 3-sigma envelope
        rng = np.random.default_rng(40)
        model = cv_model(q1=1e-6)
        truth = np.array([3.0, 4.0, -0.02, 0.01])
        P0 = np.diag([1.0, 1.0, 1e-3, 1e-3])
        b_srf = GaussianBelief(truth + [0.3, -0.4, 0.01, 0.0], P0)
        b_ghf = GaussianBelief(truth + [0.3, -0.4, 0.01, 0.0], P0)
        sigma = np.deg2rad(1.0)
        u = np.zeros(model.dim)
        for _ in range(100):
            truth = kinematics.cv_transition(truth, 1.0)
            y = sensing.wrap_angle(sensing.true_bearing(truth) + rng.normal() * sigma)
            b_srf = srf_update(predict(b_srf, model, u, SRF), y, sigma).posterior
            b_ghf = update(predict(b_ghf, model, u, GHF), y, sigma, GHF).posterior
            d = b_srf.mean - b_ghf.mean
            lim = 3.0 * np.sqrt(np.diag(b_ghf.cov))
            assert np.all(np.abs(d) <= lim + 1e-9)
