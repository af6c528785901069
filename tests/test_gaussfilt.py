import os
import subprocess
import sys

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
    cubature_points,
    gauss_hermite_points,
    predict,
    srf_update,
    unscented_points,
    update,
)
from towedtma.kinematics import CT, CV, MotionModel


def random_belief(rng, n=4, scale=1.0):
    A = rng.normal(size=(n, n))
    return GaussianBelief(mean=rng.normal(size=n), cov=scale * (A @ A.T + n * np.eye(n)))


POINT_SCHEMES = [
    ("ukf", lambda b: unscented_points(b)),
    ("ckf", lambda b: cubature_points(b)),
    ("ghf", lambda b: gauss_hermite_points(b)),
]


class TestPointSets:
    @pytest.mark.parametrize("name,scheme", POINT_SCHEMES)
    def test_moment_matching(self, name, scheme):
        rng = np.random.default_rng(42)
        for n in (2, 4, 5):
            b = random_belief(rng, n)
            ps = scheme(b)
            assert ps.weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(ps.mean(), b.mean, atol=1e-10)
            assert np.allclose(ps.cov(), b.cov, atol=1e-10)

    def test_unscented_count_and_weights(self):
        b = random_belief(np.random.default_rng(0), 4)
        ps = unscented_points(b)  # kappa = 3 - n = -1
        assert ps.points.shape == (9, 4)
        assert ps.weights[0] == pytest.approx(-1.0 / 3.0)

    def test_cubature_count_and_weights(self):
        b = random_belief(np.random.default_rng(1), 4)
        ps = cubature_points(b)
        assert ps.points.shape == (8, 4)
        assert np.allclose(ps.weights, 0.125)

    def test_gauss_hermite_univariate_vs_jacobi_oracle(self):
        # Golub-Welsch on the Jacobi matrix for the N(0,1) weight
        for order in (2, 3, 4, 5):
            J = np.diag(np.sqrt(np.arange(1, order)), 1)
            J = J + J.T
            nodes, vecs = np.linalg.eigh(J)
            weights = vecs[0] ** 2
            xi, w = gaussfilt._gauss_hermite_grid(order, 1)
            got = sorted(zip(xi[:, 0], w))
            want = sorted(zip(nodes, weights))
            assert len(got) == order
            for (gx, gw), (wx, ww) in zip(got, want):
                assert gx == pytest.approx(wx, abs=1e-12)
                assert gw == pytest.approx(ww, abs=1e-12)

    def test_gauss_hermite_points_are_third_order(self):
        b = GaussianBelief(mean=np.zeros(1), cov=np.eye(1))
        ps = gauss_hermite_points(b)
        assert np.allclose(sorted(ps.points[:, 0]), [-np.sqrt(3), 0, np.sqrt(3)])

    def test_gauss_hermite_grid_size(self):
        b = random_belief(np.random.default_rng(2), 5)
        assert gauss_hermite_points(b).points.shape == (243, 5)

    def test_gauss_hermite_polynomial_exactness(self):
        # exact for monomials up to degree 2*order-1 per axis against the
        # analytic N(0,1) moments (odd -> 0, even -> double factorial)
        moment = {0: 1.0, 2: 1.0, 4: 3.0, 6: 15.0, 8: 105.0}
        for order in (2, 3, 4, 5):
            xi, w = gaussfilt._gauss_hermite_grid(order, 1)
            for deg in range(2 * order):
                got = float(w @ xi[:, 0] ** deg)
                assert got == pytest.approx(moment.get(deg, 0.0), abs=1e-9)

    def test_gauss_hermite_grid_cache_matches_per_call_grid(self):
        from numpy.polynomial import hermite_e

        rng = np.random.default_rng(4)
        for n in range(1, 6):
            b = random_belief(rng, n)
            L = np.linalg.cholesky(b.cov)
            for order in (2, 3, 4):
                x1, w1 = hermite_e.hermegauss(order)
                w1 = w1 / w1.sum()
                idx = np.stack(
                    np.meshgrid(*([np.arange(order)] * n), indexing="ij"), axis=-1
                ).reshape(-1, n)
                for _ in range(2):  # the first call fills the cache
                    xi, w = gaussfilt._gauss_hermite_grid(order, n)
                    assert np.array_equal(xi, x1[idx])
                    assert np.array_equal(w, np.prod(w1[idx], axis=1))
                    if order == 3:
                        ps = gauss_hermite_points(b)
                        assert np.array_equal(ps.points, b.mean + x1[idx] @ L.T)
                        assert ps.weights is w
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
        out = predict(b, model, None, EKF)
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
        out = predict(b, model, None, UKF)
        n = 1_000_000
        samples = rng.multivariate_normal(mean, cov, size=n)
        prop = kinematics.ct_transition(samples, 1.0)
        mc_mean = prop.mean(axis=0)
        mc_se = prop.std(axis=0) / np.sqrt(n)
        assert np.all(np.abs(out.mean - mc_mean) < 3 * mc_se + 1e-9)

    def test_dimension_mismatch(self):
        b = random_belief(np.random.default_rng(0), 4)
        with pytest.raises(ValueError):
            predict(b, MotionModel(kind=CT, T=1.0, q1=0.0), None, EKF)


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


class TestKalmanEquivalenceOverTime:
    def test_fifty_steps_linear_system(self):
        # CV dynamics + linear position measurement: every filter must track
        # the closed-form Kalman filter
        rng = np.random.default_rng(30)
        model = cv_model(q1=1e-4)
        F = kinematics.cv_mat(1.0)
        Q = kinematics.process_noise_cov(model)
        H = np.eye(4)[0]
        r = 0.1
        meas = linear_measurement()

        x0 = np.array([1.0, 2.0, 0.05, -0.03])
        P0 = np.diag([1.0, 1.0, 0.01, 0.01])
        beliefs = {k: GaussianBelief(x0.copy(), P0.copy()) for k in (EKF, UKF, CKF, GHF)}
        km, kP = x0.copy(), P0.copy()

        truth = x0 + rng.normal(size=4) * 0.1
        for _ in range(50):
            truth = F @ truth
            y = truth[0] + rng.normal() * r
            km = F @ km
            kP = F @ kP @ F.T + Q
            S = H @ kP @ H + r**2
            K = kP @ H / S
            km = km + K * (y - km[0])
            kP = kP - S * np.outer(K, K)
            for kind in beliefs:
                prior = predict(beliefs[kind], model, None, kind)
                beliefs[kind] = update(prior, y, r, kind, meas=meas).posterior
            for kind in beliefs:
                assert np.max(np.abs(beliefs[kind].mean - km)) < 1e-8


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

    def test_moments_bitwise_match_scipy_stats_form(self):
        from scipy.stats import norm

        rng = np.random.default_rng(0)
        args = np.concatenate([rng.normal(0.0, 8.0, 2000), [-35.0, -10.0, 0.0, 40.0]])
        for u in args.tolist():
            phi, Phi = norm.pdf(u), norm.cdf(u)
            den = u * Phi + phi
            want = (
                float(((1.0 + u * u) * Phi + u * phi) / den),
                float(((u * u + 2.0) * phi + u * (3.0 + u * u) * Phi) / den),
            )
            assert gaussfilt.shifted_rayleigh_moments(u) == want

    def test_import_does_not_load_scipy_stats(self):
        src = os.path.dirname(os.path.dirname(gaussfilt.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        code = "import sys, towedtma; print('scipy.stats' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"

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
        for _ in range(100):
            truth = kinematics.cv_transition(truth, 1.0)
            y = sensing.wrap_angle(sensing.true_bearing(truth) + rng.normal() * sigma)
            b_srf = srf_update(predict(b_srf, model, None, SRF), y, sigma).posterior
            b_ghf = update(predict(b_ghf, model, None, GHF), y, sigma, GHF).posterior
            d = b_srf.mean - b_ghf.mean
            lim = 3.0 * np.sqrt(np.diag(b_ghf.cov))
            assert np.all(np.abs(d) <= lim + 1e-9)
