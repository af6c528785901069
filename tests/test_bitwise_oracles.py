"""The single-state step's float rewrites against the numpy expressions they replaced.

``srf_update``, the ``update`` epilogue, ``symmetrize``, ``lrtma.fuse``,
``lrtma.init_side``, the single-state ``cv_transition`` and the array
branch of ``wrap_angle`` moved their elementwise work off numpy's per-call
path and kept every dot and matrix product as the same numpy call in the
same association order; ``kinematics.sin_cos`` takes one angle's sine and
cosine from libm, which must round them as numpy does. ``chol_psd``
calls the LAPACK gufunc behind ``np.linalg.cholesky`` from numpy's private
``_umath_linalg`` module, and the array branches of ``wrap_angle`` and
``kinematics._ct_coeffs`` take an early exit when one reduction shows the
common case. Each ``old_*`` function below is the earlier expression,
verbatim; the tests require the same bits from both, signs of zeros and
NaN payloads included, or the same exception class and message.
One exception: where two NaNs meet in one operation of ``cv_transition``,
IEEE 754 leaves the result's payload to the implementation, and Python's
float ops and numpy's loops pick differently, so there the result need
only be a NaN.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from towedtma import gaussfilt, kinematics, lrtma, sensing
from towedtma.gaussfilt import (
    BEARING,
    CKF,
    EKF,
    GHF,
    UKF,
    FilterNumericsError,
    GaussianBelief,
    UpdateOutcome,
    normal_log_pdf,
    points_for,
    shifted_rayleigh_moments,
    srf_matched_noise,
)

TWO_PI = sensing.TWO_PI
PSI_EPS = kinematics.PSI_EPS

# random angles, +/-pi, odd multiples of pi and their neighbouring floats,
# signed zeros, a huge angle and the non-finite values
_ODD_PI = [k * math.pi for k in (1, 3, 5, 7, 101, 1e6 + 1)]
EDGE_ANGLES = [0.0, 1e300, math.inf, math.nan] + [
    v for a in _ODD_PI for v in (a, np.nextafter(a, 0.0), np.nextafter(a, math.inf))
] + [TWO_PI, 2.5 * TWO_PI]
EDGE_ANGLES = [float(s * a) for a in EDGE_ANGLES for s in (1.0, -1.0)]


def old_wrap_angle(a):
    a = np.asarray(a, dtype=float)
    w = a - TWO_PI * np.round(a / TWO_PI)
    w = np.where(w > np.pi, w - TWO_PI, w)
    w = np.where(w <= -np.pi, w + TWO_PI, w)
    return w if w.ndim else float(w)


def old_chol_psd(P):
    """Lower-triangular Cholesky factor, retrying once with a small jitter.

    Raises FilterNumericsError if the jittered matrix still fails.
    """
    try:
        return np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        n = P.shape[0]
        jitter = 1e-10 * np.trace(P) / n
        if not np.isfinite(jitter) or jitter <= 0:
            raise FilterNumericsError("covariance is not positive semidefinite")
        try:
            return np.linalg.cholesky(P + jitter * np.eye(n))
        except np.linalg.LinAlgError as exc:
            raise FilterNumericsError(
                "covariance is not positive semidefinite"
            ) from exc


def old_ct_coeffs(psi, T):
    # the array branch of kinematics._ct_coeffs
    psi = np.asarray(psi, dtype=float)
    cs = np.cos(psi * T)
    sn = np.sin(psi * T)
    small = np.abs(psi) < PSI_EPS
    if not small.any():
        return sn / psi, (1.0 - cs) / psi, cs, sn
    safe = np.where(small, 1.0, psi)
    a = np.where(small, T, sn / safe)
    b = np.where(small, psi * T * T / 2.0, (1.0 - cs) / safe)
    return a, b, cs, sn


def old_symmetrize(P):
    return (P + P.T) / 2.0


def old_update(belief, y, noise_std, kind, meas=BEARING):
    R = noise_std**2
    m, P = belief.mean, belief.cov

    if kind == EKF:
        H = meas.jac(m)
        yhat = float(meas.fn(m))
        Pxy = P @ H
        Pyy = float(H @ Pxy) + R
    else:
        ps = points_for(kind, belief)
        g = np.asarray(meas.fn(ps.points), dtype=float)
        if meas.angular:
            ref = float(meas.fn(m))
            g = ref + old_wrap_angle(g - ref)
        yhat = float(ps.weights @ g)
        dy = g - yhat
        dx = ps.points - m
        Pyy = float(ps.weights @ (dy * dy)) + R
        Pxy = (ps.weights * dy) @ dx

    if Pyy <= 0 or not np.isfinite(Pyy):
        raise FilterNumericsError(f"innovation covariance {Pyy} is not positive")
    innov = sensing.wrap_angle(y - yhat) if meas.angular else y - yhat
    K = Pxy / Pyy
    mean = m + K * innov
    cov = old_symmetrize(P - Pyy * np.outer(K, K))
    return UpdateOutcome(
        posterior=GaussianBelief(mean=mean, cov=cov),
        pred_meas=yhat,
        innov_cov=Pyy,
        log_likelihood=normal_log_pdf(innov, Pyy),
    )


def old_srf_update(belief, y, noise_std):
    m, P = belief.mean, belief.cov
    zhat = m[:2]
    S = P[:2, :2]
    r2 = float(zhat @ zhat)
    if r2 == 0.0:
        raise sensing.ZeroRangeError("SRF update undefined at zero predicted range")
    Rm = srf_matched_noise(belief, noise_std)
    V = S + Rm * np.eye(2)
    detV = V[0, 0] * V[1, 1] - V[0, 1] * V[1, 0]
    if detV <= 0 or not np.isfinite(detV):
        raise FilterNumericsError("SRF planar covariance is not positive definite")
    Vi = np.array([[V[1, 1], -V[0, 1]], [-V[1, 0], V[0, 0]]]) / detV

    b = np.array([np.sin(y), np.cos(y)])
    a = float(b @ Vi @ b)
    u = float(b @ Vi @ zhat) / np.sqrt(a)
    rho1, rho2 = shifted_rayleigh_moments(u)

    gamma = rho1 / np.sqrt(a)
    zcond = gamma * b
    var_r = max(rho2 - rho1 * rho1, 0.0) / a

    C = P[:, :2]
    G = C @ Vi
    mean = m + G @ (zcond - zhat)
    cov = P - G @ C.T + var_r * np.outer(G @ b, G @ b)
    cov = old_symmetrize(cov)

    resid = zcond - zhat
    quad = float(resid @ Vi @ resid)
    log_likelihood = -0.5 * (quad + math.log(detV)) - math.log(2.0 * math.pi)

    pred = float(np.arctan2(zhat[0], zhat[1]))
    tang = np.array([np.cos(pred), -np.sin(pred)])
    innov_cov = float(tang @ V @ tang) / r2

    return UpdateOutcome(
        posterior=GaussianBelief(mean=mean, cov=cov),
        pred_meas=pred,
        innov_cov=innov_cov,
        log_likelihood=log_likelihood,
    )


def old_polar_cov(th, rho, sigma_rho, sigma_ang):
    J = np.array([[np.sin(th), rho * np.cos(th)], [np.cos(th), -rho * np.sin(th)]])
    return J @ np.diag([sigma_rho**2, sigma_ang**2]) @ J.T


def old_init_side(first_bearing, prior, obs, model, draw):
    d_r, d_th, d_s, d_c, d_psi = draw
    b = first_bearing + prior.sigma_theta * d_th
    c = b + prior.sigma_c * d_c
    r = prior.r_bar + prior.sigma_r * d_r
    s = prior.s_bar + prior.sigma_s * d_s
    n = model.dim
    mean = np.zeros(n)
    cov = np.zeros((n, n))
    mean[0:2] = r * np.array([np.sin(b), np.cos(b)])
    mean[2:4] = -s * np.array([np.sin(c), np.cos(c)]) - obs.vel
    mean[4:] = prior.sigma_psi * d_psi
    cov[0:2, 0:2] = old_polar_cov(first_bearing, prior.r_bar, prior.sigma_r, prior.sigma_theta)
    cov[2:4, 2:4] = old_polar_cov(first_bearing, prior.s_bar, prior.sigma_s, prior.sigma_c)
    cov[4:, 4:] = prior.sigma_psi**2
    return GaussianBelief(mean=mean, cov=cov)


def old_fuse(b1, b2, w):
    w1, w2 = w
    mean = w1 * b1.mean + w2 * b2.mean
    d1 = b1.mean - mean
    d2 = b2.mean - mean
    cov = w1 * (b1.cov + np.outer(d1, d1)) + w2 * (b2.cov + np.outer(d2, d2))
    return GaussianBelief(mean=mean, cov=old_symmetrize(cov))


def old_cv_transition(s, T):
    out = s.copy()
    out[..., 0] += T * s[..., 2]
    out[..., 1] += T * s[..., 3]
    return out


def assert_same_bits(got, want):
    # the raw bit patterns: signed zeros and NaN payloads must match too
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (got, want)


def outcome(fn, *args):
    """The update's fields as arrays, or the exception it raised."""
    with np.errstate(all="ignore"):
        try:
            out = fn(*args)
        except (FilterNumericsError, sensing.ZeroRangeError, ZeroDivisionError) as exc:
            return repr(exc)
    return (out.posterior.mean, out.posterior.cov,
            [out.pred_meas, out.innov_cov, out.log_likelihood])


def assert_same_outcome(got, want):
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want
        return
    for g, w in zip(got, want):
        assert_same_bits(g, w)


@st.composite
def beliefs(draw, n):
    """A PSD belief: mean in a 40-km box, covariance A A^T + jitter I."""
    mean = draw(st.lists(st.floats(-20.0, 20.0), min_size=n, max_size=n))
    A = draw(st.lists(st.floats(-3.0, 3.0), min_size=n * n, max_size=n * n))
    jitter = draw(st.sampled_from([0.0, 1e-9]) | st.floats(1e-6, 1.0))
    A = np.reshape(A, (n, n))
    return GaussianBelief(np.array(mean), A @ A.T + jitter * np.eye(n))


bearings = st.floats(-math.pi, math.pi)
noise_stds = st.sampled_from([0.0, 1e-3, 0.0175]) | st.floats(1e-4, 0.5)


def belief_from_seed(seed, n):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    return GaussianBelief(10.0 * rng.normal(size=n), A @ A.T + 0.1 * np.eye(n))


class TestMeasurementUpdate:
    @pytest.mark.parametrize("n", [4, 5])
    @given(data=st.data(), y=bearings, noise_std=noise_stds)
    @settings(max_examples=150, deadline=None)
    def test_srf_update(self, n, data, y, noise_std):
        b = data.draw(beliefs(n))
        assert_same_outcome(outcome(gaussfilt.srf_update, b, y, noise_std),
                            outcome(old_srf_update, b, y, noise_std))

    @pytest.mark.parametrize("kind", [EKF, UKF, CKF, GHF])
    @pytest.mark.parametrize("n", [4, 5])
    @given(data=st.data(), y=bearings, noise_std=noise_stds)
    @settings(max_examples=60, deadline=None)
    def test_update(self, kind, n, data, y, noise_std):
        b = data.draw(beliefs(n))
        assert_same_outcome(outcome(gaussfilt.update, b, y, noise_std, kind),
                            outcome(old_update, b, y, noise_std, kind))

    @pytest.mark.parametrize("n", [4, 5])
    def test_seeded_beliefs_all_kinds(self, n):
        # typical beliefs, none of which fails; the property tests above
        # also reach the failures
        for seed in range(40):
            b = belief_from_seed(seed, n)
            y = float(np.random.default_rng(seed).uniform(-math.pi, math.pi))
            want = outcome(old_srf_update, b, y, 0.0175)
            assert not isinstance(want, str)
            assert_same_outcome(outcome(gaussfilt.srf_update, b, y, 0.0175), want)
            for kind in (EKF, UKF, CKF, GHF):
                assert_same_outcome(outcome(gaussfilt.update, b, y, 0.0175, kind),
                                    outcome(old_update, b, y, 0.0175, kind))


    @pytest.mark.parametrize("n", [4, 5])
    def test_srf_update_at_edge_bearings(self, n):
        # math.sin and math.cos raise on +/-inf where numpy gives NaN. A
        # non-finite bearing makes NaNs meet NaNs, whose sign and payload
        # the old expression's numpy loops and the rewrite pick differently
        for seed in range(5):
            b = belief_from_seed(seed, n)
            for y in EDGE_ANGLES + [5e-324, -5e-324]:
                want = outcome(old_srf_update, b, y, 0.0175)
                for got in (outcome(gaussfilt.srf_update, b, y, 0.0175),
                            outcome(gaussfilt.update, b, y, 0.0175, gaussfilt.SRF)):
                    if math.isfinite(y):
                        assert_same_outcome(got, want)
                        continue
                    assert type(got) is type(want) is tuple
                    for g, w in zip(got, want):
                        g, w = np.asarray(g, dtype=float), np.asarray(w, dtype=float)
                        nan = np.isnan(w)
                        assert np.isnan(g[nan]).all()
                        assert_same_bits(g[~nan], w[~nan])

    def test_srf_diagnostics_are_built_once_on_read(self, monkeypatch):
        b = belief_from_seed(3, 4)
        calls = []
        real = gaussfilt.srf_diagnostics
        monkeypatch.setattr(gaussfilt, "srf_diagnostics",
                            lambda *args: calls.append(args) or real(*args))
        out = gaussfilt.srf_update(b, 0.3, 0.0175)
        assert calls == []
        want = old_srf_update(b, 0.3, 0.0175)
        assert_same_bits([out.innov_cov, out.pred_meas, out.innov_cov],
                         [want.innov_cov, want.pred_meas, want.innov_cov])
        assert len(calls) == 1


all_floats = st.floats(allow_nan=True, allow_infinity=True)


class TestSinCos:
    @given(x=st.sampled_from(EDGE_ANGLES) | all_floats)
    @settings(max_examples=500, deadline=None)
    def test_matches_numpy(self, x):
        with np.errstate(invalid="ignore"):
            want = [np.sin(x), np.cos(x)]
            got = kinematics.sin_cos(x)
        assert all(type(v) is float for v in got)
        assert_same_bits(got, want)


class TestInitSide:
    @pytest.mark.parametrize("model_kind", [kinematics.CV, kinematics.CT])
    @given(y=st.sampled_from(EDGE_ANGLES) | st.floats(-math.pi, math.pi),
           draw=st.lists(st.floats(-4.0, 4.0), min_size=5, max_size=5),
           vel=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2))
    @settings(max_examples=150, deadline=None)
    def test_matches_old_expression(self, model_kind, y, draw, vel):
        prior = lrtma.InitPrior(2.0, 0.026, 0.06, 0.9, 5.0, 0.12, 0.06)
        obs = kinematics.ObserverState(0.1, -0.2, *vel, heading=0.0)
        model = kinematics.MotionModel(model_kind, 1.0, 1e-6, 1e-7)
        with np.errstate(invalid="ignore"):
            got = lrtma.init_side(y, prior, obs, model, draw)
            want = old_init_side(y, prior, obs, model, draw)
        assert_same_bits(got.mean, want.mean)
        assert_same_bits(got.cov, want.cov)


class TestSymmetrize:
    @given(n=st.sampled_from([2, 4, 5]), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_old_expression(self, n, data):
        P = np.reshape(data.draw(st.lists(all_floats, min_size=n * n, max_size=n * n)), (n, n))
        with np.errstate(all="ignore"):
            got, want = gaussfilt.symmetrize(P), old_symmetrize(P)
        assert_same_bits(got, want)


weights = st.sampled_from([0.0, 1.0, 0.5]) | st.floats(0.0, 1.0)


class TestFuse:
    @pytest.mark.parametrize("n", [4, 5])
    @given(data=st.data(), w1=weights, w2=weights)
    @settings(max_examples=150, deadline=None)
    def test_matches_old_expression(self, n, data, w1, w2):
        b1, b2 = data.draw(beliefs(n)), data.draw(beliefs(n))
        got, want = lrtma.fuse(b1, b2, (w1, w2)), old_fuse(b1, b2, (w1, w2))
        assert_same_bits(got.mean, want.mean)
        assert_same_bits(got.cov, want.cov)

    @pytest.mark.parametrize("w", [(1.0, 0.0), (0.0, 1.0), (0.5, 0.5), (0.0, 0.0)])
    def test_corner_weights(self, w):
        b1, b2 = belief_from_seed(1, 5), belief_from_seed(2, 5)
        got, want = lrtma.fuse(b1, b2, w), old_fuse(b1, b2, w)
        assert_same_bits(got.mean, want.mean)
        assert_same_bits(got.cov, want.cov)

    @pytest.mark.parametrize("n", [4, 5])
    @given(data=st.data(), log_odds=st.sampled_from([0.0, 1e3, -1e3])
           | st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=100, deadline=None)
    def test_bank_mixture_built_on_read(self, n, data, log_odds):
        b1, b2 = data.draw(beliefs(n)), data.draw(beliefs(n))
        bank = lrtma.FilterBankState(b1, b2, log_odds, 1)
        want = old_fuse(b1, b2, lrtma.side_weights(log_odds))
        assert_same_bits(bank.mean, want.mean)
        assert_same_bits(bank.fused.mean, want.mean)
        assert_same_bits(bank.fused.cov, want.cov)


def from_bits(bits):
    return float(np.uint64(bits).view(np.float64))


def nans_meet(s, T):
    """Per output element of ``cv_transition``: whether two NaNs meet in it.

    Position k is ``p + T * v``: T and v meet in the product, p and the
    product in the sum. A product NaN made from inf * 0 counts as well.
    """
    x, y, vx, vy = s.tolist()
    meet = [(math.isnan(T) and math.isnan(v)) or (math.isnan(p) and math.isnan(T * v))
            for p, v in ((x, vx), (y, vy))]
    return np.array(meet + [False, False])


def assert_same_bits_unless_nans_meet(got, want, meet):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert_same_bits(got[~meet], want[~meet])
    assert np.isnan(got[meet]).all() and np.isnan(want[meet]).all(), (got, want)


class TestCvTransition:
    @given(x=st.lists(all_floats, min_size=4, max_size=4),
           T=st.sampled_from([0.5, 1.0, 2.0]) | all_floats)
    # drawn when every payload was compared: y's NaN meets T's in y + T * vy
    @example(x=[6.97e16, from_bits(0x7FF8000000000001), 2.40e67, -1.46e-52], T=-math.nan)
    @example(x=[-0.0, 0.0, -0.0, 0.0], T=1.0)
    @settings(max_examples=300, deadline=None)
    def test_single_state_matches_one_row_batch(self, x, T):
        s = np.array(x)
        with np.errstate(all="ignore"):
            single = kinematics.cv_transition(s, T)
            batch = kinematics.cv_transition(s[None], T)[0]
            old = old_cv_transition(s, T)
        meet = nans_meet(s, T)
        assert_same_bits_unless_nans_meet(single, batch, meet)
        assert_same_bits_unless_nans_meet(single, old, meet)




class TestWrapAngle:
    def test_array_branch_on_edge_angles(self):
        a = np.array(EDGE_ANGLES)
        with np.errstate(all="ignore"):
            assert_same_bits(sensing.wrap_angle(a), old_wrap_angle(a))

    # an empty array has no max, and an array strictly inside (-pi, pi)
    # takes the early exit, which must still turn -0.0 into +0.0
    @given(angles=st.lists(st.sampled_from(EDGE_ANGLES) | st.floats(-math.pi, math.pi)
                           | st.floats(-50.0, 50.0) | all_floats, max_size=20))
    @example(angles=[])
    @example(angles=[-0.0, 0.0, float(np.nextafter(math.pi, 0.0)),
                     -float(np.nextafter(math.pi, 0.0))])
    @example(angles=[-0.0, math.pi])
    @example(angles=[0.5, math.nan])
    @settings(max_examples=300, deadline=None)
    def test_array_branch_matches_old_expression(self, angles):
        a = np.array(angles)
        with np.errstate(all="ignore"):
            got = sensing.wrap_angle(a)
            assert_same_bits(got, old_wrap_angle(a))
            assert_same_bits(sensing.wrap_angle(a.reshape(1, -1)), got[None])
            # the input is left alone
            assert_same_bits(a, np.array(angles))

    @given(a=st.sampled_from(EDGE_ANGLES) | all_floats)
    @example(a=-0.0)
    @settings(max_examples=300, deadline=None)
    def test_float_and_array_branches_agree(self, a):
        with np.errstate(all="ignore"):
            scalar = sensing.wrap_angle(a)
            zero_d = sensing.wrap_angle(np.array(a))
            assert isinstance(scalar, float) and isinstance(zero_d, float)
            assert_same_bits(scalar, sensing.wrap_angle(np.array([a]))[0])
            assert_same_bits(zero_d, old_wrap_angle(np.array(a)))

    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_gives_nan(self, a):
        # round() raises on these; the array branch has always given NaN
        with np.errstate(all="ignore"):
            assert math.isnan(sensing.wrap_angle(a))
            assert_same_bits(sensing.wrap_angle(a), old_wrap_angle(np.array([a]))[0])


def chol_outcome(fn, P):
    """The factor's bits, or the exception's class and message."""
    with np.errstate(all="ignore"):
        try:
            return fn(P)
        except (FilterNumericsError, np.linalg.LinAlgError) as exc:
            return repr(exc)


def assert_same_chol(P):
    got, want = chol_outcome(gaussfilt.chol_psd, P), chol_outcome(old_chol_psd, P)
    assert type(got) is type(want), (got, want)
    if isinstance(want, str):
        assert got == want
    else:
        assert_same_bits(got, want)
    return want


def edge_matrices(n):
    """Covariances at and past the edge of what a Cholesky factor takes."""
    rng = np.random.default_rng(n)
    A = rng.normal(size=(n, n))
    P = A @ A.T + 0.1 * np.eye(n)
    v = np.arange(1.0, n + 1.0)
    out = [
        -P, np.diag([1.0, -1.0] + [1.0] * (n - 2)), np.zeros((n, n)), -np.eye(n),
        np.outer(v, v), np.diag([1.0] * (n - 1) + [0.0]),
        np.diag([1e-300] * n), np.diag([1e300] * n), np.diag([5e-324] * n),
        A,  # not symmetric: the factor reads the lower triangle
    ]
    for value in (math.nan, math.inf, -math.inf):
        for i, j in ((0, 0), (1, 0), (0, 1), (n - 1, n - 1), (n - 1, 0)):
            M = P.copy()
            M[i, j] = value
            out.append(M)
        out.append(np.full((n, n), value))
    big = np.zeros((2 * n, 2 * n))
    big[::2, ::2] = P
    out += [big[::2, ::2], P.T, np.asfortranarray(P)]  # views and layouts
    return out


matrix_entries = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, 1e300, 5e-324]) | all_floats


class TestCholPsd:
    @pytest.mark.parametrize("n", [4, 5])
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_psd_matches_old_expression(self, n, data):
        assert_same_chol(data.draw(beliefs(n)).cov)

    @pytest.mark.parametrize("n", [4, 5])
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_any_matrix_matches_old_expression(self, n, data):
        P = data.draw(st.lists(matrix_entries, min_size=n * n, max_size=n * n))
        assert_same_chol(np.reshape(P, (n, n)))

    @pytest.mark.parametrize("n", [4, 5])
    def test_edge_matrices(self, n):
        outcomes = [assert_same_chol(P) for P in edge_matrices(n)]
        failed = [o for o in outcomes if isinstance(o, str)]
        assert failed and len(failed) < len(outcomes)
        # a singular PSD matrix that the jitter rescues
        assert not isinstance(outcomes[4], str)

    @pytest.mark.parametrize("P", [-np.eye(4), np.zeros((5, 5)), np.diag([1.0, 1.0, 1.0, -1e300]),
                                   np.diag([math.inf, 1.0, 1.0, -1.0])],
                             ids=["retry-fails", "zero", "negative-trace", "infinite-trace"])
    def test_failure_raises_without_a_warning(self, P):
        # called outside any np.errstate, as the filters call it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FilterNumericsError, match="not positive semidefinite"):
                gaussfilt.chol_psd(P)


CT_EDGE_RATES = [0.0, PSI_EPS, float(np.nextafter(PSI_EPS, 0.0)),
                 float(np.nextafter(PSI_EPS, 1.0)), 5e-324, 1e-9, 1e-7, 0.05, 1.0, 1e300,
                 math.inf, math.nan]
CT_EDGE_RATES = [float(s * p) for p in CT_EDGE_RATES for s in (1.0, -1.0)]


class TestCtCoeffs:
    @given(rates=st.lists(st.sampled_from(CT_EDGE_RATES) | st.floats(-0.1, 0.1) | all_floats,
                          max_size=12),
           T=st.sampled_from([0.5, 1.0, 2.0]))
    @example(rates=[], T=1.0)
    @example(rates=[0.05, -0.05, PSI_EPS, -PSI_EPS], T=1.0)
    @example(rates=[-0.0, 0.05], T=1.0)
    @example(rates=[math.nan, 0.05], T=1.0)
    @settings(max_examples=400, deadline=None)
    def test_array_branch_matches_old_expression(self, rates, T):
        psi = np.array(rates)
        with np.errstate(all="ignore"):
            got, want = kinematics._ct_coeffs(psi, T), old_ct_coeffs(psi, T)
        assert len(got) == len(want) == 4
        for g, w in zip(got, want):
            assert_same_bits(g, w)

