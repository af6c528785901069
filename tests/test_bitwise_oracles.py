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
common case. A run's synthesis draws its bearings as one block and runs
its truth on floats. Each ``old_*`` function below is the earlier
expression, verbatim; the tests require the same bits from both, signs
of zeros and NaN payloads included, or the same exception class and
message, and for the synthesis the same state of every generator. A
resolved point-filter bank in the CT case predicts both sides in one
``predict`` call and updates them one side at a time; the ``parent_*``
functions are the side-by-side step it replaced, verbatim but for the
moments and ``symmetrize``, written out as they were.
Two exceptions: where two NaNs meet in one operation of
``cv_transition``, IEEE 754 leaves the result's payload to the
implementation, and Python's float ops and numpy's loops pick
differently, so there the result need only be a NaN; and ``chol_psd``
fails on a NaN pivot that OpenBLAS factors into NaN.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from towedtma import gaussfilt, kinematics, lrtma, sensing, simkit
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
from towedtma.kinematics import CT, CV, KNOT
from towedtma.sensing import BearingPair

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


NOT_PSD = repr(FilterNumericsError("covariance is not positive semidefinite"))


def old_jitter_retry(P):
    """old_chol_psd after a failed first factorisation: its jittered retry,
    with a NaN factor counted as the failure it is on reference LAPACK."""
    n = P.shape[0]
    jitter = 1e-10 * np.trace(P) / n
    if not np.isfinite(jitter) or jitter <= 0:
        raise FilterNumericsError("covariance is not positive semidefinite")
    L = old_chol_psd(P + jitter * np.eye(n))
    if np.isnan(L).any():
        raise FilterNumericsError("covariance is not positive semidefinite")
    return L


def assert_same_chol(P):
    got, want = chol_outcome(gaussfilt.chol_psd, P), chol_outcome(old_chol_psd, P)
    if not isinstance(want, str) and np.isnan(want).any():
        # OpenBLAS factors a NaN pivot into NaN where reference LAPACK
        # fails; chol_psd fails on both, and so retries with its jitter.
        # Every NaN of such a factor reaches its last pivot, the one entry
        # chol_psd reads.
        assert math.isnan(want[-1, -1]), want
        want = chol_outcome(old_jitter_retry, P)
    assert type(got) is type(want), (got, want)
    if isinstance(want, str):
        assert got == want
    else:
        assert_same_bits(got, want)
    return want


def edge_positions(n):
    return ((0, 0), (1, 0), (0, 1), (n - 1, n - 1), (n - 1, 0))


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
        for i, j in edge_positions(n):
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

    def test_overflowing_pivot_takes_the_jittered_retry(self):
        # a subnormal pivot under a large entry overflows the factor into a
        # NaN last pivot; the trace makes the jitter large enough to factor
        P = np.zeros((5, 5))
        P[0, 0], P[1, 1], P[2, 2], P[3, 3] = 1.0, 5e-324, 1.0, 1e300
        P[3, 1] = 3.99583814440447e146
        with np.errstate(all="ignore"):
            assert math.isnan(old_chol_psd(P)[-1, -1])
        L = assert_same_chol(P)
        assert not isinstance(L, str) and np.isfinite(L).all()

    @pytest.mark.parametrize("n", [4, 5])
    def test_edge_matrices(self, n):
        outcomes = [assert_same_chol(P) for P in edge_matrices(n)]
        failed = [o for o in outcomes if isinstance(o, str)]
        assert failed and len(failed) < len(outcomes)
        # a singular PSD matrix that the jitter rescues
        assert not isinstance(outcomes[4], str)
        # a NaN in the lower triangle, which the factorisation reads, fails
        # on every LAPACK build (an all-NaN matrix too); one above it is
        # not read
        nan_outcomes = outcomes[10:16]
        failed_on_nan = [isinstance(o, str) and o == NOT_PSD for o in nan_outcomes]
        assert failed_on_nan == [i >= j for i, j in edge_positions(n)] + [True]

    @pytest.mark.parametrize("P", [-np.eye(4), np.zeros((5, 5)), np.diag([1.0, 1.0, 1.0, -1e300]),
                                   np.diag([math.inf, 1.0, 1.0, -1.0]),
                                   np.diag([math.nan, 1.0, 1.0, 1.0])],
                             ids=["retry-fails", "zero", "negative-trace", "infinite-trace",
                                  "nan-pivot"])
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



def old_measure(rel, heading, noise_std, rng, t=0):
    """Synthesize the mirrored bearing pair for a relative state.

    The first slot holds wrap(gamma + nu) with nu ~ N(0, noise_std^2); the
    second holds its exact mirror about the array axis, so the same noise
    draw enters both with opposite sign.
    """
    theta = sensing.true_bearing(rel)
    y1 = sensing.wrap_angle(theta + noise_std * rng.standard_normal())
    ghost = sensing.ghost_bearing(y1, heading)
    return BearingPair(y1=float(y1), y2=float(ghost), heading=float(heading), t=t)


def old_gen_target_track(cfg, rng=None):
    """Absolute target states, shape (horizon + 1, model dim).

    The nominal trajectory is deterministic; passing a generator adds the
    model's process noise on top, one standard-normal row per step.
    """
    model = cfg.motion_model()
    obs0 = np.zeros(2)
    th0 = np.deg2rad(cfg.initial_bearing_deg)
    pos0 = obs0 + cfg.initial_range_km * np.array([np.sin(th0), np.cos(th0)])
    vel0 = kinematics.vel_from_course(
        cfg.target_speed_kn * KNOT, np.deg2rad(cfg.target_course0_deg)
    )
    n = model.dim
    track = np.zeros((cfg.horizon + 1, n))
    track[0, 0:2] = pos0
    track[0, 2:4] = vel0
    track[0, 4:] = cfg.true_turn_rate

    Lq = None if rng is None else kinematics.process_noise_root(model)
    if Lq is None:
        for k in range(cfg.horizon):
            track[k + 1] = kinematics.transition(model, track[k])
        return track
    # one block is the same stream as one draw per step, and the stacked
    # matmul gives each row the bits of Lq @ noise[k] (noise @ Lq.T does not)
    noise = rng.standard_normal((cfg.horizon, n))
    incr = np.matmul(Lq, noise[..., None])[..., 0]
    for k in range(cfg.horizon):
        np.add(kinematics.transition(model, track[k]), incr[k], out=track[k + 1])
    return track


def old_synthesize_run(cfg, seed):
    """One run's inputs from four child streams of ``seed``: the truth's
    process noise, the bearing noise, the slot swap and the polar draw."""
    # derive the child streams statelessly: SeedSequence.spawn would mutate
    # the caller's object and break same-seed reproducibility
    children = [
        np.random.SeedSequence(entropy=seed.entropy, spawn_key=tuple(seed.spawn_key) + (j,))
        for j in range(4)
    ]
    rng_proc, rng_meas, rng_misc, rng_init = (np.random.default_rng(c) for c in children)

    observers = simkit.gen_observer_track(cfg)
    target = old_gen_target_track(cfg, rng_proc)
    rel_all = simkit.relative_truth(target, observers)

    sigma = cfg.sigma_theta_rad
    pairs = [
        old_measure(rel_all[k], observers[k].heading, sigma, rng_meas, t=k)
        for k in range(1, cfg.horizon + 1)
    ]
    true_slot = 2 if rng_misc.random() < 0.5 else 1
    if true_slot == 2:
        pairs = [BearingPair(y1=p.y2, y2=p.y1, heading=p.heading, t=p.t) for p in pairs]

    # One polar draw per run, which init_bank applies to both sides as
    # mirror images. A shared draw keeps the two hypotheses perfectly
    # matched until the geometry separates them, and keeps known-side runs
    # paired with the bank's true side.
    return simkit.RunInputs(observers, target, rel_all[1:], pairs, true_slot,
                            rng_init.standard_normal(5))


def pair_bits(pairs):
    return np.array([(p.y1, p.y2, p.heading) for p in pairs]), [p.t for p in pairs]


def assert_same_pairs(got, want):
    assert all(type(p) is BearingPair for p in got)
    (g, gt), (w, wt) = pair_bits(got), pair_bits(want)
    assert_same_bits(g, w)
    assert gt == wt


def synthesize_recording_streams(fn, cfg, seed):
    """``fn(cfg, seed)`` and the generators it made, in the order it made them."""
    made = []
    default_rng = np.random.default_rng

    def recording(*args):
        made.append(default_rng(*args))
        return made[-1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(np.random, "default_rng", recording)
        return fn(cfg, seed), made


def outcome_of(fn, *args):
    """``fn(*args)``, or the exception it raised as its class and message."""
    try:
        return fn(*args)
    except sensing.ZeroRangeError as exc:
        return repr(exc)


# the bearings of this geometry cross +/-pi: the target starts south of the
# ownship and passes behind it heading west
CROSSING = dict(initial_bearing_deg=172.0, target_course0_deg=-90.0, initial_range_km=3.0)


@st.composite
def synthesis_configs(draw):
    horizon = draw(st.integers(2, 40))
    T = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    sigma = draw(st.sampled_from([0.0, 1.5]) | st.floats(0.0, 20.0))
    noise = draw(st.sampled_from(["default", "zero", "strong"]))
    q = {"default": {}, "zero": dict(q1=0.0, q2=0.0), "strong": dict(q1=1e-3, q2=1e-4)}[noise]
    geometry = draw(st.sampled_from([{}, CROSSING]) | st.builds(
        lambda b, c: dict(initial_bearing_deg=b, target_course0_deg=c),
        st.floats(-360.0, 360.0), st.floats(-360.0, 360.0)))
    return simkit.ScenarioConfig(
        model_kind=draw(st.sampled_from([CV, CT])), T=T, horizon=horizon,
        maneuver_start_min=0.3 * horizon * T, maneuver_end_min=0.6 * horizon * T,
        sigma_theta_meas_deg=sigma, **q, **geometry)


class TestSynthesis:
    @given(cfg=synthesis_configs(), master=st.integers(0, 2**64 - 1), index=st.integers(0, 10**6))
    @example(cfg=simkit.ScenarioConfig(), master=0, index=0)
    @example(cfg=simkit.ScenarioConfig(model_kind=CT), master=0, index=3)
    @example(cfg=simkit.ScenarioConfig(sigma_theta_meas_deg=0.0, q1=0.0, q2=0.0), master=5, index=1)
    @example(cfg=simkit.ScenarioConfig(sigma_theta_meas_deg=0.5, **CROSSING), master=1, index=2)
    @settings(max_examples=200, deadline=None)
    def test_run_inputs_match_old_synthesis(self, cfg, master, index):
        seed = simkit.run_seed(master, index)
        got, got_rngs = synthesize_recording_streams(simkit.synthesize_run, cfg, seed)
        want, want_rngs = synthesize_recording_streams(old_synthesize_run, cfg, seed)
        assert [f.name for f in dataclasses.fields(got)] == [
            "observers", "target_abs", "truth_rel", "measurements", "true_slot", "polar_draw"]
        assert type(got.observers) is list and got.observers == want.observers
        assert_same_bits([dataclasses.astuple(o) for o in got.observers],
                         [dataclasses.astuple(o) for o in want.observers])
        for name in ("target_abs", "truth_rel", "polar_draw"):
            assert_same_bits(getattr(got, name), getattr(want, name))
        assert_same_pairs(got.measurements, want.measurements)
        assert got.true_slot == want.true_slot
        # each child stream is left where the old synthesis left it
        assert len(got_rngs) == len(want_rngs) == 4
        for g, w in zip(got_rngs, want_rngs):
            assert g.bit_generator.state == w.bit_generator.state

    def test_crossing_geometry_crosses_pi(self):
        inputs = simkit.synthesize_run(
            simkit.ScenarioConfig(sigma_theta_meas_deg=0.0, q1=0.0, q2=0.0, **CROSSING),
            simkit.run_seed(0, 0))
        bearings = [p.y1 if inputs.true_slot == 1 else p.y2 for p in inputs.measurements]
        assert max(bearings) > 3.0 and min(bearings) < -3.0

    @given(x=st.sampled_from([0.0, -0.0, 3.0, -3.0, 1e-300, 5e-324, 1e300]) | all_floats,
           y=st.sampled_from([0.0, -0.0, 4.0, -4.0, -1e-300, 1e300]) | all_floats,
           heading=st.sampled_from([0.0, math.pi, -3.0, 3.1]) | st.floats(-math.pi, math.pi),
           sigma=st.sampled_from([0.0, 0.02]) | st.floats(0.0, 10.0),
           seed=st.integers(0, 2**32 - 1), t=st.integers(0, 100))
    # -0.0 east of the array at sigma 0: the wrap must give +0.0
    @example(x=-0.0, y=4.0, heading=0.0, sigma=0.0, seed=0, t=1)
    @example(x=-0.0, y=-4.0, heading=math.pi, sigma=0.0, seed=1, t=1)
    @settings(max_examples=400, deadline=None)
    def test_single_state_matches_old_scalar_path(self, x, y, heading, sigma, seed, t):
        rel = np.array([x, y, 0.1, -0.2])
        rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
        with np.errstate(all="ignore"):
            got, want = outcome_of(sensing.measure, rel, heading, sigma, rng_new, t), \
                outcome_of(old_measure, rel, heading, sigma, rng_old, t)
        if isinstance(want, str):
            assert got == want
            return
        assert_same_pairs([got], [want])
        assert rng_new.bit_generator.state == rng_old.bit_generator.state

    @given(rows=st.lists(st.tuples(st.floats(-20.0, 20.0) | st.sampled_from([0.0, -0.0]),
                                   st.floats(-20.0, 20.0) | st.sampled_from([-0.0, -1.0]),
                                   st.floats(-math.pi, math.pi)), min_size=1, max_size=40),
           sigma=st.sampled_from([0.0, 0.02]) | st.floats(0.0, 10.0),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_block_is_the_stream_of_single_states(self, rows, sigma, seed):
        rel = np.array([(x, y, 0.0, 0.0) for x, y, _ in rows])
        headings = np.array([h for _, _, h in rows])
        rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
        try:
            y1, y2 = sensing.measure(rel, headings, sigma, rng_new)
        except sensing.ZeroRangeError:
            assert any(x == 0.0 and y == 0.0 for x, y, _ in rows)
            return
        want = [old_measure(r, h, sigma, rng_old) for r, h in zip(rel, headings.tolist())]
        assert_same_bits(y1, [p.y1 for p in want])
        assert_same_bits(y2, [p.y2 for p in want])
        assert rng_new.bit_generator.state == rng_old.bit_generator.state


def parent_moments(points, weights):
    """Weighted mean and covariance of the points."""
    mean = weights @ points
    d = points - mean
    return mean, (weights[:, None] * d).T @ d


def parent_symmetrize(P):
    S = P + P.T
    S /= 2.0
    return S


def parent_predict(belief, model, u, kind):
    """Time update through the motion model, minus the observer input.

    The input ``u`` is required: an array of the model's dimension, zeros
    for an observer that moves by the model's own dynamics. The EKF
    propagates the mean through the transition and the covariance through
    the process Jacobian. Sample-point filters propagate their point set,
    rebuild the first two moments, and subtract the input from the
    reconstructed mean. The SRF uses the exact linear propagation for a
    linear model and cubature points otherwise.
    """
    if kind not in gaussfilt.FILTER_KINDS:
        raise ValueError(f"unknown filter kind {kind!r}")
    n = belief.dim
    if n != model.dim:
        raise ValueError(f"belief dim {n} does not match model dim {model.dim}")
    Q = kinematics.process_noise_cov(model)

    if kind == EKF or (kind == gaussfilt.SRF and model.linear):
        F = kinematics.process_jacobian(model, belief.mean)
        mean = kinematics.transition(model, belief.mean) - u
        cov = F @ belief.cov @ F.T + Q
    else:
        ps = points_for(kind, belief)
        mean, cov = parent_moments(kinematics.transition(model, ps.points), ps.weights)
        mean = mean - u
        cov = cov + Q
    return GaussianBelief(mean=mean, cov=parent_symmetrize(cov))


def parent_update(belief, y, noise_std, kind, meas=BEARING):
    """Measurement update of any filter kind."""
    if kind == gaussfilt.SRF:
        if meas is not BEARING:
            raise ValueError("the shifted Rayleigh filter updates bearings only")
        return gaussfilt.srf_update(belief, y, noise_std)
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
            g = ref + sensing.wrap_angle(g - ref)
        yhat = float(ps.weights @ g)
        dy = g - yhat
        dx = ps.points - m
        Pyy = float(ps.weights @ (dy * dy)) + R
        Pxy = (ps.weights * dy) @ dx

    if Pyy <= 0 or not math.isfinite(Pyy):
        raise FilterNumericsError(f"innovation covariance {Pyy} is not positive")
    innov = sensing.wrap_angle(y - yhat) if meas.angular else y - yhat
    K = Pxy / Pyy
    mean = m + K * innov
    cov = parent_symmetrize(P - Pyy * (K[:, None] * K))
    return UpdateOutcome(
        posterior=GaussianBelief(mean=mean, cov=cov),
        pred_meas=yhat,
        innov_cov=Pyy,
        log_likelihood=normal_log_pdf(innov, Pyy),
    )


def parent_side_step(belief, y, obs_prev, obs_now, model, filter_kind, noise_std):
    """One recursion of a single side filter: observer input, predict, update."""
    u = kinematics.observer_input(obs_prev, obs_now, model, belief.mean)
    prior = parent_predict(belief, model, u, filter_kind)
    out = parent_update(prior, y, noise_std, filter_kind)
    if not all(map(math.isfinite, out.posterior.mean.tolist())):
        raise gaussfilt.FilterNumericsError("non-finite estimate")
    return out


def parent_step(bank, meas, obs_prev, obs_now, model, filter_kind, noise_std):
    """One recursion of the bank: side_step on each side, weight, fused mean."""
    args = (obs_prev, obs_now, model, filter_kind, noise_std)
    if math.isinf(bank.log_odds):
        live, y = (bank.belief1, meas.y1) if bank.log_odds > 0 else (bank.belief2, meas.y2)
        post = parent_side_step(live, y, *args).posterior
        return lrtma.FilterBankState(post, post, bank.log_odds, bank.t + 1)
    out1 = parent_side_step(bank.belief1, meas.y1, *args)
    out2 = parent_side_step(bank.belief2, meas.y2, *args)
    log_odds = lrtma.update_log_odds(bank.log_odds, out1.log_likelihood, out2.log_likelihood)
    return lrtma.FilterBankState(out1.posterior, out2.posterior, log_odds, bank.t + 1)


def failure_or(fn, *args):
    """``fn(*args)``, or the exception it raised as "Class: message", as a run records it."""
    with np.errstate(all="ignore"):
        try:
            return fn(*args)
        except Exception as exc:
            return f"{type(exc).__name__}: {exc}"


def bank_bits(bank):
    return [bank.belief1.mean, bank.belief1.cov, bank.belief2.mean, bank.belief2.cov,
            [bank.log_odds], bank.mean]


def outcome_bits(out):
    return [out.posterior.mean, out.posterior.cov,
            [out.pred_meas, out.innov_cov, out.log_likelihood]]


def check_stacked_step(kind, model, b1, b2, log_odds, pair, obs_prev, obs_now, noise_std):
    """The resolved bank step against the parent's, bit for bit or failure for
    failure; where the parent succeeds, the stacked step itself must too."""
    bank = lrtma.FilterBankState(b1, b2, log_odds, 3)
    args = (pair, obs_prev, obs_now, model, kind, noise_std)
    want = failure_or(parent_step, bank, *args)
    got = failure_or(lrtma.step, bank, *args)
    assert type(got) is not str or type(want) is str, got
    if isinstance(want, str):
        assert got == want
        return want
    for g, w in zip(bank_bits(got), bank_bits(want)):
        assert_same_bits(g, w)
    # the stacked step, not its side-by-side redo, gave those bits
    outs = failure_or(lrtma._stacked_sides, bank, *args)
    assert not isinstance(outs, str), outs
    for out, b, y in zip(outs, (b1, b2), (pair.y1, pair.y2)):
        side = parent_side_step(b, y, obs_prev, obs_now, model, kind, noise_std)
        for g, w in zip(outcome_bits(out), outcome_bits(side)):
            assert_same_bits(g, w)
    return got


# the kinds whose bank steps take the shared prediction in the CT case; the
# SRF moves points (cubature) in the CT case only
STACKING = [UKF, CKF, GHF, gaussfilt.SRF]
POINT_MODELS = {kind: [CV, CT] for kind in STACKING} | {gaussfilt.SRF: [CT]}
KIND_MODELS = [(kind, m) for kind in STACKING for m in POINT_MODELS[kind]]
MODELS = {CV: kinematics.MotionModel(CV, 1.0, 1.944e-6),
          CT: kinematics.MotionModel(CT, 1.0, 1.944e-6, 3.78e-7)}
STEADY = kinematics.ObserverState(0.0, 0.0, 0.1, 0.05, 0.3)
STEADY_NEXT = kinematics.ObserverState(0.1, 0.05, 0.1, 0.05, 0.3)


@st.composite
def bank_cases(draw):
    kind = draw(st.sampled_from(STACKING))
    model_kind = draw(st.sampled_from(POINT_MODELS[kind]))
    model = kinematics.MotionModel(
        model_kind, draw(st.sampled_from([0.5, 1.0, 2.0])),
        draw(st.sampled_from([0.0, 1.944e-6, 1e-3])), draw(st.sampled_from([0.0, 3.78e-7])))
    n = model.dim
    scale = draw(st.sampled_from([1e-4, 1e-2, 1.0]))
    b1, b2 = draw(beliefs(n)), draw(beliefs(n))
    b1, b2 = (GaussianBelief(b.mean, scale * b.cov) for b in (b1, b2))
    obs = [kinematics.ObserverState(*draw(st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2)),
                                    *draw(st.lists(st.floats(-0.3, 0.3), min_size=2, max_size=2)),
                                    draw(bearings)) for _ in range(2)]
    pair = BearingPair(draw(bearings), draw(bearings), draw(bearings), 4)
    return (kind, model, b1, b2,
            draw(st.floats(-50.0, 50.0)), pair, obs[0], obs[1], draw(noise_stds))


class TestStackedBankStep:
    """A resolved UKF/CKF/GHF/SRF bank step against two calls of the parent's
    per-side step, kept verbatim above. ``lrtma.step`` stacks CT banks only;
    the stacked step itself (``_stacked_sides``) is checked for the point
    filters in CV too."""

    @given(case=bank_cases())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_side_by_side_step(self, case):
        check_stacked_step(*case)

    @pytest.mark.parametrize("kind, model_kind", KIND_MODELS)
    def test_seeded_runs(self, kind, model_kind):
        # every step of two resolved runs of the benchmark scenario
        cfg = simkit.ScenarioConfig(filter_kind=kind, model_kind=model_kind)
        model = cfg.motion_model()
        for i in range(2):
            inputs = simkit.synthesize_run(cfg, simkit.run_seed(cfg.seed, i))
            rec = simkit.track_run(inputs, cfg, 0.0)
            assert rec.failure is None
            obs = inputs.observers
            for k in range(2, cfg.horizon + 1):
                bank = rec.estimates[k - 2]
                got = check_stacked_step(kind, model, bank.belief1, bank.belief2, bank.log_odds,
                                         inputs.measurements[k - 1], obs[k - 1], obs[k],
                                         cfg.sigma_theta_rad)
                for g, w in zip(bank_bits(got), bank_bits(rec.estimates[k - 1])):
                    assert_same_bits(g, w)

    @pytest.mark.parametrize("kind", STACKING)
    @pytest.mark.parametrize("small_side", [0, 1])
    def test_one_side_near_zero_turn_rate(self, kind, small_side):
        # one side's points all turn slower than PSI_EPS, the other's none:
        # the one transition of both takes _ct_coeffs' np.where path
        model = MODELS[CT]
        small = GaussianBelief(np.array([3.0, 4.0, 0.1, -0.05, 0.0]),
                               np.diag([0.04, 0.04, 1e-4, 1e-4, 1e-22]))
        turning = GaussianBelief(np.array([-3.0, 4.0, -0.1, -0.05, 0.05]),
                                 np.diag([0.04, 0.04, 1e-4, 1e-4, 1e-6]))
        b = (small, turning) if small_side == 0 else (turning, small)
        rates = [np.abs(points_for(kind, side).points[:, 4]).min() for side in b]
        assert rates[small_side] < PSI_EPS <= rates[1 - small_side]
        pair = BearingPair(0.6, -0.7, 0.3, 4)
        got = check_stacked_step(kind, model, *b, 0.2, pair, STEADY, STEADY_NEXT, 0.02)
        assert not isinstance(got, str)

    # the SRF's update takes no point set
    @pytest.mark.parametrize("kind", [UKF, CKF, GHF])
    @pytest.mark.parametrize("model_kind", [CV, CT])
    @pytest.mark.parametrize("wrapped_side", [0, 1])
    def test_one_side_residual_past_pi(self, kind, model_kind, wrapped_side):
        # one side sits just east of due south of the array, so its update's
        # point bearings straddle +/-pi and wrap_angle takes its full path;
        # the other side's residuals all lie inside (-pi, pi)
        model = MODELS[model_kind]
        n = model.dim
        behind = GaussianBelief(np.array([0.05, -1.0] + [0.0] * (n - 2)),
                                np.diag([0.3, 0.01] + [1e-4] * (n - 2)))
        ahead = GaussianBelief(np.array([3.0, 4.0] + [0.0] * (n - 2)),
                               np.diag([0.04, 0.04] + [1e-4] * (n - 2)))
        b = (behind, ahead) if wrapped_side == 0 else (ahead, behind)
        spans = []
        for side in b:
            u = kinematics.observer_input(STEADY, STEADY_NEXT, model, side.mean)
            prior = parent_predict(side, model, u, kind)
            g = BEARING.fn(points_for(kind, prior).points)
            spans.append(np.abs(g - float(BEARING.fn(prior.mean))).max())
        assert spans[wrapped_side] >= math.pi > spans[1 - wrapped_side]
        pair = BearingPair(3.1, -0.7, 0.3, 4)
        got = check_stacked_step(kind, model, *b, -0.4, pair, STEADY, STEADY_NEXT, 0.02)
        assert not isinstance(got, str)

    @pytest.mark.parametrize("kind", STACKING)
    @pytest.mark.parametrize("y1, noise_std, side1_failure", [
        (0.6, math.inf, "FilterNumericsError: innovation covariance inf is not positive"),
        (math.nan, 0.02, "FilterNumericsError: non-finite estimate"),
    ])
    def test_failure_order(self, kind, y1, noise_std, side1_failure):
        if kind == gaussfilt.SRF and math.isinf(noise_std):
            side1_failure = "FilterNumericsError: SRF planar covariance is not positive definite"
        # side 2 fails in its predict, side 1 in its update; the stacked
        # step meets side 2's failure first, the side-by-side step side 1's
        model = MODELS[CT]
        good = GaussianBelief(np.array([3.0, 4.0, 0.1, -0.05, 0.01]),
                              np.diag([0.04, 0.04, 1e-4, 1e-4, 1e-6]))
        not_psd = GaussianBelief(np.array([-3.0, 4.0, -0.1, -0.05, -0.01]), -np.eye(5))
        bank = lrtma.FilterBankState(good, not_psd, 0.0, 3)
        args = (BearingPair(y1, -0.7, 0.3, 4), STEADY, STEADY_NEXT, model, kind, noise_std)
        assert failure_or(lrtma._stacked_sides, bank, *args) == (
            "FilterNumericsError: covariance is not positive semidefinite")
        assert failure_or(parent_step, bank, *args) == side1_failure
        assert failure_or(lrtma.step, bank, *args) == side1_failure

    @pytest.mark.parametrize("kind", STACKING)
    @pytest.mark.parametrize("nan_side", [0, 1])
    def test_non_finite_estimate(self, kind, nan_side):
        # a NaN bearing leaves its side's posterior mean NaN, which the
        # stacked step must refuse as the side-by-side step does
        model = MODELS[CT]
        b1 = GaussianBelief(np.array([3.0, 4.0, 0.1, -0.05, 0.01]),
                            np.diag([0.04, 0.04, 1e-4, 1e-4, 1e-6]))
        b2 = GaussianBelief(np.array([-3.0, 4.0, -0.1, -0.05, -0.01]),
                            np.diag([0.04, 0.04, 1e-4, 1e-4, 1e-6]))
        y = [0.6, -0.7]
        y[nan_side] = math.nan
        pair = BearingPair(*y, 0.3, 4)
        got = check_stacked_step(kind, model, b1, b2, 0.0, pair, STEADY, STEADY_NEXT, 0.02)
        assert got == "FilterNumericsError: non-finite estimate"
        bank = lrtma.FilterBankState(b1, b2, 0.0, 3)
        assert failure_or(lrtma._stacked_sides, bank, pair, STEADY, STEADY_NEXT, model, kind,
                          0.02) == got

    def test_ukf_ct_non_psd_run_keeps_its_message(self):
        # the one UKF/CT run known to fail (ROADMAP, CHANGES.md): the same
        # step fails with the same message, every earlier estimate the same
        cfg = simkit.ScenarioConfig(filter_kind=UKF, model_kind=CT, n_runs=2, seed=381765687)
        inputs = simkit.synthesize_run(cfg, simkit.run_seed(cfg.seed, 0))
        got = simkit.track_run(inputs, cfg, 0.0)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(lrtma, "step", parent_step)
            want = simkit.track_run(inputs, cfg, 0.0)
        assert got.failure == want.failure == (
            "FilterNumericsError: covariance is not positive semidefinite")
        assert len(got.estimates) == len(want.estimates)
        for g, w in zip(got.estimates, want.estimates):
            for a, b in zip(bank_bits(g), bank_bits(w)):
                assert_same_bits(a, b)
