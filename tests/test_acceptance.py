"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavy Monte Carlo fixtures (500-run Case I, 5000-run track-loss table)
are computed once per session and shared; the criteria that use them are
marked ``slow``. Run with ``pytest -s tests/test_acceptance.py`` to see
the per-criterion lines as they land.
"""

import time

import numpy as np
import pytest

import towedtma as tt
from towedtma import evalkit, gaussfilt, kinematics, lrtma, sensing, simkit
from towedtma.gaussfilt import CKF, EKF, GHF, SRF, UKF, GaussianBelief
from towedtma.kinematics import CV, MotionModel
from towedtma.sensing import wrap_angle

from mirror_scenario import mirrored_banks, reflects_exactly

WORKERS = 2
Z99 = 2.576  # two-sided 99% normal quantile

# Track loss percentages reported for 50,000-run cells (resolved mode and
# the known-side baseline), keyed by (filter, case).
PUBLISHED_TRACK_LOSS = {
    ("ekf", "cv"): 5.68,
    ("ckf", "cv"): 2.21,
    ("ukf", "cv"): 1.42,
    ("ghf", "cv"): 1.23,
    ("srf", "cv"): 0.22,
    ("ekf", "ct"): 12.35,
    ("ckf", "ct"): 7.17,
    ("ukf", "ct"): 5.90,
    ("ghf", "ct"): 4.49,
    ("srf", "ct"): 5.57,
}

FILTERS = (EKF, CKF, UKF, GHF, SRF)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# shared Monte Carlo fixtures


@pytest.fixture(scope="module")
def case1_500():
    """500-run resolved-mode Case I summaries for every filter."""
    out = {}
    for kind in FILTERS:
        cfg = tt.ScenarioConfig(filter_kind=kind, model_kind="cv", n_runs=500)
        t0 = time.perf_counter()
        out[kind] = simkit.run_monte_carlo(cfg, mode="resolved", workers=WORKERS)
        out[kind, "elapsed"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def table_5000():
    """5000-run summaries for all (filter, case, mode) benchmark cells."""
    cells = {}
    for case in ("cv", "ct"):
        for kind in FILTERS:
            cfg = tt.ScenarioConfig(filter_kind=kind, model_kind=case, n_runs=5000)
            for mode in (simkit.RESOLVED, simkit.KNOWN_SIDE):
                cells[kind, case, mode] = simkit.run_monte_carlo(
                    cfg, mode=mode, workers=WORKERS
                )
    return cells


# ---------------------------------------------------------------------------
# criterion 1: Kalman equivalence on a linear-Gaussian system


def test_ac1_kalman_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    model = MotionModel(kind=CV, T=1.0, q1=1e-4)
    F = kinematics.cv_mat(1.0)
    Q = kinematics.process_noise_cov(model)
    H = np.eye(4)[0]
    r = 0.1
    meas = gaussfilt.MeasurementModel(
        fn=lambda x: x[..., 0], jac=lambda x: np.eye(len(x))[0], angular=False
    )

    x0 = np.array([1.0, 2.0, 0.05, -0.03])
    P0 = np.diag([1.0, 1.0, 0.01, 0.01])
    beliefs = {k: GaussianBelief(x0.copy(), P0.copy()) for k in (EKF, UKF, CKF, GHF)}
    km, kP = x0.copy(), P0.copy()
    truth = x0.copy()
    worst = 0.0
    for _ in range(50):
        truth = F @ truth
        y = truth[0] + rng.normal() * r
        km = F @ km
        kP = F @ kP @ F.T + Q
        S = float(H @ kP @ H) + r**2
        K = kP @ H / S
        km = km + K * (y - km[0])
        kP = kP - S * np.outer(K, K)
        for kind in beliefs:
            prior = gaussfilt.predict(beliefs[kind], model, None, kind)
            beliefs[kind] = gaussfilt.update(prior, y, r, kind, meas=meas).posterior
            worst = max(worst, float(np.max(np.abs(beliefs[kind].mean - km))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 1.0
    _report(
        "AC1 kalman-equivalence",
        ok,
        f"max |mean - kalman| = {worst:.2e} (tol 1e-8), {elapsed:.2f}s (limit 1s)",
    )
    assert worst < 1e-8
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# criterion 2: weight recursion and fusion properties, 10^4 random instances


def test_ac2_weight_recursion_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    n_instances = 10_000
    # the bank's recursion on linear weights and likelihoods; log 0 = -inf
    with np.errstate(divide="ignore"):
        absorbed = np.log(1.0) - np.log(0.0)  # the log-odds of weights (1, 0)
    for _ in range(n_instances):
        w1 = rng.uniform()
        p1, p2 = rng.uniform(0, 1e3, size=2)
        with np.errstate(divide="ignore"):
            lw1, lw2, lp1, lp2 = np.log([w1, 1.0 - w1, p1, p2])
        u1, u2 = lrtma.side_weights(lrtma.update_log_odds(lw1 - lw2, lp1, lp2))
        assert 0.0 <= u1 <= 1.0 and 0.0 <= u2 <= 1.0
        assert abs(u1 + u2 - 1.0) < 1e-12

        a1, a2 = lrtma.side_weights(lrtma.update_log_odds(absorbed, lp1, lp2))
        assert (a1, a2) == (1.0, 0.0)

        n = 4
        A = rng.normal(size=(n, n))
        P = A @ A.T + n * np.eye(n)
        m1 = rng.normal(size=n)
        m2 = rng.normal(size=n)
        b1 = GaussianBelief(m1, P)
        b2 = GaussianBelief(m2, P.copy())
        collapsed = lrtma.fuse(b1, b2, (1.0, 0.0))
        assert np.array_equal(collapsed.mean, m1)
        assert np.allclose(collapsed.cov, P, atol=1e-14)

        d = rng.uniform(0.1, 3.0)
        e1 = np.zeros(n)
        e1[0] = 1.0
        s1 = GaussianBelief(d * e1, P)
        s2 = GaussianBelief(-d * e1, P.copy())
        fused = lrtma.fuse(s1, s2, (0.5, 0.5))
        assert np.allclose(fused.mean, 0.0, atol=1e-15)
        assert np.allclose(fused.cov, P + d * d * np.outer(e1, e1), atol=1e-10)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    _report(
        "AC2 weight-recursion",
        ok,
        f"{n_instances} randomized instances in {elapsed:.1f}s (limit 10s)",
    )
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# criterion 3: ambiguity resolution on Case I


@pytest.mark.slow
def test_ac3_ambiguity_resolution(case1_500):
    sums = case1_500[UKF]
    elapsed = case1_500[UKF, "elapsed"]
    kept = [s for s in sums if not s.diverged]
    frac = float(np.mean([s.terminal_max_weight >= 0.99 for s in kept]))
    ok = frac > 0.95 and elapsed < 300.0
    _report(
        "AC3 ambiguity-resolution",
        ok,
        f"decided fraction {100 * frac:.1f}% of {len(kept)} non-diverged runs "
        f"(need >95%), UKF cell in {elapsed:.0f}s (target <300s)",
    )
    assert frac > 0.95
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# criterion 4: terminal RMSE and bias norm, Case I, all filters


@pytest.mark.slow
def test_ac4_terminal_rmse_and_bias(case1_500):
    lines = []
    ok = True
    for kind in FILTERS:
        sums = case1_500[kind]
        r = evalkit.rmse(sums, "position").values
        b = evalkit.bias_norm(sums, "position").values
        in_band = 0.1 <= r[-1] <= 0.3
        bias_below = b[-1] <= r[-1]
        decaying = b[-1] <= b[-10]
        ok = ok and in_band and bias_below and decaying
        lines.append(f"{kind}: rmse={r[-1]:.3f} bias={b[-1]:.3f} (b10={b[-10]:.3f})")
    _report("AC4 terminal-rmse", ok, "; ".join(lines))
    for kind in FILTERS:
        sums = case1_500[kind]
        r = evalkit.rmse(sums, "position").values
        b = evalkit.bias_norm(sums, "position").values
        assert 0.1 <= r[-1] <= 0.3, f"{kind} terminal RMSE {r[-1]:.3f} outside [0.1, 0.3]"
        assert b[-1] <= r[-1], f"{kind} bias {b[-1]:.3f} above RMSE {r[-1]:.3f}"
        assert b[-1] <= b[-10], f"{kind} bias not decaying over final 10 steps"


# ---------------------------------------------------------------------------
# criterion 5: track-loss reproduction at 5000 runs per cell


@pytest.mark.slow
def test_ac5_track_loss_reproduction(table_5000):
    hits = 0
    lines = []
    for (kind, case), target in PUBLISHED_TRACK_LOSS.items():
        sums = table_5000[kind, case, simkit.RESOLVED]
        loss = evalkit.track_loss_pct(sums, 1.0)
        p = target / 100.0
        hw = 100.0 * Z99 * np.sqrt(p * (1 - p) / 5000.0)
        inside = abs(loss - target) <= hw
        hits += inside
        lines.append(
            f"{kind}/{case}: {loss:.2f} vs {target:.2f}+-{hw:.2f} "
            f"{'ok' if inside else 'MISS'}"
        )
    ok = hits >= 8
    _report("AC5 track-loss-table", ok, f"{hits}/10 cells in 99% CI; " + "; ".join(lines))
    assert hits >= 8, f"only {hits}/10 cells inside the 99% binomial CI"


# ---------------------------------------------------------------------------
# criterion 6: resolved vs known-side equivalence


@pytest.mark.slow
def test_ac6_resolved_vs_known_side(table_5000):
    lines = []
    worst = 0.0
    for case in ("cv", "ct"):
        for kind in FILTERS:
            res = evalkit.track_loss_pct(table_5000[kind, case, simkit.RESOLVED], 1.0)
            kn = evalkit.track_loss_pct(table_5000[kind, case, simkit.KNOWN_SIDE], 1.0)
            diff = abs(res - kn)
            worst = max(worst, diff)
            lines.append(f"{kind}/{case}: {res:.2f} vs {kn:.2f}")
    ok = worst < 0.5
    _report(
        "AC6 resolved-vs-known-side",
        ok,
        f"max |difference| = {worst:.2f} pp (limit 0.5); " + "; ".join(lines),
    )
    assert worst < 0.5


# ---------------------------------------------------------------------------
# criterion 7: relative execution time


@pytest.mark.slow
def test_ac7_relative_execution_time(table_5000):
    ratio_lines = []
    ok_ratio = True
    for case in ("cv", "ct"):
        for kind in FILTERS:
            res = evalkit.mean_wall_time(table_5000[kind, case, simkit.RESOLVED])
            kn = evalkit.mean_wall_time(table_5000[kind, case, simkit.KNOWN_SIDE])
            ratio = res / kn
            ok_ratio = ok_ratio and 1.5 <= ratio <= 2.5
            ratio_lines.append(f"{kind}/{case}: {ratio:.2f}")

    # the quoted comparison is the Case I known-side column (21.86 vs 1)
    srf = evalkit.mean_wall_time(table_5000[SRF, "cv", simkit.KNOWN_SIDE])
    ekf = evalkit.mean_wall_time(table_5000[EKF, "cv", simkit.KNOWN_SIDE])
    ghf = evalkit.mean_wall_time(table_5000[GHF, "cv", simkit.KNOWN_SIDE])
    srf_over_ekf = srf / ekf
    ok = ok_ratio and srf_over_ekf >= 5.0
    _report(
        "AC7 relative-execution-time",
        ok,
        "resolved/known " + "; ".join(ratio_lines)
        + f"; case I known-side SRF/EKF {srf_over_ekf:.1f} (need >=5, "
        f"GHF/EKF {ghf / ekf:.1f} for reference)",
    )
    for case in ("cv", "ct"):
        for kind in FILTERS:
            res = evalkit.mean_wall_time(table_5000[kind, case, simkit.RESOLVED])
            kn = evalkit.mean_wall_time(table_5000[kind, case, simkit.KNOWN_SIDE])
            assert 1.5 <= res / kn <= 2.5, f"{kind}/{case} resolved/known-side {res/kn:.2f}"
    assert srf_over_ekf >= 5.0, f"SRF only {srf_over_ekf:.1f}x the EKF wall time"


# ---------------------------------------------------------------------------
# criterion 8: numerical hygiene


def test_ac8_numerical_hygiene():
    rng = np.random.default_rng(8)

    # bearing and process Jacobians vs central finite differences
    model = MotionModel(kind="ct", T=1.0, q1=1e-6, q2=1e-7)
    worst_rel = 0.0
    for _ in range(100):
        x = rng.normal(size=5)
        x[4] = rng.normal(scale=0.1)
        if np.hypot(x[0], x[1]) < 0.1:
            x[0] += 1.0
        J = kinematics.process_jacobian(model, x)
        for j in range(5):
            dx = np.zeros(5)
            dx[j] = 1e-6
            fd = (
                kinematics.ct_transition(x + dx, 1.0)
                - kinematics.ct_transition(x - dx, 1.0)
            ) / 2e-6
            rel = np.max(np.abs(J[:, j] - fd) / np.maximum(np.abs(J[:, j]), 1.0))
            worst_rel = max(worst_rel, float(rel))
        Jb = sensing.bearing_jacobian(x)
        for j in range(2):
            dx = np.zeros(5)
            dx[j] = 1e-7
            fd = wrap_angle(
                sensing.true_bearing(x + dx) - sensing.true_bearing(x - dx)
            ) / 2e-7
            rel = abs(Jb[j] - fd) / max(abs(Jb[j]), 1.0)
            worst_rel = max(worst_rel, float(rel))
    jac_ok = worst_rel < 1e-5

    # point-set moment matching
    worst_moment = 0.0
    for n in (4, 5):
        A = rng.normal(size=(n, n))
        b = GaussianBelief(rng.normal(size=n), A @ A.T + n * np.eye(n))
        for ps in (
            gaussfilt.points_for(gaussfilt.UKF, b),
            gaussfilt.points_for(gaussfilt.CKF, b),
            gaussfilt.points_for(gaussfilt.GHF, b),
        ):
            mean, cov = ps.moments()
            worst_moment = max(worst_moment, float(np.max(np.abs(mean - b.mean))))
            worst_moment = max(worst_moment, float(np.max(np.abs(cov - b.cov))))
    moments_ok = worst_moment < 1e-10

    # exact mirror equivariance of the bank under reflected noise (EKF arithmetic
    # is sign-exact for a reflection across true north)
    mirror_ok = all(_mirror_equivariance_exact(*case) for case in MIRROR_CASES)

    ok = jac_ok and moments_ok and mirror_ok
    _report(
        "AC8 numerical-hygiene",
        ok,
        f"jacobian FD rel err {worst_rel:.1e} (tol 1e-5), moment err "
        f"{worst_moment:.1e} (tol 1e-10), mirror equivariance "
        f"{'exact' if mirror_ok else 'BROKEN'}",
    )
    assert jac_ok
    assert moments_ok
    assert mirror_ok


# (first bearing in degrees, bearing-noise seed) of the mirrored scenarios
MIRROR_CASES = ((45.0, 88), (60.0, 123), (-100.0, 7))


def _mirror_equivariance_exact(bearing_deg: float, noise_seed: int) -> bool:
    cfg = tt.ScenarioConfig(model_kind=CV, initial_bearing_deg=bearing_deg)
    return all(reflects_exactly(*banks) for banks in mirrored_banks(cfg, EKF, noise_seed))
