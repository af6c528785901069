import numpy as np
import pytest

from towedtma import evalkit
from towedtma.evalkit import (
    EmptySeriesError,
    bias_norm,
    benchmark_row,
    mean_wall_time,
    relative_execution_time,
    rmse,
    track_loss_pct,
)
from towedtma.simkit import RunSummary


def summary(pos, vel=None, term_err=0.0, diverged=False, failed=False, wall=1.0):
    pos = np.asarray(pos, float)
    vel = np.zeros_like(pos) if vel is None else np.asarray(vel, float)
    return RunSummary(
        pos_err=pos,
        vel_err=vel,
        terminal_range_error=term_err,
        terminal_max_weight=1.0,
        first_decided_step=None,
        wall_time=wall,
        diverged=diverged,
        failed=failed,
        failure="boom" if failed else None,
    )


class TestRmse:
    def test_perfect_estimates_zero_series(self):
        sums = [summary(np.zeros((5, 2))) for _ in range(3)]
        out = rmse(sums)
        assert np.array_equal(out.values, np.zeros(5))
        assert out.included_runs == 3

    def test_three_four_five(self):
        sums = [summary([[0.3, 0.4]])]
        assert rmse(sums).values[0] == pytest.approx(0.5)

    def test_velocity_component(self):
        sums = [summary(np.zeros((1, 2)), vel=[[0.06, 0.08]])]
        assert rmse(sums, "velocity").values[0] == pytest.approx(0.1)

    def test_excludes_diverged(self):
        good = summary([[0.3, 0.4]])
        bad = summary([[30.0, 40.0]], diverged=True)
        out = rmse([good, bad])
        assert out.values[0] == pytest.approx(0.5)
        assert out.included_runs == 1

    def test_all_diverged_raises(self):
        with pytest.raises(EmptySeriesError):
            rmse([summary([[1.0, 1.0]], diverged=True)])

    def test_unknown_components(self):
        with pytest.raises(ValueError):
            rmse([summary([[0.0, 0.0]])], components="attitude")


class TestBiasNorm:
    def test_symmetric_errors_cancel(self):
        sums = [summary([[0.5, 0.2]]), summary([[-0.5, -0.2]])]
        assert bias_norm(sums).values[0] == pytest.approx(0.0)

    def test_single_run_is_error_norm(self):
        sums = [summary([[0.3, 0.4]])]
        assert bias_norm(sums).values[0] == pytest.approx(0.5)

    def test_never_exceeds_rmse(self):
        rng = np.random.default_rng(0)
        sums = [summary(rng.normal(size=(7, 2))) for _ in range(40)]
        r = rmse(sums).values
        b = bias_norm(sums).values
        assert np.all(b <= r + 1e-12)


class TestTrackLoss:
    def test_all_perfect(self):
        sums = [summary([[0.0, 0.0]], term_err=0.01) for _ in range(10)]
        assert track_loss_pct(sums, 1.0) == 0.0

    def test_zero_bound_counts_everything(self):
        sums = [summary([[0.0, 0.0]], term_err=0.01) for _ in range(10)]
        assert track_loss_pct(sums, 0.0) == 100.0

    def test_failed_runs_count(self):
        sums = [
            summary([[0.0, 0.0]], term_err=0.01),
            summary([[0.0, 0.0]], term_err=float("nan"), diverged=True, failed=True),
        ]
        assert track_loss_pct(sums, 1.0) == 50.0

    def test_monotone_in_bound(self):
        rng = np.random.default_rng(1)
        sums = [summary([[0.0, 0.0]], term_err=abs(rng.normal())) for _ in range(60)]
        losses = [track_loss_pct(sums, b) for b in (0.1, 0.5, 1.0, 2.0)]
        assert losses == sorted(losses, reverse=True)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        sums = [summary([[0.0, 0.0]], term_err=abs(rng.normal())) for _ in range(20)]
        a = track_loss_pct(sums, 1.0)
        rng.shuffle(sums)
        assert track_loss_pct(sums, 1.0) == a

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            track_loss_pct([], 1.0)


class TestRelativeExecutionTime:
    def test_baseline_is_one(self):
        out = relative_execution_time({"a": 2.0, "b": 4.0}, "a")
        assert out["a"] == 1.0
        assert out["b"] == 2.0

    def test_missing_baseline(self):
        with pytest.raises(ValueError):
            relative_execution_time({"a": 2.0}, "z")

    def test_zero_baseline(self):
        with pytest.raises(ValueError):
            relative_execution_time({"a": 0.0}, "a")


class TestBenchmarkRow:
    def test_reduces_cell(self):
        sums = [summary([[0.3, 0.4]], term_err=0.1, wall=2.0) for _ in range(4)]
        row = benchmark_row(sums, "ekf", "cv", "resolved", bound=1.0)
        assert row.track_loss_pct == 0.0
        assert row.terminal_rmse_pos_km == pytest.approx(0.5)
        assert row.mean_wall_s == pytest.approx(2.0)
        assert row.n_runs == 4
        assert row.cell == ("ekf", "cv", "resolved")

    def test_all_lost_has_nan_rmse(self):
        sums = [summary([[9.0, 9.0]], term_err=9.0, diverged=True) for _ in range(3)]
        row = benchmark_row(sums, "ekf", "cv", "resolved", bound=1.0)
        assert row.track_loss_pct == 100.0
        assert np.isnan(row.terminal_rmse_pos_km)

    def test_mean_wall_time(self):
        sums = [summary([[0.0, 0.0]], wall=1.0), summary([[0.0, 0.0]], wall=3.0)]
        assert mean_wall_time(sums) == pytest.approx(2.0)
