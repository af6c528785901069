"""Monte Carlo evaluation metrics: RMSE, bias norm, track loss, timing.

All aggregations operate on per-run summaries and exclude diverged runs
from the error curves; numerically failed runs count as track losses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Optional, Sequence

import numpy as np

POSITION = "position"
VELOCITY = "velocity"


class EmptySeriesError(ValueError):
    """No usable runs were left after excluding diverged tracks."""


@dataclass
class MetricSeries:
    """Per-step metric values plus the number of runs that contributed."""

    values: np.ndarray
    included_runs: int


def _component_errors(summaries: Sequence, components: str) -> np.ndarray:
    if components == POSITION:
        return np.stack([s.pos_err for s in summaries])
    if components == VELOCITY:
        return np.stack([s.vel_err for s in summaries])
    raise ValueError(f"components must be 'position' or 'velocity', got {components!r}")


def _included(summaries: Sequence) -> list:
    return [s for s in summaries if not s.diverged and not s.failed]


def rmse(summaries: Sequence, components: str = POSITION) -> MetricSeries:
    """Per-step root-mean-square error norm over non-diverged runs."""
    kept = _included(summaries)
    if not kept:
        raise EmptySeriesError("all runs diverged; RMSE series is empty")
    err = _component_errors(kept, components)  # (runs, steps, 2)
    values = np.sqrt(np.mean(np.sum(err**2, axis=2), axis=0))
    return MetricSeries(values=values, included_runs=len(kept))


def bias_norm(summaries: Sequence, components: str = POSITION) -> MetricSeries:
    """Per-step norm of the ensemble-mean signed error vector."""
    kept = _included(summaries)
    if not kept:
        raise EmptySeriesError("all runs diverged; bias series is empty")
    err = _component_errors(kept, components)
    values = np.linalg.norm(np.mean(err, axis=0), axis=1)
    return MetricSeries(values=values, included_runs=len(kept))


def track_loss_pct(summaries: Sequence, bound: float) -> float:
    """Percentage of runs whose terminal range error exceeds the bound.

    Numerically failed runs count as losses regardless of the bound.
    """
    if not summaries:
        raise ValueError("no runs supplied")
    lost = sum(
        1 for s in summaries if s.failed or s.terminal_range_error > bound
    )
    return 100.0 * lost / len(summaries)


def relative_execution_time(
    timings: Mapping[Hashable, float], baseline_key: Hashable
) -> dict[Hashable, float]:
    """Each wall time divided by the baseline's wall time."""
    if baseline_key not in timings:
        raise ValueError(f"baseline {baseline_key!r} missing from timings")
    base = timings[baseline_key]
    if not base > 0:
        raise ValueError(f"baseline time must be positive, got {base}")
    return {key: t / base for key, t in timings.items()}


def mean_wall_time(summaries: Sequence) -> float:
    """Average per-run wall time of the estimation loop (seconds)."""
    return float(np.mean([s.wall_time for s in summaries]))


@dataclass
class BenchmarkRow:
    """The ``summary.json`` row of one (filter, case, mode) cell.

    Seeded values only; wall-clock values go to ``timings.json``. Its
    ``dataclasses.asdict`` is the row, so field order is key order.
    """

    filter: str
    case: str
    mode: str
    n_runs: int
    track_loss_pct: float
    terminal_rmse_pos_km: Optional[float]  # None: every run was lost


def benchmark_row(
    summaries: Sequence,
    filter_kind: str,
    case: str,
    mode: str,
    bound: float,
) -> BenchmarkRow:
    """Reduce one Monte Carlo cell to its benchmark-table row.

    The terminal RMSE is None when no run is kept: JSON has no NaN.
    """
    try:
        terminal = float(rmse(summaries, POSITION).values[-1])
    except EmptySeriesError:
        terminal = None
    return BenchmarkRow(
        filter=filter_kind,
        case=case,
        mode=mode,
        n_runs=len(summaries),
        track_loss_pct=track_loss_pct(summaries, bound),
        terminal_rmse_pos_km=terminal,
    )
