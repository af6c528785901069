"""The four benchmark workloads.

Every workload works in whole rounds. A round is the same list of
operations in every run and draws its inputs from (``--seed``, round
index), so a run's inputs depend on its seed alone and each run attempts
the same operations in the same proportions, however long it lasts.

* ``mc-ct-points``: serial Monte Carlo over CKF and GHF in the CT case,
  resolved mode: point sets, CT propagation of point batches and moment
  matching. No EKF or SRF code runs.
* ``mc-cv-light``: serial Monte Carlo over EKF and SRF in the CV case,
  resolved and known-side modes: no point set is built; per-call numpy
  overhead, truth synthesis, summaries, SRF range moments and the bank's
  bookkeeping.
* ``online-track``: one track at a time, bearing pair by bearing pair,
  through ``lrtma.init_bank`` and ``lrtma.step`` for every filter and
  case but UKF/CT (``spec.LEFT_OUT``); only the tracker calls are timed.
* ``cli-table-pool``: ``towedtma montecarlo`` over every cell with two
  pool workers, then ``towedtma report`` on its output.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import time
from array import array
from collections import defaultdict
from pathlib import Path
from statistics import median

import numpy as np

from towedtma import cli, evalkit, gaussfilt, kinematics, lrtma, sensing, simkit
from towedtma.sensing import BearingPair

import calib
from checks import (
    CellAccumulator,
    Checks,
    check_point_sets,
    check_srf_moments,
    close,
    mirror_errors,
    mixture_error,
    reduce_cell,
    schema_errors,
)
from spec import CASES, FILTERS, MODES, POINT_KINDS, SERIAL_CELLS

# numerical failures the Monte Carlo engine flags per run instead of raising
NUMERICAL_FAILURES = (
    gaussfilt.FilterNumericsError,
    sensing.ZeroRangeError,
    np.linalg.LinAlgError,
)


def round_seed(seed: int, *key: int) -> int:
    """Master seed of one round (and cell), derived from the run's seed."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _case(belief) -> str:
    return "cv" if belief.dim == 4 else "ct"


def _rows(state) -> str:
    return "1" if np.ndim(state) == 1 else str(np.shape(state)[0])


def wrap_filter_layers(tracer) -> None:
    """Trace the filter stack: kinematics, sensing, gaussfilt and lrtma."""
    tracer.wrap(kinematics, "transition", lambda a, k: _rows(a[1]))
    tracer.wrap(kinematics, "observer_input")
    tracer.wrap(kinematics, "process_jacobian")
    tracer.wrap(sensing, "measure")
    tracer.wrap(gaussfilt, "predict", lambda a, k: f"{a[3]}.{a[1].kind}")
    tracer.wrap(gaussfilt, "update", lambda a, k: f"{a[3]}.{_case(a[0])}")
    tracer.wrap(gaussfilt, "srf_update", lambda a, k: f"srf.{_case(a[0])}")
    tracer.wrap(gaussfilt, "points_for", lambda a, k: a[0], capture_every=97, capture_max=60)
    tracer.wrap(gaussfilt, "chol_psd")
    tracer.wrap(gaussfilt, "shifted_rayleigh_moments", capture_every=53, capture_max=60)
    tracer.wrap(lrtma, "step", lambda a, k: f"{a[5]}.{a[4].kind}")


def wrap_simkit_layers(tracer) -> None:
    """Trace the Monte Carlo engine's truth synthesis and summaries."""
    for name in ("simulate_run", "summarize_run", "gen_target_track",
                 "gen_observer_track", "relative_truth"):
        tracer.wrap(simkit, name)


def span_metrics(spans, runs: int, steps: int, speed: float) -> dict[str, float]:
    """Per-layer metrics from the traced run's spans; times are scaled by ``speed``."""
    us = 1e6 * speed

    def per(x: float, n: int) -> float:
        return x / n if n else 0.0

    m = {
        "simkit.truth.us_per_run": us * per(
            spans.self_time("simkit.gen_target_track")
            + spans.self_time("simkit.gen_observer_track")
            + spans.self_time("simkit.relative_truth"),
            runs,
        ),
        "simkit.simulate_run.self_us_per_run": us * per(spans.self_time("simkit.simulate_run"), runs),
        "simkit.summarize_run.us_per_run": us * per(spans.total("simkit.summarize_run"), runs),
        "sensing.measure.us_per_run": us * per(spans.total("sensing.measure"), runs),
        "kinematics.transition.us_per_step": us * per(spans.total("kinematics.transition"), steps),
        "kinematics.transition.states_per_step": per(
            sum(int(t) * spans.count("kinematics.transition", t)
                for t in spans.tags_of("kinematics.transition")),
            steps,
        ),
        "kinematics.observer_input.us_per_step": us * per(spans.total("kinematics.observer_input"), steps),
        "kinematics.process_jacobian.us_per_step": us * per(spans.total("kinematics.process_jacobian"), steps),
        "gaussfilt.chol_psd.calls_per_step": per(spans.count("gaussfilt.chol_psd"), steps),
        "gaussfilt.chol_psd.us_per_call": us * per(
            spans.total("gaussfilt.chol_psd"), spans.count("gaussfilt.chol_psd")
        ),
        "gaussfilt.srf_moments.us_per_call": us * per(
            spans.total("gaussfilt.shifted_rayleigh_moments"),
            spans.count("gaussfilt.shifted_rayleigh_moments"),
        ),
        "lrtma.step.self_us_per_step": us * per(
            spans.self_time("lrtma.step"), spans.count("lrtma.step")
        ),
    }
    for kind in POINT_KINDS:
        m[f"gaussfilt.points.{kind}.us_per_call"] = us * per(
            spans.total("gaussfilt.points_for", kind), spans.count("gaussfilt.points_for", kind)
        )
    for f, c in SERIAL_CELLS:
        tag = f"{f}.{c}"
        m[f"gaussfilt.predict.{tag}.self_us"] = us * per(
            spans.self_time("gaussfilt.predict", tag), spans.count("gaussfilt.predict", tag)
        )
        upd = "gaussfilt.srf_update" if f == "srf" else "gaussfilt.update"
        m[f"gaussfilt.update.{tag}.self_us"] = us * per(
            spans.self_time(upd, tag), spans.count(upd, tag)
        )
    return m


class Samples:
    """Latency samples at reference speed, by round, marked by whether the machine held its speed.

    A round adds its samples in the same order every time, so a sample's
    index within its round (its position) names the same operation in
    every round. Statistics use the samples of steady intervals
    (``calib.Speed.steady``), unless fewer than a quarter of them are steady.
    """

    def __init__(self) -> None:
        self._values: dict[int, array] = defaultdict(lambda: array("d"))
        self._steady: dict[int, array] = defaultdict(lambda: array("b"))

    def add(self, r: int, values, steady: bool) -> None:
        values = list(values)
        self._values[r].extend(values)
        self._steady[r].extend([int(steady)] * len(values))

    def _every(self) -> bool:
        """Whether too few samples are steady to leave the others out."""
        return 4 * sum(sum(v) for v in self._steady.values()) < sum(
            len(v) for v in self._steady.values()
        )

    def values(self) -> list[float]:
        every = self._every()
        return [x for r, v in self._values.items()
                for x, ok in zip(v, self._steady[r]) if ok or every]

    def position_medians(self) -> list[float]:
        """Each position's median over the rounds (its steady samples, if it has any)."""
        every = self._every()
        kept: dict[int, list[float]] = defaultdict(list)
        rest: dict[int, list[float]] = defaultdict(list)
        for r, v in self._values.items():
            for i, (x, ok) in enumerate(zip(v, self._steady[r])):
                (kept if ok or every else rest)[i].append(x)
        return [median(kept[i] or rest[i]) for i in sorted(kept.keys() | rest.keys())]


def position_percentile(samples, q: float) -> float:
    """q-th percentile, over the positions of several ``Samples``, of each position's median.

    A percentile of all samples of a run moves with how noisy the host was
    while it ran: bursts too short to fail the steady test stretch the
    tail (ten-seed spread 0.21 for online-track's p99). The median over
    rounds of each position keeps the spread the program itself has
    across operations (cells, step indices, inputs) and drops the host's.
    """
    return percentile([m for s in samples for m in s.position_medians()], q)


def mc_end_to_end(wl, runs_per_round: int, round_s: float) -> dict[str, float]:
    """Runs/s from a typical round's time; step latency as each run's mean step."""
    return {
        "runs_per_s": runs_per_round / round_s,
        "step_us_p50": 1e6 * position_percentile([wl.step_s], 50),
        "step_us_p99": 1e6 * position_percentile([wl.step_s], 99),
    }


def cell_metrics(cell_ms: dict) -> dict[str, float]:
    return {
        f"simkit.cell.{f}.{c}.{mode}.ms_per_run": median(v.values())
        for (f, c, mode), v in cell_ms.items()
    }


class Workload:
    """One workload: its rounds, its metrics and its checks."""

    name = ""
    min_rounds = 1
    horizon = simkit.ScenarioConfig().horizon

    def __init__(self, seed: int, out_dir: Path, keep_inputs: bool = False) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.keep_inputs = keep_inputs  # a traced pass repeats the rounds
        self.attempted = 0
        self.failed = 0
        # Timed seconds per round, scaled to reference speed (calib.py), and
        # the scale factors of the traced intervals.
        self.round_s: list[float] = []
        self.traced_round_s: list[float] = []
        self.traced_speed: list[float] = []
        self.speed: calib.Speed | None = None
        self.checks = Checks()

    def _factor(self, tracer) -> float:
        """Speed factor of the timed interval that has just ended."""
        k = self.speed.next()
        if tracer is not None:
            self.traced_speed.append(k)
        return k

    def trace_overhead_pct(self) -> float:
        untraced = sum(self.round_s[: len(self.traced_round_s)])
        return 100.0 * (sum(self.traced_round_s) / untraced - 1.0)

    def warm_up(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Work done once after set-up and before timing."""
        self.speed = calib.Speed()

    def run_round(self, r: int, tracer=None) -> None:
        raise NotImplementedError

    def wrap(self, tracer) -> None:
        raise NotImplementedError

    def end_to_end(self) -> dict[str, float]:
        raise NotImplementedError

    def untraced_layer_metrics(self) -> dict[str, float]:
        return {}

    def traced_layer_metrics(self, spans, traced_rounds: int) -> dict[str, float]:
        raise NotImplementedError

    def finish_checks(self, tracer=None) -> None:
        if tracer is not None:
            if tracer.captures.get("gaussfilt.points_for"):
                check_point_sets(self.checks, tracer.captures["gaussfilt.points_for"])
            if tracer.captures.get("gaussfilt.shifted_rayleigh_moments"):
                check_srf_moments(self.checks, tracer.captures["gaussfilt.shifted_rayleigh_moments"])

    @staticmethod
    def _root(tracer):
        return tracer.root() if tracer is not None else contextlib.nullcontext()


class MonteCarlo(Workload):
    """Serial ``simkit.run_monte_carlo`` over a fixed list of cells."""

    min_rounds = 3
    runs_per_call = 2
    cells: tuple[tuple[str, str, str, int], ...] = ()

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.runs_per_round = sum(n for *_, n in self.cells)
        bound = simkit.ScenarioConfig().track_bound_km
        self.cell_ms = {c[:3]: Samples() for c in self.cells}
        self.acc = {
            (f, c, m): CellAccumulator(f"{f}.{c}.{m}", m == "resolved", bound)
            for f, c, m, _ in self.cells
        }
        self.step_s = Samples()

    def _cfg(self, f: str, c: str, n: int, seed: int) -> simkit.ScenarioConfig:
        return simkit.ScenarioConfig(filter_kind=f, model_kind=c, n_runs=n, seed=seed)

    def warm_up(self) -> None:
        f, c, mode, _ = self.cells[0]
        simkit.run_monte_carlo(self._cfg(f, c, 1, self.seed), mode=mode)

    def wrap(self, tracer) -> None:
        wrap_filter_layers(tracer)
        wrap_simkit_layers(tracer)

    def run_round(self, r: int, tracer=None) -> None:
        total = 0.0
        for i, (f, c, mode, n) in enumerate(self.cells):
            # short calls, so each is timed between two calibration kernels
            for j in range(n // self.runs_per_call):
                cfg = self._cfg(f, c, self.runs_per_call, round_seed(self.seed, r, i, j))
                with self._root(tracer):
                    t0 = time.perf_counter()
                    sums = simkit.run_monte_carlo(cfg, mode=mode)
                    dt = time.perf_counter() - t0
                k = self._factor(tracer)
                total += k * dt
                self.attempted += len(sums)
                self.failed += sum(s.failed for s in sums)
                if tracer is None:
                    self.acc[f, c, mode].add(r, sums, evalkit)
                    steady = self.speed.steady
                    self.cell_ms[f, c, mode].add(r, [1e3 * k * dt / len(sums)], steady)
                    self.step_s.add(r, (k * s.wall_time / (self.horizon - 1) for s in sums), steady)
        (self.traced_round_s if tracer is not None else self.round_s).append(total)

    def end_to_end(self) -> dict[str, float]:
        round_s = sum(n * median(self.cell_ms[f, c, m].values()) for f, c, m, n in self.cells) / 1e3
        return mc_end_to_end(self, self.runs_per_round, round_s)

    def untraced_layer_metrics(self) -> dict[str, float]:
        return cell_metrics(self.cell_ms)

    def traced_layer_metrics(self, spans, traced_rounds: int) -> dict[str, float]:
        runs = self.runs_per_round * traced_rounds
        return span_metrics(spans, runs, runs * (self.horizon - 1), median(self.traced_speed))

    def finish_checks(self, tracer=None) -> None:
        for acc in self.acc.values():
            acc.check(self.checks)
        super().finish_checks(tracer)


class McCtPoints(MonteCarlo):
    name = "mc-ct-points"
    # UKF is left out (spec.LEFT_OUT); twice as many CKF as GHF runs keep the
    # per-run step-latency median inside the CKF cluster.
    cells = (("ckf", "ct", "resolved", 12), ("ghf", "ct", "resolved", 6))


class McCvLight(MonteCarlo):
    name = "mc-cv-light"
    # Unequal run counts keep the per-run step-latency median inside the
    # EKF resolved-mode cluster instead of on the gap between two cells.
    cells = (
        ("ekf", "cv", "resolved", 12),
        ("ekf", "cv", "known-side", 12),
        ("srf", "cv", "resolved", 8),
        ("srf", "cv", "known-side", 8),
    )

    def untraced_layer_metrics(self) -> dict[str, float]:
        m = super().untraced_layer_metrics()
        for f in ("ekf", "srf"):
            m[f"lrtma.resolved_over_known.{f}.cv"] = (
                m[f"simkit.cell.{f}.cv.resolved.ms_per_run"]
                / m[f"simkit.cell.{f}.cv.known-side.ms_per_run"]
            )
        return m


@dataclasses.dataclass
class TrackInput:
    cfg: simkit.ScenarioConfig
    observers: list
    pairs: list
    true_slot: int
    final_truth: np.ndarray


class OnlineTrack(Workload):
    """Tracks fed to ``lrtma.init_bank``/``lrtma.step`` one pair at a time."""

    name = "online-track"
    # four rounds hold 1044 steps, the fewest a run's step percentiles rest on
    min_rounds = 4
    cells = SERIAL_CELLS

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._observers = {}
        self._inputs: dict[int, list[TrackInput]] = {}
        self.step_s = {c: Samples() for c in self.cells}
        self.track_s = {c: Samples() for c in self.cells}
        self.track_errors: list[str] = []
        self.tracks_within = 0
        self.pairs = 0
        self.bad_pairs = 0

    def _observer_track(self, cfg):
        if cfg.model_kind not in self._observers:
            self._observers[cfg.model_kind] = simkit.gen_observer_track(cfg)
        return self._observers[cfg.model_kind]

    def make_input(self, r: int, i: int, f: str, c: str) -> TrackInput:
        cfg = simkit.ScenarioConfig(filter_kind=f, model_kind=c)
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, r, i]))
        observers = self._observer_track(cfg)
        rel = simkit.relative_truth(simkit.gen_target_track(cfg, rng), observers)
        pairs = [
            sensing.measure(rel[k], observers[k].heading, cfg.sigma_theta_rad, rng, t=k)
            for k in range(1, cfg.horizon + 1)
        ]
        true_slot = 1
        if rng.random() < 0.5:
            # Swapping the slots as they stand would leave y1 == wrap(2h - y2),
            # which differs from y2 == wrap(2h - y1) in the last bit for most
            # pairs; mirroring the ghost again keeps each pair exact.
            true_slot = 2
            pairs = [
                BearingPair(y1=p.y2, y2=sensing.wrap_angle(2.0 * p.heading - p.y2),
                            heading=p.heading, t=p.t)
                for p in pairs
            ]
        return TrackInput(cfg, observers, pairs, true_slot, rel[-1])

    def _round_inputs(self, r: int) -> list[TrackInput]:
        if r in self._inputs:
            return self._inputs[r]
        inputs = [self.make_input(r, i, f, c) for i, (f, c) in enumerate(self.cells)]
        pairs = [p for inp in inputs for p in inp.pairs]
        self.pairs += len(pairs)
        self.bad_pairs += mirror_errors(pairs, sensing.wrap_angle)
        if self.keep_inputs:
            self._inputs[r] = inputs
        return inputs

    def warm_up(self) -> None:
        inp = self.make_input(0, 0, *self.cells[0])
        cfg, obs = inp.cfg, inp.observers
        bank = lrtma.init_bank(inp.pairs[0], cfg.prior(), obs[1], cfg.motion_model())
        lrtma.step(bank, inp.pairs[1], obs[1], obs[2], cfg.motion_model(),
                   cfg.filter_kind, cfg.sigma_theta_rad)

    def wrap(self, tracer) -> None:
        wrap_filter_layers(tracer)

    def _track(self, inp: TrackInput, tracer) -> tuple[float, list[float], list]:
        """Run one track; returns its timed seconds, step latencies and banks."""
        cfg, obs = inp.cfg, inp.observers
        model, prior, sigma = cfg.motion_model(), cfg.prior(), cfg.sigma_theta_rad
        lat: list[float] = []
        banks = []
        with self._root(tracer):
            t0 = time.perf_counter()
            bank = lrtma.init_bank(inp.pairs[0], prior, obs[1], model)
            total = time.perf_counter() - t0
            banks.append(bank)
            for k in range(2, cfg.horizon + 1):
                self.attempted += 1
                try:
                    t0 = time.perf_counter()
                    bank = lrtma.step(bank, inp.pairs[k - 1], obs[k - 1], obs[k],
                                      model, cfg.filter_kind, sigma)
                    dt = time.perf_counter() - t0
                except NUMERICAL_FAILURES:
                    self.failed += 1
                    break
                total += dt
                lat.append(dt)
                banks.append(bank)
        return total, lat, banks

    def run_round(self, r: int, tracer=None) -> None:
        total = 0.0
        for inp in self._round_inputs(r):
            t, lat, banks = self._track(inp, tracer)
            k = self._factor(tracer)
            total += k * t
            if tracer is not None:
                continue
            cell = inp.cfg.filter_kind, inp.cfg.model_kind
            self.track_s[cell].add(r, [k * t], self.speed.steady)
            self.step_s[cell].add(r, (k * x for x in lat), self.speed.steady)
            self._check_track(inp, banks)
        (self.traced_round_s if tracer is not None else self.round_s).append(total)

    def _check_track(self, inp: TrackInput, banks) -> None:
        label = f"{inp.cfg.filter_kind}.{inp.cfg.model_kind}"
        for bank in banks:
            err = mixture_error(bank)
            if err:
                self.track_errors.append(f"{label} t={bank.t}: {err}")
        if len(banks) < inp.cfg.horizon:
            return
        last = banks[-1]
        range_err = abs(math.hypot(*last.fused.mean[:2]) - math.hypot(*inp.final_truth[:2]))
        if range_err <= inp.cfg.track_bound_km:
            self.tracks_within += 1
            decided = 1 if last.w1 > last.w2 else 2
            if decided != inp.true_slot:
                self.track_errors.append(f"{label}: decided side {decided}, true {inp.true_slot}")

    def end_to_end(self) -> dict[str, float]:
        steps = list(self.step_s.values())
        return {
            "runs_per_s": len(self.cells) / sum(median(v.values()) for v in self.track_s.values()),
            "step_us_p50": 1e6 * position_percentile(steps, 50),
            "step_us_p99": 1e6 * position_percentile(steps, 99),
        }

    def untraced_layer_metrics(self) -> dict[str, float]:
        return {
            f"lrtma.step.{f}.{c}.us_p50": 1e6 * median(v.values())
            for (f, c), v in self.step_s.items()
        }

    def traced_layer_metrics(self, spans, traced_rounds: int) -> dict[str, float]:
        # truth synthesis happens before timing and is not traced here
        steps = spans.count("lrtma.step")
        return span_metrics(spans, 0, steps, median(self.traced_speed))

    def finish_checks(self, tracer=None) -> None:
        self.checks.expect("inputs.mirror", self.bad_pairs == 0,
                           f"{self.bad_pairs} of {self.pairs} pairs not exact mirrors")
        self.checks.expect(
            "online.tracks",
            not self.track_errors,
            f"{self.tracks_within} tracks within the bound; "
            + ("; ".join(self.track_errors[:5]) or "weights, fusion and decided side hold"),
        )
        super().finish_checks(tracer)


class CliTablePool(Workload):
    """``towedtma montecarlo`` over all cells with a 2-worker pool, then ``report``."""

    name = "cli-table-pool"
    min_rounds = 2
    runs_per_cell = 8
    workers = 2
    cells = tuple((f, c, m) for c in CASES for f in FILTERS for m in MODES)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.master_seed = round_seed(self.seed, 0)
        self.table_dir = self.out_dir / "cli-table"
        self.runs_per_round = self.runs_per_cell * len(self.cells)
        self.cell_ms = {c: Samples() for c in self.cells}
        self.step_s = Samples()
        self._round_cell: dict[tuple, tuple[float, float, bool]] = {}
        self._round_s = self._mark = 0.0
        self.serial_s: dict[tuple, float] = {}
        self.reference: dict[tuple, dict] = {}
        self.failed_per_round = 0
        self._first_summary: bytes | None = None
        self.round_errors: list[str] = []

    def _cli(self, argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def warm_up(self) -> None:
        self._cli(["montecarlo", "--filter", "ekf", "--case", "cv", "--mode", "resolved",
                   "--runs", "1", "--out", str(self.out_dir / "cli-warm-up")])

    def prepare(self) -> None:
        """Serial run of every cell, reduced by the benchmark's own code.

        Runs once per invocation, before timing. Summaries do not depend on
        the worker count (OUTPUT_SCHEMA.md), so the pooled command's files
        must match this reduction.
        """
        super().prepare()
        base = simkit.ScenarioConfig(seed=self.master_seed, n_runs=self.runs_per_cell)
        for f, c, mode in self.cells:
            cfg = dataclasses.replace(base, filter_kind=f, model_kind=c)
            t0 = time.perf_counter()
            sums = simkit.run_monte_carlo(cfg, mode=mode, workers=1)
            self.serial_s[f, c, mode] = time.perf_counter() - t0
            self.reference[f, c, mode] = reduce_cell(sums, cfg.track_bound_km)
            self.failed_per_round += sum(s.failed for s in sums)
        self.serial_speed = self.speed.next()

    def wrap(self, tracer) -> None:
        # only the layers this process runs; pool workers run the filters
        tracer.wrap(simkit, "run_monte_carlo",
                    lambda a, k: f"{a[0].filter_kind}.{a[0].model_kind}.{k['mode']}")
        for name in ("benchmark_row", "rmse", "bias_norm", "track_loss_pct",
                     "mean_wall_time", "relative_execution_time"):
            tracer.wrap(evalkit, name)
        tracer.wrap(cli, "cmd_montecarlo")
        tracer.wrap(cli, "cmd_report")

    @contextlib.contextmanager
    def _cell_timer(self):
        """Brackets each cell's ``run_monte_carlo`` call with the calibration kernel.

        Untraced rounds only. The host changes speed within a 1.5-s round
        more often than not, so each stretch between two kernels (the
        previous cell's output, then this cell's pool) is scaled by the
        kernels around it, and a round's time is the sum of its stretches.
        """
        fn = simkit.run_monte_carlo

        def timed(cfg, mode, workers=1):
            t0 = time.perf_counter()
            out = fn(cfg, mode=mode, workers=workers)
            t1 = time.perf_counter()
            k = self.speed.next()
            self._round_s += k * (t1 - self._mark)
            self._round_cell[cfg.filter_kind, cfg.model_kind, mode] = (k, t1 - t0, self.speed.steady)
            self._mark = time.perf_counter()
            return out

        simkit.run_monte_carlo = timed
        try:
            yield
        finally:
            simkit.run_monte_carlo = fn

    def run_round(self, r: int, tracer=None) -> None:
        argv = ["montecarlo", "--filter", "all", "--case", "all", "--mode", "all",
                "--workers", str(self.workers), "--runs", str(self.runs_per_cell),
                "--seed", str(self.master_seed), "--out", str(self.table_dir)]
        timer = self._cell_timer() if tracer is None else contextlib.nullcontext()
        self._round_s, self._round_cell = 0.0, {}
        with timer, self._root(tracer):
            self._mark = t0 = time.perf_counter()
            rc_mc = self._cli(argv)
            rc_report = self._cli(["report", str(self.table_dir)])
            t1 = time.perf_counter()
        k = self._factor(tracer)
        self.attempted += self.runs_per_round
        self.failed += self.failed_per_round
        if rc_mc or rc_report:
            self.round_errors.append(f"round {r}: exit codes {rc_mc}, {rc_report}")
        if tracer is not None:
            self.traced_round_s.append(k * (t1 - t0))
            return
        self.round_s.append(self._round_s + k * (t1 - self._mark))
        timings = json.loads((self.table_dir / "timings.json").read_text())
        for row in timings["rows"]:
            k, dt, steady = self._round_cell[row["filter"], row["case"], row["mode"]]
            self.cell_ms[row["filter"], row["case"], row["mode"]].add(
                r, [1e3 * k * dt / self.runs_per_cell], steady)
            self.step_s.add(r, [k * row["mean_wall_s"] / (self.horizon - 1)], steady)
        summary = (self.table_dir / "summary.json").read_bytes()
        if self._first_summary is None:
            self._first_summary = summary
            self._check_outputs()
        elif summary != self._first_summary:
            self.round_errors.append(f"round {r}: summary.json differs from round 0")

    def _check_outputs(self) -> None:
        ck = self.checks
        summary = json.loads((self.table_dir / "summary.json").read_text())
        rows = {(x["filter"], x["case"], x["mode"]): x for x in summary["rows"]}
        ck.expect("cli.summary.cells", set(rows) == set(self.cells), f"{len(rows)} rows")
        bad = []
        for cell, ref in self.reference.items():
            row = rows.get(cell)
            term = ref["rmse_pos"][-1] if ref["included"] else float("nan")
            if row is None or row["n_runs"] != ref["n_runs"] or not (
                close(row["track_loss_pct"], ref["track_loss_pct"])
                and close(row["terminal_rmse_pos_km"], term)
            ):
                bad.append("/".join(cell))
                continue
            csv_bad = self._csv_errors(cell, ref)
            if csv_bad:
                bad.append(f"{'/'.join(cell)}: {csv_bad}")
        ck.expect("cli.summary_and_csv_match_serial", not bad, "; ".join(bad[:5]))

        report = json.loads((self.table_dir / "report.json").read_text())
        schema_file = Path(cli.__file__).parent / "schemas" / "report.schema.json"
        errs = schema_errors(report, json.loads(schema_file.read_text()))
        ck.expect("cli.report.schema", not errs, "; ".join(errs[:5]))
        ck.expect(
            "cli.report.content",
            report.get("summary") == summary["rows"]
            and len(report.get("series", {})) == len(self.cells),
        )

    def _csv_errors(self, cell, ref) -> str:
        path = self.table_dir / f"metrics_{cell[0]}_{cell[1]}_{cell[2]}.csv"
        lines = path.read_text().splitlines()
        if not lines or not lines[0].startswith("# manifest: "):
            return "no manifest line"
        table = list(csv.reader(lines[1:]))
        data = np.array(table[1:], dtype=float)
        if len(data) != self.horizon:
            return f"{len(data)} rows, expected {self.horizon}"
        cols = {name: data[:, i] for i, name in enumerate(table[0])}
        ok = (
            close(cols["rmse_pos_km"], ref["rmse_pos"])
            and close(cols["rmse_vel_kmmin"], ref["rmse_vel"])
            and close(cols["bias_norm_km"], ref["bias_pos"])
            and np.all(cols["included_runs"] == ref["included"])
        )
        return "" if ok else "series differ"

    def end_to_end(self) -> dict[str, float]:
        return mc_end_to_end(self, self.runs_per_round, median(self.round_s))

    def finish_checks(self, tracer=None) -> None:
        self.checks.expect("cli.rounds", not self.round_errors, "; ".join(self.round_errors[:3]))
        super().finish_checks(tracer)

    def untraced_layer_metrics(self) -> dict[str, float]:
        return cell_metrics(self.cell_ms)

    def traced_layer_metrics(self, spans, traced_rounds: int) -> dict[str, float]:
        cells = len(self.cells) * traced_rounds
        speed = median(self.traced_speed)
        ms = 1e3 * speed
        pool = [
            speed * spans.total("simkit.run_monte_carlo", f"{f}.{c}.{m}") / traced_rounds
            - self.serial_speed * self.serial_s[f, c, m] / self.workers
            for f, c, m in self.cells
        ]
        return {
            "simkit.pool.overhead_ms_per_cell": 1e3 * float(np.mean(pool)),
            "evalkit.reduce_ms_per_cell": ms * spans.layer_self().get("evalkit", 0.0) / cells,
            "cli.output_ms_per_cell": ms * spans.self_time("cli.cmd_montecarlo") / cells,
            "cli.report_ms": ms * spans.total("cli.cmd_report") / spans.count("cli.cmd_report"),
        }


WORKLOADS = {w.name: w for w in (McCtPoints, McCvLight, OnlineTrack, CliTablePool)}
