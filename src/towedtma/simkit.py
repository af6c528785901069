"""Scenario truth generation and the seeded Monte Carlo engine.

The benchmark scenario runs for 30 one-minute steps: a 4-knot target
(straight line in the CV case, a constant 3 deg/min turn in the CT case)
observed by a 5-knot ownship that holds course 140 deg, swings to 20 deg
between minutes 13 and 17, and holds again. The turn is a constant-speed,
constant-rate arc so the array heading stays well defined throughout.

Runs are mutually independent and fully reproducible: run i draws all of
its noise from a child of the master seed keyed by i, so results never
depend on worker count or execution order. A run has two halves:
:func:`synthesize_run` draws its inputs from that seed, and :func:`track_run`
runs the bank over them.
"""

from __future__ import annotations

import atexit
import functools
import math
import os
import sys
import threading
import time
from dataclasses import asdict, dataclass, field, fields
from typing import TYPE_CHECKING, Optional

import numpy as np

from . import gaussfilt, kinematics, lrtma, sensing
from .gaussfilt import FILTER_KINDS
from .kinematics import CV, KNOT, MODEL_KINDS, MotionModel, ObserverState
from .lrtma import FilterBankState, InitPrior
from .sensing import BearingPair

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

RESOLVED = "resolved"
KNOWN_SIDE = "known-side"
MODES = (RESOLVED, KNOWN_SIDE)
MAX_HORIZON = 10_000


class ConfigError(ValueError):
    """A scenario configuration value is invalid; the message starts with
    the field name (``init_prior.`` names a field of the prior)."""


def _need(ok: bool, name: str, msg: str, *args) -> None:
    # the message is formatted only on failure: configs are built per
    # Monte Carlo call and per CLI cell
    if not ok:
        raise ConfigError(f"{name}: {msg.format(*args)}")


def _check_types(obj, prefix: str) -> None:
    """Type and finiteness of every field, named by its annotation.

    ``int`` fields take ints only; ``float`` fields take ints or floats
    (kept as given, since the manifest key hashes the JSON value) and must
    be finite. Bools are rejected for both.
    """
    for f in fields(obj):
        v = getattr(obj, f.name)
        if f.type == "int":
            _need(isinstance(v, int) and not isinstance(v, bool),
                  prefix + f.name, "must be an integer, got {!r}", v)
        elif f.type == "float":
            _need(isinstance(v, (int, float)) and not isinstance(v, bool),
                  prefix + f.name, "must be a real number, got {!r}", v)
            # abs() also rejects nan, and an int too large for a float
            _need(abs(v) <= sys.float_info.max, prefix + f.name, "must be finite, got {}", v)


@dataclass(frozen=True)
class InitPriorConfig:
    """Initialization prior in file units (km, knots, degrees).

    Construction validates every field and raises :class:`ConfigError`.
    """

    sigma_r_km: float = 2.0
    sigma_s_kn: float = 2.0
    sigma_theta_deg: float = 1.5
    sigma_c_deg: float = np.degrees(np.pi / np.sqrt(12.0))
    r_bar_km: float = 5.0
    s_bar_kn: float = 4.0
    # wide enough that a 3 deg/min turn sits inside one sigma of the prior
    sigma_psi_deg_min: float = 3.5

    def __post_init__(self) -> None:
        _check_types(self, "init_prior.")
        for name in (
            "sigma_r_km", "sigma_s_kn", "sigma_theta_deg", "sigma_c_deg", "sigma_psi_deg_min"
        ):
            std = float(getattr(self, name))  # checked as in ScenarioConfig
            _need(std > 0 and std * std < math.inf, "init_prior." + name,
                  "std must be positive with a finite square, got {}", std)
        _need(self.r_bar_km > 0, "init_prior.r_bar_km", "prior range must be positive")
        _need(self.s_bar_kn > 0, "init_prior.s_bar_kn", "prior speed must be positive")

    def to_internal(self) -> InitPrior:
        return InitPrior(
            sigma_r=self.sigma_r_km,
            sigma_s=self.sigma_s_kn * KNOT,
            sigma_theta=np.deg2rad(self.sigma_theta_deg),
            sigma_c=np.deg2rad(self.sigma_c_deg),
            r_bar=self.r_bar_km,
            s_bar=self.s_bar_kn * KNOT,
            sigma_psi=np.deg2rad(self.sigma_psi_deg_min),
        )


@dataclass(frozen=True)
class ScenarioConfig:
    """Full benchmark scenario in file units (knots, degrees, km, minutes).

    ``model_kind`` selects the case: "cv" runs the straight-line target with
    CV filters, "ct" the turning target with CT filters. Each run draws the
    filters' initial estimates from ``init_prior``.

    Construction (and ``dataclasses.replace``) validates every field and
    raises :class:`ConfigError` naming the first bad one.
    """

    T: float = 1.0
    horizon: int = 30
    target_speed_kn: float = 4.0
    observer_speed_kn: float = 5.0
    target_course0_deg: float = -140.0
    observer_course0_deg: float = 140.0
    observer_course_final_deg: float = 20.0
    maneuver_start_min: float = 13.0
    maneuver_end_min: float = 17.0
    # positive = clockwise course change; the benchmark target turns
    # counter-clockwise (course -140 toward -230)
    target_turn_rate_deg_min: float = -3.0
    q1: float = 1.944e-6
    q2: float = 3.78e-7
    sigma_theta_meas_deg: float = 1.5
    init_prior: InitPriorConfig = field(default_factory=InitPriorConfig)
    initial_range_km: float = 5.0
    initial_bearing_deg: float = 45.0
    seed: int = 0
    n_runs: int = 500
    track_bound_km: float = 1.0
    filter_kind: str = "ekf"
    model_kind: str = CV

    def __post_init__(self) -> None:
        _check_types(self, "")
        _need(isinstance(self.init_prior, InitPriorConfig), "init_prior",
              "must be an InitPriorConfig, got {!r}", self.init_prior)
        # the filters take powers of T and of the stds with ``**``, which
        # raises OverflowError mid-run; these products give inf instead
        T, sigma = float(self.T), float(self.sigma_theta_meas_deg)
        _need(T > 0 and T * T * T < math.inf, "T",
              "sampling time must be positive with a finite cube, got {}", self.T)
        _need(self.horizon >= 2, "horizon", "must be at least 2 steps, got {}", self.horizon)
        # every per-run array is sized by the horizon
        _need(self.horizon <= MAX_HORIZON, "horizon",
              "must be at most {} steps, got {}", MAX_HORIZON, self.horizon)
        _need(self.target_speed_kn > 0, "target_speed_kn", "speed must be positive")
        _need(self.observer_speed_kn > 0, "observer_speed_kn", "speed must be positive")
        _need(0 < self.maneuver_start_min, "maneuver_start_min",
              "must be positive, got {}", self.maneuver_start_min)
        _need(self.maneuver_start_min < self.maneuver_end_min, "maneuver_end_min",
              "must exceed maneuver_start_min={}, got {}",
              self.maneuver_start_min, self.maneuver_end_min)
        _need(self.maneuver_end_min <= self.horizon * self.T, "maneuver_end_min",
              "must not exceed horizon*T={}", self.horizon * self.T)
        _need(self.q1 >= 0 and self.q1 * (T * T * T) / 3.0 < math.inf and self.q1 * T < math.inf,
              "q1", "noise intensity must be nonnegative with finite q1*T**3/3 and q1*T, got {}",
              self.q1)
        _need(self.q2 >= 0 and self.q2 * T < math.inf, "q2",
              "noise intensity must be nonnegative with a finite q2*T, got {}", self.q2)
        _need(sigma >= 0 and sigma * sigma < math.inf, "sigma_theta_meas_deg",
              "std must be nonnegative with a finite square, got {}", self.sigma_theta_meas_deg)
        _need(self.initial_range_km > 0, "initial_range_km", "range must be positive")
        # SeedSequence takes nonnegative entropy only
        _need(self.seed >= 0, "seed", "must be nonnegative, got {}", self.seed)
        _need(self.n_runs >= 1, "n_runs", "must be at least 1, got {}", self.n_runs)
        _need(self.track_bound_km > 0, "track_bound_km", "bound must be positive")
        _need(self.filter_kind in FILTER_KINDS, "filter_kind",
              "must be one of {}, got {!r}", FILTER_KINDS, self.filter_kind)
        _need(self.model_kind in MODEL_KINDS, "model_kind",
              "must be one of {}, got {!r}", MODEL_KINDS, self.model_kind)

    def motion_model(self) -> MotionModel:
        return MotionModel(kind=self.model_kind, T=self.T, q1=self.q1, q2=self.q2)

    def prior(self) -> InitPrior:
        return self.init_prior.to_internal()

    @property
    def sigma_theta_rad(self) -> float:
        return float(np.deg2rad(self.sigma_theta_meas_deg))

    @property
    def true_turn_rate(self) -> float:
        # positive config rate = clockwise course change; the rotation-rate
        # state of the CT transition is its negative
        return -float(np.deg2rad(self.target_turn_rate_deg_min))

    def to_dict(self) -> dict:
        return asdict(self)


def _course(c0: float, c1: float, start: float, end: float, t_min: float) -> float:
    # c0 until the maneuver starts, c1 from its end, linear in between
    if t_min <= start:
        return float(c0)
    if t_min >= end:
        return float(c1)
    return float(c0 + (t_min - start) / (end - start) * (c1 - c0))


def _arc_displacement(speed: float, c_a: float, c_b: float, dt: float) -> np.ndarray:
    """Exact displacement of a constant-speed leg whose course moves
    linearly from c_a to c_b over dt minutes."""
    if c_b == c_a:
        return dt * kinematics.vel_from_course(speed, c_a)
    omega = (c_b - c_a) / dt
    dx = speed * (np.cos(c_a) - np.cos(c_b)) / omega
    dy = speed * (np.sin(c_b) - np.sin(c_a)) / omega
    return np.array([dx, dy])


def gen_observer_track(cfg: ScenarioConfig) -> list[ObserverState]:
    """Ownship states at t = 0, T, ..., horizon*T (horizon + 1 samples).

    The track depends on the sampling, the ownship speed and the maneuver
    plan alone, and is integrated once per plan: configs that differ in any
    other field share it. Each call returns a fresh list.
    """
    return list(_observer_plan(cfg)[0])


def _observer_plan(cfg: ScenarioConfig) -> tuple[tuple[ObserverState, ...], np.ndarray]:
    """The cached ownship track and its read-only (horizon + 1, 5) array of
    (x, y, vx, vy, heading) rows."""
    return _observer_track(cfg.T, cfg.horizon, cfg.observer_speed_kn,
                           cfg.observer_course0_deg, cfg.observer_course_final_deg,
                           cfg.maneuver_start_min, cfg.maneuver_end_min)


# typed: an int and a float field value of one number may integrate apart
@functools.lru_cache(maxsize=8, typed=True)
def _observer_track(T: float, horizon: int, speed_kn: float, course0_deg: float,
                    course_final_deg: float, start: float, end: float
                    ) -> tuple[tuple[ObserverState, ...], np.ndarray]:
    speed = speed_kn * KNOT
    course = functools.partial(_course, np.deg2rad(course0_deg), np.deg2rad(course_final_deg),
                               start, end)
    pos = np.zeros(2)
    track = []
    for k in range(horizon + 1):
        t = k * T
        c = course(t)
        vel = kinematics.vel_from_course(speed, c)
        track.append(ObserverState(float(pos[0]), float(pos[1]), float(vel[0]), float(vel[1]),
                                   heading=float(sensing.wrap_angle(c))))
        # integrate to the next sample, splitting at maneuver boundaries
        t_next = (k + 1) * T
        edges = [t] + [b for b in (start, end) if t < b < t_next] + [t_next]
        for a, b in zip(edges[:-1], edges[1:]):
            pos = pos + _arc_displacement(speed, course(a), course(b), b - a)
    rows = np.array([(o.x, o.y, o.vx, o.vy, o.heading) for o in track])
    rows.setflags(write=False)
    return tuple(track), rows


def gen_target_track(
    cfg: ScenarioConfig, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
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
    track0 = np.zeros(n)
    track0[0:2] = pos0
    track0[2:4] = vel0
    track0[4:] = cfg.true_turn_rate

    Lq = None if rng is None else kinematics.process_noise_root(model)
    incr = None
    if Lq is not None:
        # one block is the same stream as one draw per step, and the stacked
        # matmul gives each row the bits of Lq @ noise[k] (noise @ Lq.T does not)
        noise = rng.standard_normal((cfg.horizon, n))
        incr = np.matmul(Lq, noise[..., None])[..., 0]
    return kinematics.propagate(model, track0, cfg.horizon, incr)


def relative_truth(target: np.ndarray, observers) -> np.ndarray:
    """Relative (target minus observer) states at every sample.

    ``observers`` is a list of :class:`ObserverState` or an array whose
    rows start (x, y, vx, vy). Row k subtracts ``observers[k]``'s
    (x, y, vx, vy); rows past the last observer, and a CT state's turn
    rate, are the target's own.
    """
    if not isinstance(observers, np.ndarray):
        observers = np.array([(o.x, o.y, o.vx, o.vy) for o in observers]).reshape(-1, 4)
    rel = target.copy()
    rel[: len(observers), :4] -= observers[:, :4]
    return rel


@dataclass
class RunInputs:
    """What one run's tracker reads, as :func:`synthesize_run` draws it."""

    observers: list[ObserverState]   # horizon + 1 samples
    target_abs: np.ndarray           # (horizon + 1, dim)
    truth_rel: np.ndarray            # (horizon, dim), steps 1..horizon
    measurements: list[BearingPair]  # horizon entries, in slot order
    true_slot: int
    polar_draw: np.ndarray           # (5,) standard normal


@dataclass
class RunRecord(RunInputs):
    """Everything one simulated run produced: its inputs and the tracker's output."""

    estimates: list[FilterBankState]  # horizon entries, first is the init
    wall_time: float
    diverged: bool
    failure: Optional[str]
    terminal_range_error: float


@dataclass
class RunSummary:
    """Per-run reduction kept by the Monte Carlo engine."""

    pos_err: np.ndarray   # (horizon, 2) fused-minus-truth position error
    vel_err: np.ndarray   # (horizon, 2)
    terminal_range_error: float
    terminal_max_weight: float
    first_decided_step: Optional[int]
    wall_time: float
    diverged: bool
    failure: Optional[str]

    @property
    def failed(self) -> bool:
        return self.failure is not None


def run_seed(master_seed: int, index: int) -> np.random.SeedSequence:
    """Deterministic per-run seed, independent of worker layout."""
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))


def synthesize_run(cfg: ScenarioConfig, seed: np.random.SeedSequence) -> RunInputs:
    """One run's inputs from four child streams of ``seed``: the truth's
    process noise, the bearing noise, the slot swap and the polar draw."""
    # derive the child streams statelessly: SeedSequence.spawn would mutate
    # the caller's object and break same-seed reproducibility
    children = [
        np.random.SeedSequence(entropy=seed.entropy, spawn_key=tuple(seed.spawn_key) + (j,))
        for j in range(4)
    ]
    rng_proc, rng_meas, rng_misc, rng_init = (np.random.default_rng(c) for c in children)

    observers, obs_rows = _observer_plan(cfg)
    target = gen_target_track(cfg, rng_proc)
    rel_all = relative_truth(target, obs_rows)

    # every step's pair from one block; the swap has its own stream, so
    # drawing it first lets the pairs be built once, in slot order
    true_slot = 2 if rng_misc.random() < 0.5 else 1
    headings = obs_rows[1:, 4]
    y1, y2 = sensing.measure(rel_all[1:], headings, cfg.sigma_theta_rad, rng_meas)
    if true_slot == 2:
        y1, y2 = y2, y1
    pairs = [BearingPair(a, b, h, k)
             for k, (a, b, h) in enumerate(zip(y1.tolist(), y2.tolist(), headings.tolist()), 1)]

    # One polar draw per run, which init_bank applies to both sides as
    # mirror images. A shared draw keeps the two hypotheses perfectly
    # matched until the geometry separates them, and keeps known-side runs
    # paired with the bank's true side.
    return RunInputs(list(observers), target, rel_all[1:], pairs, true_slot,
                     rng_init.standard_normal(5))


def track_run(inputs: RunInputs, cfg: ScenarioConfig, log_odds: float) -> RunRecord:
    """The bank from :func:`lrtma.init_bank` at ``log_odds`` and one
    :func:`lrtma.step` per later pair; only that loop is timed. Numerical
    failures mark the run diverged with a failure code instead of raising.
    """
    model, prior, sigma, H = cfg.motion_model(), cfg.prior(), cfg.sigma_theta_rad, cfg.horizon
    observers, pairs = inputs.observers, inputs.measurements

    estimates: list[FilterBankState] = []
    failure: Optional[str] = None
    t0 = time.perf_counter()
    try:
        # overflowing filter arithmetic fails the run by the exception it
        # leads to; numpy's warnings about it would only clutter stderr
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            bank = lrtma.init_bank(pairs[0], prior, observers[1], model, inputs.polar_draw,
                                   log_odds)
            estimates.append(bank)
            for k in range(2, H + 1):
                bank = lrtma.step(
                    bank, pairs[k - 1], observers[k - 1], observers[k], model, cfg.filter_kind,
                    sigma,
                )
                estimates.append(bank)
    except (gaussfilt.FilterNumericsError, sensing.ZeroRangeError, np.linalg.LinAlgError) as exc:
        failure = f"{type(exc).__name__}: {exc}"
        while len(estimates) < H:
            estimates.append(estimates[-1])
    wall = time.perf_counter() - t0

    if failure is None:
        est_r = float(np.hypot(*estimates[-1].mean[0:2]))
        true_r = float(np.hypot(*inputs.truth_rel[-1][0:2]))
        term_err = abs(est_r - true_r)
        diverged = term_err > cfg.track_bound_km
    else:
        term_err = float("nan")
        diverged = True

    return RunRecord(**vars(inputs), estimates=estimates, wall_time=wall, diverged=diverged,
                     failure=failure, terminal_range_error=term_err)


def simulate_run(
    cfg: ScenarioConfig,
    seed: np.random.SeedSequence,
    mode: str = RESOLVED,
) -> RunRecord:
    """:func:`track_run` on :func:`synthesize_run`'s inputs; ``seed`` is a
    :func:`run_seed`.

    The mode is only the initial log-odds: "resolved" starts at 0 (equal
    weights), "known-side" settled on ``true_slot`` (+inf for slot 1, -inf
    for slot 2).
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    inputs = synthesize_run(cfg, seed)
    settled = math.inf if inputs.true_slot == 1 else -math.inf
    return track_run(inputs, cfg, 0.0 if mode == RESOLVED else settled)


def summarize_run(rec: RunRecord) -> RunSummary:
    """Reduce a run to the arrays the evaluation metrics need."""
    fused = np.array([est.mean for est in rec.estimates])
    truth = np.asarray(rec.truth_rel)[: len(fused)]
    first_decided = next(
        (e.t for e in rec.estimates if max(lrtma.side_weights(e.log_odds)) >= lrtma.DECIDED_WEIGHT),
        None,
    )
    return RunSummary(
        pos_err=fused[:, 0:2] - truth[:, 0:2],
        vel_err=fused[:, 2:4] - truth[:, 2:4],
        terminal_range_error=rec.terminal_range_error,
        terminal_max_weight=float(max(lrtma.side_weights(rec.estimates[-1].log_odds))),
        first_decided_step=first_decided,
        wall_time=rec.wall_time,
        diverged=rec.diverged,
        failure=rec.failure,
    )


def _run_summary(cfg: ScenarioConfig, mode: str, index: int) -> RunSummary:
    return summarize_run(simulate_run(cfg, run_seed(cfg.seed, index), mode=mode))


# The process's Monte Carlo worker pool and its size. The first pooled
# run_monte_carlo call starts it; concurrent.futures joins its workers
# when the interpreter exits. concurrent.futures.process pulls in
# multiprocessing and logging, so only a pooled call imports it; being
# imported after this module, it is torn down first at exit, so an exit
# hook drops the pool while the executor's finalizer can still run.
_POOL: Optional[tuple[int, ProcessPoolExecutor]] = None
_POOL_LOCK = threading.Lock()


def _pool(workers: int) -> ProcessPoolExecutor:
    """The pool of ``workers`` processes, replacing one of another size."""
    from concurrent.futures import ProcessPoolExecutor

    global _POOL
    if _POOL is not None and _POOL[0] != workers:
        _close_pool()
    if _POOL is None:
        _POOL = (workers, ProcessPoolExecutor(max_workers=workers))
    return _POOL[1]


def _close_pool() -> None:
    global _POOL
    if _POOL is not None:
        pool, _POOL = _POOL[1], None
        pool.shutdown(wait=True)


atexit.register(_close_pool)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_monte_carlo(
    cfg: ScenarioConfig,
    mode: str = RESOLVED,
    workers: int = 1,
) -> list[RunSummary]:
    """Independent seeded runs reduced to summaries, ordered by run index.

    The result is a pure function of (config, master seed); the worker
    count only changes how the runs are scheduled. The pool never holds
    more processes than there are CPUs this process may run on: its
    affinity set, which ``os.cpu_count()`` over-counts under a restricted
    affinity, or that count where the platform has no affinity call. It is
    started by the first pooled call, reused by later calls with the same
    worker count and lives until the interpreter exits; its workers are
    forked then, so they do not see later changes to the parent's modules.
    Pooled calls from several threads run one at a time.
    """
    workers = min(workers, _usable_cpus())
    run = functools.partial(_run_summary, cfg, mode)
    if workers <= 1 or cfg.n_runs < 4:
        return list(map(run, range(cfg.n_runs)))
    # about four chunks per worker
    chunksize = math.ceil(cfg.n_runs / (4 * workers))
    from concurrent.futures.process import BrokenProcessPool

    with _POOL_LOCK:
        try:
            results = _pool(workers).map(run, range(cfg.n_runs), chunksize=chunksize)
        except BrokenProcessPool:
            # a worker died since the last call and the pool refuses work;
            # the runs depend on their seeds alone, so a fresh pool gives
            # the same summaries
            _close_pool()
            results = _pool(workers).map(run, range(cfg.n_runs), chunksize=chunksize)
        try:
            return list(results)
        except BrokenProcessPool:
            # a worker died during this call: it fails, the next starts afresh
            _close_pool()
            raise
