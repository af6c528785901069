"""Scenario truth generation and the seeded Monte Carlo engine.

The benchmark scenario runs for 30 one-minute steps: a 4-knot target
(straight line in the CV case, a constant 3 deg/min turn in the CT case)
observed by a 5-knot ownship that holds course 140 deg, swings to 20 deg
between minutes 13 and 17, and holds again. The turn is a constant-speed,
constant-rate arc so the array heading stays well defined throughout.

Runs are mutually independent and fully reproducible: run i draws all of
its noise from a child of the master seed keyed by i, so results never
depend on worker count or execution order.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from . import gaussfilt, kinematics, lrtma, sensing
from .gaussfilt import FILTER_KINDS, GaussianBelief
from .kinematics import CT, CV, KNOT, MotionModel, ObserverState
from .lrtma import FilterBankState, InitPrior
from .sensing import BearingPair

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
            _need(getattr(self, name) > 0, "init_prior." + name, "std must be positive")
        _need(self.r_bar_km > 0, "init_prior.r_bar_km", "prior range must be positive")

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
        _need(self.T > 0, "T", "sampling time must be positive, got {}", self.T)
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
        _need(self.q1 >= 0, "q1", "noise intensity must be nonnegative, got {}", self.q1)
        _need(self.q2 >= 0, "q2", "noise intensity must be nonnegative, got {}", self.q2)
        _need(self.sigma_theta_meas_deg >= 0, "sigma_theta_meas_deg",
              "noise std must be nonnegative")
        _need(self.initial_range_km > 0, "initial_range_km", "range must be positive")
        # SeedSequence takes nonnegative entropy only
        _need(self.seed >= 0, "seed", "must be nonnegative, got {}", self.seed)
        _need(self.n_runs >= 1, "n_runs", "must be at least 1, got {}", self.n_runs)
        _need(self.track_bound_km > 0, "track_bound_km", "bound must be positive")
        _need(self.filter_kind in FILTER_KINDS, "filter_kind",
              "must be one of {}, got {!r}", FILTER_KINDS, self.filter_kind)
        _need(self.model_kind in (CV, CT), "model_kind",
              "must be 'cv' or 'ct', got {!r}", self.model_kind)

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


def observer_course(cfg: ScenarioConfig, t_min: float) -> float:
    """Ownship course (rad) at an absolute time, piecewise in the maneuver."""
    c0 = np.deg2rad(cfg.observer_course0_deg)
    c1 = np.deg2rad(cfg.observer_course_final_deg)
    if t_min <= cfg.maneuver_start_min:
        return float(c0)
    if t_min >= cfg.maneuver_end_min:
        return float(c1)
    frac = (t_min - cfg.maneuver_start_min) / (cfg.maneuver_end_min - cfg.maneuver_start_min)
    return float(c0 + frac * (c1 - c0))


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
    """Ownship states at t = 0, T, ..., horizon*T (horizon + 1 samples)."""
    speed = cfg.observer_speed_kn * KNOT
    pos = np.zeros(2)
    track = []
    breaks = (cfg.maneuver_start_min, cfg.maneuver_end_min)
    for k in range(cfg.horizon + 1):
        t = k * cfg.T
        course = observer_course(cfg, t)
        vel = kinematics.vel_from_course(speed, course)
        track.append(
            ObserverState(
                x=float(pos[0]),
                y=float(pos[1]),
                vx=float(vel[0]),
                vy=float(vel[1]),
                heading=float(sensing.wrap_angle(course)),
            )
        )
        # integrate to the next sample, splitting at maneuver boundaries
        t_next = (k + 1) * cfg.T
        edges = [t] + [b for b in breaks if t < b < t_next] + [t_next]
        for a, b in zip(edges[:-1], edges[1:]):
            pos = pos + _arc_displacement(
                speed, observer_course(cfg, a), observer_course(cfg, b), b - a
            )
    return track


@functools.lru_cache(maxsize=8)
def _observer_track_cached(cfg: ScenarioConfig) -> tuple[ObserverState, ...]:
    # the ownship track depends only on the config, not on the run seed
    return tuple(gen_observer_track(cfg))


def gen_target_track(
    cfg: ScenarioConfig, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    """Absolute target states, shape (horizon + 1, model dim).

    The nominal trajectory is deterministic; passing a generator adds the
    model's process noise on top (one draw per step).
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
    if model.kind == CT:
        track[0, 4] = cfg.true_turn_rate

    Lq = None
    if rng is not None:
        Q = kinematics.process_noise_cov(model)
        if np.any(Q):
            # eigen square root: Q may be singular (e.g. a zero noise block)
            w, V = np.linalg.eigh(Q)
            Lq = V * np.sqrt(np.clip(w, 0.0, None))
    for k in range(cfg.horizon):
        nxt = kinematics.transition(model, track[k])
        if Lq is not None:
            nxt = nxt + Lq @ rng.standard_normal(n)
        track[k + 1] = nxt
    return track


def relative_truth(target: np.ndarray, observers: list[ObserverState]) -> np.ndarray:
    """Relative (target minus observer) states at every sample."""
    rel = target.copy()
    for k, o in enumerate(observers):
        rel[k, 0] -= o.x
        rel[k, 1] -= o.y
        rel[k, 2] -= o.vx
        rel[k, 3] -= o.vy
    return rel


@dataclass
class RunRecord:
    """Everything one simulated run produced."""

    truth_rel: np.ndarray            # (horizon, dim), steps 1..horizon
    target_abs: np.ndarray           # (horizon + 1, dim)
    observers: list[ObserverState]   # horizon + 1 samples
    measurements: list[BearingPair]  # horizon entries
    estimates: list[FilterBankState]  # horizon entries, first is the init
    wall_time: float
    diverged: bool
    failure: Optional[str]
    true_slot: int
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
    failed: bool
    failure: Optional[str]


def run_seed(master_seed: int, index: int) -> np.random.SeedSequence:
    """Deterministic per-run seed, independent of worker layout."""
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))


def simulate_run(
    cfg: ScenarioConfig,
    seed: int | np.random.SeedSequence,
    mode: str = RESOLVED,
) -> RunRecord:
    """Simulate one run: truth, mirrored bearings, and the tracker.

    In "resolved" mode the two-filter bank processes both bearing slots; in
    "known-side" mode the bank's true side alone, started identically, is
    fed only the true-side bearing through the same per-side kernel
    (:func:`lrtma.side_step`), and its estimate is stored in both bank
    slots with the weight locked. Numerical failures mark the run diverged
    with a failure code instead of raising.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    # derive the child streams statelessly: SeedSequence.spawn would mutate
    # the caller's object and break same-seed reproducibility
    children = [
        np.random.SeedSequence(entropy=ss.entropy, spawn_key=tuple(ss.spawn_key) + (j,))
        for j in range(4)
    ]
    rng_proc, rng_meas, rng_misc, rng_init = (np.random.default_rng(c) for c in children)

    model = cfg.motion_model()
    prior = cfg.prior()
    sigma = cfg.sigma_theta_rad
    H = cfg.horizon

    observers = list(_observer_track_cached(cfg))
    target = gen_target_track(cfg, rng_proc)
    rel_all = relative_truth(target, observers)

    pairs_true_first = [
        sensing.measure(rel_all[k], observers[k].heading, sigma, rng_meas, t=k)
        for k in range(1, H + 1)
    ]
    swap = bool(rng_misc.random() < 0.5)
    true_slot = 2 if swap else 1
    pairs = [
        BearingPair(y1=p.y2, y2=p.y1, heading=p.heading, t=p.t) if swap else p
        for p in pairs_true_first
    ]

    # One polar draw per run, applied to both sides as mirror images (the
    # angular offsets flip sign on slot 2). A shared draw keeps the two
    # hypotheses perfectly matched until the geometry separates them, and
    # keeps known-side runs paired with the bank's true side.
    polar_draw = rng_init.standard_normal(5)
    obs1 = observers[1]

    def init(slot: int) -> GaussianBelief:
        y0 = pairs[0].y1 if slot == 1 else pairs[0].y2
        sign = 1.0 if slot == 1 else -1.0
        return _drawn_side(y0, sign, polar_draw, prior, obs1, model)

    estimates: list[FilterBankState] = []
    failure: Optional[str] = None
    t0 = time.perf_counter()
    try:
        if mode == RESOLVED:
            bank = lrtma.bank_from_sides(init(1), init(2), pairs[0].t)
        else:
            bank = _single_state(init(true_slot), pairs[0].t)
        estimates.append(bank)
        for k in range(2, H + 1):
            pair = pairs[k - 1]
            args = (observers[k - 1], observers[k], model, cfg.filter_kind, sigma)
            if mode == RESOLVED:
                bank = lrtma.step(bank, pair, *args)
            else:
                y = pair.y1 if true_slot == 1 else pair.y2
                out = lrtma.side_step(bank.fused, y, *args)
                bank = _single_state(out.posterior, k)
            estimates.append(bank)
    except (gaussfilt.FilterNumericsError, sensing.ZeroRangeError, np.linalg.LinAlgError) as exc:
        failure = f"{type(exc).__name__}: {exc}"
        while len(estimates) < H:
            estimates.append(estimates[-1])
    wall = time.perf_counter() - t0

    truth_rel = rel_all[1:]
    if failure is None:
        est_r = float(np.hypot(*estimates[-1].fused.mean[0:2]))
        true_r = float(np.hypot(*truth_rel[-1][0:2]))
        term_err = abs(est_r - true_r)
        diverged = term_err > cfg.track_bound_km
    else:
        term_err = float("nan")
        diverged = True

    return RunRecord(
        truth_rel=truth_rel,
        target_abs=target,
        observers=observers,
        measurements=pairs,
        estimates=estimates,
        wall_time=wall,
        diverged=diverged,
        failure=failure,
        true_slot=true_slot,
        terminal_range_error=term_err,
    )


def _single_state(belief: GaussianBelief, t: int) -> FilterBankState:
    return FilterBankState(
        belief1=belief, belief2=belief, log_odds=math.inf, fused=belief, t=t
    )


def _drawn_side(
    bearing: float,
    sign: float,
    z: np.ndarray,
    prior: InitPrior,
    obs: ObserverState,
    model: MotionModel,
) -> GaussianBelief:
    """Side belief whose mean is one polar draw from the prior.

    ``z`` holds standard-normal offsets for (range, bearing, speed, course,
    turn rate); ``sign`` is -1 on the mirror side so the two hypotheses
    receive mirror-image perturbations of the same draw. The claimed
    covariance stays the side's linearized prior.
    """
    r = prior.r_bar + prior.sigma_r * z[0]
    th = bearing + sign * prior.sigma_theta * z[1]
    s = prior.s_bar + prior.sigma_s * z[2]
    c = th + np.pi + sign * prior.sigma_c * z[3]
    mean = np.zeros(model.dim)
    mean[0:2] = r * np.array([np.sin(th), np.cos(th)])
    mean[2:4] = s * np.array([np.sin(c), np.cos(c)]) - obs.vel
    if model.kind == CT:
        mean[4] = sign * prior.sigma_psi * z[4]
    cov = lrtma.init_side(bearing, prior, obs, model).cov
    return GaussianBelief(mean=mean, cov=cov)


def summarize_run(rec: RunRecord) -> RunSummary:
    """Reduce a run to the arrays the evaluation metrics need."""
    H = len(rec.estimates)
    pos_err = np.empty((H, 2))
    vel_err = np.empty((H, 2))
    first_decided = None
    for k, est in enumerate(rec.estimates):
        pos_err[k] = est.fused.mean[0:2] - rec.truth_rel[k][0:2]
        vel_err[k] = est.fused.mean[2:4] - rec.truth_rel[k][2:4]
        if first_decided is None and max(est.w1, est.w2) >= 0.99:
            first_decided = est.t
    last = rec.estimates[-1]
    return RunSummary(
        pos_err=pos_err,
        vel_err=vel_err,
        terminal_range_error=rec.terminal_range_error,
        terminal_max_weight=float(max(last.w1, last.w2)),
        first_decided_step=first_decided,
        wall_time=rec.wall_time,
        diverged=rec.diverged,
        failed=rec.failure is not None,
        failure=rec.failure,
    )


def _mc_chunk(cfg: ScenarioConfig, mode: str, start: int, stop: int) -> list[RunSummary]:
    return [
        summarize_run(simulate_run(cfg, run_seed(cfg.seed, i), mode=mode))
        for i in range(start, stop)
    ]


def run_monte_carlo(
    cfg: ScenarioConfig,
    mode: str = RESOLVED,
    workers: int = 1,
) -> list[RunSummary]:
    """Independent seeded runs reduced to summaries, ordered by run index.

    The result is a pure function of (config, master seed); the worker
    count only changes how the runs are scheduled. The pool never holds
    more processes than the machine has CPUs.
    """
    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1 or cfg.n_runs < 4:
        return _mc_chunk(cfg, mode, 0, cfg.n_runs)
    n_chunks = min(workers * 4, cfg.n_runs)
    bounds = np.linspace(0, cfg.n_runs, n_chunks + 1).astype(int)
    out: list[RunSummary] = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_mc_chunk, cfg, mode, int(a), int(b))
            for a, b in zip(bounds[:-1], bounds[1:])
            if b > a
        ]
        for fut in futures:
            out.extend(fut.result())
    return out
