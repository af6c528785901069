"""Command-line front end: single-run tracking, Monte Carlo benchmarks,
and consolidated report emission.

Commands:
    track       simulate one run and dump the per-step track CSV
    montecarlo  run the seeded benchmark and write metric series + summary
    report      merge a metrics directory into one consolidated JSON

All angles in files are degrees; internal computation is radians. Series
and summary values are reproducible byte for byte from (config, master
seed, version); wall-clock timings are kept in a separate section marked
non-reproducible. Column orders are documented in OUTPUT_SCHEMA.md.

Exit codes: 0 success, 2 configuration error, 3 runtime/filter failure in
single-run mode.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__, evalkit, simkit
from .gaussfilt import FILTER_KINDS
from .kinematics import CT, CV
from .simkit import MODES, RESOLVED, ConfigError, InitPriorConfig, ScenarioConfig

BASELINE_CELL = ("ekf", "cv", "known-side")
# BenchmarkRow fields that go to timings.json (with the cell) and not to
# the byte-reproducible summary.json
_CELL_FIELDS = ("filter", "case", "mode")
_WALL_FIELDS = ("mean_wall_s", "rel_exec_time")


# ---------------------------------------------------------------------------
# configuration parsing; ScenarioConfig validates the values itself

_PRIOR_FIELDS = {f.name for f in dataclasses.fields(InitPriorConfig)}
_CONFIG_FIELDS = {f.name for f in dataclasses.fields(ScenarioConfig)}


def parse_config(path: str | Path) -> ScenarioConfig:
    """Load and validate a scenario configuration file.

    Missing keys take the benchmark defaults; unknown keys and out-of-range
    values are rejected with field-precise messages. An empty file (or an
    empty JSON object) yields the default Case I configuration.
    """
    raw = Path(path).read_text().strip()
    try:
        data = json.loads(raw) if raw else {}
    except ValueError as exc:  # bad JSON, or an int past Python's digit limit
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return config_from_dict(data)


def config_from_dict(data: dict) -> ScenarioConfig:
    """Build a config from parsed JSON; ``data`` is left unchanged."""
    unknown = set(data) - _CONFIG_FIELDS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    data = dict(data)
    prior_data = data.pop("init_prior", {})
    if not isinstance(prior_data, dict):
        raise ConfigError("init_prior: must be a JSON object")
    bad = set(prior_data) - _PRIOR_FIELDS
    if bad:
        raise ConfigError(f"unknown init_prior keys: {sorted(bad)}")
    return ScenarioConfig(init_prior=InitPriorConfig(**prior_data), **data)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_key(cfg: ScenarioConfig) -> str:
    """Hash identifying (config, master seed, version); key-order stable."""
    payload = canonical_json(
        {"config": cfg.to_dict(), "seed": cfg.seed, "version": __version__}
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def build_manifest(cfg: ScenarioConfig, outputs: Sequence[str]) -> dict:
    return {
        "manifest_key": config_key(cfg),
        "version": __version__,
        "master_seed": cfg.seed,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": cfg.to_dict(),
        "outputs": sorted(outputs),
    }


# ---------------------------------------------------------------------------
# CSV helpers (full-precision, locale-independent)


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_csv(path: Path, header: list[str], rows: list[list], key: str) -> None:
    with path.open("w", newline="") as fh:
        fh.write(f"# manifest: {key}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


# ---------------------------------------------------------------------------
# track command


def cmd_track(cfg: ScenarioConfig, out_dir: Path, mode: str = RESOLVED) -> int:
    """Run one simulation and dump the per-step track table."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rec = simkit.simulate_run(cfg, simkit.run_seed(cfg.seed, 0), mode=mode)

    dim = cfg.motion_model().dim
    state_cols = ["x_km", "y_km", "vx_kmmin", "vy_kmmin"] + (
        ["psi_radmin"] if dim == 5 else []
    )
    header = (
        ["t_min"]
        + [f"truth_{c}" for c in state_cols]
        + ["y1_deg", "y2_deg", "heading_deg"]
        + [f"side1_{c}" for c in state_cols]
        + [f"side2_{c}" for c in state_cols]
        + ["w1", "w2"]
        + [f"fused_{c}" for c in state_cols]
        + [f"fused_var_{c}" for c in state_cols]
    )
    rows = []
    for truth, pair, est in zip(rec.truth_rel, rec.measurements, rec.estimates):
        rows.append(
            [pair.t * cfg.T]
            + list(truth)
            + [np.degrees(pair.y1), np.degrees(pair.y2), np.degrees(pair.heading)]
            + list(est.belief1.mean)
            + list(est.belief2.mean)
            + [est.w1, est.w2]
            + list(est.fused.mean)
            + list(np.diag(est.fused.cov))
        )

    key = config_key(cfg)
    track_name = f"track_{cfg.filter_kind}_{cfg.model_kind}_{mode}.csv"
    write_csv(out_dir / track_name, header, rows, key)
    manifest = build_manifest(cfg, [track_name])
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")

    if rec.failure is not None:
        print(f"run failed: {rec.failure}", file=sys.stderr)
        return 3
    print(f"wrote {out_dir / track_name}")
    return 0


# ---------------------------------------------------------------------------
# montecarlo command


def cmd_montecarlo(
    cfg: ScenarioConfig,
    out_dir: Path,
    filters: Sequence[str],
    cases: Sequence[str],
    modes: Sequence[str],
    workers: int = 1,
) -> int:
    """Run every requested (filter, case, mode) cell and write metrics."""
    out_dir.mkdir(parents=True, exist_ok=True)
    key = config_key(cfg)
    outputs: list[str] = []
    rows: list[evalkit.BenchmarkRow] = []

    for case in cases:
        for kind in filters:
            cell_cfg = dataclasses.replace(cfg, filter_kind=kind, model_kind=case)
            for mode in modes:
                sums = simkit.run_monte_carlo(cell_cfg, mode=mode, workers=workers)
                rows.append(
                    evalkit.benchmark_row(sums, kind, case, mode, cell_cfg.track_bound_km)
                )
                name = f"metrics_{kind}_{case}_{mode}.csv"
                _write_series_csv(out_dir / name, cell_cfg, sums, key)
                outputs.append(name)

    walls = {r.cell: r.mean_wall_s for r in rows}
    if BASELINE_CELL in walls:
        rel = evalkit.relative_execution_time(walls, BASELINE_CELL)
        for r in rows:
            r.rel_exec_time = rel[r.cell]
    dicts = [dataclasses.asdict(r) for r in rows]

    summary = {
        "manifest_key": key,
        "rows": [{k: v for k, v in d.items() if k not in _WALL_FIELDS} for d in dicts],
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    timings = {
        "manifest_key": key,
        "note": "wall-clock values; not byte-reproducible",
        "rows": [{k: d[k] for k in _CELL_FIELDS + _WALL_FIELDS} for d in dicts],
    }
    (out_dir / "timings.json").write_text(json.dumps(timings, indent=2) + "\n")
    outputs += ["summary.json", "timings.json"]
    manifest = build_manifest(cfg, outputs)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {len(outputs)} files to {out_dir}")
    return 0


def _write_series_csv(path: Path, cfg: ScenarioConfig, sums, key: str) -> None:
    header = [
        "t_min",
        "rmse_pos_km",
        "rmse_vel_kmmin",
        "bias_norm_km",
        "included_runs",
    ]
    try:
        rp = evalkit.rmse(sums, "position")
        rv = evalkit.rmse(sums, "velocity")
        bn = evalkit.bias_norm(sums, "position")
        rows = [
            [(k + 1) * cfg.T, rp.values[k], rv.values[k], bn.values[k], rp.included_runs]
            for k in range(len(rp.values))
        ]
    except evalkit.EmptySeriesError:
        rows = []
    write_csv(path, header, rows, key)


# ---------------------------------------------------------------------------
# report command


def _schema_path() -> Path:
    return Path(__file__).parent / "schemas" / "report.schema.json"


def validate_schema(obj, schema, where="report") -> None:
    """Minimal structural validator for the report schema subset."""
    t = schema.get("type")
    types = {
        "object": dict,
        "array": list,
        "string": str,
        "number": (int, float),
        "integer": int,
        "boolean": bool,
        "null": type(None),
    }
    if t is not None:
        allowed = types[t] if not isinstance(t, list) else tuple(
            types[x] for x in t
        )
        if t == "number" and isinstance(obj, bool):
            raise ValueError(f"{where}: expected number, got bool")
        if not isinstance(obj, allowed):
            raise ValueError(f"{where}: expected {t}, got {type(obj).__name__}")
    for req in schema.get("required", []):
        if req not in obj:
            raise ValueError(f"{where}: missing required key {req!r}")
    for name, sub in schema.get("properties", {}).items():
        if isinstance(obj, dict) and name in obj:
            validate_schema(obj[name], sub, f"{where}.{name}")
    if "items" in schema and isinstance(obj, list):
        for i, item in enumerate(obj):
            validate_schema(item, schema["items"], f"{where}[{i}]")


class ReportError(ValueError):
    """A metrics directory is inconsistent; the message names the file."""


def cmd_report(metrics_dir: Path, out_path: Optional[Path] = None) -> int:
    """Merge one metrics directory into a consolidated, validated report.

    A directory whose files lack their manifest key or disagree with
    manifest.json is refused: exit 2 with one stderr line naming the file.
    """
    try:
        report = _merge_report(metrics_dir)
    except ReportError as exc:
        print(f"report error: {exc}", file=sys.stderr)
        return 2
    schema = json.loads(_schema_path().read_text())
    validate_schema(report, schema)

    out_path = out_path or metrics_dir / "report.json"
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")
    return 0


def _merge_report(metrics_dir: Path) -> dict:
    manifest_file = metrics_dir / "manifest.json"
    if not manifest_file.exists():
        raise ReportError(f"no manifest.json in {metrics_dir}")
    manifest = _read_json(manifest_file, ("manifest_key", "version", "config"))
    key = manifest["manifest_key"]

    series = {}
    rows = {"summary.json": [], "timings.json": []}
    for path in sorted(metrics_dir.iterdir()):
        if path.name.startswith("metrics_") and path.suffix == ".csv":
            series[path.stem] = _read_series_csv(path, key)
        elif path.name in rows:
            blob = _read_json(path, ("manifest_key", "rows"))
            _check_key(path, blob["manifest_key"], key)
            rows[path.name] = blob["rows"]

    return {
        "manifest_key": key,
        "version": manifest["version"],
        "config": manifest["config"],
        "summary": rows["summary.json"],
        "timings": rows["timings.json"],
        "series": series,
    }


def _check_key(path: Path, key, expect_key: str) -> None:
    if key != expect_key:
        raise ReportError(
            f"{path}: manifest key {key!r} does not match manifest.json's {expect_key!r}"
        )


def _read_json(path: Path, required: Sequence[str]) -> dict:
    """A JSON object that holds every ``required`` key."""
    try:
        blob = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ReportError(f"{path}: not valid JSON ({exc})") from exc
    missing = [k for k in required if not isinstance(blob, dict) or k not in blob]
    if missing:
        raise ReportError(f"{path}: missing keys {missing}")
    return blob


def _read_series_csv(path: Path, expect_key: str) -> dict:
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith("# manifest: "):
        raise ReportError(f"{path}: missing '# manifest:' line")
    _check_key(path, lines[0].split(": ", 1)[1], expect_key)
    reader = csv.reader(lines[1:])
    try:
        header = next(reader)
        columns: dict[str, list] = {name: [] for name in header}
        for row in reader:
            for name, val in zip(header, row):
                columns[name].append(float(val))
    except (StopIteration, ValueError) as exc:
        raise ReportError(f"{path}: not a series table ({exc!r})") from exc
    return columns


# ---------------------------------------------------------------------------
# argument parsing


def _split_choice(value: str, allowed: Sequence[str], flag: str) -> list[str]:
    items = [v.strip() for v in value.split(",")] if value != "all" else list(allowed)
    for i, item in enumerate(items):
        if item not in allowed:
            raise ConfigError(f"{flag}: {item!r} not in {list(allowed)}")
        if item in items[:i]:
            raise ConfigError(f"{flag}: {item!r} is repeated")
    return items


def _one_choice(value: str, allowed: Sequence[str], flag: str) -> str:
    items = _split_choice(value, allowed, flag)
    if len(items) != 1:
        raise ConfigError(f"{flag}: track takes one value, got {value!r}")
    return items[0]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="towedtma",
        description="Bearings-only TMA with towed-array left-right ambiguity "
        "resolution: single-run tracking and Monte Carlo benchmarks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="scenario config JSON")
    common.add_argument("--seed", type=int, help="master seed override")
    common.add_argument("--runs", type=int, help="number of Monte Carlo runs")
    common.add_argument(
        "--filter", default=None, help="filter kind(s): ekf|ukf|ckf|ghf|srf, "
        "comma-separated or 'all'"
    )
    common.add_argument(
        "--case", default=None, help="target motion case(s): cv|ct, "
        "comma-separated or 'all'"
    )
    common.add_argument(
        "--mode", default=None, help="tracking mode(s): resolved|known-side, "
        "comma-separated or 'all'"
    )
    common.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    common.add_argument("--workers", type=int, default=1, help="parallel workers")

    sub.add_parser("track", parents=[common], help="simulate and dump one run")
    sub.add_parser("montecarlo", parents=[common], help="run the benchmark")
    rep = sub.add_parser("report", help="consolidate metrics")
    rep.add_argument("metrics_dir", type=Path, help="directory written by montecarlo")
    rep.add_argument(
        "--out", type=Path, default=None,
        help="report file (default: METRICS_DIR/report.json)",
    )

    return parser


def _load_config(args) -> ScenarioConfig:
    cfg = parse_config(args.config) if args.config else ScenarioConfig()
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.runs is not None:
        updates["n_runs"] = args.runs
    return dataclasses.replace(cfg, **updates)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args.metrics_dir, args.out)

        if args.workers < 1:
            raise ConfigError(f"--workers: must be at least 1, got {args.workers}")
        cfg = _load_config(args)
        if args.command == "track":
            cfg = dataclasses.replace(
                cfg,
                filter_kind=_one_choice(args.filter or cfg.filter_kind, FILTER_KINDS, "--filter"),
                model_kind=_one_choice(args.case or cfg.model_kind, (CV, CT), "--case"),
            )
            mode = _one_choice(args.mode or RESOLVED, MODES, "--mode")
            return cmd_track(cfg, args.out, mode=mode)

        # montecarlo
        filters = _split_choice(args.filter or cfg.filter_kind, FILTER_KINDS, "--filter")
        cases = _split_choice(args.case or cfg.model_kind, (CV, CT), "--case")
        modes = _split_choice(args.mode or RESOLVED, MODES, "--mode")
        return cmd_montecarlo(
            cfg, args.out, filters, cases, modes, workers=args.workers
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
