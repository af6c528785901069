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
import math
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__, evalkit, simkit
from .gaussfilt import FILTER_KINDS
from .kinematics import MODEL_KINDS
from .simkit import MODES, RESOLVED, ConfigError, InitPriorConfig, ScenarioConfig

BASELINE_CELL = ("ekf", "cv", "known-side")
# track CSV names of the state components, cut to the model's dim
_STATE_COLUMNS = ("x_km", "y_km", "vx_kmmin", "vy_kmmin", "psi_radmin")


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
    try:
        raw = Path(path).read_text().strip()
        data = json.loads(raw) if raw else {}
    except (ValueError, RecursionError) as exc:
        # not UTF-8, bad JSON, an int past Python's digit limit, or nesting
        # past the decoder's recursion limit
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
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def write_json(path: Path, obj) -> None:
    """Indented JSON; a non-finite number raises, since JSON has none."""
    path.write_text(json.dumps(obj, indent=2, allow_nan=False) + "\n")


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

    state_cols = _STATE_COLUMNS[: cfg.motion_model().dim]
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
    write_json(out_dir / "manifest.json", manifest)

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
    walls: dict[tuple[str, str, str], float] = {}  # wall-clock: timings.json only

    for case in cases:
        for kind in filters:
            cell_cfg = dataclasses.replace(cfg, filter_kind=kind, model_kind=case)
            for mode in modes:
                sums = simkit.run_monte_carlo(cell_cfg, mode=mode, workers=workers)
                rows.append(
                    evalkit.benchmark_row(sums, kind, case, mode, cell_cfg.track_bound_km)
                )
                walls[kind, case, mode] = evalkit.mean_wall_time(sums)
                name = f"metrics_{kind}_{case}_{mode}.csv"
                _write_series_csv(out_dir / name, cell_cfg, sums, key)
                outputs.append(name)

    rel = evalkit.relative_execution_time(walls, BASELINE_CELL) if BASELINE_CELL in walls else {}
    summary = {"manifest_key": key, "rows": [dataclasses.asdict(r) for r in rows]}
    write_json(out_dir / "summary.json", summary)
    timings = {
        "manifest_key": key,
        "note": "wall-clock values; not byte-reproducible",
        "rows": [{"filter": f, "case": c, "mode": m, "mean_wall_s": wall,
                  "rel_exec_time": rel.get((f, c, m))} for (f, c, m), wall in walls.items()],
    }
    write_json(out_dir / "timings.json", timings)
    outputs += ["summary.json", "timings.json"]
    manifest = build_manifest(cfg, outputs)
    write_json(out_dir / "manifest.json", manifest)
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
        names = t if isinstance(t, list) else [t]
        # a bool is an int to isinstance; it matches only "boolean"
        if not isinstance(obj, tuple(types[x] for x in names)) or (
            isinstance(obj, bool) and "boolean" not in names
        ):
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

    A directory whose files lack their manifest key, disagree with
    manifest.json, or hold a part of the wrong shape for the report schema
    or a metrics table of the wrong shape (a column named twice, a row of
    the wrong length), or a non-finite number anywhere, is refused: exit 2
    with one stderr line naming the file.
    """
    try:
        report = _merge_report(metrics_dir)
    except ReportError as exc:
        print(f"report error: {exc}", file=sys.stderr)
        return 2

    out_path = out_path or metrics_dir / "report.json"
    write_json(out_path, report)
    print(f"wrote {out_path}")
    return 0


def _merge_report(metrics_dir: Path) -> dict:
    """The report, each part checked against the schema as its file is read."""
    manifest_file = metrics_dir / "manifest.json"
    if not manifest_file.exists():
        raise ReportError(f"no manifest.json in {metrics_dir}")
    schema = json.loads(_schema_path().read_text())["properties"]
    manifest = _read_json(manifest_file, ("manifest_key", "version", "config"))
    for name in ("manifest_key", "version", "config"):
        _check_schema(manifest_file, manifest[name], schema, name)
    key = manifest["manifest_key"]

    series = {}
    rows = {"summary.json": [], "timings.json": []}
    for path in sorted(metrics_dir.iterdir()):
        if path.name.startswith("metrics_") and path.suffix == ".csv":
            series[path.stem] = _read_series_csv(path, key)
        elif path.name in rows:
            blob = _read_json(path, ("manifest_key", "rows"))
            _check_key(path, blob["manifest_key"], key)
            _check_schema(path, blob["rows"], schema, path.stem)
            rows[path.name] = blob["rows"]

    return {
        "manifest_key": key,
        "version": manifest["version"],
        "config": manifest["config"],
        "summary": rows["summary.json"],
        "timings": rows["timings.json"],
        "series": series,
    }


def _check_schema(path: Path, obj, properties: dict, name: str) -> None:
    try:
        validate_schema(obj, properties[name], f"report.{name}")
    except ValueError as exc:
        raise ReportError(f"{path}: {exc}") from exc


def _check_key(path: Path, key, expect_key: str) -> None:
    if key != expect_key:
        raise ReportError(
            f"{path}: manifest key {key!r} does not match manifest.json's {expect_key!r}"
        )


def _finite(text: str) -> float:
    # also the parse_constant of NaN, Infinity and -Infinity
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {text!r}")
    return x


def _read_json(path: Path, required: Sequence[str]) -> dict:
    """A JSON object that holds every ``required`` key and no non-finite number."""
    try:
        blob = json.loads(path.read_text(), parse_float=_finite, parse_constant=_finite)
    except (ValueError, RecursionError) as exc:  # as in parse_config
        raise ReportError(f"{path}: not valid JSON ({exc})") from exc
    missing = [k for k in required if not isinstance(blob, dict) or k not in blob]
    if missing:
        raise ReportError(f"{path}: missing keys {missing}")
    return blob


def _read_series_csv(path: Path, expect_key: str) -> dict:
    try:
        lines = path.read_text().splitlines()
    except ValueError as exc:  # not UTF-8
        raise ReportError(f"{path}: not a series table ({exc!r})") from exc
    if not lines or not lines[0].startswith("# manifest: "):
        raise ReportError(f"{path}: missing '# manifest:' line")
    _check_key(path, lines[0].split(": ", 1)[1], expect_key)
    table = list(csv.reader(lines[1:]))
    header = table[0] if table else []
    if not header or len(set(header)) < len(header):
        raise ReportError(f"{path}: needs a header naming each column once, got {header}")
    wrong_length = [i + 2 for i, row in enumerate(table) if len(row) != len(header)]
    if wrong_length:
        raise ReportError(f"{path}: lines {wrong_length} do not hold {len(header)} values")
    try:
        return {name: [_finite(row[j]) for row in table[1:]] for j, name in enumerate(header)}
    except ValueError as exc:
        raise ReportError(f"{path}: not a series table ({exc!r})") from exc


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

    sub.add_parser("track", parents=[common], help="simulate and dump one run")
    mc = sub.add_parser("montecarlo", parents=[common], help="run the benchmark")
    mc.add_argument("--runs", type=int, help="number of Monte Carlo runs")
    mc.add_argument("--workers", type=int, default=1, help="parallel workers")
    rep = sub.add_parser("report", help="consolidate metrics")
    rep.add_argument("metrics_dir", type=Path, help="directory written by montecarlo")
    rep.add_argument(
        "--out", type=Path, default=None,
        help="report file (default: METRICS_DIR/report.json)",
    )

    return parser


def _load_config(args) -> ScenarioConfig:
    cfg = parse_config(args.config) if args.config else ScenarioConfig()
    return cfg if args.seed is None else dataclasses.replace(cfg, seed=args.seed)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args.metrics_dir, args.out)

        cfg = _load_config(args)
        if args.command == "track":
            cfg = dataclasses.replace(
                cfg,
                filter_kind=_one_choice(args.filter or cfg.filter_kind, FILTER_KINDS, "--filter"),
                model_kind=_one_choice(args.case or cfg.model_kind, MODEL_KINDS, "--case"),
            )
            mode = _one_choice(args.mode or RESOLVED, MODES, "--mode")
            return cmd_track(cfg, args.out, mode=mode)

        # montecarlo
        if args.workers < 1:
            raise ConfigError(f"--workers: must be at least 1, got {args.workers}")
        if args.runs is not None:
            cfg = dataclasses.replace(cfg, n_runs=args.runs)
        filters = _split_choice(args.filter or cfg.filter_kind, FILTER_KINDS, "--filter")
        cases = _split_choice(args.case or cfg.model_kind, MODEL_KINDS, "--case")
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
