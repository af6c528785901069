import json

import numpy as np
import pytest

from towedtma import cli
from towedtma.cli import (
    ConfigError,
    config_from_dict,
    config_key,
    parse_config,
    validate_schema,
)
from towedtma.simkit import ScenarioConfig


class TestParseConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("")
        cfg = parse_config(p)
        assert cfg == ScenarioConfig()
        assert cfg.T == 1.0
        assert cfg.horizon == 30
        assert cfg.target_speed_kn == 4.0
        assert cfg.observer_speed_kn == 5.0
        assert cfg.q1 == pytest.approx(1.944e-6)
        assert cfg.q2 == pytest.approx(3.78e-7)
        assert cfg.sigma_theta_meas_deg == 1.5
        assert cfg.init_prior.sigma_r_km == 2.0
        assert cfg.init_prior.sigma_s_kn == 2.0
        assert cfg.init_prior.sigma_c_deg == pytest.approx(
            np.degrees(np.pi / np.sqrt(12))
        )
        assert cfg.initial_range_km == 5.0
        assert cfg.track_bound_km == 1.0

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"turbo": true}')
        with pytest.raises(ConfigError, match="turbo"):
            parse_config(p)

    def test_unknown_prior_key_rejected(self):
        with pytest.raises(ConfigError, match="init_prior"):
            config_from_dict({"init_prior": {"sigma_q": 1.0}})

    def test_maneuver_order_rejected(self):
        with pytest.raises(ConfigError, match="maneuver_end_min"):
            config_from_dict({"maneuver_start_min": 17.0, "maneuver_end_min": 13.0})

    def test_negative_noise_rejected(self):
        with pytest.raises(ConfigError, match="q1"):
            config_from_dict({"q1": -1.0})

    def test_non_finite_fields_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"q1": Infinity}')
        with pytest.raises(ConfigError, match="q1: must be finite"):
            parse_config(p)
        with pytest.raises(ConfigError, match="T: must be finite"):
            config_from_dict({"T": float("nan")})
        with pytest.raises(ConfigError, match="init_prior.r_bar_km: must be finite"):
            config_from_dict({"init_prior": {"r_bar_km": float("inf")}})

    @pytest.mark.parametrize("value", [-1.0, 0.0])
    def test_nonpositive_turn_rate_prior_rejected(self, value):
        with pytest.raises(ConfigError, match="init_prior.sigma_psi_deg_min"):
            config_from_dict({"init_prior": {"sigma_psi_deg_min": value}})

    @pytest.mark.parametrize(
        "key", ["ukf_kappa", "gh_order", "exact_init", "truth_process_noise"]
    )
    def test_removed_keys_exit_2(self, tmp_path, capsys, key):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({key: 3}))
        argv = ["montecarlo", "--config", str(p), "--runs", "1", "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, extra, field",
        [
            ('{"q1": "abc"}', [], "q1"),
            ('{"horizon": 20.5}', [], "horizon"),
            ('{"init_prior": 5}', [], "init_prior"),
            ('{"seed": -1}', [], "seed"),
            ('{"seed": 1.5}', [], "seed"),
            ('{"n_runs": true}', [], "n_runs"),
            ("{}", ["--seed", "-1"], "seed"),
            pytest.param('{"horizon": 1%s}' % ("0" * 400), [], "horizon", id="horizon-401-digits"),
            ('{"horizon": 10001}', [], "horizon"),
        ],
    )
    def test_bad_value_exits_2_naming_field(self, tmp_path, capsys, text, extra, field):
        p = tmp_path / "cfg.json"
        p.write_text(text)
        out = tmp_path / "o"
        assert cli.main(["track", "--config", str(p), "--out", str(out)] + extra) == 2
        assert f"config error: {field}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text", ["{", '{"horizon": 1%s}' % ("0" * 5000)], ids=["truncated", "int-5001-digits"]
    )
    def test_unreadable_json_exits_2_naming_file(self, tmp_path, capsys, text):
        p = tmp_path / "cfg.json"
        p.write_text(text)
        assert cli.main(["track", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {p}: " in capsys.readouterr().err

    def test_horizon_cap_is_inclusive(self):
        cfg = config_from_dict({"horizon": 10_000})
        assert cfg.horizon == 10_000
        with pytest.raises(ConfigError, match="horizon: must be at most 10000 steps"):
            config_from_dict({"horizon": 10_001})

    def test_config_from_dict_leaves_argument_unchanged(self):
        data = {"init_prior": {"sigma_r_km": 3.0}, "q1": 1e-6}
        cfg = config_from_dict(data)
        assert data == {"init_prior": {"sigma_r_km": 3.0}, "q1": 1e-6}
        assert cfg.init_prior.sigma_r_km == 3.0
        assert config_from_dict(data) == cfg

    def test_bad_filter_rejected(self):
        with pytest.raises(ConfigError, match="filter_kind"):
            config_from_dict({"filter_kind": "pf"})

    def test_round_trip(self, tmp_path):
        cfg = ScenarioConfig(
            seed=7, n_runs=12, filter_kind="ghf", model_kind="ct",
            initial_bearing_deg=33.0,
        )
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg.to_dict()))
        assert parse_config(p) == cfg

    def test_hash_stable_under_key_order(self, tmp_path):
        cfg = ScenarioConfig()
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text('{"seed": 3, "n_runs": 5}')
        b.write_text('{"n_runs": 5, "seed": 3}')
        assert config_key(parse_config(a)) == config_key(parse_config(b))


def small_cfg(**kw):
    base = dict(n_runs=4, horizon=12, maneuver_start_min=5.0, maneuver_end_min=8.0)
    base.update(kw)
    return ScenarioConfig(**base)


class TestTrackCommand:
    def test_row_count_and_weight_sum(self, tmp_path):
        cfg = small_cfg(filter_kind="ekf")
        rc = cli.cmd_track(cfg, tmp_path)
        assert rc == 0
        csv_path = next(tmp_path.glob("track_*.csv"))
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("# manifest: ")
        header = lines[1].split(",")
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == cfg.horizon
        iw1, iw2 = header.index("w1"), header.index("w2")
        for row in rows:
            assert float(row[iw1]) + float(row[iw2]) == pytest.approx(1.0, abs=1e-12)

    def test_rerun_byte_identical(self, tmp_path):
        cfg = small_cfg(filter_kind="ukf")
        cli.cmd_track(cfg, tmp_path / "a")
        cli.cmd_track(cfg, tmp_path / "b")
        fa = next((tmp_path / "a").glob("track_*.csv")).read_bytes()
        fb = next((tmp_path / "b").glob("track_*.csv")).read_bytes()
        assert fa == fb

    def test_main_exit_codes(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"q1": -5}')
        assert cli.main(["track", "--config", str(bad), "--out", str(tmp_path)]) == 2
        ok = tmp_path / "ok.json"
        ok.write_text("{}")
        rc = cli.main(
            ["track", "--config", str(ok), "--runs", "1", "--out", str(tmp_path / "o")]
        )
        assert rc == 0


class TestCellFlags:
    @pytest.mark.parametrize(
        "flag, value, item",
        [("--filter", "ekf,ekf", "ekf"), ("--case", "cv,ct,cv", "cv"),
         ("--mode", "resolved,resolved", "resolved")],
    )
    def test_montecarlo_repeated_item_exits_2(self, tmp_path, capsys, flag, value, item):
        out = tmp_path / "o"
        assert cli.main(["montecarlo", flag, value, "--runs", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert flag in err and repr(item) in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--filter", "all"), ("--filter", "ekf,ukf"), ("--case", "ct,cv"), ("--mode", "all")],
    )
    def test_track_takes_one_value_per_flag(self, tmp_path, capsys, flag, value):
        out = tmp_path / "o"
        assert cli.main(["track", flag, value, "--out", str(out)]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_track_single_values(self, tmp_path):
        argv = ["track", "--filter", "srf", "--case", "ct", "--mode", "known-side",
                "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert (tmp_path / "track_srf_ct_known-side.csv").exists()

    @pytest.mark.parametrize("command", ["track", "montecarlo"])
    @pytest.mark.parametrize("workers", ["0", "-5"])
    def test_workers_below_one_exit_2(self, tmp_path, capsys, command, workers):
        out = tmp_path / "o"
        argv = [command, "--workers", workers, "--runs", "1", "--out", str(out)]
        assert cli.main(argv) == 2
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()


class TestMonteCarloCommand:
    def test_smoke_emits_declared_files(self, tmp_path):
        cfg = small_cfg(n_runs=10)
        rc = cli.cmd_montecarlo(
            cfg, tmp_path, filters=["ekf", "srf"], cases=["cv"],
            modes=["resolved", "known-side"],
        )
        assert rc == 0
        names = {p.name for p in tmp_path.iterdir()}
        assert "summary.json" in names
        assert "timings.json" in names
        assert "manifest.json" in names
        for kind in ("ekf", "srf"):
            for mode in ("resolved", "known-side"):
                assert f"metrics_{kind}_cv_{mode}.csv" in names
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        for name in manifest["outputs"]:
            assert (tmp_path / name).exists()

    def test_summary_one_row_per_cell(self, tmp_path):
        cfg = small_cfg(n_runs=6)
        cli.cmd_montecarlo(
            cfg, tmp_path, filters=["ekf", "ukf"], cases=["cv"], modes=["resolved"]
        )
        summary = json.loads((tmp_path / "summary.json").read_text())
        cells = {(r["filter"], r["case"], r["mode"]) for r in summary["rows"]}
        assert cells == {("ekf", "cv", "resolved"), ("ukf", "cv", "resolved")}

    def test_row_keys_and_order(self, tmp_path):
        cli.cmd_montecarlo(
            small_cfg(n_runs=3), tmp_path, filters=["ekf"], cases=["cv"],
            modes=["known-side"],
        )
        summary = json.loads((tmp_path / "summary.json").read_text())
        timings = json.loads((tmp_path / "timings.json").read_text())
        assert list(summary["rows"][0]) == [
            "filter", "case", "mode", "n_runs", "track_loss_pct", "terminal_rmse_pos_km"
        ]
        assert list(timings["rows"][0]) == [
            "filter", "case", "mode", "mean_wall_s", "rel_exec_time"
        ]
        assert timings["rows"][0]["rel_exec_time"] == 1.0

    def test_baseline_relative_times(self, tmp_path):
        cfg = small_cfg(n_runs=6)
        cli.cmd_montecarlo(
            cfg, tmp_path, filters=["ekf"], cases=["cv"],
            modes=["known-side", "resolved"],
        )
        timings = json.loads((tmp_path / "timings.json").read_text())
        by_mode = {r["mode"]: r for r in timings["rows"]}
        assert by_mode["known-side"]["rel_exec_time"] == pytest.approx(1.0)
        assert by_mode["resolved"]["rel_exec_time"] > 1.0


class TestReportCommand:
    def test_merge_and_schema(self, tmp_path):
        cfg = small_cfg(n_runs=5)
        cli.cmd_montecarlo(
            cfg, tmp_path, filters=["ekf"], cases=["cv"], modes=["resolved"]
        )
        rc = cli.cmd_report(tmp_path)
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        schema = json.loads(cli._schema_path().read_text())
        validate_schema(report, schema)
        assert report["summary"][0]["filter"] == "ekf"
        assert "metrics_ekf_cv_resolved" in report["series"]
        series = report["series"]["metrics_ekf_cv_resolved"]
        assert len(series["t_min"]) == cfg.horizon

    def test_mixed_manifest_rejected(self, tmp_path):
        cfg = small_cfg(n_runs=5)
        cli.cmd_montecarlo(
            cfg, tmp_path, filters=["ekf"], cases=["cv"], modes=["resolved"]
        )
        summary = json.loads((tmp_path / "summary.json").read_text())
        summary["manifest_key"] = "deadbeefdeadbeef"
        (tmp_path / "summary.json").write_text(json.dumps(summary))
        assert cli.cmd_report(tmp_path) == 2

    def test_main_report_default_path_and_out(self, tmp_path):
        mdir = tmp_path / "metrics"
        cli.cmd_montecarlo(
            small_cfg(n_runs=3), mdir, filters=["ekf"], cases=["cv"], modes=["resolved"]
        )
        default = mdir / "report.json"
        assert cli.main(["report", str(mdir)]) == 0
        want = json.loads(default.read_text())
        default.unlink()
        out = tmp_path / "elsewhere.json"
        assert cli.main(["report", str(mdir), "--out", str(out)]) == 0
        assert not default.exists()
        assert json.loads(out.read_text()) == want

    def test_report_takes_no_run_options(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["report", str(tmp_path), "--runs", "5"])
        assert exc.value.code == 2

    def test_missing_manifest(self, tmp_path):
        assert cli.cmd_report(tmp_path) == 2

    @staticmethod
    def _refused(mdir, capsys, culprit):
        assert cli.main(["report", str(mdir)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("report error: ")
        assert str(mdir / culprit) in err
        assert not (mdir / "report.json").exists()

    def test_main_refuses_series_from_another_seed(self, tmp_path, capsys):
        name = "metrics_ekf_cv_resolved.csv"
        for seed, d in ((0, "a"), (5, "b")):
            cli.cmd_montecarlo(
                small_cfg(n_runs=3, seed=seed), tmp_path / d,
                filters=["ekf"], cases=["cv"], modes=["resolved"],
            )
        (tmp_path / "a" / name).write_text((tmp_path / "b" / name).read_text())
        capsys.readouterr()
        self._refused(tmp_path / "a", capsys, name)

    def test_main_refuses_manifest_without_key(self, tmp_path, capsys):
        cli.cmd_montecarlo(
            small_cfg(n_runs=3), tmp_path, filters=["ekf"], cases=["cv"], modes=["resolved"]
        )
        (tmp_path / "manifest.json").write_text("{}")
        capsys.readouterr()
        self._refused(tmp_path, capsys, "manifest.json")

    @pytest.mark.parametrize(
        "keep_lines, bad_cell", [(1, None), (None, "abc")], ids=["no-header", "non-numeric"]
    )
    def test_main_refuses_unreadable_series(self, tmp_path, capsys, keep_lines, bad_cell):
        name = "metrics_ekf_cv_resolved.csv"
        cli.cmd_montecarlo(
            small_cfg(n_runs=3), tmp_path, filters=["ekf"], cases=["cv"], modes=["resolved"]
        )
        csv_path = tmp_path / name
        lines = csv_path.read_text().splitlines(True)[:keep_lines]
        if bad_cell:
            lines[2] = bad_cell + lines[2][lines[2].index(","):]
        csv_path.write_text("".join(lines))
        capsys.readouterr()
        self._refused(tmp_path, capsys, name)

    def test_main_refuses_series_without_manifest_line(self, tmp_path, capsys):
        name = "metrics_ekf_cv_resolved.csv"
        cli.cmd_montecarlo(
            small_cfg(n_runs=3), tmp_path, filters=["ekf"], cases=["cv"], modes=["resolved"]
        )
        csv_path = tmp_path / name
        csv_path.write_text("".join(csv_path.read_text().splitlines(True)[1:]))
        capsys.readouterr()
        self._refused(tmp_path, capsys, name)

    def test_schema_validator_catches_missing_key(self):
        schema = {"type": "object", "required": ["x"]}
        with pytest.raises(ValueError, match="missing required key 'x'"):
            validate_schema({}, schema)

    def test_schema_validator_catches_wrong_type(self):
        schema = {"type": "object", "properties": {"x": {"type": "number"}}}
        with pytest.raises(ValueError, match="expected number"):
            validate_schema({"x": "nope"}, schema)
