"""The benchmark harness under ``benchmarks/`` still binds to the package.

Its tracer swaps package functions by name and tags each span from the
call's positional arguments, so a renamed function or a reordered
signature breaks ``benchmarks/run.py --trace 1`` without failing any
other test. This applies the harness's own wrappers and checks the spans.
"""

import sys
from pathlib import Path

import pytest

from towedtma import cli, lrtma, simkit

BENCH_DIR = str(Path(__file__).resolve().parents[1] / "benchmarks")
CELLS = (("ekf", "cv"), ("ckf", "ct"), ("ghf", "cv"), ("srf", "cv"))
MODE_CELLS = {("ekf", "cv", "resolved"), ("ekf", "cv", "known-side")}


def _montecarlo(out_dir) -> int:
    """A 2-cell ``towedtma montecarlo`` with a 2-worker pool."""
    return cli.main(["montecarlo", "--filter", "ekf", "--case", "cv", "--mode", "all",
                     "--workers", "2", "--runs", "4", "--out", str(out_dir)])


@pytest.fixture(scope="module")
def harness():
    # import without leaving bytecode caches under benchmarks/
    sys.path.insert(0, BENCH_DIR)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import checks
        import tracer
        import workloads
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(BENCH_DIR)
    return checks, tracer, workloads


def test_harness_wrappers_tag_the_tracker(harness):
    checks, tracer, workloads = harness
    originals = (lrtma.step, simkit.simulate_run)
    tr = tracer.Tracer()
    workloads.wrap_filter_layers(tr)
    workloads.wrap_simkit_layers(tr)
    try:
        with tr.root():
            for f, c in CELLS:
                cfg = simkit.ScenarioConfig(filter_kind=f, model_kind=c, n_runs=1)
                rec = simkit.simulate_run(cfg, simkit.run_seed(cfg.seed, 0))
                assert rec.failure is None
            cfg = simkit.ScenarioConfig()
            model = cfg.motion_model()
            obs = rec.observers
            bank = lrtma.init_bank(rec.measurements[0], cfg.prior(), obs[1], model)
            lrtma.step(bank, rec.measurements[1], obs[1], obs[2], model,
                       cfg.filter_kind, cfg.sigma_theta_rad)
    finally:
        tr.restore()
    assert (lrtma.step, simkit.simulate_run) == originals

    spans = tr.summary()
    assert spans.nested
    tags = {f"{f}.{c}" for f, c in CELLS}
    assert set(spans.tags_of("gaussfilt.predict")) == tags
    assert set(spans.tags_of("lrtma.step")) == tags
    assert set(spans.tags_of("gaussfilt.update")) == tags
    assert set(spans.tags_of("gaussfilt.srf_update")) == {"srf.cv"}
    assert set(spans.tags_of("gaussfilt.points_for")) == {"ckf", "ghf"}
    # one state (EKF, SRF); a resolved CT point filter's one transition of
    # both sides' point sets, 2 x 10 cubature points; and a CV point
    # filter's transition of one side's 3^4 = 81 GH grid
    assert set(spans.tags_of("kinematics.transition")) == {"1", "20", "81"}
    steps = len(CELLS) * (cfg.horizon - 1) + 1
    assert spans.count("lrtma.step") == steps
    assert spans.count("kinematics.observer_input") == 2 * steps
    # each side of a resolved point filter still factors its own belief
    # twice a step: in predict and in update
    point_steps = sum(f in ("ckf", "ghf") for f, _ in CELLS) * (cfg.horizon - 1)
    assert spans.count("gaussfilt.chol_psd") == 4 * point_steps
    assert spans.count("kinematics.process_jacobian") > 0
    assert spans.count("simkit.simulate_run") == len(CELLS)
    # a run draws its bearings as one block
    assert spans.count("sensing.measure") == len(CELLS)

    found = checks.Checks()
    checks.check_point_sets(found, tr.captures["gaussfilt.points_for"])
    checks.check_srf_moments(found, tr.captures["gaussfilt.shifted_rayleigh_moments"])
    assert found.ok, found.results


def test_cell_timer_sees_each_cli_cell(harness, tmp_path):
    # the cli-table-pool workload swaps in a timer of signature
    # (cfg, mode, workers=1) and keeps one entry per cell
    _, _, workloads = harness
    original = simkit.run_monte_carlo
    wl = workloads.CliTablePool(seed=1, out_dir=tmp_path)
    wl.speed = workloads.calib.Speed()
    calls = []
    with wl._cell_timer():
        timed = simkit.run_monte_carlo

        def recorder(*args, **kwargs):
            calls.append((args, kwargs))
            return timed(*args, **kwargs)

        # the timer puts the original back when it exits
        simkit.run_monte_carlo = recorder
        assert _montecarlo(tmp_path / "table") == 0
    assert simkit.run_monte_carlo is original
    assert [(len(args), sorted(kwargs)) for args, kwargs in calls] == [
        (1, ["mode", "workers"])] * len(MODE_CELLS)
    assert set(wl._round_cell) == MODE_CELLS


def test_tracer_tags_cli_cells_by_mode(harness, tmp_path):
    _, tracer, workloads = harness
    tr = tracer.Tracer()
    workloads.CliTablePool(seed=1, out_dir=tmp_path).wrap(tr)
    try:
        with tr.root():
            assert _montecarlo(tmp_path / "table") == 0
    finally:
        tr.restore()
    tags = set(tr.summary().tags_of("simkit.run_monte_carlo"))
    assert tags == {".".join(cell) for cell in MODE_CELLS}
