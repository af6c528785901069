"""The benchmark harness under ``benchmarks/`` still binds to the package.

Its tracer swaps package functions by name and tags each span from the
call's positional arguments, so a renamed function or a reordered
signature breaks ``benchmarks/run.py --trace 1`` without failing any
other test. This applies the harness's own wrappers and checks the spans.
"""

import sys
from pathlib import Path

import pytest

from towedtma import lrtma, simkit

BENCH_DIR = str(Path(__file__).resolve().parents[1] / "benchmarks")
CELLS = (("ekf", "cv"), ("ckf", "ct"), ("ghf", "cv"), ("srf", "cv"))


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
    # one state, a 2n = 10 cubature set (CT) and a 3^4 = 81 GH grid (CV)
    assert set(spans.tags_of("kinematics.transition")) == {"1", "10", "81"}
    steps = len(CELLS) * (cfg.horizon - 1) + 1
    assert spans.count("lrtma.step") == steps
    assert spans.count("kinematics.observer_input") == 2 * steps
    assert spans.count("kinematics.process_jacobian") > 0
    assert spans.count("simkit.simulate_run") == len(CELLS)
    assert spans.count("sensing.measure") == len(CELLS) * cfg.horizon

    found = checks.Checks()
    checks.check_point_sets(found, tr.captures["gaussfilt.points_for"])
    checks.check_srf_moments(found, tr.captures["gaussfilt.shifted_rayleigh_moments"])
    assert found.ok, found.results
