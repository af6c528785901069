"""Names and units of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same names; the
self-check (``selfcheck.py``) holds the two in step.
"""

FILTERS = ("ekf", "ukf", "ckf", "ghf", "srf")
CASES = ("cv", "ct")
MODES = ("resolved", "known-side")
POINT_KINDS = ("ukf", "ckf", "ghf", "srf")
WORKLOADS = ("mc-ct-points", "mc-cv-light", "online-track", "cli-table-pool")
# (filter, case) pairs the serial workloads leave out. A UKF run in the CT
# case fails now and then (about 1 in 10,000 runs; see CHANGES.md), so runs
# of the same code on other seeds or for other lengths would disagree on
# how many operations failed. ``cli-table-pool`` still runs every cell.
LEFT_OUT = (("ukf", "ct"),)

SERIAL_CELLS = tuple((f, c) for c in CASES for f in FILTERS if (f, c) not in LEFT_OUT)

END_TO_END = {
    "setup_s": "s",
    "runs_per_s": "runs/s",
    "step_us_p50": "us",
    "step_us_p99": "us",
    "peak_rss_mb": "MB",
}


def per_layer() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    m: dict[str, str] = {}
    for c in CASES:
        for f in FILTERS:
            for mode in MODES:
                m[f"simkit.cell.{f}.{c}.{mode}.ms_per_run"] = "ms"
    m["simkit.truth.us_per_run"] = "us"
    m["simkit.simulate_run.self_us_per_run"] = "us"
    m["simkit.summarize_run.us_per_run"] = "us"
    m["simkit.pool.overhead_ms_per_cell"] = "ms"
    m["sensing.measure.us_per_run"] = "us"
    m["kinematics.transition.us_per_step"] = "us"
    m["kinematics.transition.states_per_step"] = "count"
    m["kinematics.observer_input.us_per_step"] = "us"
    m["kinematics.process_jacobian.us_per_step"] = "us"
    for k in POINT_KINDS:
        m[f"gaussfilt.points.{k}.us_per_call"] = "us"
    m["gaussfilt.chol_psd.calls_per_step"] = "count"
    m["gaussfilt.chol_psd.us_per_call"] = "us"
    for phase in ("predict", "update"):
        for f, c in SERIAL_CELLS:
            m[f"gaussfilt.{phase}.{f}.{c}.self_us"] = "us"
    m["gaussfilt.srf_moments.us_per_call"] = "us"
    for f, c in SERIAL_CELLS:
        m[f"lrtma.step.{f}.{c}.us_p50"] = "us"
    m["lrtma.step.self_us_per_step"] = "us"
    for f in ("ekf", "srf"):
        m[f"lrtma.resolved_over_known.{f}.cv"] = "ratio"
    m["evalkit.reduce_ms_per_cell"] = "ms"
    m["cli.output_ms_per_cell"] = "ms"
    m["cli.report_ms"] = "ms"
    m["setup.import_s"] = "s"
    m["trace.overhead_pct"] = "%"
    return m
