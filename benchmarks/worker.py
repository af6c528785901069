"""One workload in a fresh interpreter; started by ``run.py``.

The process imports the package from the checkout's ``src/``, makes one
warm-up call into the workload's entry point and reports how long that
took from the moment ``run.py`` started it (``--t0``, a
``time.perf_counter`` reading; that clock is shared by the processes of
one machine), scaled to reference speed by the calibration kernel run
just before the start (``--kernel-before``) and just after the warm-up
(see ``calib.py``). With ``--probe`` it stops there. Otherwise it runs whole
rounds of the workload for ``--seconds``, checks the outputs, and prints
its result as JSON on the last line of standard output. With
``--trace 1`` it runs half the time untraced and then the same rounds
again with every layer boundary traced.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--kernel-before", type=float, required=True)
    p.add_argument("--probe", action="store_true")
    args = p.parse_args(argv)

    if not (SRC / "towedtma" / "__init__.py").is_file():
        print(f"no towedtma package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    entry = "towedtma.cli" if args.workload == "cli-table-pool" else "towedtma"
    importlib.import_module(entry)
    import_s = time.perf_counter() - args.t0

    import calib
    import workloads

    pkg = Path(sys.modules["towedtma"].__file__).resolve()
    if SRC not in pkg.parents:
        print(f"towedtma was imported from {pkg}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT, keep_inputs=bool(args.trace))
    wl.warm_up()
    setup_s = time.perf_counter() - args.t0
    speed = calib.REF_S / (0.5 * (args.kernel_before + calib.settled_kernel_s()))
    setup_s *= speed
    import_s *= speed
    if args.probe:
        print(json.dumps({"setup_s": setup_s, "import_s": import_s}))
        return 0

    wl.prepare()
    budget = args.seconds / 2 if args.trace else args.seconds
    rounds = 0
    start = time.perf_counter()
    while rounds < wl.min_rounds or time.perf_counter() - start < budget:
        wl.run_round(rounds)
        rounds += 1

    metrics: dict[str, float] = {}
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        wl.wrap(tracer)
        try:
            for r in range(rounds):
                wl.run_round(r, tracer)
        finally:
            tracer.restore()
        tracer.save(OUT / f"spans-{args.workload}.npz")
        spans = tracer.summary()
        wl.checks.expect("trace.nested", spans.nested, f"{spans.n_spans} spans")
        wl.checks.expect(
            "trace.self_times_add_up",
            abs(spans.self_sum_s - spans.root_s) <= 1e-9 * spans.root_s,
            f"layers {spans.self_sum_s:.6f} s, root {spans.root_s:.6f} s",
        )
        metrics.update(wl.untraced_layer_metrics())
        metrics.update(wl.traced_layer_metrics(spans, rounds))
        metrics["trace.overhead_pct"] = wl.trace_overhead_pct()
        print("layer self time (s): " + ", ".join(
            f"{k} {v:.3f}" for k, v in sorted(spans.layer_self().items())
        ), file=sys.stderr)
    else:
        metrics.update(wl.end_to_end())
        kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics["peak_rss_mb"] = kb / 1024.0

    wl.finish_checks(tracer)
    wl.checks.report()
    print(f"{args.workload}: {rounds} rounds", file=sys.stderr)
    print(json.dumps({
        "correct": wl.checks.ok,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": metrics,
        "setup_s": setup_s,
        "import_s": import_s,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
