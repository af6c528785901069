"""Benchmark command: one workload, its end-to-end or per-layer metrics.

Usage (from the repository root):

    python3 benchmarks/run.py --workload mc-ct-points --seed 1 --seconds 20 --trace 0

Each workload runs in fresh interpreters of its own, one thread each with
numpy's BLAS held to one thread (only ``cli-table-pool`` starts two pool
workers). Set-up is measured in ``SETUP_SAMPLES`` fresh interpreters (four
probes plus the measuring process) and reported as their median. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, which holds every end-to-end metric with
``--trace 0`` and every per-layer metric with ``--trace 1`` (0 for a layer
the workload does not run). See ``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
from spec import END_TO_END, WORKLOADS, per_layer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
TIMEOUT_S = 170


def _env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and parse its JSON result."""
    kernel = calib.settled_kernel_s()
    t0 = time.perf_counter()
    cmd = [sys.executable, str(HERE / "worker.py"), *args,
           "--t0", repr(t0), "--kernel-before", repr(kernel)]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.perf_counter(), 1.0),
    )
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "towedtma" / "__init__.py").is_file():
        print(f"no towedtma package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + TIMEOUT_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    probes = [_worker(common + ["--probe"], deadline) for _ in range(SETUP_SAMPLES - 1)]
    res = _worker(common, deadline)
    samples = probes + [res]

    if args.trace:
        names = per_layer()
        unknown = set(res["metrics"]) - set(names)
        if unknown:
            print(f"metrics not in the spec: {sorted(unknown)}", file=sys.stderr)
            return 3
        metrics = {n: float(res["metrics"].get(n, 0.0)) for n in names}
        metrics["setup.import_s"] = statistics.median(s["import_s"] for s in samples)
        units = names
    else:
        metrics = dict(res["metrics"])
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in samples)
        units = END_TO_END
    missing = set(units) - set(metrics)
    if missing:
        print(f"metrics missing from the result: {sorted(missing)}", file=sys.stderr)
        return 3

    for name, unit in units.items():
        print(f"{name:48s} {metrics[name]:14.4f} {unit}")
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
