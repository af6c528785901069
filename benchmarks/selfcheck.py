"""Self-check of the benchmark at tiny sizes.

    python3 benchmarks/selfcheck.py

Runs every workload for one second in both modes and asserts that the
command prints, as its last line, every metric ``BENCHMARK.json`` names
for that mode with its unit, plus the attempted/failed counts. It also
asserts that ``BENCHMARK.json`` and ``spec.py`` list the same metrics, and
that the command fails without printing a result when the package source
is missing. Takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from spec import END_TO_END, WORKLOADS, per_layer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == END_TO_END, "BENCHMARK.json end_to_end differs from spec.py"
    assert layer == per_layer(), "BENCHMARK.json per_layer differs from spec.py"
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)

    for workload in WORKLOADS:
        for trace, expected in ((0, e2e), (1, layer)):
            proc = run(ROOT, workload, trace)
            assert proc.returncode == 0, f"{workload} trace={trace}: {proc.stderr[-2000:]}"
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
            assert res["correct"] is True, f"{workload} trace={trace}: checks failed"
            assert isinstance(res["attempted"], int) and res["attempted"] >= 1
            assert isinstance(res["failed"], int) and 0 <= res["failed"] <= res["attempted"]
            got = {n: m["unit"] for n, m in res["metrics"].items()}
            assert got == expected, f"{workload} trace={trace}: metric names or units differ"
            assert all(isinstance(m["value"], float) for m in res["metrics"].values())
            print(f"ok {workload} trace={trace}: attempted {res['attempted']}, "
                  f"failed {res['failed']}, {len(got)} metrics")

    # A tree holding only the benchmark: the command must fail, printing no result.
    bare = HERE / "out" / "bare-tree"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(bare, WORKLOADS[0], 0)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), "bare tree did not fail cleanly"
    print("ok bare tree fails with code", proc.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
