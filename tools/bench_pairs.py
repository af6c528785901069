"""Alternated benchmark pairs of a parent revision and this working tree.

Usage (from anywhere inside the repository):

    python3 tools/bench_pairs.py --label pr11 --parent HEAD \\
        --workload mc-cv-light --seeds 201-210 --seconds 20

The parent revision is exported with ``git archive`` into a temporary
directory, and the working tree into a sibling one: its tracked files as
they stand, and its untracked files that git does not ignore. So both
trees run from the same kind of location. For each seed the tool then runs
``benchmarks/run.py --trace 0`` once on each tree, alternating which tree
goes first, and writes
``BENCH_<label>.json`` at the repository root. The file records every
run's exit code and last-line JSON with its seed, tree and order, the
machine's core count (``os.cpu_count()``) and the cores this process may
run on (``sched_getaffinity``, or the core count where the platform has no
affinity call). A run that exits non-zero, or whose last
line is not JSON, errored and has no result. The summary lists per tree the
seeds whose run errored, was ``correct: false`` or had ``failed > 0``, and
for each end-to-end metric of ``BENCHMARK.json`` both trees' medians and
quartiles, the number of pairs the change wins (ties count for neither)
and a no-regression verdict, over the pairs where both runs gave a result.
The verdict is ``worse_past_bound`` when the change's median is worse than
the parent's by more than the metric's ``bound`` times the parent's
median; else ``unresolved`` when the parent's quartiles lie further apart
than that, unless every change run beats every parent run; else
``no_regression``. Running it again with the same label and parent adds or
replaces one workload's entry.

The file is written whatever the runs did; the tool then exits 1 if any
run of this call errored or was incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE).stdout


def _export_working_tree(dest: Path) -> None:
    """Copy the tracked files as they stand, and the untracked files that are
    not ignored, into ``dest``."""
    names = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, names.split(b"\0")):
        src, dst = ROOT / os.fsdecode(name), dest / os.fsdecode(name)
        if not os.path.lexists(src):
            continue  # tracked, but deleted in the working tree
        dst.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(src, dst, follow_symlinks=False)


def _seeds(spec: str) -> list[int]:
    """Seeds from a list like ``201-205,301``."""
    out: list[int] = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _run(tree: Path, workload: str, seed: int, seconds: float) -> tuple[int, dict | None]:
    """``run.py``'s exit code and its last-line JSON, None if it did not exit 0
    or its last line is not JSON."""
    cmd = [sys.executable, str(tree / "benchmarks" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return proc.returncode, None
    try:
        return 0, json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return 0, None


def _spread(xs: list[float]) -> dict:
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3
    return {"median": q[1], "q1": q[0], "q3": q[2]}


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Bad runs per tree, and per-metric medians, quartiles, wins of the
    change over its pair and no-regression verdict; ``end_to_end`` is the
    list of that name in ``BENCHMARK.json``.

    A run whose ``result`` is None errored; a seed without a result on both
    trees is left out of the medians and wins. Incorrect runs and runs with
    failed operations keep their pair, and are listed by seed.
    """
    bad = {tree: {"errored": [], "incorrect": [], "failed": []} for tree in ("parent", "change")}
    by_seed: dict[int, dict[str, dict]] = {}
    for r in runs:
        res, flags = r["result"], bad[r["tree"]]
        if res is None:
            flags["errored"].append(r["seed"])
            continue
        if not res["correct"]:
            flags["incorrect"].append(r["seed"])
        if res["failed"]:
            flags["failed"].append(r["seed"])
        by_seed.setdefault(r["seed"], {})[r["tree"]] = res["metrics"]
    pairs = [p for p in by_seed.values() if len(p) == 2]
    out = {}
    for metric in end_to_end if pairs else ():
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        parent = [p["parent"][name]["value"] for p in pairs]
        change = [p["change"][name]["value"] for p in pairs]
        p, c = _spread(parent), _spread(change)
        allowed = metric["bound"] * abs(p["median"])
        if sign * (p["median"] - c["median"]) > allowed:
            verdict = "worse_past_bound"
        elif (p["q3"] - p["q1"] > allowed
              and min(sign * b for b in change) <= max(sign * a for a in parent)):
            verdict = "unresolved"
        else:
            verdict = "no_regression"
        out[name] = {
            "parent": p,
            "change": c,
            "wins": sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
            "pairs": len(pairs),
            "median_change_pct": 100.0 * (c["median"] / p["median"] - 1.0) if p["median"] else None,
            "beyond_parent_iqr": sign * (c["median"] - p["median"]) > p["q3"] - p["q1"],
            "verdict": verdict,
        }
    return {"bad_runs": bad, "metrics": out}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--parent", default="HEAD", help="git revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=_seeds, help="e.g. 201-210")
    ap.add_argument("--seconds", type=float, default=20.0)
    args = ap.parse_args(argv)

    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    commit = _git("rev-parse", args.parent).decode().strip()
    out_path = ROOT / f"BENCH_{args.label}.json"
    doc = json.loads(out_path.read_text()) if out_path.exists() else {}
    if doc and doc["parent_commit"] != commit:
        print(f"{out_path.name} compares against {doc['parent_commit']}, not {commit}",
              file=sys.stderr)
        return 2

    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_tree, \
            tempfile.TemporaryDirectory(prefix="bench-change-") as change_tree:
        subprocess.run(["tar", "-x", "-C", parent_tree], input=_git("archive", commit),
                       check=True)
        _export_working_tree(Path(change_tree))
        trees = {"parent": Path(parent_tree), "change": Path(change_tree)}
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for pos, tree in enumerate(order):
                code, res = _run(trees[tree], args.workload, seed, args.seconds)
                runs.append({"seed": seed, "tree": tree, "order": pos, "exit_code": code,
                             "result": res})
                if res is None:
                    print(f"seed {seed} {tree:6s} exited with code {code}", file=sys.stderr)
                    continue
                rps = res["metrics"]["runs_per_s"]["value"]
                print(f"seed {seed} {tree:6s} runs/s {rps:8.2f} correct {res['correct']} "
                      f"failed {res['failed']}", file=sys.stderr)

    doc.update({
        "label": args.label,
        "parent": args.parent,
        "parent_commit": commit,
        "change": {"head": _git("rev-parse", "HEAD").decode().strip(),
                   "uncommitted_changes": bool(_git("status", "--porcelain").strip())},
        "cpu_count": os.cpu_count(),
        "usable_cpus": (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                        else os.cpu_count()),
        "command": "benchmarks/run.py --trace 0",
    })
    summary = summarize(runs, end_to_end)
    doc.setdefault("workloads", {})[args.workload] = {
        "seconds": args.seconds,
        "seeds": args.seeds,
        "runs": runs,
        "summary": summary,
    }
    out_path.write_text(json.dumps(doc, indent=1) + "\n")
    for name, s in summary["metrics"].items():
        print(f"{name:12s} parent {s['parent']['median']:10.3f}  change "
              f"{s['change']['median']:10.3f}  wins {s['wins']}/{s['pairs']}  {s['verdict']}")
    for tree, flags in summary["bad_runs"].items():
        for what, seeds in flags.items():
            if seeds:
                print(f"{tree} runs {what}: seeds {seeds}", file=sys.stderr)
    return 1 if any(f["errored"] or f["incorrect"] for f in summary["bad_runs"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
