"""The tools under ``tools/`` still run against the package as it stands."""

import importlib.util
import io
import json
import re
import subprocess
import sys
import tarfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_output_digest_prints_every_part_and_a_total():
    # speed work proves bit-identity with this tool, so an API change that
    # breaks it must fail here rather than in the next comparison
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "output_digest.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    parts = dict(re.findall(r"^(\w+): ([0-9a-f]{64})$", proc.stderr, re.MULTILINE))
    assert set(parts) == {"runs", "points", "kinematics", "filters", "init", "files"}
    assert re.fullmatch(r"[0-9a-f]{64}", proc.stdout.strip().splitlines()[-1])


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOLS / "bench_pairs.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


BETTER = {"runs_per_s": "higher", "step_us_p50": "lower"}


def _bench_run(seed, tree, rps=None, correct=True, failed=0):
    """One run entry as bench_pairs records it; ``rps`` None is a run that errored."""
    result = None if rps is None else {
        "correct": correct, "attempted": 100, "failed": failed,
        "metrics": {"runs_per_s": {"value": rps, "unit": "runs/s"},
                    "step_us_p50": {"value": 1e4 / rps, "unit": "us"}},
    }
    return {"seed": seed, "tree": tree, "order": 0, "exit_code": 0 if result else 1,
            "result": result}


def _synthetic_runs():
    # seed 1 ties, seed 2 the change wins, seed 3 the parent wins; seed 4's
    # change run errored, so its parent run enters no median
    return [
        _bench_run(1, "parent", 100.0), _bench_run(1, "change", 100.0),
        _bench_run(2, "parent", 100.0), _bench_run(2, "change", 110.0, correct=False),
        _bench_run(3, "parent", 100.0, failed=2), _bench_run(3, "change", 90.0),
        _bench_run(4, "parent", 1000.0), _bench_run(4, "change"),
    ]


def test_bench_summary_drops_half_pairs_and_counts_ties_for_neither():
    summary = _bench_pairs().summarize(_synthetic_runs(), BETTER)
    for name in BETTER:
        s = summary["metrics"][name]
        assert s["pairs"] == 3
        assert s["wins"] == 1
    rps = summary["metrics"]["runs_per_s"]
    assert rps["parent"] == {"median": 100.0, "q1": 100.0, "q3": 100.0}
    assert rps["change"]["median"] == 100.0
    assert summary["bad_runs"] == {
        "parent": {"errored": [], "incorrect": [], "failed": [3]},
        "change": {"errored": [4], "incorrect": [2], "failed": []},
    }


def test_bench_summary_without_a_whole_pair_has_no_metrics():
    runs = [_bench_run(1, "parent", 100.0), _bench_run(1, "change")]
    summary = _bench_pairs().summarize(runs, BETTER)
    assert summary["metrics"] == {}
    assert summary["bad_runs"]["change"]["errored"] == [1]


def test_bench_pairs_writes_every_run_then_fails_on_a_bad_one(tmp_path, monkeypatch):
    mod = _bench_pairs()
    results = {(r["seed"], r["tree"]): r for r in _synthetic_runs()}
    empty_tar = io.BytesIO()
    tarfile.open(fileobj=empty_tar, mode="w").close()

    def fake_git(*args):
        return {"rev-parse": b"0123abc\n", "archive": empty_tar.getvalue()}.get(args[0], b"")

    def fake_run(tree, workload, seed, seconds):
        r = results[seed, "change" if tree == mod.ROOT else "parent"]
        return r["exit_code"], r["result"]

    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": n, "better": b} for n, b in BETTER.items()]}))
    monkeypatch.setattr(mod, "ROOT", tmp_path)
    monkeypatch.setattr(mod, "_git", fake_git)
    monkeypatch.setattr(mod, "_run", fake_run)
    assert mod.main(["--label", "t", "--workload", "w", "--seeds", "1-4"]) == 1
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    runs = doc["workloads"]["w"]["runs"]
    assert len(runs) == 8
    assert [r["exit_code"] for r in runs if r["result"] is None] == [1]
    assert doc["workloads"]["w"]["summary"]["metrics"]["runs_per_s"]["pairs"] == 3
