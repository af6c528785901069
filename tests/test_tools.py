"""The tools under ``tools/`` still run against the package as it stands."""

import importlib.util
import io
import json
import re
import subprocess
import sys
import tarfile
from pathlib import Path

import pytest

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
    assert set(parts) == {"runs", "points", "kinematics", "filters", "truth", "init", "files"}
    assert re.fullmatch(r"[0-9a-f]{64}", proc.stdout.strip().splitlines()[-1])


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _tar(files: dict) -> bytes:
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w") as tar:
        for name, text in files.items():
            data = text.encode()
            info = tarfile.TarInfo(name)
            info.size = len(data)
            tar.addfile(info, io.BytesIO(data))
    return buf.getvalue()


@pytest.mark.parametrize("differs", [None, ("_digest_tree.py", "change", "files")])
def test_output_digest_against_runs_both_tools_on_both_trees(tmp_path, monkeypatch, capsys,
                                                             differs):
    monkeypatch.syspath_prepend(str(TOOLS))
    digest = _load_tool("output_digest")
    import bench_pairs

    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "output_digest.py").write_text("this tree's tool\n")
    (tmp_path / "src.py").write_text("edited\n")
    archive = _tar({"tools/output_digest.py": "rev's tool\n", "src.py": "old\n"})

    def fake_git(*args):
        return {"rev-parse": b"0123abcdef\n", "archive": archive,
                "ls-files": b"tools/output_digest.py\0src.py\0"}[args[0]]

    real_run = subprocess.run
    runs = []

    def fake_subprocess_run(cmd, **kwargs):
        if cmd[0] == "tar":
            return real_run(cmd, **kwargs)
        script, tree = Path(cmd[1]), Path(kwargs["cwd"])
        side = tree.name.split("-")[1]  # tree-parent-* or tree-change-*
        assert cmd[0] == sys.executable and script.parent == tree / "tools"
        assert (tree / "src.py").read_text() == {"parent": "old\n", "change": "edited\n"}[side]
        # each copy is its own tree's tool, in both trees
        tool = {"_digest_rev.py": "rev's tool\n", "_digest_tree.py": "this tree's tool\n"}
        assert script.read_text() == tool[script.name]
        runs.append((script.name, side))
        parts = {"runs": "1" * 64, "files": "2" * 64}
        if differs and (script.name, side) == differs[:2]:
            parts[differs[2]] = "3" * 64
        stderr = "".join(f"{k}: {v}\n" for k, v in parts.items())
        return subprocess.CompletedProcess(cmd, 0, stdout="4" * 64 + "\n", stderr=stderr)

    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "_git", fake_git)
    monkeypatch.setattr(subprocess, "run", fake_subprocess_run)
    assert digest.main(["--against", "HEAD~"]) == (1 if differs else 0)
    assert runs == [("_digest_rev.py", "parent"), ("_digest_rev.py", "change"),
                    ("_digest_tree.py", "parent"), ("_digest_tree.py", "change")]
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == "HEAD~'s tool: HEAD~ (0123abcdef) | working tree"
    assert f"  runs       {'1' * 16}  {'1' * 16}  same" in out.splitlines()
    if differs:
        assert f"  files      {'2' * 16}  {'3' * 16}  DIFFERS" in out.splitlines()
        assert err.splitlines() == ["differs: this tree's tool: files"]
    else:
        assert out.count("same") == 6 and "DIFFERS" not in out


def _bench_pairs():
    return _load_tool("bench_pairs")


END_TO_END = [{"name": "runs_per_s", "better": "higher", "bound": 0.05},
              {"name": "step_us_p50", "better": "lower", "bound": 0.05}]


def _bench_run(seed, tree, rps=None, correct=True, failed=0, exit_code=1):
    """One run entry as bench_pairs records it; ``rps`` None is a run that
    errored with ``exit_code``, 0 for one whose last line is not JSON."""
    result = None if rps is None else {
        "correct": correct, "attempted": 100, "failed": failed,
        "metrics": {"runs_per_s": {"value": rps, "unit": "runs/s"},
                    "step_us_p50": {"value": 1e4 / rps, "unit": "us"}},
    }
    return {"seed": seed, "tree": tree, "order": 0, "exit_code": 0 if result else exit_code,
            "result": result}


def _synthetic_runs():
    # seed 1 ties, seed 2 the change wins, seed 3 the parent wins; the
    # change runs of seeds 4 and 5 errored, so their parent runs enter no
    # median; seed 5's exited 0 with a last line that is not JSON
    return [
        _bench_run(1, "parent", 100.0), _bench_run(1, "change", 100.0),
        _bench_run(2, "parent", 100.0), _bench_run(2, "change", 110.0, correct=False),
        _bench_run(3, "parent", 100.0, failed=2), _bench_run(3, "change", 90.0),
        _bench_run(4, "parent", 1000.0), _bench_run(4, "change"),
        _bench_run(5, "parent", 1000.0), _bench_run(5, "change", exit_code=0),
    ]


def test_bench_summary_drops_half_pairs_and_counts_ties_for_neither():
    summary = _bench_pairs().summarize(_synthetic_runs(), END_TO_END)
    for metric in END_TO_END:
        s = summary["metrics"][metric["name"]]
        assert s["pairs"] == 3
        assert s["wins"] == 1
        assert s["verdict"] == "no_regression"
    rps = summary["metrics"]["runs_per_s"]
    assert rps["parent"] == {"median": 100.0, "q1": 100.0, "q3": 100.0}
    assert rps["change"]["median"] == 100.0
    assert summary["bad_runs"] == {
        "parent": {"errored": [], "incorrect": [], "failed": [3]},
        "change": {"errored": [4, 5], "incorrect": [2], "failed": []},
    }


@pytest.mark.parametrize("parent, change, verdict", [
    # the change's median 10% worse, past the 5% bound
    ([100.0, 100.0, 100.0], [90.0, 90.0, 90.0], "worse_past_bound"),
    ([80.0, 100.0, 120.0], [90.0, 90.0, 90.0], "worse_past_bound"),
    # 3% worse: inside the bound, and the parent's runs agree
    ([100.0, 100.0, 100.0], [97.0, 97.0, 97.0], "no_regression"),
    # the parent's quartiles are 20 apart, wider than the bound's 5
    ([80.0, 100.0, 120.0], [99.0, 100.0, 101.0], "unresolved"),
    ([80.0, 100.0, 120.0], [121.0, 122.0, 200.0], "no_regression"),
])
def test_bench_verdict_against_the_bound(parent, change, verdict):
    runs = [_bench_run(seed, tree, rps) for seed, pair in enumerate(zip(parent, change))
            for tree, rps in zip(("parent", "change"), pair)]
    summary = _bench_pairs().summarize(runs, END_TO_END)
    # step_us_p50 = 1e4 / runs_per_s, lower better: the same verdict
    assert [summary["metrics"][m["name"]]["verdict"] for m in END_TO_END] == [verdict] * 2


def test_bench_summary_without_a_whole_pair_has_no_metrics():
    runs = [_bench_run(1, "parent", 100.0), _bench_run(1, "change")]
    summary = _bench_pairs().summarize(runs, END_TO_END)
    assert summary["metrics"] == {}
    assert summary["bad_runs"]["change"]["errored"] == [1]


def test_bench_pairs_writes_every_run_then_fails_on_a_bad_one(tmp_path, monkeypatch):
    mod = _bench_pairs()
    results = {(r["seed"], r["tree"]): r for r in _synthetic_runs()}
    empty_tar = io.BytesIO()
    tarfile.open(fileobj=empty_tar, mode="w").close()
    real_run = subprocess.run

    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "tracked.py").write_text("edited\n")
    (tmp_path / "untracked.py").write_text("new\n")
    ls_files = b"src/tracked.py\0deleted.py\0untracked.py\0"
    cwds = []

    def fake_git(*args):
        return {"rev-parse": b"0123abc\n", "archive": empty_tar.getvalue(),
                "ls-files": ls_files}.get(args[0], b"")

    def fake_subprocess_run(cmd, **kwargs):
        # run.py prints its log, then its result as the last line
        if cmd[0] == "tar":
            return real_run(cmd, **kwargs)
        seed, cwd = int(cmd[cmd.index("--seed") + 1]), Path(kwargs["cwd"])
        cwds.append(cwd)
        tree = cwd.name.split("-")[1]  # tree-parent-* or tree-change-*
        if tree == "change":
            # the working tree as it stands, without the deleted file
            assert sorted(str(p.relative_to(cwd)) for p in cwd.rglob("*.py")) == [
                "src/tracked.py", "untracked.py"]
            assert (cwd / "src" / "tracked.py").read_text() == "edited\n"
        r = results[seed, tree]
        last = "Traceback: killed" if r["result"] is None else json.dumps(r["result"])
        return subprocess.CompletedProcess(cmd, r["exit_code"], stdout=f"log line\n{last}\n")

    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
    monkeypatch.setattr(mod, "ROOT", tmp_path)
    monkeypatch.setattr(mod, "_git", fake_git)
    monkeypatch.setattr(mod.subprocess, "run", fake_subprocess_run)
    assert mod.main(["--label", "t", "--workload", "w", "--seeds", "1-5"]) == 1
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    runs = doc["workloads"]["w"]["runs"]
    assert len(runs) == 10
    assert [r["exit_code"] for r in runs if r["result"] is None] == [1, 0]
    assert [r["result"] for r in runs] == [results[r["seed"], r["tree"]]["result"] for r in runs]
    assert doc["workloads"]["w"]["summary"]["metrics"]["runs_per_s"]["pairs"] == 3
    assert len(cwds) == 10 and mod.ROOT not in cwds
    assert {cwd.name.split("-")[1] for cwd in cwds} == {"parent", "change"}


def test_bench_pairs_writes_its_file_where_there_is_no_affinity_call(tmp_path, monkeypatch):
    # the usable cores are read after every pair has run, so a platform
    # without sched_getaffinity must still get its file, with the core count
    mod = _bench_pairs()
    empty_tar = io.BytesIO()
    tarfile.open(fileobj=empty_tar, mode="w").close()
    real_run = subprocess.run

    def fake_git(*args):
        return {"rev-parse": b"0123abc\n", "archive": empty_tar.getvalue()}.get(args[0], b"")

    def fake_subprocess_run(cmd, **kwargs):
        if cmd[0] == "tar":
            return real_run(cmd, **kwargs)
        result = _bench_run(1, "parent", 100.0)["result"]
        return subprocess.CompletedProcess(cmd, 0, stdout=json.dumps(result) + "\n")

    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
    monkeypatch.setattr(mod, "ROOT", tmp_path)
    monkeypatch.setattr(mod, "_git", fake_git)
    monkeypatch.setattr(mod.subprocess, "run", fake_subprocess_run)
    monkeypatch.delattr(mod.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(mod.os, "cpu_count", lambda: 3)
    assert mod.main(["--label", "t", "--workload", "w", "--seeds", "1-2"]) == 0
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert (doc["cpu_count"], doc["usable_cpus"]) == (3, 3)
    assert doc["workloads"]["w"]["summary"]["metrics"]["runs_per_s"]["pairs"] == 2
