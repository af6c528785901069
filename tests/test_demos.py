"""Each demo script runs to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import towedtma

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "script, args",
    [
        ("ambiguity_geometry.py", []),
        ("benchmark_table.py", ["2"]),
        ("compare_filters_rmse.py", ["2"]),
        ("run_single_track.py", []),
    ],
)
def test_demo_exits_cleanly(tmp_path, script, args):
    src = str(Path(towedtma.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(DEMOS / script), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
