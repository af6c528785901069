"""The tools under ``tools/`` still run against the package as it stands."""

import re
import subprocess
import sys
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
