"""The benchmark harness's own self-check must pass against the program, so
that a change which breaks one of its checks (stable prediction bytes, the
declared metric names) fails here and not only in a benchmark run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selfcheck.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
    assert "selfcheck: 0 failed checks" in proc.stdout
