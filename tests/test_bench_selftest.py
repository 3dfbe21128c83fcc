"""The benchmark's self-test runs on the current program: each check in
bench/checks.py accepts real output and rejects a corrupted copy of it."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "bench"]), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
