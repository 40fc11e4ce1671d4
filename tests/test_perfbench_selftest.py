"""The benchmark's own self-test, run as part of the test suite.

The benchmark's tracer binds library entry points by name; a refactor that
drops one of them fails here, not only when the benchmark runs.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
