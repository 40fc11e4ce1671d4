"""Shared test configuration.

Property tests draw their examples from a fixed seed, so two runs of one
commit test the same inputs and a failure reproduces on the next run.  Each
test's ``max_examples`` and ``deadline`` stay as its ``@settings`` sets them.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("riskspace", derandomize=True)
settings.load_profile("riskspace")

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def cli_process():
    """Run ``python -m riskspace.cli`` on ``argv`` in a subprocess with the
    source tree on the path, returning its ``CompletedProcess``.  A run that
    outlasts ``timeout`` seconds is killed and fails the test, so a hang
    fails instead of stalling the suite."""

    def run(argv, timeout=60):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "riskspace.cli", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=timeout)

    return run
