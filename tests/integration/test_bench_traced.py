"""Traced smoke runs of the benchmark's object workloads.

``bench/layers.py`` times the library by wrapping named entry points
(``AstrolabeAgent.evaluate_zone`` among them), and a traced repetition
fails with "wrapped entry points never called" when a change stops
calling one.  The benchmark's own self-tests (``python -m pytest bench/
-q``) catch that too, but are not part of this suite, so these runs
pin it here for the two object workloads.  ``live-udp-50`` binds
loopback sockets and is left to the self-tests.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[2] / "bench" / "run.py"
#: Clear of the benchmark's default (45200) and its self-tests' (45400).
BASE_PORT = 45600


@pytest.mark.parametrize("workload", ["object-e2-1k", "object-feed-300"])
def test_traced_smoke_run_is_correct(workload):
    done = subprocess.run(
        [
            sys.executable, str(RUN), "--smoke", "--seconds", "0", "--trace", "1",
            "--workload", workload, "--base-port", str(BASE_PORT),
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
