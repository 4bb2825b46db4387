"""The benchmark's own test: ``python -m pytest perfbench``.

Runs ``run.py --smoke``: every workload once at a small sample count, with
tracing off and on.  It fails unless each run is correct, emits every metric
of BENCHMARK.json with its unit, repeats its counts exactly and has no
negative self time.
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke"],
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.rstrip().endswith("smoke ok")
