"""The benchmark's own smoke test, run from the tier-1 suite.

It runs in a subprocess because ``perfbench/run.py`` deletes and re-imports
``gcanon``, which would leave this process with a second copy of the package.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_smoke_suite_passes():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "perfbench/tests"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
