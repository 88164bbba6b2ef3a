"""The benchmark's self-test as part of the suite.

``perfbench/tracing.py`` replicates ``sweep.verify_graph`` call by call and
checks that its verdicts match, so a change to the package that the
replica does not follow shows up here, not only in a benchmark run.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
