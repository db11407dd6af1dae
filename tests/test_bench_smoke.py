"""The benchmark's smoke run: every workload, reduced, with all its checks.

The benchmark wraps library functions by name (bench/tracer.py) and reads
their arguments and results, so renaming one of them or changing its
signature fails here rather than at the next benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, (proc.stdout + proc.stderr)[-3000:]
