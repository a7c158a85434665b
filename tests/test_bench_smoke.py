"""The benchmark's smoke run is part of the suite.

``bench/run.py --smoke`` runs every workload at toy size through the
benchmark's hooks and self-checks. A change that renames or bypasses a
function the hooks wrap (``encode``, ``save_checkpoint``, ...) fails here.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_run_passes():
    # The benchmark imports fedkit from this checkout's src/ by itself.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
