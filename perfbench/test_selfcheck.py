"""The benchmark's own test: its tiny-size self-check must pass.

Run with ``python3 -m pytest perfbench`` from the root of a checkout (about
a minute; the repository's default test run does not collect this file).
"""

import subprocess
import sys
from pathlib import Path


def test_self_check():
    run = Path(__file__).resolve().parent / "run.py"
    proc = subprocess.run(
        [sys.executable, str(run), "--self-check"],
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "self-check ok"
