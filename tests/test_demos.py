"""Every demo script runs to completion against the package in ``src`` and
prints what its golden file under ``tests/golden`` records.

Only demo 06's wall-clock time, printed as ``in 0.4s``, is masked.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "golden"


def masked(stdout: str, demo: Path) -> str:
    if demo.stem.startswith("06_"):
        return re.sub(r" \(in [0-9.]+s\)", " (in *s)", stdout)
    return stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # demos may write files (03 writes six_lines.svg) into their working directory
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    golden = (GOLDEN / f"{demo.stem}.txt").read_text(encoding="utf-8")
    assert masked(proc.stdout, demo) == golden
