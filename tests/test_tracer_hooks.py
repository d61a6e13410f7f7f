"""The benchmark's tracer still finds every hook it counts.

perfbench/tracer.py wraps package functions by name, private ones
included, and reports a hook whose target has gone as absent.  This runs
both variety scans under the tracer in a fresh interpreter and checks that
nothing is absent and that the relabel, screen and confirm stages were
counted.  The mod-p screen runs only for classes that are not wheel-shaped,
so the audit is of eight lines at n' <= 8, whose class
123,145,167,248,368,578 is not a wheel; a nine-line audit at n' <= 6, whose
only class is the wheel W6, makes no screen call.  It reads perfbench/ and
changes nothing there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json
import sys
sys.path.insert(0, sys.argv[1])
import discrarr
import discrarr.varieties as V
from discrarr.arrangement import from_int_columns
from tracer import Tracer

tracer = Tracer()
tracer.install()
tracer.enabled = True
V.eight_line_report(V.solve_on_variety("W8", 1))
V.audit_arrangement(from_int_columns(2, [(i - 5, 1) for i in range(1, 10)]), 6)
print(json.dumps(tracer.snapshot()))
V.audit_arrangement(from_int_columns(2, [(i - 5, 1) for i in range(1, 9)]), 8)
print(json.dumps(tracer.snapshot()))
"""


def test_tracer_hooks_are_present(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT / "perfbench")],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    wheel_only, snap = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert wheel_only["spans"].get("varieties.screen_rank", [0])[0] == 0
    assert snap["absent"] == []
    assert snap["counts"]["varieties.relabel.images"] > 0
    assert snap["spans"]["varieties.screen_rank"][0] > 0
    assert snap["spans"]["varieties.confirm"][0] > 0
    assert snap["counts"]["varieties.confirm.hits"] > 0
