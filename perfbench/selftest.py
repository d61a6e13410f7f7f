"""Fast self-test of the benchmark harness.

Usage: python3 perfbench/selftest.py [workload ...]   (default: certify)

For each workload, makes a one-second run with --trace 0 and two one-second
traced runs with --trace 1.  Asserts that every metric BENCHMARK.json
declares is present with its unit, that outputs pass their checks, and
that the traced work counts are identical across the two traced runs.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def check_declared(result: dict, kind: str, workload: str) -> None:
    assert result["correct"] and result["failed"] == 0, (workload, result)
    for m in DECLARED[kind]:
        got = result["metrics"].get(m["name"])
        assert got is not None, f"{workload}: {m['name']} missing"
        assert got["unit"] == m["unit"], f"{workload}: {m['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)), (workload, m["name"])


def main() -> int:
    for workload in sys.argv[1:] or ["certify"]:
        check_declared(run(workload, 0), "end_to_end", workload)
        first, second = run(workload, 1), run(workload, 1)
        for result in (first, second):
            check_declared(result, "per_layer", workload)
        counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
                  for r in (first, second)]
        assert counts[0] == counts[1], f"{workload}: work counts differ: {counts}"
        print(f"selftest {workload}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
