"""Record the report digests of the default seed's first ops.

Usage: python3 perfbench/record_reference.py

Run from the root of a checkout whose outputs are known to be right; it
rewrites perfbench/reference.json, which the workers compare every op of
the default seed against (and every classify op, whose input has no seed).
"""

import json
import sys

from run import spawn_worker
from worker import REFERENCE
from workloads import DEFAULT_SEED

REFERENCE_OPS = {"scan8": 12, "audit9": 12, "certify": 200, "classify": 1}


def main() -> int:
    refs = {"seed": DEFAULT_SEED}
    REFERENCE.write_text(json.dumps(refs) + "\n")  # record without comparing
    for workload, ops in REFERENCE_OPS.items():
        _, res = spawn_worker(workload, DEFAULT_SEED, ["--ops", str(ops)])
        if res["failures"]:
            print(f"{workload}: checks failed, nothing recorded: {res['failures'][:3]}",
                  file=sys.stderr)
            return 1
        refs[workload] = res["digests"]
    REFERENCE.write_text(json.dumps(refs, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
