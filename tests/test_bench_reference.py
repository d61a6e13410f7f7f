"""The benchmark's recorded seed-0 reports, rebuilt in process.

perfbench/reference.json holds the digest of each of the first reports of
seed 0 for every workload; the benchmark compares them only when it runs
seed 0.  Here each of those reports is rebuilt from perfbench/workloads.py,
loaded without writing bytecode next to it, and its digest compared.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
REFERENCE = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.mark.parametrize("name, ops", (("certify", 200), ("audit9", 12), ("scan8", 12)))
def test_seed_zero_digests_match_reference(name, ops):
    workloads = load_workloads()
    seed = REFERENCE["seed"]
    w = workloads.WORKLOADS[name]()
    w.warm_up()
    got = []
    for i in range(ops):
        inp = w.make_input(seed, i)
        got.append(workloads.digest(w.report(inp, w.run(inp))))
    assert got == REFERENCE[name][:ops]
