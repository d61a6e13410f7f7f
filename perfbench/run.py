"""The discrarr benchmark.

Usage: python3 perfbench/run.py [--workload scan8|audit9|certify|classify|all]
           [--seed N] [--seconds S] [--trace 0|1]

Runs from the root of a checkout and measures the package in ``src``.
Every workload runs in fresh interpreters with ``src`` on the path and a
fixed ``PYTHONHASHSEED``, so no cache is carried from one run into the
next.  Prints each metric by name with its unit, a ``# detail`` line with
everything measured (work counts, sample counts, environment), and as its
last line one JSON object with the metrics BENCHMARK.json declares:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.

``--trace 0`` times a closed loop with one client for ``--seconds``.
``--trace 1`` runs a fixed number of ops (derived from ``--seconds`` and
the workload's nominal op time, so its work counts repeat exactly) once
with the tracer and once without, and reports the difference as the
tracing overhead.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(SRC)]
from tracer import HOOKS  # noqa: E402  (needs the path above)

ORDER = ("scan8", "audit9", "certify", "classify")
SETUP_REPEATS = 5
START_REPEATS = 5
PROBE_CHUNKS = 3  # before and again after each workload
WORKER_TIMEOUT_S = 170

# units of the metrics not named *_s (seconds) and not counts
UNITS = {"ops_per_s": "1/s", "peak_rss_mib": "MiB", "ops_failed_frac": "frac",
         "discriminantal.dependency_space.cache_hit_ratio": "frac",
         "trace.overhead_frac": "frac"}
# per-function spans; the varieties spans are combined into stages below
FUNCTIONS = tuple(name for name, _, _ in HOOKS if not name.startswith("varieties."))


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "DISCRARR_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def probe_chunk() -> float:
    """A fixed pure-Python Fraction loop: machine speed, not the package."""
    t0 = perf_counter()
    for _ in range(150):
        acc = Fraction(0)
        for i in range(1, 200):
            acc += Fraction(i, i + 1)
    return perf_counter() - t0


def spawn_worker(workload, seed, budget, trace=False, setup_only=False):
    """Run worker.py; return (set-up seconds, RESULT dict or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), *budget]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True)
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - t0
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} worker timed out")
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"{workload} worker failed (exit {proc.returncode})")
    if setup_only:
        return setup, None
    line = next((ln for ln in rest.splitlines() if ln.startswith("RESULT ")), None)
    if line is None:
        raise BenchError(f"{workload} worker printed no result")
    return setup, json.loads(line[7:])


def tail(lat, min_ops):
    """The tail latency at the highest percentile that has at least ten
    samples beyond it in a run of min_ops ops, the fewest a run makes; the
    maximum when min_ops is ten or less.  The percentile is fixed per
    workload so that it does not move with throughput.  Nearest rank;
    returns (value, percentile)."""
    pct = 100.0 * (1 - 10 / min_ops) if min_ops > 10 else 100.0
    s = sorted(lat)
    return s[max(0, math.ceil(pct / 100 * len(s)) - 1)], pct


def interpreter_start_s() -> float:
    """Median wall time of a fresh interpreter that imports discrarr."""
    times = []
    for _ in range(START_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import discrarr"], cwd=ROOT,
                       env=child_env(), check=True, timeout=60)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def end_to_end(workload, seed, seconds, min_ops):
    spawn_worker(workload, seed, [], setup_only=True)  # fills bytecode caches
    setups = [spawn_worker(workload, seed, [], setup_only=True)[0]
              for _ in range(SETUP_REPEATS)]
    setup, res = spawn_worker(workload, seed, ["--seconds", str(seconds)])
    setups.append(setup)
    lat = res["latencies"]
    if not lat:
        raise BenchError(f"{workload}: no op ran: {res['failures'][:3]}")
    failed = len(res["failures"])
    value, pct = tail(lat, min_ops)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": (res["attempted"] - failed) / res["timed_s"],
        "op_p50_s": statistics.median(lat),
        "op_tail_s": value,
        "peak_rss_mib": res["rss_mib"],
        "ops_failed_frac": failed / res["attempted"],
    }
    detail = {"op_tail_percentile": pct, "samples": len(lat),
              "setup_samples": setups, "cpu_s": res["cpu_s"],
              "work_counts": res["counts"], "digest_checked": res["digest_checked"],
              "failures": res["failures"][:5]}
    return metrics, detail, res["attempted"], failed


def layer_metrics(t, u):
    """Per-layer metrics from a traced result t and an untraced result u of
    the same ops.  Metrics whose hooks are absent are left out."""
    tr = t["trace"]
    spans, counts, times = tr["spans"], tr["counts"], tr["times"]
    absent = {a.rsplit(".", 1)[-1] for a in tr["absent"]}

    def span(name):
        return spans.get(name, [0, 0.0])

    m = {}
    for name in FUNCTIONS:
        if name.rsplit(".", 1)[-1] in absent:
            continue
        calls, own = span(name)
        m[f"{name}.calls"], m[f"{name}.self_s"] = calls, own
    if not {"rank", "kernel_basis", "det", "solve"} & absent:
        m["linalg.entries"] = counts.get("linalg.entries", 0)
    if not {"eight_line_report", "audit_arrangement"} & absent:
        m["varieties.relabel.self_s"] = span("varieties.eight_line_report")[1] + \
            span("varieties.audit_arrangement")[1]
        m["varieties.confirm.calls"], m["varieties.confirm.self_s"] = \
            span("varieties.confirm")
        m["varieties.confirm.hits"] = counts.get("varieties.confirm.hits", 0)
    if "_distinct_relabelings" not in absent:
        m["varieties.relabel.images"] = counts.get("varieties.relabel.images", 0)
    if "poly" not in absent:
        m["varieties.poly.calls"], m["varieties.poly.self_s"] = span("varieties.poly")
    if not {"_screen_rows", "_rank_mod_p", "audit_arrangement"} & absent:
        instances = span("varieties.screen_rank")[0]
        m["varieties.screen.instances"] = instances
        m["varieties.screen.rejected"] = \
            instances - counts.get("varieties.screen.passed", 0)
        m["varieties.screen.self_s"] = span("varieties.screen_rows")[1] + \
            span("varieties.screen_rank")[1]
    if "candidate_presentations" not in absent:
        m["varieties.candidates.classes"] = counts.get("varieties.candidates.classes", 0)
        m["varieties.candidates.self_s"] = span("varieties.candidates")[1]
    cache = tr.get("cache")
    if cache and sum(cache):
        m["discriminantal.dependency_space.cache_hit_ratio"] = cache[0] / sum(cache)
    if "cli.main_s" in times:
        m["cli.main_s"] = times["cli.main_s"]
    m["proc.cpu_s"] = u["cpu_s"]
    m["trace.overhead_frac"] = t["timed_s"] / u["timed_s"] - 1
    return m


def traced(workload, seed, seconds, nominal_op_s):
    ops = max(1, round(seconds / (2 * nominal_op_s)))
    m = {"cli.start_s": interpreter_start_s()}
    _, t = spawn_worker(workload, seed, ["--ops", str(ops)], trace=True)
    _, u = spawn_worker(workload, seed, ["--ops", str(ops)])
    m.update(layer_metrics(t, u))
    bad = {i for i, (a, b) in enumerate(zip(t["digests"], u["digests"]))
           if a is None or a != b}
    bad.update(i for res in (t, u) for i, _ in res["failures"])
    mismatch = t["counts"] != u["counts"]
    detail = {"ops": ops, "work_counts": t["counts"],
              "absent": t["trace"]["absent"], "counts_match_untraced": not mismatch,
              "failures": (t["failures"] + u["failures"])[:5]}
    failed = len(bad) if not mismatch else ops
    return m, detail, ops, failed


def run_workload(workload, seed, seconds, trace):
    from workloads import WORKLOADS
    probes = [probe_chunk() for _ in range(PROBE_CHUNKS)]
    if trace:
        metrics, detail, attempted, failed = traced(
            workload, seed, seconds, WORKLOADS[workload].nominal_op_s)
    else:
        metrics, detail, attempted, failed = end_to_end(
            workload, seed, seconds, WORKLOADS[workload].min_ops)
    probes += [probe_chunk() for _ in range(PROBE_CHUNKS)]
    metrics["env.probe_s"] = statistics.median(probes)
    detail["env"] = {"python": sys.version.split()[0],
                     "nproc": len(os.sched_getaffinity(0)),
                     "loadavg": os.getloadavg(), "probe_chunks_s": probes}
    for name, value in metrics.items():
        print(f"{workload:9s} {name:48s} {value:14.6g} {unit_of(name)}")
    print(f"# detail {workload}: " + json.dumps(detail, sort_keys=True))
    return metrics, attempted, failed


def unit_of(name: str) -> str:
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=ORDER + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    if not (SRC / "discrarr" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'discrarr'}; run from a checkout",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    workloads = ORDER if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for w in workloads:
            metrics, attempted, failed = run_workload(w, args.seed, args.seconds,
                                                      args.trace)
            result["attempted"] += attempted
            result["failed"] += failed
            prefix = "" if len(workloads) == 1 else f"{w}."
            for name in names:
                if name in metrics:
                    result["metrics"][prefix + name] = {"value": metrics[name],
                                                        "unit": unit_of(name)}
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
