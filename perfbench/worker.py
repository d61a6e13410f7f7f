"""One workload in a fresh interpreter.

Usage (from run.py): python3 perfbench/worker.py --workload W --seed N
                     (--seconds S | --ops K) [--trace] [--setup-only]

Imports the package, warms it up and prints ``READY``; the time from
process start to that line is the set-up time.  Then runs a closed loop
with one client until the op budget, or the time budget and the
workload's ``min_ops``, is spent.  The timed part of each iteration is
input generation plus the op; the output check that follows is not
timed.  Peak RSS is read when ``min_ops`` ops are done, so it does not
grow with throughput.  Prints one ``RESULT {json}`` line.
"""

import argparse
import itertools
import json
import resource
import sys
from pathlib import Path
from time import perf_counter, process_time

import discrarr.discriminantal

import workloads
from tracer import Tracer, merge

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def cache_counts():
    """(hits, misses) of the dependency-space cache, or None without one."""
    cache = getattr(discrarr.discriminantal, "_dependency_basis", None)
    info = getattr(cache, "cache_info", None)
    return None if info is None else tuple(info()[:2])


def children_cpu_s():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--ops", type=int)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    w = workloads.WORKLOADS[args.workload]()
    w.traced = args.trace
    w.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    refs = json.loads(REFERENCE.read_text())
    ref = refs.get(args.workload, []) if args.seed == refs["seed"] or not w.seeded else []
    who = resource.RUSAGE_CHILDREN if w.in_child else resource.RUSAGE_SELF
    cache0 = cache_counts()
    lat, failures, digests, counts = [], [], [], {}
    timed = cpu_s = 0.0
    rss_mib = None
    for i in itertools.count():
        t_in, cpu_in, child_in = perf_counter(), process_time(), children_cpu_s()
        t0 = None
        try:
            inp = w.make_input(args.seed, i)
            if tracer:
                tracer.enabled = True
            t0 = perf_counter()
            out, err = w.run(inp), None
        except Exception as e:  # a failed op, not a crash
            out, err = None, f"{type(e).__name__}: {e}"
        t1 = perf_counter()
        if tracer:
            tracer.enabled = False
        timed += t1 - t_in
        cpu_s += process_time() - cpu_in + children_cpu_s() - child_in
        if t0 is not None:
            lat.append(t1 - t0)
        if i + 1 == w.min_ops:
            rss_mib = resource.getrusage(who).ru_maxrss / 1024

        # outside the timed region: check the output, keep only its digest
        dg = None
        if err is None:
            try:
                bad = w.check(inp, out)
                dg = workloads.digest(w.report(inp, out))
                if i < len(ref) and dg != ref[i]:
                    bad.append(f"report digest {dg} != reference {ref[i]}")
                for key, n in w.counts(out).items():
                    counts[key] = counts.get(key, 0) + n
            except Exception as e:  # a check that raises fails its op
                bad = [f"check raised {type(e).__name__}: {e}"]
            err = "; ".join(bad) or None
        digests.append(dg)
        if err:
            failures.append((i, err))
        if (i + 1 >= args.ops) if args.ops else \
                (timed >= args.seconds and i + 1 >= w.min_ops):
            break
    if rss_mib is None:
        rss_mib = resource.getrusage(who).ru_maxrss / 1024
    cache1 = cache_counts()

    trace = None
    if tracer:
        trace = tracer.snapshot()
        for child in w.child_traces:
            merge(trace, child)
        if cache0 is not None:
            trace["cache"] = [b - a for a, b in zip(cache0, cache1)]
    print("RESULT " + json.dumps({
        "latencies": lat, "timed_s": timed, "cpu_s": cpu_s, "rss_mib": rss_mib,
        "attempted": i + 1, "failures": failures, "digests": digests,
        "digest_checked": min(len(ref), i + 1), "counts": counts,
        "trace": trace}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
