"""The four benchmark workloads: seeded input streams, the op each one
times, and the output checks that a broken optimisation cannot pass.

Every name of the package is looked up on the ``discrarr`` module at call
time, so that the tracer's wrappers (installed after import) are the ones
called.  The checks re-derive ranks with a small integer elimination of
their own instead of trusting the package's linear algebra.
"""

import hashlib
import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import discrarr as D

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

EIGHT_LINE = ("W6", "Wd8_4", "W8", "L8", "DW10")
CERTIFY_FAMILIES = ("W6", "W8", "W10", "Wd8_4", "L8", "DW10")
# Ground-set sizes and the rank bound default_r gives each family; both are
# facts about the families, fixed when the benchmark was written.
GROUND = {"W6": 6, "W8": 8, "W10": 10, "Wd8_4": 7, "L8": 8, "DW10": 8}
DEFAULT_R = {"W6": 3, "W8": 5, "W10": 7, "Wd8_4": 4, "L8": 5, "DW10": 5}
SCAN8_INSTANCES = 32760
AUDIT_NPRIME_MAX = 7
GRID = tuple((Fraction(i - 5), Fraction(1)) for i in range(1, 10))
GRID_HITS = 139  # audit hits of the nine-line grid at n' <= 7, any labelling
CLASSIFY_ARGS = ("classify", "--n", "9", "--json")
CLASSIFY_CLASSES = 19
DEFAULT_SEED = 0


def sample_seed(seed: int, i: int) -> int:
    """Seed of the i-th input of a stream; distinct for every (seed, i)."""
    return seed * 100_003 + i


def digest(report: dict) -> str:
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()[:16]


# -- independent rank oracle -------------------------------------------------

def int_rank(rows) -> int:
    """Rank over Q of an integer matrix, by fraction-free elimination."""
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            if f:
                row = [top[c] * x - f * y for x, y in zip(rows[i], top)]
                g = math.gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        rank += 1
    return rank


def int_normals(a) -> list:
    """The normals scaled to integer vectors; scaling a normal does not
    change the rank of any dependency span."""
    out = []
    for v in a.normals:
        den = math.lcm(*(Fraction(x).denominator for x in v))
        out.append(tuple(int(Fraction(x) * den) for x in v))
    return out


def family_rank(normals, members) -> int:
    """Rank of the joint dependency span of the members on generic plane
    normals.  Two normals p, q of a member S are independent, so the Cramer
    circuits (p, q, x) for the other x of S span the dependencies of S."""
    n = len(normals)
    rows = []
    for s in members:
        p, q, *rest = sorted(s)
        (a1, a2), (b1, b2) = normals[p - 1], normals[q - 1]
        for x in rest:
            c1, c2 = normals[x - 1]
            row = [0] * n
            row[p - 1] = b1 * c2 - b2 * c1
            row[q - 1] = c1 * a2 - c2 * a1
            row[x - 1] = a1 * b2 - a2 * b1
            rows.append(row)
    return int_rank(rows)


def image(members, labels) -> list:
    """Members relabelled: canonical index i goes to labels[i - 1]."""
    return [{labels[i - 1] for i in s} for s in members]


def parse_digit_family(text: str) -> list:
    """'123,145' -> [{1, 2, 3}, {1, 4, 5}] (the audit's names, n' < 10)."""
    return [{int(c) for c in g} for g in text.split(",")]


def extend_generic(a, n: int, seed: int):
    """Append seeded integer normals until there are n, keeping every pair
    of normals independent (genericity in the plane)."""
    rng = random.Random(seed)
    normals = list(a.normals)
    while len(normals) < n:
        v = (Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)))
        if any(v) and all(u[0] * v[1] - u[1] * v[0] for u in normals):
            normals.append(v)
    return D.Arrangement(2, tuple(normals))


# -- workloads ---------------------------------------------------------------

class Workload:
    """A seeded stream of inputs, the op timed on each, and its checks.

    min_ops: the fewest ops a timed run makes; peak RSS is read when it is
      reached and it fixes the tail percentile, so neither moves with
      throughput.
    nominal_op_s: the op time at the commit the benchmark was written for;
      it sets the fixed op count of a traced run.
    seeded: False when the op ignores the seed, so every seed's reports can
      be compared with the reference digests.
    in_child: the op runs in a child process, whose memory is the one that
      counts.
    """
    seeded = True
    in_child = False
    traced = False
    child_traces = ()  # tracer snapshots reported by traced child processes

    def warm_up(self):
        pass


class Scan8(Workload):
    """eight_line_report over 8-line arrangements: the five eight-line
    families planted by solve_on_variety, and plain generic draws."""
    name = "scan8"
    min_ops = 2
    nominal_op_s = 5.0
    kinds = EIGHT_LINE + ("generic",)

    def warm_up(self):
        for fam in D.eight_line_families():
            D.default_r(fam.pres.with_ground(8))

    def make_input(self, seed, i):
        kind = self.kinds[(seed + i) % len(self.kinds)]
        s = sample_seed(seed, i)
        if kind == "generic":
            return kind, D.random_generic(8, 2, s)
        return kind, extend_generic(D.solve_on_variety(kind, s), 8, s)

    def run(self, inp):
        return D.eight_line_report(inp[1])

    def report(self, inp, out):
        return {"input": inp[1].to_json_dict(), "report": out.to_json_dict()}

    def counts(self, out):
        return {"instances": out.instances_scanned, "hits": len(out.hits)}

    def check(self, inp, out):
        kind, a = inp
        bad = []
        if out.instances_scanned != SCAN8_INSTANCES:
            bad.append(f"instances_scanned {out.instances_scanned} != {SCAN8_INSTANCES}")
        if kind != "generic":
            planted = tuple(range(1, GROUND[kind] + 1))
            if not any(h.family == kind and h.labels == planted and h.rank <= h.r
                       for h in out.hits):
                bad.append(f"planted {kind} instance {planted} not reported")
        normals = int_normals(a)
        for h in out.hits:
            members = D.family_by_name(h.family).pres.canonical()
            if h.r != DEFAULT_R[h.family]:
                bad.append(f"{h.family} {h.labels}: r={h.r}")
            if family_rank(normals, image(members, h.labels)) != h.rank:
                bad.append(f"{h.family} {h.labels}: rank {h.rank} does not re-rank")
        return bad


class Audit9(Workload):
    """audit_arrangement(a, 7) over generic 9-line draws, every other op a
    seeded relabelling of the arithmetic-progression grid."""
    name = "audit9"
    min_ops = 2
    nominal_op_s = 4.0

    def warm_up(self):
        from discrarr.varieties import candidate_presentations
        candidate_presentations(9, 2, AUDIT_NPRIME_MAX, False)

    def make_input(self, seed, i):
        s = sample_seed(seed, i)
        if i % 2:
            order = list(range(9))
            random.Random(s).shuffle(order)
            return "grid", D.Arrangement(2, tuple(GRID[j] for j in order))
        return "generic", D.random_generic(9, 2, s)

    def run(self, inp):
        return D.audit_arrangement(inp[1], AUDIT_NPRIME_MAX)

    def report(self, inp, out):
        return {"input": inp[1].to_json_dict(), "report": out.to_json_dict()}

    def counts(self, out):
        return {"hits": len(out.hits)}

    def check(self, inp, out):
        kind, a = inp
        bad = []
        if kind == "grid" and len(out.hits) != GRID_HITS:
            bad.append(f"grid audit has {len(out.hits)} hits, expected {GRID_HITS}")
        normals = int_normals(a)
        for h in out.hits:
            members = parse_digit_family(h.family)
            r = sum(len(s) - 2 for s in members) - 1
            rank = family_rank(normals, image(members, h.labels))
            if h.r != r or rank != h.rank or rank > r:
                bad.append(f"{h.family} {h.labels}: reported rank {h.rank} r {h.r}, "
                           f"re-ranked {rank} r {r}")
        return bad


class Certify(Workload):
    """Each op draws one sample of each of twelve kinds (six families, on the
    family's variety and generic) and certifies it with membership at the
    default r.

    One op is the whole cycle, so every op has the same mix of kinds: the
    latency of single certificates (2-10 ms) clusters by kind and by the
    host's momentary speed, which makes its percentiles jump between runs.
    """
    name = "certify"
    min_ops = 500
    nominal_op_s = 0.03
    kinds = tuple((f, on) for on in (True, False) for f in CERTIFY_FAMILIES)

    def warm_up(self):
        for f in CERTIFY_FAMILIES:
            D.default_r(D.family_by_name(f).pres)

    def make_input(self, seed, i):
        n = len(self.kinds)
        return [(f, on, sample_seed(seed, n * i + j))
                for j, (f, on) in enumerate(self.kinds)]

    def run(self, inp):
        out = []
        for f, on, s in inp:
            fam = D.family_by_name(f)
            a = D.solve_on_variety(fam, s) if on else D.random_generic(fam.ground, 2, s)
            out.append((a, D.membership(a, fam.pres)))
        return out

    def report(self, inp, out):
        return {"certificates": [
            {"family": f, "on_variety": on, "input": a.to_json_dict(),
             "member": v.member, "rank": v.rank_certificate, "r": v.r,
             "field": v.field}
            for (f, on, _), (a, v) in zip(inp, out)]}

    def counts(self, out):
        return {"members": sum(v.member for _, v in out)}

    def check(self, inp, out):
        bad = [] if len(out) == len(inp) else \
            [f"{len(out)} certificates for {len(inp)} samples"]
        for (f, on, _), (a, v) in zip(inp, out):
            rank = family_rank(int_normals(a), D.family_by_name(f).pres.canonical())
            if on and not v.member:
                bad.append(f"on-variety {f} sample not certified")
            if v.r != DEFAULT_R[f] or v.rank_certificate != rank or \
                    v.member != (rank <= v.r):
                bad.append(f"{f}: certificate {v.rank_certificate} r {v.r} member "
                           f"{v.member}, re-ranked {rank}")
        return bad


class Classify(Workload):
    """A fresh `python -m discrarr.cli classify --n 9 --json` per op.

    When traced, the child runs traced_cli.py instead, which installs the
    tracer in the child and reports its layer statistics on stderr."""
    name = "classify"
    min_ops = 1
    nominal_op_s = 13.0
    seeded = False
    in_child = True

    def __init__(self):
        self.child_traces = []

    def make_input(self, seed, i):
        return None

    def run(self, inp):
        entry = [str(HERE / "traced_cli.py")] if self.traced else ["-m", "discrarr.cli"]
        proc = subprocess.run([sys.executable, *entry, *CLASSIFY_ARGS], cwd=ROOT,
                              capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"classify exited {proc.returncode}: {proc.stderr[-500:]}")
        for line in proc.stderr.splitlines():
            if line.startswith("TRACE "):
                self.child_traces.append(json.loads(line[6:]))
        doc = next(line for line in proc.stdout.splitlines() if line.startswith("JSON: "))
        return json.loads(doc[6:])

    def report(self, inp, out):
        return out

    def counts(self, out):
        return {"classes": len(out["classes"])}

    def check(self, inp, out):
        if len(out["classes"]) != CLASSIFY_CLASSES:
            return [f"classify returned {len(out['classes'])} classes, "
                    f"expected {CLASSIFY_CLASSES}"]
        return []


WORKLOADS = {w.name: w for w in (Scan8, Audit9, Certify, Classify)}
