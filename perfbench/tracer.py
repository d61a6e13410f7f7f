"""Per-layer tracing from outside the package.

Wraps the package's functions under every name its callers look them up
by: a function imported into another module (``varieties.intersection_rank``
is ``discriminantal.intersection_rank``; ``discriminantal.rank`` is
``linalg.rank``) is replaced in each namespace that holds it.  A hook whose
target no longer exists is recorded as absent and its metrics are left
out, so the tracer keeps working when the package is refactored.

Spans are aggregated per name (calls, self time) instead of being kept
one by one: a single eight-line scan makes about 300k calls.  A span's
self time is its duration minus the time of the traced spans it encloses.
"""

import sys
from time import perf_counter

EIGHT = "varieties.eight_line_report"
AUDIT = "varieties.audit_arrangement"

# (span name, module, attribute); a dotted attribute names a method.
HOOKS = (
    ("linalg.rank", "discrarr.linalg", "rank"),
    ("linalg.kernel_basis", "discrarr.linalg", "kernel_basis"),
    ("linalg.det", "discrarr.linalg", "det"),
    ("linalg.solve", "discrarr.linalg", "solve"),
    ("arrangement.is_generic", "discrarr.arrangement", "is_generic"),
    ("arrangement.pair_det", "discrarr.arrangement", "pair_det"),
    ("discriminantal.dependency_space", "discrarr.discriminantal", "dependency_space"),
    ("discriminantal.intersection_rank", "discrarr.discriminantal", "intersection_rank"),
    ("presentations.orbit_canonical", "discrarr.presentations", "orbit_canonical"),
    ("presentations.check_bba", "discrarr.presentations", "check_bba"),
    ("presentations.is_admissible", "discrarr.presentations", "is_admissible"),
    ("presentations.min_expected_rank_above", "discrarr.presentations",
     "min_expected_rank_above"),
    (EIGHT, "discrarr.varieties", "eight_line_report"),
    (AUDIT, "discrarr.varieties", "audit_arrangement"),
    ("varieties.poly", "discrarr.varieties", "VarietyFamily.poly"),
    ("varieties.screen_rows", "discrarr.varieties", "_screen_rows"),
    ("varieties.screen_rank", "discrarr.varieties", "_rank_mod_p"),
    ("varieties.candidates", "discrarr.varieties", "candidate_presentations"),
)
RELABEL = ("discrarr.varieties", "_distinct_relabelings")
LINALG = ("linalg.rank", "linalg.kernel_basis", "linalg.det", "linalg.solve")


class Tracer:
    """Aggregated spans and counts; records only while ``enabled``."""

    def __init__(self):
        self.enabled = False
        self.stack = []  # open spans: [name, start, time of traced children]
        self.spans = {}  # name -> [calls, self seconds]
        self.counts = {}
        self.times = {}  # wall times measured around whole calls
        self.absent = []

    def add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def _record(self, name, own):
        st = self.spans.setdefault(name, [0, 0.0])
        st[0] += 1
        st[1] += own

    def wrap(self, name, fn):
        stack = self.stack
        entries = name in LINALG
        confirm = name == "discriminantal.intersection_rank"

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if entries:
                m = args[0]
                self.add("linalg.entries", m.nrows * m.ncols)
            parent = stack[-1][0] if stack else None
            frame = [name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - frame[1]
                stack.pop()
                if stack:
                    stack[-1][2] += dur
                self._record(name, dur - frame[2])
                if confirm and parent in (EIGHT, AUDIT):
                    # a confirmation: an exact rank asked for by a scan
                    self._record("varieties.confirm", dur - frame[2])
                    if parent == AUDIT:
                        self.add("varieties.screen.passed", 1)
            if name in (EIGHT, AUDIT):
                self.add("varieties.confirm.hits", len(out.hits))
            elif name == "varieties.candidates":
                self.add("varieties.candidates.classes", len(out))
            return out

        traced.__wrapped__ = fn
        return traced

    def wrap_relabel(self, fn):
        def traced(*args, **kwargs):
            for item in fn(*args, **kwargs):
                if self.enabled:
                    self.add("varieties.relabel.images", 1)
                yield item

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every hook in every loaded discrarr module that holds it."""
        mods = [m for k, m in sys.modules.items()
                if m is not None and (k == "discrarr" or k.startswith("discrarr."))]
        for name, modname, attr in HOOKS + ((None, *RELABEL),):
            owner = sys.modules.get(modname)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None)
            if fn is None:
                self.absent.append(f"{modname}.{attr}")
                continue
            wrapped = self.wrap_relabel(fn) if name is None else self.wrap(name, fn)
            if path:
                setattr(owner, leaf, wrapped)
                continue
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, key, wrapped)

    def snapshot(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "times": self.times,
                "absent": self.absent}


def merge(into: dict, other: dict) -> None:
    """Add one snapshot's spans and counts into another."""
    for name, (calls, own) in other["spans"].items():
        st = into["spans"].setdefault(name, [0, 0.0])
        st[0] += calls
        st[1] += own
    for part in ("counts", "times"):
        for key, n in other[part].items():
            into[part][key] = into[part].get(key, 0) + n
    into["absent"] = sorted(set(into["absent"]) | set(other["absent"]))
