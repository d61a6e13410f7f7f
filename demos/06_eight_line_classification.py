"""Everything that can go rank-deficient on eight generic lines.

Enumerating all admissible families whose union fits in eight indices,
covers every index twice, and meets the counting bounds leaves exactly
five orbit classes.  Each has a product equation; scanning all relabelings
of all five against a concrete arrangement reports every instance hit.
"""

import time

from discrarr import (candidate_presentations, eight_line_report, expected_rank,
                      format_family, orbit_canonical, solve_on_variety)
from discrarr.varieties import default_r, eight_line_families

t0 = time.time()
classes = candidate_presentations(8, 2, 8)
print(f"{len(classes)} orbit classes (in {time.time() - t0:.1f}s):")
names = {format_family(orbit_canonical(f.pres)): f.name
         for f in eight_line_families()}
for c in classes:
    key = format_family(c)
    print(f"  {names[key]:7s} {key}   expected rank {expected_rank(c)},"
          f" bound {default_r(c)}")
print()

a = solve_on_variety("W8", seed=1)
rep = eight_line_report(a)
print(f"scanning {rep.instances_scanned} labeled instances against an"
      " on-variety sample:")
for h in rep.hits:
    print(f"  {h.family} at labels {h.labels}: rank {h.rank} <= {h.r}")
