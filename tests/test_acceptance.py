"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All checks are exact (no tolerances); the stated runtime budgets are
asserted as well.  Run with `pytest tests/test_acceptance.py -s -q` to see
the per-criterion lines.
"""

import functools
import itertools
import random
import time
from fractions import Fraction as F

from discrarr.arrangement import (Arrangement, circuits, delete,
                                  from_int_columns, is_generic, pair_det,
                                  permuted, random_generic, scaled,
                                  transformed)
from discrarr.discriminantal import intersection_rank
from discrarr.presentations import (expected_rank, format_family,
                                    is_admissible, leq, orbit_canonical,
                                    presentation, twin_wheel, wheel)
from discrarr.varieties import (WheelLabeling, audit_arrangement,
                                candidate_presentations, crapo_poly, default_r,
                                family_by_name, membership, solve_on_variety,
                                wheel_poly)
from .conftest import (TEN_LINE_FAMILY, crapo_arrangement, equation_with,
                       random_admissible_family, random_invertible)

W6_FAMILY = [{1, 2, 3}, {1, 5, 6}, {2, 4, 6}, {3, 4, 5}]


def report(num: int, desc: str, ok: bool, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"{status} criterion {num}: {desc} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {num} failed"
    assert elapsed < budget, f"criterion {num} exceeded its time budget"


def plain_wheel_labeling(m: int) -> WheelLabeling:
    return WheelLabeling(tuple(range(1, m, 2)), tuple(range(2, m + 1, 2)))


@functools.lru_cache(maxsize=None)
def wheel_samples(n: int, count: int = 200):
    """count on-variety and count generic samples for the 2n-line wheel,
    with the single-re-seed rule for coincidences."""
    m = 2 * n
    lab = plain_wheel_labeling(m)
    on = []
    for i in range(count):
        seed, retried = 1000 * n + i, False
        while True:
            a = solve_on_variety(f"W{m}", seed=seed)
            if intersection_rank(a, wheel(m)) == 2 * n - 3:
                break
            assert not retried, "two consecutive low-rank draws on the variety"
            seed += 7 * count
            retried = True
        on.append(a)
    gen = []
    for i in range(count):
        seed, retried = 5000 * n + i, False
        while True:
            a = random_generic(m, 2, seed=seed)
            if wheel_poly(a, lab) != 0 and intersection_rank(a, wheel(m)) == 2 * n - 2:
                break
            assert not retried, "two consecutive coincidental draws"
            seed += 9 * count
            retried = True
        gen.append(a)
    return on, gen


def test_criterion_1_crapo_reproduction():
    t0 = time.time()
    ok = True
    ok &= intersection_rank(crapo_arrangement(-1), W6_FAMILY) == 3
    ok &= intersection_rank(crapo_arrangement(3), W6_FAMILY) == 4
    ok &= crapo_poly(crapo_arrangement(-1)) == F(-1) + 1 == 0
    ok &= crapo_poly(crapo_arrangement(3)) == F(3) + 1 == 4
    report(1, "six-line reproduction", ok, time.time() - t0, 1)


def test_criterion_2_ten_line_reproduction(ten_line):
    t0 = time.time()
    ok = intersection_rank(ten_line, TEN_LINE_FAMILY) == 4
    cols = [list(c) for c in ten_line.normals]
    cols[8][0] += 1  # entry (1, 9) bumped by one
    perturbed = from_int_columns(3, cols)
    ok &= intersection_rank(perturbed, TEN_LINE_FAMILY) == 5
    report(2, "ten-line reproduction and perturbation", ok, time.time() - t0, 1)


def test_criterion_3_wheel_theorem():
    t0 = time.time()
    ok = True
    for n in (3, 4, 5):
        m = 2 * n
        lab = plain_wheel_labeling(m)
        on, gen = wheel_samples(n)
        for a in on:
            ok &= wheel_poly(a, lab) == 0
            ok &= intersection_rank(a, wheel(m)) == 2 * n - 3
        for a in gen:
            ok &= wheel_poly(a, lab) != 0
            ok &= intersection_rank(a, wheel(m)) == 2 * n - 2
    report(3, "wheel equation iff rank drop, 200+200 samples for n=3,4,5",
           ok, time.time() - t0, 30)


def test_criterion_4_twin_agreement():
    t0 = time.time()
    ok = True
    for n in (3, 4):
        m = 2 * n
        on, gen = wheel_samples(n)
        for a in on + gen:
            r = 2 * n - 3
            ok &= membership(a, wheel(m), r).member == \
                membership(a, twin_wheel(m), r).member
    report(4, "twin wheel memberships agree on 400 samples",
           ok, time.time() - t0, 10)


def test_criterion_5_product_consistency():
    t0 = time.time()
    lab = plain_wheel_labeling(6)
    ok = True
    for i in range(500):
        a = solve_on_variety("W6", seed=20_000 + i)
        ok &= (crapo_poly(a) == 0) == (wheel_poly(a, lab) == 0)
    for i in range(500):
        a = random_generic(6, 2, seed=30_000 + i)
        ok &= (crapo_poly(a) == 0) == (wheel_poly(a, lab) == 0)
    report(5, "six-line quartic and wheel product vanish together, 1000 samples",
           ok, time.time() - t0, 10)


def degenerate_wheel_sample(seed: int) -> Arrangement:
    """Eight lines with line 8 equal to line 4, solved onto the 8-wheel
    variety through the free line 7."""
    w8 = family_by_name("W8")
    rng = random.Random(seed)
    while True:
        normals = {i: (F(rng.randint(-9, 9)), F(rng.randint(-9, 9)))
                   for i in (1, 2, 3, 4, 5, 6)}
        if any(not any(v) for v in normals.values()):
            continue
        normals[8] = normals[4]
        pairs = [(i, j) for i, j in itertools.combinations((1, 2, 3, 4, 5, 6, 8), 2)
                 if (i, j) != (4, 8)]
        if any(normals[i][0] * normals[j][1] == normals[i][1] * normals[j][0]
               for i, j in pairs):
            continue
        cx = equation_with(w8, normals, 7, (F(1), F(0)))
        cy = equation_with(w8, normals, 7, (F(0), F(1)))
        if not cx and not cy:
            continue
        normals[7] = (-cy, cx)
        if not any(normals[7]):
            continue
        if any(normals[7][0] * normals[j][1] == normals[7][1] * normals[j][0]
               for j in (1, 2, 3, 4, 5, 6, 8)):
            continue
        return Arrangement(2, tuple(normals[i] for i in range(1, 9)))


def test_criterion_6_degeneration():
    t0 = time.time()
    wd = family_by_name("Wd8_4").pres.with_ground(7)
    ok = True
    for seed in range(50):
        a = degenerate_wheel_sample(seed)
        ok &= membership(a, wheel(8), 5).member
        ok &= membership(delete(a, 8), wd, 4).member
    report(6, "parallel-copy deletion lands in the merged-wheel variety, 50 samples",
           ok, time.time() - t0, 10)


def test_criterion_7_eight_line_classification():
    t0 = time.time()
    cands = candidate_presentations(8, 2, 8)
    fams = [family_by_name(n) for n in ("W6", "Wd8_4", "W8", "L8", "DW10")]
    want = sorted(format_family(orbit_canonical(f.pres)) for f in fams)
    got = sorted(format_family(c) for c in cands)
    ok = len(cands) == 5 and got == want
    stated_r = {"W6": 3, "Wd8_4": 4, "W8": 5, "L8": 5, "DW10": 5}
    for fam in fams:
        r = default_r(fam.pres)
        ok &= r == stated_r[fam.name]
        witness = solve_on_variety(fam.name, seed=71)
        ok &= membership(witness, fam.pres, r).member
    report(7, "eight-line classification: five orbit classes with witnesses",
           ok, time.time() - t0, 300)


def test_criterion_8_nine_line_example(nine_line):
    t0 = time.time()
    t0_members = [{1, 2, 3}, {4, 5, 6}, {7, 8, 9},
                  {1, 4, 7}, {2, 5, 8}, {3, 6, 9}]
    p0 = presentation(9, 2, t0_members)
    ok = intersection_rank(nine_line, p0) == 5
    for i in range(1, 10):
        sub = [s for s in t0_members if i not in s]
        ok &= intersection_rank(nine_line, sub) == 4
    smalls = {
        1: ["123", "456", "147", "258", "3678"],
        2: ["123", "789", "147", "258", "3459"],
        3: ["123", "456", "147", "369", "2579"],
        4: ["123", "789", "147", "369", "2468"],
        5: ["123", "456", "258", "369", "1489"],
        6: ["123", "789", "258", "369", "1567"],
        7: ["456", "789", "147", "258", "1269"],
        8: ["456", "789", "147", "369", "1358"],
        9: ["456", "789", "258", "369", "2347"],
    }
    for idx, groups in smalls.items():
        p = presentation(9, 2, [frozenset(int(c) for c in g) for g in groups])
        v = membership(nine_line, p)
        ok &= v.member
    for extra in ("159", "168", "249", "267", "348", "357"):
        p = presentation(9, 2, list(p0.members) +
                         [frozenset(int(c) for c in extra)])
        ok &= membership(nine_line, p).member
    report(8, "nine-line configuration: rank, minimality, fifteen varieties",
           ok, time.time() - t0, 30)


def test_criterion_9_deletion_vs_sliced_translations():
    t0 = time.time()
    rng = random.Random(1234)
    ok = True
    done = 0
    while done < 20:
        n = rng.randint(4, 7)
        k = rng.choice([2, 3])
        if n - 1 < k + 1:
            continue
        base = random_generic(n - 1, k, seed=rng.randint(0, 10 ** 6), height=6)
        j = rng.randint(1, n - 1)
        factor = F(rng.choice([1, 2, -1, 3]))
        a = Arrangement(k, base.normals +
                        (tuple(factor * x for x in base.normal(j)),))
        i = n
        deleted = delete(a, i)
        expected = frozenset(frozenset(c) for c in circuits(a) if i not in c)
        ok &= circuits(deleted) == expected
        pair = frozenset({i, j})
        cs = sorted(circuits(deleted), key=sorted)
        for c in cs:
            ok &= intersection_rank(deleted, [c]) == \
                intersection_rank(a, [c, pair]) - 1
        for c1, c2 in itertools.combinations(cs, 2):
            ok &= intersection_rank(deleted, [c1, c2]) == \
                intersection_rank(a, [c1, c2, pair]) - 1
        done += 1
    report(9, "deleting a parallel copy matches slicing the translation space, 20 samples",
           ok, time.time() - t0, 30)


def oracle_audit_hits(a: Arrangement, nprime_max: int):
    """Brute-force reference: every antichain built directly from subsets,
    filtered by the same predicates, tested by rank."""
    n, k = a.n, a.k
    subsets = [frozenset(c) for size in range(k + 1, n + 1)
               for c in itertools.combinations(range(1, n + 1), size)]
    hits = set()

    def consider(fam):
        if not fam:
            return
        p = presentation(n, k, fam)
        if not is_admissible(p):
            return
        support = p.support
        nprime = len(support)
        if nprime > nprime_max:
            return
        if any(sum(1 for s in fam if i in s) < 2 for i in support):
            return
        nu = expected_rank(p)
        if not (2 * nprime <= 3 * nu and nu <= nprime - 2):
            return
        if intersection_rank(a, p) <= nu - 1:
            hits.add(frozenset(fam))

    def rec(start, cur):
        consider(list(cur))
        for idx in range(start, len(subsets)):
            s = subsets[idx]
            if any(s <= m or m <= s or len(s & m) >= k for m in cur):
                continue
            cur.append(s)
            rec(idx + 1, cur)
            cur.pop()

    rec(0, [])
    return hits


def audit_hits_as_families(rep):
    out = set()
    for h in rep.hits:
        members = [frozenset(int(c) for c in g) for g in h.family.split(",")]
        support = sorted({i for m in members for i in m})
        mapping = dict(zip(support, h.labels))
        out.add(frozenset(frozenset(mapping[i] for i in s) for s in members))
    return out


def test_criterion_10_property_suites():
    t0 = time.time()
    rng = random.Random(2024)
    ok = True
    for _ in range(1000):
        n = rng.randint(5, 9)
        k = rng.choice([2, 3])
        if n < k + 2:
            continue
        a = random_generic(n, k, seed=rng.randint(0, 10 ** 6), height=6)
        p = presentation(n, k, random_admissible_family(rng, n, k))
        ok &= intersection_rank(a, p) <= expected_rank(p)
    for _ in range(1000):
        n = rng.randint(6, 8)
        a = random_generic(n, 2, seed=rng.randint(0, 10 ** 6), height=6)
        fine = presentation(n, 2, random_admissible_family(rng, n, 2))
        blocks = sorted(fine.members, key=sorted)
        if len(blocks) >= 2 and rng.random() < 0.5:
            merged = [blocks[0] | blocks[1]] + blocks[2:]
            merged = [m for m in merged
                      if not any(m < o for o in merged)]
            coarse = presentation(n, 2, merged)
        else:
            coarse = presentation(n, 2, [frozenset().union(*blocks)])
        if not leq(fine, coarse):
            continue
        r_fine = intersection_rank(a, fine)
        r_coarse = intersection_rank(a, coarse)
        ok &= r_coarse >= r_fine
        r = rng.randint(0, expected_rank(coarse))
        rr = rng.randint(r, r + 2)
        if r_coarse <= r:
            ok &= r_fine <= rr
    for _ in range(500):
        n = rng.randint(5, 7)
        a = random_generic(n, 2, seed=rng.randint(0, 10 ** 6), height=6)
        p = presentation(n, 2, random_admissible_family(rng, n, 2))
        base = intersection_rank(a, p)
        images = list(range(1, n + 1))
        rng.shuffle(images)
        sigma = {i + 1: images[i] for i in range(n)}
        from discrarr.presentations import permute
        ok &= intersection_rank(permuted(a, sigma), permute(p, sigma)) == base
        i = rng.randint(1, n)
        ok &= intersection_rank(scaled(a, i, F(rng.choice([2, -3, 5]))), p) == base
        ok &= intersection_rank(transformed(a, random_invertible(2, rng)), p) == base
    for a in (crapo_arrangement(-1), random_generic(6, 2, seed=77)):
        rep = audit_arrangement(a, 6)
        ok &= audit_hits_as_families(rep) == oracle_audit_hits(a, 6)
    report(10, "rank bound, monotonicity, equivariance, audit oracle",
           ok, time.time() - t0, 120)
