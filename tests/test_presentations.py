import itertools
import random

import pytest

from discrarr.presentations import (check_bba, degenerate,
                                    expected_rank, format_family,
                                    is_admissible, ladder, leq,
                                    min_expected_rank_above, orbit_canonical,
                                    parse_family, permute, presentation,
                                    twin_wheel, wheel)
from .conftest import random_admissible_family


def fam(n, k, *groups):
    return presentation(n, k, [frozenset(g) for g in groups])


W6 = fam(6, 2, {1, 2, 3}, {1, 5, 6}, {2, 4, 6}, {3, 4, 5})
SEVEN = fam(7, 2, {1, 2, 3}, {1, 4, 7}, {1, 5, 6}, {2, 4, 6}, {3, 5, 7})


def test_wheel_ladder_literals():
    assert wheel(6).members == frozenset(
        {frozenset(s) for s in ({1, 2, 3}, {3, 4, 5}, {5, 6, 1}, {2, 4, 6})})
    assert twin_wheel(6).members == frozenset(
        {frozenset(s) for s in ({2, 3, 4}, {4, 5, 6}, {6, 1, 2}, {1, 3, 5})})
    assert ladder(8).members == frozenset(
        {frozenset(s) for s in ({1, 2, 7}, {3, 4, 7}, {5, 6, 7},
                                {2, 3, 8}, {4, 5, 8}, {1, 6, 8})})
    for bad in (4, 7, 5):
        with pytest.raises(ValueError):
            wheel(bad)
    for bad in (6, 9):
        with pytest.raises(ValueError):
            ladder(bad)


def test_admissibility():
    assert is_admissible(W6)
    assert not is_admissible(fam(6, 2, {1, 2, 3}, {1, 2, 4}))  # pair 12 twice
    assert not is_admissible(fam(6, 2, {1, 2}))  # too small
    with pytest.raises(ValueError):
        fam(6, 2, {1, 2, 3}, {1, 2, 3, 4})  # not an antichain


def test_expected_rank():
    assert expected_rank(fam(6, 2, {1, 2, 3, 4, 5, 6})) == 4
    assert expected_rank(W6) == 4
    assert expected_rank(fam(6, 2)) == 0


def test_leq():
    assert leq(fam(6, 2, {1, 2, 3}), fam(6, 2, {1, 2, 3, 4}))
    assert leq(W6, fam(6, 2, {1, 2, 3, 4, 5, 6}))
    a, b = fam(6, 2, {1, 2, 3}), fam(6, 2, {4, 5, 6})
    assert not leq(a, b) and not leq(b, a)


def test_leq_is_partial_order():
    rng = random.Random(17)
    fams = [presentation(7, 2, random_admissible_family(rng, 7, 2))
            for _ in range(18)]
    for p in fams:
        assert leq(p, p)
    for p, q in itertools.combinations(fams, 2):
        if leq(p, q) and leq(q, p):
            assert p.members == q.members
    for p, q, r in itertools.combinations(fams, 3):
        for x, y, z in itertools.permutations((p, q, r)):
            if leq(x, y) and leq(y, z):
                assert leq(x, z)


def test_bba_verdicts():
    v = check_bba(W6)
    assert not v.ok and v.witness == W6.members  # whole family is the witness
    assert check_bba(fam(6, 2, {1, 2, 3}, {4, 5, 6})).ok
    assert check_bba(fam(6, 2, {1, 2, 3, 4})).ok  # single member, nothing to test
    with pytest.raises(ValueError):
        check_bba(fam(6, 2, {1, 2}))


def test_min_expected_rank_above_known_values():
    assert min_expected_rank_above(W6) == 4
    assert min_expected_rank_above(SEVEN) == 5


def test_min_expected_rank_above_singleton():
    assert min_expected_rank_above(fam(6, 2, {1, 2, 3})) == 2  # 3 - 2 + 1
    assert min_expected_rank_above(fam(6, 2, {1, 2, 3, 4, 5})) == 4
    assert min_expected_rank_above(fam(3, 2, {1, 2, 3})) is None  # top element


def test_min_expected_rank_above_brute_force():
    # independent check: enumerate the whole admissible poset on [5], [6]
    def all_families(n, k):
        subsets = [frozenset(c) for size in range(k + 1, n + 1)
                   for c in itertools.combinations(range(1, n + 1), size)]
        out = []

        def rec(start, cur):
            out.append(list(cur))
            for i in range(start, len(subsets)):
                s = subsets[i]
                if any(s <= m or m <= s or len(s & m) >= k for m in cur):
                    continue
                cur.append(s)
                rec(i + 1, cur)
                cur.pop()

        rec(0, [])
        return [presentation(n, k, f) for f in out]

    for n in (5, 6):
        universe = all_families(n, 2)
        passing = [p for p in universe if check_bba(p).ok]
        rng = random.Random(n)
        probes = rng.sample(universe, 12)
        for p in probes:
            uppers = [expected_rank(q) for q in passing
                      if q.members != p.members and leq(p, q)]
            expect = min(uppers) if uppers else None
            assert min_expected_rank_above(p) == expect, p.canonical()


def test_min_above_wheels():
    for m in (6, 8, 10):
        w = wheel(m)
        assert is_admissible(w)
        assert not check_bba(w).ok
        assert expected_rank(w) == m - 2
    for m in (6, 8):
        assert min_expected_rank_above(wheel(m)) - 1 == m - 3


def test_order_sanity_sweep():
    rng = random.Random(99)
    for _ in range(15):
        p = presentation(7, 2, random_admissible_family(rng, 7, 2))
        m = min_expected_rank_above(p)
        if m is None:
            continue
        if check_bba(p).ok:
            assert m > expected_rank(p)
        else:
            assert m >= expected_rank(p) - sum(1 for _ in p.members)  # finite
            assert m > expected_rank(fam(7, 2)) - 1  # nonnegative


def test_degenerate_examples():
    d, g = degenerate(SEVEN, 7, 4)
    assert d.members == W6.members and g == 1
    d8, g8 = degenerate(wheel(8), 8, 4)
    assert d8.members == fam(7, 2, {1, 2, 3}, {3, 4, 5}, {5, 6, 7},
                             {1, 4, 7}, {2, 4, 6}).members
    assert g8 == 1
    p = fam(5, 2, {1, 2, 3}, {2, 4, 5})
    d5, g5 = degenerate(p, 5, 1)
    assert g5 == 0
    # {123} and {124} would share the pair 12, so the closure merges them
    assert d5.members == fam(4, 2, {1, 2, 3, 4}).members
    q = fam(6, 2, {1, 2, 3}, {4, 5, 6})
    dq, gq = degenerate(q, 6, 1)
    assert gq == 0 and dq.members == fam(5, 2, {1, 2, 3}, {1, 4, 5}).members


def test_degenerate_guards():
    with pytest.raises(ValueError):
        degenerate(W6, 5, 1)  # must merge the top index
    with pytest.raises(ValueError):
        degenerate(W6, 6, 6)


def test_degeneration_keeps_failing_families_failing():
    # whenever the union shrinks by one, the merged pair sat in one member,
    # and no closure was needed, a failing family degenerates to a failing one
    rng = random.Random(4)
    checked = 0
    while checked < 25:
        n = rng.randint(5, 8)
        members = random_admissible_family(rng, n, 2, max_members=4)
        p = presentation(n, 2, members)
        if n not in p.support or check_bba(p).ok:
            continue
        j = rng.randint(1, n - 1)
        d, gamma = degenerate(p, n, j)
        if gamma != 1 or len(d.support) != len(p.support) - 1:
            continue
        replaced = {frozenset(j if i == n else i for i in s) for s in p.members}
        replaced = {s for s in replaced if len(s) > 2}
        if d.members != frozenset(replaced):
            continue  # closure actually fired
        assert not check_bba(d).ok
        checked += 1


def test_permute():
    ident = {i: i for i in range(1, 7)}
    assert permute(W6, ident).members == W6.members
    cyc = {1: 2, 2: 3, 3: 4, 4: 5, 5: 6, 6: 1}
    assert permute(wheel(6), cyc).members == twin_wheel(6).members
    rng = random.Random(12)
    for _ in range(10):
        images = list(range(1, 7))
        rng.shuffle(images)
        sigma = {i + 1: images[i] for i in range(6)}
        assert expected_rank(permute(W6, sigma)) == expected_rank(W6)


def test_parse_and_format():
    p = parse_family("123,156,246,345", 6, 2)
    assert p.members == W6.members
    q = parse_family("[1 2 13],[4 5 6]", 13, 2)
    assert q.members == fam(13, 2, {1, 2, 13}, {4, 5, 6}).members
    assert format_family(W6) == "123,156,246,345"
    assert format_family(q) == "[1 2 13],[4 5 6]"
    assert parse_family(format_family(q), 13, 2).members == q.members
    for text in (" [1 2 13] , [4 5 6] ", "[1 2 13]\t[4 5 6],", "[1,2,13],,[4 5 6]"):
        assert parse_family(text, 13, 2).members == q.members
    with pytest.raises(ValueError):
        parse_family("12a", 6, 2)


@pytest.mark.parametrize("text", ["[1 2 3],[4 5", "[1 2 3] x [4 5 6]",
                                  "7 [1 2 3]", "[1 2 3]]", "[1 2", "123,[4 5 6]"])
def test_parse_family_rejects_text_outside_groups(text):
    with pytest.raises(ValueError):
        parse_family(text, 13, 2)


def test_orbit_canonical():
    rng = random.Random(8)
    base = orbit_canonical(W6)
    for _ in range(12):
        images = list(range(1, 7))
        rng.shuffle(images)
        sigma = {i + 1: images[i] for i in range(6)}
        assert orbit_canonical(permute(W6, sigma)).canonical() == base.canonical()
    assert orbit_canonical(fam(9, 2, {4, 5, 9})).canonical() == ((1, 2, 3),)
    # the wheel and its even-rim twin are one orbit
    assert orbit_canonical(wheel(8)).canonical() == \
        orbit_canonical(twin_wheel(8)).canonical()
