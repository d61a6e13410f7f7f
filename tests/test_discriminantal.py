import itertools
import random
from fractions import Fraction as F

import pytest

from discrarr.arrangement import (Arrangement, circuits, delete,
                                  from_int_columns, permuted, random_generic,
                                  scaled, transformed)
from discrarr.discriminantal import (canonical_presentation, circuit_normal,
                                     dependency_space, find_representative,
                                     has_common_point, intersection_rank)
from discrarr.linalg import Matrix, rank
from discrarr.presentations import expected_rank, leq, presentation
from .conftest import (TEN_LINE_FAMILY, random_admissible_family,
                       random_invertible)

W6_FAMILY = [{1, 2, 3}, {1, 5, 6}, {2, 4, 6}, {3, 4, 5}]
T_WITNESS = (F(0), F(1), F(1), F(1), F(0), F(0))


def crapo_normals_table(lam):
    lam = F(lam)
    return {
        (1, 2, 3): (1, -1, 1, 0, 0, 0),
        (1, 5, 6): (-lam, 0, 0, 0, -1, 1),
        (2, 4, 6): (0, 1 - 2 * lam, 0, lam - 2, 0, 3),
        (3, 4, 5): (0, 0, 1, -1, 1, 0),
    }


def test_circuit_normals_crapo(crapo):
    for lam in (-1, 3):
        a = crapo(lam)
        for c, expected in crapo_normals_table(lam).items():
            got = circuit_normal(a, set(c))
            assert got == tuple(F(x) for x in expected), c


def test_circuit_normal_parallel_pair(parallel_multi):
    assert circuit_normal(parallel_multi, {1, 2}) == (F(-2), F(1), F(0), F(0))
    assert circuit_normal(parallel_multi, {1, 3, 4}) == (F(-1), F(0), F(-1), F(1))
    assert circuit_normal(parallel_multi, {2, 3, 4}) == (F(0), F(-1), F(-2), F(2))
    with pytest.raises(ValueError):
        circuit_normal(parallel_multi, {1, 3})  # independent pair


def test_dependency_space(parallel_multi, crapo):
    d = dependency_space(parallel_multi, {1, 2, 3, 4})
    assert len(d.basis) == 2
    d12 = dependency_space(parallel_multi, {1, 2})
    assert len(d12.basis) == 1
    assert d12.basis[0] == (F(-2), F(1), F(0), F(0))
    a = crapo(3)
    trip = dependency_space(a, {2, 4, 6})
    assert len(trip.basis) == 1
    cn = circuit_normal(a, {2, 4, 6})
    assert rank(Matrix.from_rows([trip.basis[0], cn])) == 1  # same line


def test_intersection_rank_crapo(crapo):
    assert intersection_rank(crapo(-1), W6_FAMILY) == 3
    assert intersection_rank(crapo(3), W6_FAMILY) == 4


def test_intersection_rank_ten_line(ten_line):
    assert intersection_rank(ten_line, TEN_LINE_FAMILY) == 4


def test_intersection_rank_nine_line(nine_line):
    t0 = [{1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {1, 4, 7}, {2, 5, 8}, {3, 6, 9}]
    assert intersection_rank(nine_line, t0) == 5


def test_intersection_rank_edges(crapo):
    assert intersection_rank(crapo(3), []) == 0
    with pytest.raises(ValueError):
        intersection_rank(crapo(3), [{4}])


def test_has_common_point(crapo):
    a1, a3 = crapo(-1), crapo(3)
    zero = tuple(F(0) for _ in range(6))
    for s in ({1, 2}, {2, 4, 6}, set(range(1, 7))):
        assert has_common_point(a1, zero, s)
    assert has_common_point(a1, T_WITNESS, {2, 4, 6})
    assert not has_common_point(a3, T_WITNESS, {2, 4, 6})


def test_canonical_presentation_crapo(crapo):
    got = canonical_presentation(crapo(-1), T_WITNESS)
    assert got.members == frozenset(frozenset(s) for s in W6_FAMILY)
    zero = tuple(F(0) for _ in range(6))
    top = canonical_presentation(crapo(3), zero)
    assert top.members == frozenset({frozenset(range(1, 7))})


def test_canonical_presentation_generic_translation(crapo):
    rng = random.Random(2)
    t = tuple(F(rng.randint(10, 500)) * F(1, rng.randint(1, 7)) for _ in range(6))
    assert canonical_presentation(crapo(3), t).members == frozenset()


def test_canonical_presentation_multi(parallel_multi):
    # the two parallel lines coincide; lines 3 and 4 each cross that line
    t = (F(2), F(4), F(0), F(0))
    got = canonical_presentation(parallel_multi, t)
    assert got.members == frozenset(
        {frozenset({1, 2, 3}), frozenset({1, 2, 4})})
    # with every line parallel, the coincident pair itself is maximal
    stack = from_int_columns(2, [(1, 0), (2, 0), (3, 0)])
    got2 = canonical_presentation(stack, (F(2), F(4), F(0)))
    assert got2.members == frozenset({frozenset({1, 2})})


def test_representative_found(crapo):
    a = crapo(-1)
    p = presentation(6, 2, W6_FAMILY)
    res = find_representative(a, p, seed=5)
    assert res.found
    assert canonical_presentation(a, res.witness).members == p.members


def test_representative_failure_reports_achieved(crapo):
    a = crapo(3)
    p = presentation(6, 2, W6_FAMILY)
    res = find_representative(a, p, seed=5, budget=12)
    assert not res.found and res.witness is None
    assert res.achieved.members == frozenset({frozenset(range(1, 7))})


def test_representative_top_family(crapo):
    a = crapo(3)
    res = find_representative(a, presentation(6, 2, [set(range(1, 7))]), seed=1)
    assert res.found and res.witness == tuple(F(0) for _ in range(6))


def test_rank_bounded_by_expected_rank():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(5, 9)
        k = rng.choice([2, 3])
        if n < k + 2:
            continue
        a = random_generic(n, k, seed=rng.randint(0, 10 ** 6), height=6)
        p = presentation(n, k, random_admissible_family(rng, n, k))
        assert intersection_rank(a, p) <= expected_rank(p)


def test_rank_monotone_under_coarsening():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(6, 8)
        a = random_generic(n, 2, seed=rng.randint(0, 10 ** 6), height=6)
        fine = presentation(n, 2, random_admissible_family(rng, n, 2))
        blocks = sorted(fine.members, key=sorted)
        merged = frozenset().union(*blocks)
        coarse = presentation(n, 2, [merged])
        assert leq(fine, coarse)
        assert intersection_rank(a, coarse) >= intersection_rank(a, fine)


def test_representative_round_trip_random():
    rng = random.Random(6)
    hits = 0
    for _ in range(10):
        a = random_generic(6, 2, seed=rng.randint(0, 10 ** 6))
        p = presentation(6, 2, random_admissible_family(rng, 6, 2, max_members=2))
        res = find_representative(a, p, seed=rng.randint(0, 10 ** 6))
        if res.found:
            hits += 1
            assert canonical_presentation(a, res.witness).members == p.members
    assert hits  # single members and disjoint-ish pairs are easy to realize


def test_equivariance_and_invariance(crapo):
    rng = random.Random(9)
    a = crapo(-1)
    p = presentation(6, 2, W6_FAMILY)
    base = intersection_rank(a, p)
    for _ in range(8):
        images = list(range(1, 7))
        rng.shuffle(images)
        sigma = {i + 1: images[i] for i in range(6)}
        pa = permuted(a, sigma)
        pt = [None] * 6
        for i in range(1, 7):
            pt[sigma[i] - 1] = T_WITNESS[i - 1]
        from discrarr.presentations import permute
        assert canonical_presentation(pa, tuple(pt)).members == \
            permute(canonical_presentation(a, T_WITNESS), sigma).members
        assert intersection_rank(pa, permute(p, sigma)) == base
    for _ in range(5):
        i = rng.randint(1, 6)
        c = F(rng.choice([2, -1, 5, -7]))
        assert intersection_rank(scaled(a, i, c), p) == base
        m = random_invertible(2, rng)
        assert intersection_rank(transformed(a, m), p) == base


def test_deletion_matches_restricted_translation_space():
    # removing one of two equal hyperplanes is the same as slicing the
    # space of translations along their coincidence subspace
    rng = random.Random(77)
    done = 0
    while done < 8:
        n = rng.randint(4, 7)
        k = rng.choice([2, 3])
        if n - 1 < k:
            continue
        base = random_generic(n - 1, k, seed=rng.randint(0, 10 ** 6), height=5)
        j = rng.randint(1, n - 1)
        a = Arrangement(k, base.normals + (tuple(F(3) * x for x in base.normal(j)),))
        i = n
        cs_del = circuits(delete(a, i))
        pair = frozenset({i, j})
        for c1, c2 in itertools.combinations(sorted(cs_del, key=sorted), 2):
            fam_small = [set(c1), set(c2)]
            fam_big = [set(c1), set(c2), pair]
            assert intersection_rank(delete(a, i), fam_small) == \
                intersection_rank(a, fam_big) - 1
        done += 1
