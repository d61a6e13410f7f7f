import json
import random
import re
from decimal import Decimal
from fractions import Fraction as F

import pytest

from discrarr.arrangement import (Arrangement, RetryBudgetExceeded, circuits,
                                  delete, from_int_columns, is_generic,
                                  maximal_minor, normal_form, pair_det,
                                  parallel, permuted, random_generic, restrict,
                                  scaled)
from discrarr.discriminantal import (circuit_normal, dependency_space,
                                     has_common_point, intersection_rank,
                                     is_circuit)
from discrarr.linalg import FpElement, PrimeField, maximal_minors
from .conftest import circuits_oracle, det_oracle


def canon(cs):
    return sorted(sorted(c) for c in cs)


def test_circuits_multi(parallel_multi):
    assert canon(circuits(parallel_multi)) == [[1, 2], [1, 3, 4], [2, 3, 4]]


def test_circuits_generic_crapo(crapo):
    a = crapo(3)
    got = circuits(a)
    assert got == circuits_oracle(a)
    assert len(got) == 20 and all(len(c) == 3 for c in got)


def test_circuits_single_normal():
    a = from_int_columns(2, [(1, 2)])
    assert circuits(a) == frozenset()


def test_is_generic(crapo, parallel_multi):
    assert is_generic(crapo(3))
    assert not is_generic(crapo(2))  # columns 2 and 6 become parallel
    assert not is_generic(parallel_multi)


def test_pair_det(crapo):
    a = crapo(3)
    assert pair_det(a, 2, 4) == 3
    assert pair_det(a, 4, 4) == 0
    for lam in (3, -1, 7):
        assert pair_det(crapo(lam), 2, 6) == 2 - lam
    rng = random.Random(1)
    for _ in range(10):
        i, j = rng.randint(1, 6), rng.randint(1, 6)
        assert pair_det(a, i, j) == -pair_det(a, j, i)
    with pytest.raises(ValueError):
        pair_det(from_int_columns(3, [(1, 0, 0), (0, 1, 0)]), 1, 2)


def test_maximal_minor(crapo, ten_line):
    a = crapo(3)
    assert maximal_minor(a, {2, 4}) == pair_det(a, 2, 4)
    with pytest.raises(ValueError):
        maximal_minor(ten_line, {1, 2})
    cols = [ten_line.normal(i) for i in (1, 2, 5)]
    rows = [[c[r] for c in cols] for r in range(3)]
    assert maximal_minor(ten_line, {1, 2, 5}) == det_oracle(rows)


def test_delete_parallel_copy(parallel_multi):
    d = delete(parallel_multi, 2)
    assert canon(circuits(d)) == [[1, 2, 3]]
    assert d.normals == (parallel_multi.normal(1), parallel_multi.normal(3),
                         parallel_multi.normal(4))


def test_delete_preserves_genericity(crapo):
    assert is_generic(delete(crapo(3), 4))


def test_delete_to_empty():
    a = from_int_columns(2, [(1, 1)])
    d = delete(a, 1)
    assert d.n == 0 and not d.essential


def test_restrict_generic_six_lines(crapo):
    r = restrict(crapo(3), 1)
    assert r.k == 1 and r.n == 5
    # rank-1 circuits are exactly the pairs (braid pattern downstream)
    assert canon(circuits(r)) == canon(
        [{i, j} for i in range(1, 6) for j in range(i + 1, 6)])
    # distinctness of the restricted covectors is not forced by genericity
    # (two normals may differ by a multiple of the cut one); it holds when
    # the second coordinates are distinct and the cut line is the y-axis
    b = from_int_columns(2, [(1, 0), (1, 1), (1, 2), (1, 3), (2, 5), (3, 7)])
    assert is_generic(b)
    rb = restrict(b, 1)
    assert len(set(rb.normals)) == 5


def test_restrict_multi(parallel_multi):
    r = restrict(parallel_multi, 3)
    assert r.normals == ((F(1),), (F(2),), (F(1),))
    assert r.normal(1) == r.normal(3)  # normals 1 and 4 agree on plane 3


def test_restrict_guards(parallel_multi, crapo):
    with pytest.raises(ValueError):
        restrict(parallel_multi, 1)  # 2 is parallel to 1
    with pytest.raises(ValueError):
        restrict(restrict(crapo(3), 1), 2)  # k = 1


def test_restriction_deletion_circuit_formulas():
    # circuit bookkeeping under deletion and restriction on random
    # multiarrangements, against recomputation from scratch
    rng = random.Random(23)
    done = 0
    while done < 12:
        n = rng.randint(3, 8)
        k = rng.randint(2, 3)
        if n <= k:
            continue
        try:
            base = random_generic(n - 1, k, seed=rng.randint(0, 10 ** 6), height=5)
        except RetryBudgetExceeded:
            continue
        j = rng.randint(1, n - 1)
        mult = Arrangement(k, base.normals +
                           (tuple(F(2) * x for x in base.normal(j)),))
        cs = circuits(mult)
        i = rng.randint(1, n)
        del_expected = frozenset(
            frozenset(x - 1 if x > i else x for x in c)
            for c in cs if i not in c)
        assert circuits(delete(mult, i)) == del_expected
        if all(ii == i or not _parallel(mult, i, ii) for ii in range(1, n + 1)):
            relabel = {x: (x - 1 if x > i else x) for x in range(1, n + 1) if x != i}
            dropped = [frozenset(relabel[x] for x in c - {i}) for c in cs]
            res_expected = frozenset(
                c for c in dropped if not any(d < c for d in dropped))
            assert circuits(restrict(mult, i)) == res_expected
        done += 1


def _parallel(a, i, j):
    from discrarr.arrangement import parallel
    return parallel(a, i, j)


def test_normal_form_idempotent(crapo):
    nf = normal_form(crapo(3))
    assert normal_form(nf).normals == nf.normals


def test_normal_form_pattern_and_invariance(crapo):
    a = crapo(-1)
    nf = normal_form(a)
    k, n = nf.k, nf.n
    for c in range(k):
        assert nf.normal(c + 1) == tuple(F(1 if r == c else 0) for r in range(k))
    assert nf.normal(k + 1) == tuple(F(1) for _ in range(k))
    for c in range(k + 1, n):
        assert nf.normal(c + 1)[k - 1] == 1
    assert circuits(nf) == circuits(a)
    fam = [{1, 2, 3}, {1, 5, 6}, {2, 4, 6}, {3, 4, 5}]
    assert intersection_rank(nf, fam) == intersection_rank(a, fam) == 3


def test_normal_form_rank_one():
    a = from_int_columns(1, [(2,), (3,), (5,)])
    nf = normal_form(a)
    assert nf.normals == ((F(1),), (F(1),), (F(1),))


def test_normal_form_rejects_non_generic(parallel_multi):
    with pytest.raises(ValueError):
        normal_form(parallel_multi)


def test_random_generic_deterministic():
    a1 = random_generic(6, 2, seed=1)
    a2 = random_generic(6, 2, seed=1)
    assert a1.normals == a2.normals
    assert is_generic(a1)


def test_random_generic_always_generic_and_circuit_axioms():
    rng = random.Random(5)
    for _ in range(8):
        n, k = rng.randint(3, 7), rng.randint(1, 3)
        if n < k:
            continue
        a = random_generic(n, k, seed=rng.randint(0, 10 ** 6))
        assert is_generic(a)
        cs = circuits(a)
        assert cs == circuits_oracle(a)
        for c1 in cs:
            for c2 in cs:
                assert not c1 < c2


def test_random_generic_guards():
    with pytest.raises(ValueError):
        random_generic(3, 4, seed=0)
    with pytest.raises(RetryBudgetExceeded):
        random_generic(9, 2, seed=0, height=1, budget=4)


def test_permuted_and_scaled(crapo):
    a = crapo(3)
    sigma = {1: 2, 2: 1, 3: 3, 4: 5, 5: 4, 6: 6}
    p = permuted(a, sigma)
    assert p.normal(2) == a.normal(1) and p.normal(4) == a.normal(5)
    s = scaled(a, 3, F(-2))
    assert s.normal(3) == tuple(F(-2) * x for x in a.normal(3))
    with pytest.raises(ValueError):
        scaled(a, 3, F(0))


def test_json_round_trip(crapo, tmp_path):
    from discrarr.arrangement import load_arrangement, save_arrangement
    a = crapo(F(-7, 3))
    path = tmp_path / "a.json"
    save_arrangement(a, str(path))
    b = load_arrangement(str(path))
    assert b.normals == a.normals and b.k == a.k
    raw = json.loads(path.read_text())
    assert raw["normals"][5][0] == "-7/3"


def test_integer_rows_are_built_in_the_constructor():
    a = Arrangement(2, ((F(1, 2), F(1, 3)), (2, F(-3, 4)), (F(4), F(0))))
    assert a.rows == ((3, 2), (8, -3), (4, 0))
    assert a.p is None and a.scales == (6, 4, 1)
    fp = PrimeField(7)
    b = Arrangement(2, tuple(tuple(fp(x) for x in v) for v in a.normals))
    assert b.rows == ((4, 5), (2, 1), (4, 0))
    assert b.p == 7 and b.scales == (1, 1, 1)
    # derived fields take no part in equality, hashing or repr, and neither
    # does the table of maximal minors, built once on first use
    assert is_generic(a) and a._minors is a._minors
    assert a._minors == maximal_minors(a.rows)
    c = Arrangement(2, ((F(1, 2), F(1, 3)), (F(2), F(-3, 4)), (4, 0)))
    assert "_minors" not in vars(c) and c == a and hash(c) == hash(a)
    assert repr(a) == f"Arrangement(k=2, normals={a.normals!r})"


INDEXED = {
    "parallel": lambda a, i: parallel(a, i, 1),
    "pair_det": lambda a, i: pair_det(a, i, 1),
    "maximal_minor": lambda a, i: maximal_minor(a, {1, i}),
    "delete": delete,
    "restrict": restrict,
    "scaled": lambda a, i: scaled(a, i, 2),
    "is_circuit": lambda a, i: is_circuit(a, {1, 2, i}),
    "circuit_normal": lambda a, i: circuit_normal(a, {1, 2, i}),
    "dependency_space": lambda a, i: dependency_space(a, {1, 2, i}),
    "has_common_point": lambda a, i: has_common_point(a, (0,) * a.n, {1, 2, i}),
    "intersection_rank": lambda a, i: intersection_rank(a, [{1, 2, i}]),
}


@pytest.mark.parametrize("name", sorted(INDEXED))
def test_indices_out_of_range_raise(name):
    a = random_generic(4, 2, 1)
    for i in (0, a.n + 1):
        with pytest.raises(IndexError, match="out of range"):
            INDEXED[name](a, i)


@pytest.mark.parametrize("entry", (0.5, Decimal("0.5"), "1/2"))
def test_non_exact_entries_fail_at_construction(entry):
    with pytest.raises(TypeError, match=re.escape(repr(entry))):
        Arrangement(2, ((entry, 1), (1, 0)))
    with pytest.raises(TypeError):
        Arrangement(2, ((FpElement(1, 7), entry), (1, 0)))


def test_mixed_prime_fields_fail_at_construction():
    with pytest.raises(ValueError, match="mixed prime fields"):
        Arrangement(2, ((FpElement(1, 7), FpElement(2, 11)), (1, 0)))


def test_fraction_with_vanishing_denominator_fails_at_construction():
    with pytest.raises(ZeroDivisionError):
        Arrangement(2, ((FpElement(1, 7), F(1, 7)), (1, 0)))
