"""Rank tests, restrict and normal_form on integer normals against the
Matrix forms they replaced (kept in conftest), over Q and F_7."""

import ast
import itertools
import math
import re
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discrarr.arrangement import (Arrangement, circuits, is_generic,
                                  normal_form, parallel, random_generic,
                                  restrict)
from discrarr.discriminantal import (_dependent, circuit_normal,
                                     dependency_rows, dependency_space,
                                     intersection_rank, is_circuit)
from discrarr.linalg import (FpElement, PrimeField, eliminate, integer_form,
                             integer_kernel, maximal_minors, rank)
from .conftest import (circuits_matrix_oracle, column_stack, det_oracle,
                       intersection_rank_matrix_oracle, is_generic_matrix_oracle,
                       normal_form_oracle, parallel_matrix_oracle,
                       restrict_oracle)

# numerators stay below 7 in absolute value, so no nonzero entry or
# product of two entries vanishes mod 7
scalars = st.one_of(st.integers(-4, 4).map(F),
                    st.builds(F, st.integers(-6, 6), st.integers(1, 5)))
units = scalars.filter(bool)


@st.composite
def arrangements(draw, prime):
    """k = 2 or 3, up to 7 normals with non-unit denominators, some of
    them scaled copies of earlier ones (parallel or repeated normals)."""
    k = draw(st.sampled_from((2, 3)))
    normals = []
    for _ in range(draw(st.integers(2, 7))):
        if normals and draw(st.integers(0, 3)) == 0:
            c = draw(units)
            normals.append(tuple(c * x for x in draw(st.sampled_from(normals))))
            continue
        v = draw(st.lists(scalars, min_size=k, max_size=k))
        if not any(v):
            v[draw(st.integers(0, k - 1))] = draw(units)
        normals.append(tuple(v))
    if prime is not None:
        fp = PrimeField(prime)
        normals = [tuple(fp(x) for x in v) for v in normals]
    return Arrangement(k, tuple(normals))


@st.composite
def with_family(draw, prime):
    a = draw(arrangements(prime))
    member = st.sets(st.integers(1, a.n), min_size=2)
    return a, draw(st.lists(member, max_size=4))


@pytest.mark.parametrize("prime", (None, 7))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_rank_tests_match_matrix_oracles(prime, data):
    a, family = data.draw(with_family(prime))
    assert is_generic(a) == is_generic_matrix_oracle(a)
    want = circuits_matrix_oracle(a)
    assert circuits(a) == want
    for i in range(1, a.n + 1):
        for j in range(i + 1, a.n + 1):
            assert parallel(a, i, j) == parallel_matrix_oracle(a, i, j)
    assert a.essential == (rank(column_stack(a)) == a.k)
    for s in family:
        assert _dependent(a, s) == any(c <= frozenset(s) for c in want)
        assert is_circuit(a, s) == (frozenset(s) in want)
    assert intersection_rank(a, family) == intersection_rank_matrix_oracle(a, family)


@pytest.mark.parametrize("prime", (None, 7))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_maximal_minors_match_det_oracle(prime, data):
    a = data.draw(arrangements(prime))
    rows, p, scales = integer_form(a.normals)
    table = maximal_minors(rows, p)
    assert sorted(table) == list(itertools.combinations(range(a.n), a.k))
    for comb, minor in table.items():
        want = det_oracle([a.normals[i] for i in comb])
        if p is None:
            assert minor == want * math.prod(scales[i] for i in comb)
        else:
            assert minor == PrimeField(p)(want).v


@pytest.mark.parametrize("prime", (None, 7))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_cramer_rows_span_the_kernel(prime, data):
    # rows read from the minor table (or the integer_kernel fallback) are
    # dependencies of the normals and span what integer_kernel spans
    a, family = data.draw(with_family(prime))
    normals, p, _ = integer_form(a.normals)
    minors = maximal_minors(normals, p)
    for s in family:
        s = sorted(s)
        rows = dependency_rows(normals, p, s, minors)
        for row in rows:
            assert all(x == 0 for i, x in enumerate(row) if i + 1 not in s)
            for c in range(a.k):
                total = sum(x * v[c] for x, v in zip(row, normals))
                assert (total if p is None else total % p) == 0
        kernel, _ = integer_kernel([list(r) for r in zip(*(normals[i - 1] for i in s))],
                                   len(s), p)
        local = [[row[i - 1] for i in s] for row in rows]

        def rk(m):
            return len(eliminate(m, p)[1])
        assert rk(local) == rk(kernel) == rk(local + kernel) == len(rows)



@pytest.mark.parametrize("prime", (None, 7))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_circuit_normal_matches_minor_oracle(prime, data):
    # a full-size circuit gets its signed cofactor minors, a smaller one the
    # dependency with 1 at its largest index, all in the arrangement's field
    a = data.draw(arrangements(prime))
    field = F if prime is None else FpElement
    for c in circuits_matrix_oracle(a):
        c = sorted(c)
        got = circuit_normal(a, c)
        assert all(type(x) is field for x in got)
        assert all(not got[i - 1] for i in range(1, a.n + 1) if i not in c)
        if len(c) == a.k + 1:
            for j, i in enumerate(c):
                assert got[i - 1] == (-1) ** j * det_oracle([a.normal(x) for x in c if x != i])
        else:
            assert got[c[-1] - 1] == 1
            for col in range(a.k):
                assert not sum(got[i - 1] * a.normal(i)[col] for i in c)

def same_as_oracle(f, oracle, a, *args) -> bool:
    """f(a, *args) equals the oracle's arrangement, normal by normal and in
    JSON, with every entry in the arrangement's field, or both raise the
    same ValueError.  True when they returned."""
    try:
        want = oracle(a, *args)
    except ValueError as e:
        with pytest.raises(ValueError, match=re.escape(str(e))):
            f(a, *args)
        return False
    got = f(a, *args)
    assert (got.k, got.normals) == (want.k, want.normals)
    assert got.to_json_dict() == want.to_json_dict()
    field = F if a.p is None else FpElement
    assert all(type(x) is field for v in got.normals for x in v)
    return True


def in_form(a, form):
    """a with int normals (its integer rows), as drawn, or mapped to F_7."""
    if form == "int":
        return Arrangement(a.k, a.rows)
    if form == "F7":
        fp = PrimeField(7)
        return Arrangement(a.k, tuple(tuple(fp(x) for x in v) for v in a.normals))
    return a


@pytest.mark.parametrize("form", ("int", "fraction", "F7"))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_restrict_and_normal_form_match_fraction_oracles(form, data):
    a = in_form(data.draw(arrangements(None)), form)
    for i in range(1, a.n + 1):
        same_as_oracle(restrict, restrict_oracle, a, i)
    same_as_oracle(normal_form, normal_form_oracle, a)


@pytest.mark.parametrize("form", ("int", "fraction", "F7"))
def test_restrict_and_normal_form_match_oracles_on_generic_samples(form):
    # generic essential inputs, which the drawn arrangements rarely are;
    # "fraction" divides normal j by j + 1.  Entries below 7 in absolute
    # value keep every normal nonzero mod 7.
    returned = 0
    for k in (1, 2, 3, 4):
        for n in (k, k + 1, k + 3):
            for seed in range(3):
                a = random_generic(n, k, seed, height=3)
                if form == "fraction":
                    a = Arrangement(k, tuple(tuple(F(x, j + 1) for x in v)
                                             for j, v in enumerate(a.normals)))
                a = in_form(a, form)
                returned += same_as_oracle(normal_form, normal_form_oracle, a)
                if k > 1:
                    for i in range(1, n + 1):
                        same_as_oracle(restrict, restrict_oracle, a, i)
    assert returned >= 20


def test_mixed_normals_over_fp_restrict_and_normalise_to_field_elements():
    # int normals next to FpElements are read mod p: the results equal those
    # of the all-FpElement input, entry types included, also when the
    # restricting normal is an int row
    for seed in range(8):
        ints = random_generic(5, 3, seed, height=3)
        full = in_form(ints, "F7")
        if is_generic(full):
            break
    mixed = Arrangement(3, tuple(v if j % 2 else w for j, (v, w) in
                                 enumerate(zip(ints.normals, full.normals))))
    for got, want in ((restrict(mixed, 2), restrict(full, 2)),
                      (normal_form(mixed), normal_form(full))):
        assert got.normals == want.normals
        assert all(type(x) is FpElement for v in got.normals for x in v)


def test_intersection_rank_rejects_bad_indices():
    a = random_generic(6, 2, 1)
    with pytest.raises(IndexError):
        intersection_rank(a, [{0, 1, 2}])
    with pytest.raises(IndexError):
        intersection_rank(a, [{5, 6, 7}])


def test_dependency_space_prime_field_entries():
    # every entry, the zeros off the index set included, is a field element,
    # and circuit_normal over F_p is the rational one reduced mod p
    a = random_generic(6, 2, 1)
    for prime in (7, 1299709):
        fp = PrimeField(prime)
        b = Arrangement(2, tuple(tuple(fp(x) for x in v) for v in a.normals))
        vectors = dependency_space(b, (1, 2, 3)).basis + (circuit_normal(b, (1, 2, 3)),)
        assert all(type(x) is FpElement for v in vectors for x in v)
        assert vectors == tuple(tuple(fp(x) for x in v) for v in vectors)
        assert circuit_normal(b, (1, 2, 3)) == \
            tuple(fp(x) for x in circuit_normal(a, (1, 2, 3)))


def test_integer_form_has_one_arrangement_call_site():
    # normals become integer rows in Arrangement.__post_init__ and nowhere
    # else; linalg's Matrix views are the only other callers.  A translation
    # enters as the last column of the arrangement's cone, so the translation
    # layer and the SVG pictures use none of those Matrix views, and the
    # arrangement layer builds no Matrix: transformed takes its Matrix from
    # the caller and reads it with det and dot.  column_stack and
    # random_invertible are test helpers, in conftest.
    src = Path(__file__).resolve().parent.parent / "src" / "discrarr"
    calls, importers = [], []
    matrix_views = {"Matrix", "solve", "kernel_basis", "det", "rref"}
    banned = {"discriminantal.py": matrix_views, "svg.py": matrix_views,
              "arrangement.py": {"Matrix", "rref", "kernel_basis", "solve"}}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {al.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) for al in node.names}
        attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        defined = {node.name for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert not (imported | attrs) & banned.get(path.name, set()), path.name
        assert "column_stack" not in imported | attrs | names | defined, path.name
        assert "random_invertible" not in defined, path.name
        scopes = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                scopes[child] = node
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and \
                    any(al.name == "integer_form" for al in node.names):
                importers.append(path.name)
            func = getattr(node, "func", None)
            name = getattr(func, "id", getattr(func, "attr", None))
            if isinstance(node, ast.Call) and name == "integer_form":
                where, up = [], node
                while up in scopes:
                    up = scopes[up]
                    if isinstance(up, (ast.ClassDef, ast.FunctionDef)):
                        where.insert(0, up.name)
                calls.append((path.name, ".".join(where)))
    assert importers == ["arrangement.py"]
    assert [c for c in calls if c[0] != "linalg.py"] == \
        [("arrangement.py", "Arrangement.__post_init__")]
