import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discrarr.linalg import (DEFAULT_SCREEN_PRIME, FpElement, Matrix,
                             PrimeField, det, integer_form, integer_kernel,
                             is_prime, kernel_basis, matrix_to_field,
                             parse_scalar, rank, rref, scalar_str, solve)
from .conftest import (crapo_arrangement, det_elim_oracle, det_oracle,
                       rank_oracle, rref_oracle)

ints = st.integers(min_value=-6, max_value=6)


def small_matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda nr: st.integers(1, max_dim).flatmap(
            lambda nc: st.lists(st.lists(ints, min_size=nc, max_size=nc),
                                min_size=nr, max_size=nr)))


def to_matrix(rows):
    return Matrix.from_rows([[F(x) for x in r] for r in rows])


def crapo_stack(lam):
    from discrarr.discriminantal import circuit_normal
    a = crapo_arrangement(lam)
    fams = [{1, 2, 3}, {1, 5, 6}, {2, 4, 6}, {3, 4, 5}]
    return Matrix.from_rows([circuit_normal(a, s) for s in fams])


def test_rank_identity():
    m = to_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert rank(m) == 3


def test_rank_crapo_stack_special_value():
    assert rank(crapo_stack(-1)) == 3
    assert rank(crapo_stack(3)) == 4


def test_kernel_zero_matrix():
    m = to_matrix([[0, 0, 0], [0, 0, 0]])
    assert len(kernel_basis(m)) == 3


def test_kernel_one_equation():
    m = to_matrix([[1, -1]])
    (v,) = kernel_basis(m)
    assert v[0] * F(1) == v[1] * F(1) and any(v)


def test_kernel_crapo_stack():
    assert len(kernel_basis(crapo_stack(-1))) == 6 - 3


def test_det_examples():
    assert det(to_matrix([[1, 0], [2, 1]])) == 1
    assert det(to_matrix([[7]])) == 7
    for lam in (0, 5, -3):
        assert det(to_matrix([[1, 0], [lam, 1]])) == 1
    with pytest.raises(ValueError):
        det(to_matrix([[1, 0, 0], [0, 1, 0]]))


def test_solve_examples():
    ident = to_matrix([[1, 0], [0, 1]])
    assert solve(ident, [F(3), F(-2)]) == (F(3), F(-2))
    x = solve(to_matrix([[1, 1]]), [F(2)])
    assert x is not None and x[0] + x[1] == 2
    assert solve(to_matrix([[0, 0]]), [F(1)]) is None
    with pytest.raises(ValueError):
        solve(ident, [F(1)])


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_rank_equals_transpose_rank(rows):
    m = to_matrix(rows)
    assert rank(m) == rank(m.transpose())


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_kernel_dimension_and_annihilation(rows):
    m = to_matrix(rows)
    basis = kernel_basis(m)
    assert len(basis) == m.ncols - rank(m)
    for v in basis:
        for i in range(m.nrows):
            assert sum(a * b for a, b in zip(m.row(i), v)) == 0


@settings(max_examples=40, deadline=None)
@given(small_matrices())
def test_rank_matches_minor_oracle(rows):
    m = to_matrix(rows)
    assert rank(m) == rank_oracle([list(m.row(i)) for i in range(m.nrows)])


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4).flatmap(
    lambda n: st.lists(st.lists(ints, min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_det_matches_cofactor_oracle(rows):
    m = to_matrix(rows)
    assert det(m) == det_oracle([list(m.row(i)) for i in range(m.nrows)])


def test_rank_invariant_under_row_scaling_and_permutation():
    rng = random.Random(7)
    for _ in range(25):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[F(rng.randint(-5, 5)) for _ in range(nc)] for _ in range(nr)]
        m = Matrix.from_rows(rows)
        scaled = [[F(rng.choice([1, 2, -3, 5])) * x for x in r] for r in rows]
        rng.shuffle(scaled)
        assert rank(m) == rank(Matrix.from_rows(scaled))


def test_det_equal_rows_is_zero():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 4)
        row = [F(rng.randint(-5, 5)) for _ in range(n)]
        rows = [row[:] for _ in range(n)]
        for i in range(2, n):
            rows[i] = [F(rng.randint(-5, 5)) for _ in range(n)]
        assert det(Matrix.from_rows(rows)) == 0


def test_scalar_serialization_round_trip():
    for s in ("3/4", "-7/2", "5", "0", "-12"):
        assert scalar_str(parse_scalar(s)) == s
    assert scalar_str(F(6, 4)) == "3/2"


def test_prime_field_arithmetic():
    fp = PrimeField(101)
    x = fp(F(3, 4))
    assert x * fp(4) == fp(3)
    assert fp(100) + fp(2) == fp(1)
    with pytest.raises(ValueError):
        PrimeField(100)
    assert is_prime(DEFAULT_SCREEN_PRIME)


def test_rank_over_prime_field_screens_rational_rank():
    fp = PrimeField(DEFAULT_SCREEN_PRIME)
    for lam, expected in ((-1, 3), (3, 4)):
        m = crapo_stack(lam)
        assert rank(matrix_to_field(m, fp)) == expected
    rng = random.Random(11)
    for _ in range(15):
        rows = [[F(rng.randint(-9, 9)) for _ in range(4)] for _ in range(3)]
        m = Matrix.from_rows(rows)
        assert rank(matrix_to_field(m, fp)) <= rank(m)


def test_fp_kernel_and_solve():
    fp = PrimeField(97)
    m = matrix_to_field(Matrix.from_rows([[F(1), F(2)], [F(2), F(4)]]), fp)
    assert rank(m) == 1
    (v,) = kernel_basis(m)
    assert v[0] + fp(2) * v[1] == fp(0)
    assert solve(m, [fp(1), fp(2)]) is not None
    assert solve(m, [fp(1), fp(3)]) is None


def test_large_int_entries_stay_exact():
    # plain int entries near 2**56: any float division loses the rank
    m = Matrix.from_rows([[10**17 + 1, 10**17], [10**17, 10**17 - 1]])
    assert rank(m) == 2
    assert det(m) == -1
    assert kernel_basis(m) == []
    red, pivots = rref(m)
    assert pivots == [0, 1]
    assert all(type(x) is F for row in red for x in row)


# Differential properties: the integer kernel against the Fraction
# elimination it replaced, over Q and two prime fields.

FIELDS = (None, 7, DEFAULT_SCREEN_PRIME)
entries = st.one_of(ints, st.builds(F, st.integers(-9, 9), st.integers(1, 6)))


@st.composite
def exact_rows(draw, square=False):
    """Up to 6 x 8, with plain ints or non-unit denominators, zero rows and
    columns, and a scaled copy of the first row."""
    nr = draw(st.integers(1, 6))
    nc = nr if square else draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(entries, min_size=nc, max_size=nc),
                         min_size=nr, max_size=nr))
    if draw(st.booleans()):
        rows = [[int(x) for x in r] for r in rows]
    for i in draw(st.sets(st.integers(0, nr - 1), max_size=2)):
        rows[i] = [0] * nc
    for j in draw(st.sets(st.integers(0, nc - 1), max_size=2)):
        for r in rows:
            r[j] = 0
    if nr > 1 and draw(st.booleans()):
        rows[-1] = [-3 * x for x in rows[0]]
    return rows


def field_case(rows, prime):
    """(matrix for the package, rows for the oracle, the field's unit, a
    map to compare scalars).  Over F_p the package's matrix keeps zeros as
    Fraction(0), as dependency vectors over F_p do."""
    if prime is None:
        return (Matrix.from_rows(rows), [[F(x) for x in r] for r in rows],
                F(1), lambda x: x)
    fp = PrimeField(prime)
    mixed = [[fp(x) if x or (i, j) == (0, 0) else F(0) for j, x in enumerate(r)]
             for i, r in enumerate(rows)]
    return (Matrix.from_rows(mixed), [[fp(x) for x in r] for r in rows],
            fp(1), fp)


def assert_field_elements(values, prime):
    assert all(type(x) is (F if prime is None else FpElement) for x in values)


@pytest.mark.parametrize("prime", FIELDS)
@settings(max_examples=60, deadline=None)
@given(rows=exact_rows(), rhs=st.lists(entries, min_size=6, max_size=6))
def test_kernel_matches_fraction_elimination(prime, rows, rhs):
    m, orows, one, norm = field_case(rows, prime)
    want, wpiv = rref_oracle(orows, one)
    red, pivots = rref(m)
    assert pivots == wpiv
    assert [[norm(x) for x in r] for r in red] == want
    assert_field_elements([x for r in red for x in r], prime)
    assert rank(m) == len(wpiv)

    zero = one - one
    wbasis = []
    for f in (c for c in range(m.ncols) if c not in wpiv):
        v = [zero] * m.ncols
        v[f] = one
        for r, pc in enumerate(wpiv):
            v[pc] = -want[r][f]
        wbasis.append(tuple(v))
    basis = kernel_basis(m)
    assert [tuple(norm(x) for x in v) for v in basis] == wbasis
    assert_field_elements([x for v in basis for x in v], prime)

    b = [norm(x) for x in rhs[:m.nrows]]
    aug, apiv = rref_oracle([r + [x] for r, x in zip(orows, b)], one)
    x = solve(m, b)
    if m.ncols in apiv:
        assert x is None
    else:
        wx = [zero] * m.ncols
        for r, pc in enumerate(apiv):
            wx[pc] = aug[r][m.ncols]
        assert [norm(v) for v in x] == wx
        assert_field_elements(x, prime)


@pytest.mark.parametrize("prime", FIELDS)
@settings(max_examples=60, deadline=None)
@given(rows=exact_rows(square=True))
def test_det_matches_fraction_elimination(prime, rows):
    m, orows, one, norm = field_case(rows, prime)
    d = det(m)
    assert norm(d) == det_elim_oracle(orows, one)
    assert_field_elements([d], prime)


@pytest.mark.parametrize("prime", FIELDS)
@settings(max_examples=60, deadline=None)
@given(rows=exact_rows())
def test_integer_kernel_spans_kernel_basis(prime, rows):
    m, _, one, norm = field_case(rows, prime)
    irows, p, _ = integer_form(m.rows())
    assert p == prime
    vectors, den = integer_kernel(irows, m.ncols, p)
    assert all(type(x) is int for v in vectors for x in v)
    for v in vectors:
        for r in irows:
            dot = sum(x * y for x, y in zip(r, v))
            assert (dot if p is None else dot % p) == 0
    basis = kernel_basis(m)
    assert len(vectors) == len(basis)
    as_field = [[norm(F(x)) for x in v] for v in vectors]
    assert rank(Matrix.from_rows(as_field + [[norm(x) for x in v] for v in basis])) \
        == len(basis)
    assert [tuple(norm(F(x, den)) for x in v) for v in vectors] == \
        [tuple(norm(x) for x in v) for v in basis]


def test_parse_scalar_json_values():
    assert parse_scalar(3) == 3 and type(parse_scalar(-4)) is F
    assert parse_scalar(" -2/6 ") == F(-1, 3)
    for bad in (1.5, 2.0, True, None, [1]):
        with pytest.raises(ValueError):
            parse_scalar(bad)
