import itertools
import math
import random
from fractions import Fraction as F
from operator import itemgetter

import pytest

from discrarr.arrangement import (Arrangement, RetryBudgetExceeded,
                                  from_int_columns)
from discrarr.discriminantal import (DependencySpace, RepresentativeResult,
                                     _members_of)
from discrarr.linalg import (FpElement, Matrix, det, dot, kernel_basis, rank,
                             rref, solve)
from discrarr.presentations import presentation
from discrarr.varieties import _support_images


def crapo_arrangement(lam) -> Arrangement:
    """The classical six-line family with one rational parameter."""
    lam = F(lam)
    return Arrangement(2, (
        (F(1), F(0)), (F(2), F(1)), (F(1), F(1)),
        (F(1), F(2)), (F(0), F(1)), (lam, F(1))))


@pytest.fixture
def crapo():
    return crapo_arrangement


@pytest.fixture
def parallel_multi():
    # rank-2 multiarrangement with one parallel pair
    return from_int_columns(2, [(1, 0), (2, 0), (0, 1), (1, 1)])


@pytest.fixture
def ten_line():
    cols = list(zip(
        [0, 20, 2, 3, 0, 1, 1, 4, 314, 139],
        [10, 0, -3, 1, 0, -1, 2, -1, -40, 30],
        [3, -9, 0, 0, 1, 1, 2, -3, -197, -43]))
    return from_int_columns(3, cols)


TEN_LINE_FAMILY = [{1, 2, 3, 4}, {1, 5, 6, 7}, {2, 5, 8, 9}, {3, 6, 8, 10},
                   {4, 7, 9, 10}]


@pytest.fixture
def nine_line():
    return from_int_columns(2, [(i - 5, 1) for i in range(1, 10)])


def column_stack(a: Arrangement, indices=None) -> Matrix:
    """k x |indices| matrix whose columns are the chosen normals."""
    if indices is None:
        indices = range(1, a.n + 1)
    return Matrix.from_cols([a.normal(i) for i in sorted(indices)])


def random_invertible(k: int, rng, height: int = 5) -> Matrix:
    """Seeded random invertible k x k rational matrix."""
    while True:
        m = Matrix(k, k, tuple(F(rng.randint(-height, height)) for _ in range(k * k)))
        if det(m):
            return m


# independent oracles: cofactor determinants, minor ranks, brute circuits

def det_oracle(rows):
    rows = [list(r) for r in rows]
    n = len(rows)
    if n == 0:
        return F(1)
    if n == 1:
        return rows[0][0]
    acc = F(0)
    sign = F(1)
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        acc += sign * rows[0][j] * det_oracle(minor)
        sign = -sign
    return acc


def rank_oracle(rows):
    rows = [list(r) for r in rows]
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    best = 0
    for size in range(1, min(nr, nc) + 1):
        hit = False
        for ri in itertools.combinations(range(nr), size):
            for ci in itertools.combinations(range(nc), size):
                sub = [[rows[i][j] for j in ci] for i in ri]
                if det_oracle(sub):
                    hit = True
                    break
            if hit:
                break
        if not hit:
            break
        best = size
    return best


# the field-generic Gauss-Jordan elimination linalg used before it moved to
# an integer kernel; `one` is the field's unit, rows hold field elements

def rref_oracle(rows, one):
    rows = [list(r) for r in rows]
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        pr = next((i for i in range(r, nr) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return [[x * one for x in row] for row in rows], pivots


def det_elim_oracle(rows, one):
    rows = [list(r) for r in rows]
    n = len(rows)
    sign = acc = one
    for c in range(n):
        pr = next((i for i in range(c, n) if rows[i][c]), None)
        if pr is None:
            return one - one
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            sign = -sign
        pv = rows[c][c]
        acc = acc * pv
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] / pv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return sign * acc


def circuits_oracle(a: Arrangement):
    cols = {i: a.normal(i) for i in range(1, a.n + 1)}

    def dependent(idx):
        rows = [[cols[i][r] for i in idx] for r in range(a.k)]
        return rank_oracle(rows) < len(idx)

    out = []
    for size in range(2, min(a.k + 1, a.n) + 1):
        for comb in itertools.combinations(range(1, a.n + 1), size):
            s = frozenset(comb)
            if any(c < s for c in out):
                continue
            if dependent(comb):
                out.append(s)
    return frozenset(out)


# the Matrix-rank forms that arrangement and discriminantal used before
# their rank tests moved to integer normals

def is_generic_matrix_oracle(a: Arrangement) -> bool:
    size = min(a.k, a.n)
    return all(rank(column_stack(a, comb)) == size
               for comb in itertools.combinations(range(1, a.n + 1), size))


def parallel_matrix_oracle(a: Arrangement, i: int, j: int) -> bool:
    return rank(column_stack(a, [i, j])) <= 1


def circuits_matrix_oracle(a: Arrangement) -> frozenset:
    found = []
    for size in range(2, min(a.k + 1, a.n) + 1):
        for comb in itertools.combinations(range(1, a.n + 1), size):
            s = frozenset(comb)
            if not any(c <= s for c in found) and rank(column_stack(a, comb)) < size:
                found.append(s)
    return frozenset(found)


# restrict and normal_form as they were before they eliminated on the
# integer rows: a Fraction Matrix through kernel_basis and rref, the latter
# on the k x (k + n) matrix of the first k normals followed by all of them

def restrict_oracle(a: Arrangement, i: int) -> Arrangement:
    if a.k < 2:
        raise ValueError("cannot restrict a rank-1 arrangement")
    for j in range(1, a.n + 1):
        if j != i and parallel_matrix_oracle(a, i, j):
            raise ValueError(
                f"hyperplane {j} coincides with {i}; restriction would drop it")
    basis = kernel_basis(Matrix.from_rows([a.normal(i)]))
    new = tuple(tuple(dot(a.normal(j), b) for b in basis)
                for j in range(1, a.n + 1) if j != i)
    return Arrangement(a.k - 1, new)


def normal_form_oracle(a: Arrangement) -> Arrangement:
    if rank(column_stack(a)) != a.k or not is_generic_matrix_oracle(a):
        raise ValueError("normal form requires a generic essential arrangement")
    k, n = a.k, a.n
    aug = Matrix.from_rows(
        [[a.normals[c][r] for c in range(k)] + [a.normals[c][r] for c in range(n)]
         for r in range(k)])
    red, pivots = rref(aug)
    assert pivots == list(range(k))
    cols = [[red[r][k + c] for r in range(k)] for c in range(n)]
    if n > k:
        beta = [cols[k][r] for r in range(k)]
        assert all(beta), "genericity guarantees nonzero entries here"
        for c in range(n):
            cols[c] = [x / beta[r] for r, x in enumerate(cols[c])]
        for c in range(k):
            cols[c] = [x * beta[c] for x in cols[c]]
        for c in range(k + 1, n):
            last = cols[c][k - 1]
            assert last, "genericity guarantees a nonzero last entry"
            cols[c] = [x / last for x in cols[c]]
    return Arrangement(k, tuple(tuple(c) for c in cols))


def intersection_rank_matrix_oracle(a: Arrangement, family) -> int:
    rows = [v for s in family for v in dependency_space_oracle(a, s).basis]
    return rank(Matrix.from_rows(rows)) if rows else 0


# the Fraction-Matrix forms of the translation layer and of maximal_minor
# before a translation entered as the last column of the arrangement's
# cone: a Matrix, solve and kernel_basis per subset.  find_representative's
# zero candidate and empty-family basis are the arrangement's field
# elements here, as they are in the library.

def maximal_minor_oracle(a: Arrangement, s):
    return det(column_stack(a, sorted(set(s))))


def has_common_point_oracle(a: Arrangement, t, s) -> bool:
    s = sorted(set(s))
    if not s:
        return True
    m = Matrix.from_rows([a.normal(i) for i in s])
    return solve(m, [t[i - 1] for i in s]) is not None


def dependency_space_oracle(a: Arrangement, s) -> DependencySpace:
    s = tuple(sorted(set(s)))
    vecs = []
    for v in kernel_basis(column_stack(a, s)):
        full = [0 * v[0]] * a.n
        for pos, i in enumerate(s):
            full[i - 1] = v[pos]
        vecs.append(tuple(full))
    return DependencySpace(frozenset(s), tuple(vecs))


def canonical_presentation_oracle(a: Arrangement, t):
    n, k = a.n, a.k
    families = set()
    for size in range(1, min(k, n) + 1):
        for b in itertools.combinations(range(1, n + 1), size):
            m = Matrix.from_rows([a.normal(i) for i in b])
            x0 = solve(m, [t[i - 1] for i in b])
            if x0 is None:
                continue
            directions = kernel_basis(m)
            inc = frozenset(
                i for i in range(1, n + 1)
                if dot(a.normal(i), x0) == t[i - 1]
                and all(not dot(a.normal(i), w) for w in directions))
            if len(inc) >= 2:
                families.add(inc)
    maximal = [s for s in families
               if not any(s < other for other in families)]
    components = [s for s in maximal
                  if rank(column_stack(a, s)) < len(s)]
    return presentation(n, k, components)


def find_representative_oracle(a: Arrangement, p, seed: int = 0,
                               budget: int = 64) -> RepresentativeResult:
    one = F(1) if a.p is None else FpElement(1, a.p)
    rows = []
    for s in _members_of(p):
        rows.extend(dependency_space_oracle(a, s).basis)
    basis = kernel_basis(Matrix.from_rows(rows)) if rows else \
        [tuple(one * (i == j) for i in range(a.n)) for j in range(a.n)]
    rng = random.Random(seed)
    achieved = None
    zero = tuple(one * 0 for _ in range(a.n))
    attempts = 0
    for attempt in range(budget + 1):
        attempts = attempt + 1
        if attempt == 0:
            cand = zero
        elif not basis:
            break
        else:
            height = 4 + 2 * attempt
            coeffs = [F(rng.randint(-height, height)) for _ in basis]
            cand = tuple(sum((c * v[i] for c, v in zip(coeffs, basis)),
                             F(0)) for i in range(a.n))
        achieved = canonical_presentation_oracle(a, cand)
        if achieved.members == p.members:
            return RepresentativeResult(True, cand, achieved, attempts, seed)
    return RepresentativeResult(False, None, achieved, attempts, seed)


def equation_with(fam, normals: dict, m: int, vm):
    """fam's product equation on the plane normals {index: (x, y)}, with
    normal m set to vm, by literal cross products."""
    table = {**normals, m: vm}

    def cross(i, j):
        return table[i][0] * table[j][1] - table[i][1] * table[j][0]

    return (math.prod(cross(i, j) for i, j in fam.left)
            - math.prod(cross(i, j) for i, j in fam.right))


# the scans' product-equation test as it was before it tested every image
# of an embedding at once: per image t, two itemgetters built for perms[t]
# pick the factors of its left and right products from the block of minors

def equation_keep_oracle(fam, p):
    """keep(block, emb, t): does fam's equation vanish on image t of the
    embedding, in ints on the block, or mod p over F_p?"""
    support = sorted(fam.pres.support)
    m = len(support)
    pos = {i: j for j, i in enumerate(support)}
    left, right = ([(pos[i], pos[j]) for i, j in side] for side in (fam.left, fam.right))
    getters = [(itemgetter(*[perm[i] * m + perm[j] for i, j in left]),
                itemgetter(*[perm[i] * m + perm[j] for i, j in right]))
               for perm in _support_images(fam.pres.canonical())[1]]

    def keep(block, emb, t):
        lg, rg = getters[t]
        value = math.prod(lg(block)) - math.prod(rg(block))
        return (value if p is None else value % p) == 0
    return keep


def random_admissible_family(rng, n, k, max_members=3):
    """Random antichain with member sizes in [k+1, k+2] and small overlaps."""
    for _ in range(200):
        members = []
        target = rng.randint(1, max_members)
        tries = 0
        while len(members) < target and tries < 50:
            tries += 1
            size = rng.randint(k + 1, min(n, k + 2))
            cand = frozenset(rng.sample(range(1, n + 1), size))
            if any(len(cand & m) >= k or cand <= m or m <= cand for m in members):
                continue
            members.append(cand)
        if members:
            return members
    raise RuntimeError("could not draw a family")


# the samplers' draw loops as they were before they decided genericity on
# the integer rows they draw: Fraction normals, a separate zero-normal test,
# a pairwise test of the drawn plane normals, the solved normal's own zero
# test, and a genericity test of the built arrangement.  fired counts each
# branch that rejects a draw.

def random_generic_oracle(n, k, seed, height, budget, fired):
    rng = random.Random(seed)
    for _ in range(budget):
        cols = [tuple(F(rng.randint(-height, height)) for _ in range(k))
                for _ in range(n)]
        if any(not any(v) for v in cols):
            fired["zero normal"] += 1
            continue
        a = Arrangement(k, tuple(cols))
        if is_generic_matrix_oracle(a):
            return a
        fired["not generic"] += 1
    raise RetryBudgetExceeded(
        f"no generic sample in {budget} draws (n={n}, k={k}, height={height})")


def solve_on_variety_oracle(fam, seed, height, budget, fired):
    m = fam.solve_index()
    n = fam.ground
    rng = random.Random(seed)
    for attempt in range(budget):
        h = height + attempt // 8
        normals = {}
        for i in range(1, n + 1):
            if i == m:
                continue
            normals[i] = (rng.randint(-h, h), rng.randint(-h, h))
        if any(not any(v) for v in normals.values()):
            fired["zero normal"] += 1
            continue
        if any(u[0] * v[1] == u[1] * v[0]
               for u, v in itertools.combinations(normals.values(), 2)):
            fired["parallel drawn pair"] += 1
            continue
        cx = equation_with(fam, normals, m, (1, 0))
        cy = equation_with(fam, normals, m, (0, 1))
        if not cx and not cy:
            fired["zero solved normal"] += 1
            continue
        normals[m] = (-cy, cx)
        a = Arrangement(2, tuple(tuple(map(F, normals[i])) for i in range(1, n + 1)))
        if not is_generic_matrix_oracle(a):
            fired["not generic"] += 1
            continue
        assert equation_with(fam, normals, m, normals[m]) == 0
        return a
    raise RetryBudgetExceeded(
        f"no on-variety sample for {fam.name} in {budget} draws (seed={seed})")
