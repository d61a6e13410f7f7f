"""Central (multi)arrangements of hyperplanes given by normal covectors.

An arrangement is an ordered multiset of n nonzero covectors in K^k;
repeated or parallel covectors are allowed.  Indices are 1-based
throughout, so the ground set is {1, .., n}.  All values are immutable
and every operation is a pure function.
"""

import functools
import itertools
import json
import logging
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .linalg import (FpElement, _scalar, det, dot, eliminate, integer_form,
                     integer_kernel, maximal_minors, parse_scalar, scalar_str)

log = logging.getLogger(__name__)


class RetryBudgetExceeded(RuntimeError):
    """A seeded sampler ran out of retries."""


@dataclass(frozen=True)
class Arrangement:
    """n normal covectors in K^k: K = Q (ints, Fractions) or F_p (FpElements).

    The constructor runs integer_form once and keeps the form every rank
    test reads: rows (n tuples of ints, each normal scaled by the lcm of its
    denominators, or residues mod p), p (None over Q) and scales (the row
    scales, all 1 over F_p).  They take no part in equality, hashing or
    repr, and neither does _minors, their table maximal_minors(rows, p),
    built on first use and shared by every reader; none may mutate it.
    An entry it cannot read raises TypeError, mixed prime fields
    ValueError, and a Fraction whose denominator p divides ZeroDivisionError.
    """

    k: int
    normals: tuple  # tuple of k-tuples of field scalars
    rows: tuple = field(init=False, compare=False, repr=False)
    p: int | None = field(init=False, compare=False, repr=False)
    scales: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("ambient rank k must be at least 1")
        object.__setattr__(self, "normals", tuple(tuple(v) for v in self.normals))
        for v in self.normals:
            if len(v) != self.k:
                raise ValueError("normal of wrong length")
            if not any(v):
                raise ValueError("zero normal covector is not allowed")
        try:
            rows, p, scales = integer_form(self.normals)
        except AttributeError:
            bad = next(x for v in self.normals for x in v
                       if not isinstance(x, (int, Fraction, FpElement)))
            raise TypeError(f"normal entry {bad!r} is not an int, Fraction "
                            "or FpElement") from None
        object.__setattr__(self, "rows", tuple(map(tuple, rows)))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "scales", tuple(scales))

    @property
    def n(self) -> int:
        return len(self.normals)

    @functools.cached_property
    def _minors(self) -> dict:
        return maximal_minors(self.rows, self.p)

    def normal(self, i: int) -> tuple:
        """The i-th normal, 1-based."""
        return self.normals[self._index(i)]

    def _index(self, i: int) -> int:  # 0-based position of the index i
        if not 1 <= i <= self.n:
            raise IndexError(f"index {i} out of range 1..{self.n}")
        return i - 1

    @property
    def essential(self) -> bool:
        return self.n > 0 and _subset_rank(self, range(1, self.n + 1)) == self.k

    def to_json_dict(self) -> dict:
        return {"k": self.k,
                "normals": [[scalar_str(x) for x in v] for v in self.normals]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "Arrangement":
        if isinstance(d["k"], (bool, float)):
            raise ValueError(f"k must be an integer, got {d['k']!r}")
        return cls(int(d["k"]),
                   tuple(tuple(parse_scalar(x) for x in v) for v in d["normals"]))


def from_int_columns(k: int, cols) -> Arrangement:
    """Arrangement from integer column entries (convenience constructor)."""
    return Arrangement(k, tuple(tuple(Fraction(x) for x in c) for c in cols))


def load_arrangement(path: str) -> Arrangement:
    with open(path, "r", encoding="utf-8") as fh:
        return Arrangement.from_json_dict(json.load(fh))


def save_arrangement(a: Arrangement, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(a.to_json_dict(), fh, indent=1)
        fh.write("\n")


def circuits(a: Arrangement) -> frozenset:
    """All circuits: minimal linearly dependent index sets.

    Sizes run from 2 (parallel pairs) to k+1; anything larger contains a
    dependent (k+1)-subset and is therefore never minimal.
    """
    found: list = []
    for size in range(2, min(a.k + 1, a.n) + 1):
        for comb in itertools.combinations(range(1, a.n + 1), size):
            s = frozenset(comb)
            if not any(c <= s for c in found) and _subset_rank(a, comb) < size:
                found.append(s)
    return frozenset(found)


def _subset_rank(a: Arrangement, s) -> int:
    """Rank of the normals indexed by s (1-based), on the integer rows."""
    return len(eliminate([a.rows[a._index(i)] for i in s], a.p)[1])


def is_generic(a: Arrangement) -> bool:
    """True iff every circuit has size exactly k+1.

    Equivalently, every subset of min(n, k) normals is independent: with
    n >= k, every maximal minor of the integer rows, read from the
    arrangement's table, is nonzero; scaling a normal changes no
    independence.
    """
    if a.n < a.k:
        return _subset_rank(a, range(1, a.n + 1)) == a.n
    return all(a._minors.values())


def pair_det(a: Arrangement, i: int, j: int):
    """det(a_i, a_j) for a rank-2 arrangement; antisymmetric in (i, j)."""
    if a.k != 2:
        raise ValueError("pair_det needs k = 2; use maximal_minor for general k")
    ai, aj = a.normal(i), a.normal(j)
    return ai[0] * aj[1] - ai[1] * aj[0]


def maximal_minor(a: Arrangement, s):
    """det of the k x k column submatrix indexed by s, columns in increasing order."""
    s = sorted(set(s))
    if len(s) != a.k:
        raise ValueError(f"need exactly k = {a.k} distinct indices, got {len(s)}")
    (m,) = maximal_minors([a.rows[a._index(i)] for i in s], a.p).values()
    return _scalar(m, math.prod(a.scales[i - 1] for i in s), a.p)


def parallel(a: Arrangement, i: int, j: int) -> bool:
    return _subset_rank(a, (i, j)) <= 1


def delete(a: Arrangement, i: int) -> Arrangement:
    """Remove the i-th hyperplane; remaining indices close ranks."""
    i = a._index(i)
    return Arrangement(a.k, a.normals[:i] + a.normals[i + 1:])


def restrict(a: Arrangement, i: int) -> Arrangement:
    """Restrict to the i-th hyperplane.

    Picks the kernel basis of a_i with one free entry 1, from integer_kernel
    on its integer row (scaling a_i keeps its kernel), and expresses every
    other normal inside that basis, giving a rank-(k-1) multiarrangement.
    Each entry is a dot product of integer rows over the row's scale times
    the basis denominator, a Fraction over Q or an FpElement over F_p.  The
    result is well defined up to linear equivalence; the deterministic
    basis choice keeps runs reproducible.
    """
    if a.k < 2:
        raise ValueError("cannot restrict a rank-1 arrangement")
    for j in range(1, a.n + 1):
        if j != i and parallel(a, i, j):
            raise ValueError(
                f"hyperplane {j} coincides with {i}; restriction would drop it")
    basis, den = integer_kernel([a.rows[a._index(i)]], a.k, a.p)
    new = tuple(tuple(_scalar(dot(row, b), scale * den, a.p) for b in basis)
                for j, (row, scale) in enumerate(zip(a.rows, a.scales), 1) if j != i)
    return Arrangement(a.k - 1, new)


def normal_form(a: Arrangement) -> Arrangement:
    """Canonical representative of the linear-equivalence class.

    For a generic essential arrangement: identity block in columns 1..k,
    all-ones column k+1, and ones across the last row from column k+1 on.
    Idempotent.  Computed by eliminate(..., full=True) on the k x n matrix
    whose columns are the integer rows; scaling a normal does not change
    the normal form, and genericity puts the pivots in columns 1..k.  With
    R the reduced matrix, entry r of column c > k is
    R[r][c] R[k][k+1] / (R[r][k+1] R[k][c]) (1-based), a Fraction over Q
    or an FpElement over F_p.
    """
    if not a.essential or not is_generic(a):
        raise ValueError("normal form requires a generic essential arrangement")
    k, n, p = a.k, a.n, a.p
    red, pivots, _ = eliminate([list(col) for col in zip(*a.rows)], p, full=True)
    assert pivots == list(range(k))
    last = red[k - 1]
    cols = [tuple(_scalar(int(r == c), 1, p) for r in range(k)) for c in range(k)]
    cols += [tuple(_scalar(red[r][c] * last[k], red[r][k] * last[c], p) for r in range(k))
             for c in range(k, n)]
    return Arrangement(k, tuple(cols))


def random_generic(n: int, k: int, seed: int, height: int = 9,
                   budget: int = 512) -> Arrangement:
    """Seeded generic arrangement with integer entries in [-height, height].

    Deterministic for a fixed seed.  Each draw is n integer rows, accepted
    when every maximal minor is nonzero (with n >= k a zero normal makes
    one vanish); the Arrangement is built once, from the accepted rows
    themselves, so its normals are those ints, its rows equal them and
    every scale is 1.  Raises RetryBudgetExceeded when the budget runs out
    (height too small).
    """
    if k < 1 or n < k:
        raise ValueError(f"need n >= k >= 1 for an essential sample, got ({n}, {k})")
    if height < 1:
        raise ValueError("height must be at least 1")
    rng = random.Random(seed)
    for attempt in range(budget):
        rows = [[rng.randint(-height, height) for _ in range(k)] for _ in range(n)]
        if all(maximal_minors(rows).values()):
            log.debug("random_generic(n=%d, k=%d, seed=%d): %d resamples",
                      n, k, seed, attempt)
            return Arrangement(k, rows)
    raise RetryBudgetExceeded(
        f"no generic sample in {budget} draws (n={n}, k={k}, height={height})")


def permuted(a: Arrangement, sigma) -> Arrangement:
    """Relabel hyperplanes: result.normal(sigma[i]) == a.normal(i), 1-based.

    sigma is a dict {i: image} or a sequence whose (i-1)-th entry is the
    image of i.
    """
    if not isinstance(sigma, dict):
        sigma = {i + 1: s for i, s in enumerate(sigma)}
    if sorted(sigma) != list(range(1, a.n + 1)) or sorted(sigma.values()) != list(range(1, a.n + 1)):
        raise ValueError("sigma must be a bijection on the ground set")
    new = [None] * a.n
    for i in range(1, a.n + 1):
        new[sigma[i] - 1] = a.normal(i)
    return Arrangement(a.k, tuple(new))


def scaled(a: Arrangement, i: int, c) -> Arrangement:
    """Multiply the i-th normal by a nonzero scalar."""
    if not c:
        raise ValueError("scale factor must be nonzero")
    i = a._index(i)
    new = list(a.normals)
    new[i] = tuple(c * x for x in new[i])
    return Arrangement(a.k, tuple(new))


def transformed(a: Arrangement, m) -> Arrangement:
    """Apply an invertible k x k matrix m, a linalg.Matrix, to every normal."""
    if m.nrows != a.k or m.ncols != a.k or not det(m):
        raise ValueError("need an invertible k x k matrix")
    new = tuple(tuple(dot(m.row(r), v) for r in range(a.k)) for v in a.normals)
    return Arrangement(a.k, new)
