"""Exact linear algebra over the rationals and over prime fields.

Scalars are ``fractions.Fraction`` (always reduced, positive denominator,
arbitrary-precision integers) or :class:`FpElement` for a prime field used
as a fast randomized screen; plain ints are read as rationals.  There is
no tolerance anywhere.

Every rank, kernel, determinant and solution comes from one elimination
kernel, :func:`eliminate`, which works on rows of Python ints: fraction-
free Bareiss elimination over Z, or reduction modulo a prime.
:func:`integer_form` is the one place where rows of scalars become such
rows (denominators cleared per row over Q, residues over F_p): a
:class:`Matrix` passes ``m.rows()``, and an ``Arrangement`` its normals,
once, in its constructor; every rank test, restriction and normal form on
it reads the result, and the samplers hand it the int rows they draw.  A
translation t enters as the cone's last column, normals (a_i | t_i).
:func:`integer_kernel` is the one kernel routine; :func:`kernel_basis` is
its Fraction/FpElement view for a :class:`Matrix`, which the arrangement
layer does not build.  Results become field elements only at the end,
through :func:`_scalar`, so no elimination step does Fraction or FpElement
arithmetic.

:func:`maximal_minors` is the table for rank-2 work: the C(n, k) maximal
minors (Plücker coordinates) of n integer normals of length k, built once
per call from an arrangement's rows.  For k = 2 they are the 2x2
determinants D(i, j) that genericity, the Cramer dependency rows of
triples and every product equation of a variety are read from.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

Scalar = Fraction

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin, exact for every m < 3.3e24."""
    if m < 2:
        return False
    for q in _MR_BASES:
        if m % q == 0:
            return m == q
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


class FpElement:
    """An element of Z/pZ with field arithmetic via operator overloading."""

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise ValueError("mixed prime fields")
            return other
        if isinstance(other, int):
            return FpElement(other, self.p)
        if isinstance(other, Fraction):
            return FpElement(_residue(other, self.p), self.p)
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        return NotImplemented if o is NotImplemented else FpElement(self.v + o.v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is NotImplemented else FpElement(self.v - o.v, self.p)

    def __rsub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is NotImplemented else FpElement(o.v - self.v, self.p)

    def __mul__(self, other):
        o = self._lift(other)
        return NotImplemented if o is NotImplemented else FpElement(self.v * o.v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        if o.v == 0:
            raise ZeroDivisionError("division by zero in prime field")
        return FpElement(self.v * pow(o.v, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._lift(other)
        return NotImplemented if o is NotImplemented else o / self

    def __neg__(self):
        return FpElement(-self.v, self.p)

    def __bool__(self):
        return self.v != 0

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.v, self.p))

    def __repr__(self):
        return f"{self.v} (mod {self.p})"


def _residue(x, p: int) -> int:
    """x, an int, Fraction or FpElement of modulus p, as a residue mod p."""
    if isinstance(x, FpElement):
        if x.p != p:
            raise ValueError("mixed prime fields")
        return x.v
    if x.denominator % p == 0:
        raise ZeroDivisionError("denominator vanishes in this field")
    return x.numerator * pow(x.denominator, -1, p) % p


class PrimeField:
    """Factory for FpElement values; p must be an odd prime."""

    def __init__(self, p: int):
        if not is_prime(p) or p == 2:
            raise ValueError(f"{p} is not an odd prime")
        self.p = p

    def __call__(self, x) -> FpElement:
        if isinstance(x, FpElement) and x.p == self.p:
            return x
        return FpElement(_residue(x, self.p), self.p)

    def __repr__(self):
        return f"PrimeField({self.p})"


# A comfortable default for screening; any prime > 2**20 will do.
DEFAULT_SCREEN_PRIME = 1299709


def parse_scalar(s) -> Fraction:
    """Parse 'p/q' or 'p' (base 10, sign on the numerator), or a JSON
    integer.  Floats and booleans are rejected: a float is not exact."""
    if isinstance(s, str):
        return Fraction(s.strip())
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    raise ValueError(f"scalar {s!r} is not an integer or a 'p/q' string")


def scalar_str(x) -> str:
    """Canonical form: 'p/q', or just 'p' when the denominator is 1."""
    if isinstance(x, FpElement):
        return str(x.v)
    return str(Fraction(x))


@dataclass(frozen=True)
class Matrix:
    """Dense row-major matrix over an exact field."""

    nrows: int
    ncols: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.nrows * self.ncols:
            raise ValueError("entry count does not match shape")

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        rows = [tuple(r) for r in rows]
        nr = len(rows)
        nc = len(rows[0]) if rows else 0
        if any(len(r) != nc for r in rows):
            raise ValueError("ragged rows")
        return cls(nr, nc, tuple(x for r in rows for x in r))

    @classmethod
    def from_cols(cls, cols) -> "Matrix":
        cols = [tuple(c) for c in cols]
        nc = len(cols)
        nr = len(cols[0]) if cols else 0
        if any(len(c) != nr for c in cols):
            raise ValueError("ragged columns")
        return cls(nr, nc, tuple(cols[j][i] for i in range(nr) for j in range(nc)))

    def row(self, i: int) -> tuple:
        return self.entries[i * self.ncols:(i + 1) * self.ncols]

    def rows(self):
        return [list(self.row(i)) for i in range(self.nrows)]

    def at(self, i: int, j: int):
        return self.entries[i * self.ncols + j]

    def transpose(self) -> "Matrix":
        return Matrix(self.ncols, self.nrows,
                      tuple(self.at(i, j) for j in range(self.ncols) for i in range(self.nrows)))


def integer_form(rows):
    """The form the elimination kernel works on: (rows, p, scales).

    rows is any sequence of rows of scalars; a Matrix passes m.rows().
    Over F_p (some entry is an FpElement of modulus p) every entry becomes
    its residue in [0, p) and every scale is 1.  Over Q (p is None) each
    row is multiplied by the lcm of its denominators, its scale.  Scaling a
    row changes no rank, kernel or solution, and divides det by the scale.
    """
    p = next((x.p for r in rows for x in r if isinstance(x, FpElement)), None)
    if p is not None:
        return [[_residue(x, p) for x in r] for r in rows], p, [1] * len(rows)
    scales = [math.lcm(*(x.denominator for x in r)) for r in rows]
    return ([[x.numerator * (s // x.denominator) for x in r] for r, s in zip(rows, scales)],
            None, scales)


def eliminate(rows, p=None, full=False, limit=None):
    """Fraction-free row echelon form of integer rows: (rows, pivots, sign).

    Over Z (p None) this is Bareiss elimination: a step with pivot pv
    replaces every other row by (pv * row - f * top) // prev, where f is
    the row's entry in the pivot column and prev the previous pivot.  The
    division is exact (Sylvester's identity), so every pivot is a minor of
    the input and, for a square input of full rank, sign times the last
    pivot is its determinant.  Rows with f = 0 must be updated too, or
    later divisions stop being exact.  Modulo the prime p a step replaces
    a row by (pv * row - f * top) % p, a unit multiple of the row minus a
    multiple of top, and leaves rows with f = 0 alone.  sign is -1 to the
    number of row swaps.

    full also clears the entries above each pivot.  With limit given, the
    elimination stops as soon as the rank exceeds it.  The input rows are
    replaced, never mutated.
    """
    rows = list(rows)
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    pivots = []
    k = 0  # the rank so far
    prev = sign = 1
    for c in range(nc):
        for piv in range(k, nr):
            if rows[piv][c]:
                break
        else:
            continue
        top = rows[piv]
        if piv != k:
            rows[piv] = rows[k]
            rows[k] = top
            sign = -sign
        pv = top[c]
        others = [*range(k), *range(k + 1, nr)] if full else range(k + 1, nr)
        if p is None:
            for i in others:
                f = rows[i][c]
                rows[i] = [(pv * x - f * y) // prev for x, y in zip(rows[i], top)]
            prev = pv
        else:
            for i in others:
                f = rows[i][c]
                if f:
                    rows[i] = [(pv * x - f * y) % p for x, y in zip(rows[i], top)]
        pivots.append(c)
        k += 1
        if k == nr or (limit is not None and k > limit):
            break
    return rows, pivots, sign


def maximal_minors(rows, p=None) -> dict:
    """The maximal minors of n integer rows of length k, keyed by the
    0-based sorted k-tuple of rows: C(n, k) entries, none when n < k.

    For k = 2 an entry is the cross product rows[i] x rows[j]; otherwise
    it is sign times the last Bareiss pivot of the k x k rows, or 0 when
    they are dependent.  Modulo p the rows are residues and the entries
    are reduced mod p, as det does.
    """
    if not rows:
        return {}
    k = len(rows[0])
    if k == 2:
        table = {(i, j): u[0] * v[1] - u[1] * v[0]
                 for (i, u), (j, v) in itertools.combinations(enumerate(rows), 2)}
    else:
        table = {}
        for comb in itertools.combinations(range(len(rows)), k):
            red, pivots, sign = eliminate([rows[i] for i in comb])
            table[comb] = sign * red[-1][-1] if len(pivots) == k else 0
    if p is not None:
        table = {key: v % p for key, v in table.items()}
    return table


def _scalar(num: int, den: int, p):
    """num / den as a Fraction, or as an FpElement modulo p."""
    if p is None:
        return Fraction(num, den)
    return FpElement(num * pow(den, -1, p), p)


def integer_kernel(rows, ncols: int, p=None):
    """Integer vectors spanning the right kernel of integer rows with ncols
    columns, and their common denominator: (vectors, den).

    One vector per free column f of the reduced form from eliminate(...,
    full=True).  Over Z, den is the lcm L of the pivots, the vector has L
    at f and -r[f] * (L // r[pc]) at the pivot column pc of each reduced
    row r.  Modulo p, den is 1, the vector has 1 at f and -r[f] / r[pc]
    at pc, as residues.  Divided by den, each vector is the kernel vector
    with entry 1 at f.
    """
    red, pivots, _ = eliminate(rows, p, full=True)
    if p is None:
        den = math.lcm(*(r[pc] for r, pc in zip(red, pivots)))
        steps = [(r, pc, den // r[pc]) for r, pc in zip(red, pivots)]
    else:
        den = 1
        steps = [(r, pc, pow(r[pc], -1, p)) for r, pc in zip(red, pivots)]
    vectors = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = den
        for r, pc, q in steps:
            v[pc] = -r[f] * q if p is None else -r[f] * q % p
        vectors.append(v)
    return vectors, den


def _reduced(m: Matrix):
    """(integer rows of the reduced echelon form of m, pivots, p)."""
    rows, p, _ = integer_form(m.rows())
    rows, pivots, _ = eliminate(rows, p, full=True)
    return rows, pivots, p


def rref(m: Matrix):
    """Reduced row echelon form.  Returns (rows as lists, pivot columns)."""
    rows, pivots, p = _reduced(m)
    dens = [rows[i][c] for i, c in enumerate(pivots)] + [1] * (m.nrows - len(pivots))
    return [[_scalar(x, den, p) for x in r] for r, den in zip(rows, dens)], pivots


def rank(m: Matrix) -> int:
    rows, p, _ = integer_form(m.rows())
    return len(eliminate(rows, p)[1])


def kernel_basis(m: Matrix):
    """Basis of the right kernel {x : m.x = 0}.

    One vector per free column, with entry 1 in the free position.  The
    basis has exactly ncols - rank(m) vectors.
    """
    rows, p, _ = integer_form(m.rows())
    vectors, den = integer_kernel(rows, m.ncols, p)
    return [tuple(_scalar(x, den, p) for x in v) for v in vectors]


def det(m: Matrix):
    """Exact determinant; the input must be square."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    rows, p, scales = integer_form(m.rows())
    # Over F_p the rows are residues, and the integer determinant of the
    # residues reduces to the determinant mod p.
    rows, pivots, sign = eliminate(rows)
    if len(pivots) < m.nrows:
        return _scalar(0, 1, p)
    return _scalar(sign * rows[-1][-1] if rows else 1, math.prod(scales), p)


def solve(m: Matrix, b):
    """One exact solution of m.x = b, or None when inconsistent."""
    b = tuple(b)
    if len(b) != m.nrows:
        raise ValueError("right-hand side length does not match rows")
    if m.nrows == 0:
        return tuple(Fraction(0) for _ in range(m.ncols))
    aug = Matrix.from_rows([list(m.row(i)) + [b[i]] for i in range(m.nrows)])
    rows, pivots, p = _reduced(aug)
    if m.ncols in pivots:
        return None
    x = [_scalar(0, 1, p)] * m.ncols
    for r, pc in zip(rows, pivots):
        x[pc] = _scalar(r[m.ncols], r[pc], p)
    return tuple(x)


def dot(u, v):
    acc = None
    for a, b in zip(u, v):
        acc = a * b if acc is None else acc + a * b
    return Fraction(0) if acc is None else acc


def matrix_to_field(m: Matrix, field: PrimeField) -> Matrix:
    return Matrix(m.nrows, m.ncols, tuple(field(x) for x in m.entries))
