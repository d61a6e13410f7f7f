"""Translations of an arrangement and the subspaces they cut out.

A translation vector t in K^n moves every hyperplane parallel to itself:
hyperplane i becomes {x : a_i . x = t_i}.  For an index set S, the
translations for which the hyperplanes of S keep a common point form a
linear subspace of K^n; its orthogonal complement is spanned by the
linear dependencies among the normals of S, re-embedded into K^n.  Every
rank computed here is the rank of such a dependency span, which equals
the codimension of the corresponding intersection in the space of
translations.
"""

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .arrangement import Arrangement, _subset_rank
from .linalg import (Matrix, _scalar, dot, eliminate, integer_kernel,
                     kernel_basis, maximal_minors, parse_scalar, scalar_str,
                     solve)
from .presentations import Presentation, presentation


def translation_from_json_dict(d: dict) -> tuple:
    return tuple(parse_scalar(x) for x in d["t"])


def translation_to_json_dict(t) -> dict:
    return {"t": [scalar_str(x) for x in t]}


def load_translation(path: str) -> tuple:
    with open(path, "r", encoding="utf-8") as fh:
        return translation_from_json_dict(json.load(fh))


def is_circuit(a: Arrangement, c) -> bool:
    c = sorted(set(c))
    if len(c) < 2:
        return False
    if _subset_rank(a, c) != len(c) - 1:
        return False
    return all(_subset_rank(a, c[:i] + c[i + 1:]) == len(c) - 1
               for i in range(len(c)))


def circuit_normal(a: Arrangement, c) -> tuple:
    """The covector in K^n cutting out the translations where the circuit
    c keeps a common point.

    For a circuit of full size k+1 the coefficients are the signed maximal
    minors: coefficient j is (-1)^(j+1) times the determinant of the
    normals of c with the j-th column removed (columns in increasing index
    order).  Smaller circuits (parallel classes and the like) get the
    unique dependency normalized to coefficient 1 on the largest index.
    Both are read from the one row dependency_rows gives for the integer
    rows of c, with their row scales undone.
    """
    c = sorted(set(c))
    if not is_circuit(a, c):
        raise ValueError(f"{c} is not a circuit")
    rows = [a.rows[i - 1] for i in c]
    (row,) = dependency_rows(rows, a.p, range(1, len(c) + 1), maximal_minors(rows, a.p))
    dep = {i: x * a.scales[i - 1] for i, x in zip(c, row)}
    den = math.prod(a.scales[i - 1] for i in c) if len(c) == a.k + 1 else dep[c[-1]]
    return tuple(_scalar(dep.get(i, 0), den, a.p) for i in range(1, a.n + 1))


@dataclass(frozen=True)
class DependencySpace:
    subset: frozenset
    basis: tuple  # covectors in K^n supported on subset


def dependency_space(a: Arrangement, s) -> DependencySpace:
    """Basis of the linear dependencies among the normals indexed by s,
    embedded into K^n.  Its dimension is |s| minus the rank of the span.

    Nothing is cached: callers that ask for the same bases many times (the
    audit's screen) keep them for as long as they need them.
    """
    s = tuple(sorted(set(s)))
    if not s:
        raise ValueError("need a nonempty index set")
    vecs = []
    for v in kernel_basis(a.column_stack(s)):
        full = [0 * v[0]] * a.n  # the field's zero, Fraction or FpElement
        for pos, i in enumerate(s):
            full[i - 1] = v[pos]
        vecs.append(tuple(full))
    return DependencySpace(frozenset(s), tuple(vecs))


def _members_of(t) -> list:
    if isinstance(t, Presentation):
        return sorted(t.members, key=lambda s: (len(s), sorted(s)))
    return sorted((frozenset(s) for s in t), key=lambda s: (len(s), sorted(s)))


def dependency_rows(normals, p, s, minors) -> list:
    """Integer rows spanning the dependencies among the integer normals
    indexed by s (1-based), embedded into Z^n for n normals, or into F_p^n
    as residues.

    normals are some or all of an arrangement's rows, which scale each
    normal, and minors is maximal_minors(normals, p).  Scaling normal i by
    c divides coordinate i of every dependency by c, the same for every
    index set, so a stack of these rows has the rank of the stacked
    dependency spaces of the normals.

    When the first k indices B of s have a nonzero minor, the rows are
    the circuits of B and each further x, read from the table by the
    signed-minor formula of circuit_normal: on c = B + (x,), coordinate
    c_j is (-1)^j times the minor of c without c_j.  Otherwise (s has
    fewer than k indices, or B holds parallel or repeated normals) they
    come from integer_kernel.
    """
    s = sorted(s)
    n = len(normals)
    if s[0] < 1 or s[-1] > n:
        raise IndexError(f"index set {s} out of range 1..{n}")
    k = len(normals[0])
    base = tuple(i - 1 for i in s[:k])
    out = []
    if len(s) >= k and minors[base]:
        for x in s[k:]:
            c = base + (x - 1,)
            full = [0] * n
            for j, cj in enumerate(c):
                v = minors[c[:j] + c[j + 1:]]
                full[cj] = -v if j % 2 else v
            out.append(full if p is None else [y % p for y in full])
        return out
    cols = [normals[i - 1] for i in s]
    vectors, _ = integer_kernel(list(zip(*cols)), len(s), p)
    for v in vectors:
        full = [0] * n
        for x, i in zip(v, s):
            full[i - 1] = x
        out.append(full)
    return out


def intersection_rank(a: Arrangement, t) -> int:
    """Rank of the joint dependency span of all members of the family t.

    This is the codimension, inside the space of translations, of the set
    of translations keeping every member concurrent.  The empty family has
    rank 0.  It runs on the arrangement's integer rows, with their table of
    maximal minors built once per call.
    """
    members = _members_of(t)
    minors = maximal_minors(a.rows, a.p)
    rows = []
    for s in members:
        if len(s) < 2:
            raise ValueError("family members need at least 2 indices")
        rows.extend(dependency_rows(a.rows, a.p, s, minors))
    return len(eliminate(rows, a.p)[1])


def has_common_point(a: Arrangement, t, s) -> bool:
    """Do the hyperplanes indexed by s still meet after translating by t?"""
    s = sorted(set(s))
    if not s:
        return True
    m = Matrix.from_rows([a.normal(i) for i in s])
    return solve(m, [t[i - 1] for i in s]) is not None


def _dependent(a: Arrangement, s) -> bool:
    return _subset_rank(a, s) < len(s)


def canonical_presentation(a: Arrangement, t) -> Presentation:
    """All maximal index sets that stay concurrent under the translation t
    and whose normals are dependent (so that concurrency is a constraint).

    Every maximal concurrent set is the full incidence set of the affine
    flat cut out by at most k of its hyperplanes, so it suffices to sweep
    the flats spanned by small subsets and collect their incidence sets.
    For a generic arrangement this returns exactly the maximal sets of
    size at least k+1; with parallel repeats, coincident translates at any
    size from 2 up qualify as well.
    """
    n, k = a.n, a.k
    t = tuple(t)
    if len(t) != n:
        raise ValueError("translation length does not match the arrangement")
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
    components = [s for s in maximal if _dependent(a, s)]
    return presentation(n, k, components)


@dataclass(frozen=True)
class RepresentativeResult:
    found: bool
    witness: tuple | None
    achieved: Presentation | None  # presentation of the last attempt when not found
    attempts: int
    seed: int


def find_representative(a: Arrangement, p: Presentation, seed: int = 0,
                        budget: int = 64) -> RepresentativeResult:
    """Search for a translation whose canonical presentation equals p.

    Candidates live in the common kernel of all dependency covectors of
    p's members; random integer combinations of a kernel basis with
    growing height are tried, starting with the zero translation.  Failure
    is a budget outcome, not a certificate that no representative exists;
    the report carries the presentation achieved by the last attempt,
    which is always above p.
    """
    rows = []
    for s in _members_of(p):
        rows.extend(dependency_space(a, s).basis)
    basis = kernel_basis(Matrix.from_rows(rows)) if rows else \
        [tuple(Fraction(1 if i == j else 0) for i in range(a.n)) for j in range(a.n)]
    rng = random.Random(seed)
    achieved = None
    zero = tuple(Fraction(0) for _ in range(a.n))
    attempts = 0
    for attempt in range(budget + 1):
        attempts = attempt + 1
        if attempt == 0:
            cand = zero
        elif not basis:
            break
        else:
            height = 4 + 2 * attempt
            coeffs = [Fraction(rng.randint(-height, height)) for _ in basis]
            cand = tuple(sum((c * v[i] for c, v in zip(coeffs, basis)),
                             Fraction(0)) for i in range(a.n))
        achieved = canonical_presentation(a, cand)
        if achieved.members == p.members:
            return RepresentativeResult(True, cand, achieved, attempts, seed)
    return RepresentativeResult(False, None, achieved, attempts, seed)
