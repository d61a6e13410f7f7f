"""Translations of an arrangement and the subspaces they cut out.

A translation vector t in K^n moves every hyperplane parallel to itself:
hyperplane i becomes {x : a_i . x = t_i}.  For an index set S, the
translations for which the hyperplanes of S keep a common point form a
linear subspace of K^n; its orthogonal complement is spanned by the
linear dependencies among the normals of S, re-embedded into K^n.  Every
rank computed here is the rank of such a dependency span, which equals
the codimension of the corresponding intersection in the space of
translations.  A translation enters as the last column of the
arrangement's cone, whose integer rows the Arrangement constructor
builds; every decision here runs eliminate on those rows or on the
arrangement's own.
"""

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .arrangement import Arrangement, _subset_rank
from .linalg import (FpElement, _scalar, eliminate, integer_kernel,
                     maximal_minors, parse_scalar, scalar_str)
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

    It is read from the integer rows of s brought to one common scale,
    which leaves the kernel unchanged.  Nothing is cached: callers that ask
    for the same bases many times (the audit's screen) keep them.
    """
    s = tuple(sorted(set(s)))
    if not s:
        raise ValueError("need a nonempty index set")
    lcm = math.lcm(*(a.scales[a._index(i)] for i in s))
    cols = [[x * (lcm // a.scales[i - 1]) for x in a.rows[i - 1]] for i in s]
    vectors, den = _embedded_kernel(cols, s, a.n, a.p)
    return DependencySpace(frozenset(s), tuple(
        tuple(_scalar(x, den, a.p) for x in v) for v in vectors))


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
    if len(s) >= k and minors[base]:
        out = []
        for x in s[k:]:
            c = base + (x - 1,)
            full = [0] * n
            for j, cj in enumerate(c):
                v = minors[c[:j] + c[j + 1:]]
                full[cj] = -v if j % 2 else v
            out.append(full if p is None else [y % p for y in full])
        return out
    return _embedded_kernel([normals[i - 1] for i in s], s, n, p)[0]


def _embedded_kernel(cols, s, n, p):
    """integer_kernel of the integer columns cols, indexed by s (1-based),
    each vector embedded into n coordinates: (vectors, den)."""
    vectors, den = integer_kernel(list(zip(*cols)), len(s), p)
    out = []
    for v in vectors:
        full = [0] * n
        for x, i in zip(v, s):
            full[i - 1] = x
        out.append(full)
    return out, den


def intersection_rank(a: Arrangement, t) -> int:
    """Rank of the joint dependency span of all members of the family t.

    This is the codimension, inside the space of translations, of the set
    of translations keeping every member concurrent.  The empty family has
    rank 0.  It runs on the arrangement's integer rows and reads their
    table of maximal minors, which the arrangement builds once.
    """
    members = _members_of(t)
    rows = []
    for s in members:
        if len(s) < 2:
            raise ValueError("family members need at least 2 indices")
        rows.extend(dependency_rows(a.rows, a.p, s, a._minors))
    return len(eliminate(rows, a.p)[1])


def translated_cone(a: Arrangement, t) -> Arrangement:
    """The cone of a translated by t, normal i becoming (a_i | t_i).  A t of
    the wrong length or field raises ValueError, a non-exact entry TypeError."""
    t = tuple(t)
    if len(t) != a.n:
        raise ValueError("translation length does not match the arrangement")
    for x in t:
        if not isinstance(x, (int, Fraction, FpElement)):
            raise TypeError(f"translation entry {x!r} is not an int, Fraction "
                            "or FpElement")
    cone = Arrangement(a.k + 1, tuple(v + (x,) for v, x in zip(a.normals, t)))
    if cone.p != a.p:
        raise ValueError("translation and arrangement lie over different fields")
    return cone


def has_common_point(a: Arrangement, t, s) -> bool:
    """Do the hyperplanes indexed by s still meet after translating by t?
    Exactly when their cone rows have no more rank than their normals."""
    return _subset_rank(a, s) == _subset_rank(translated_cone(a, t), s)


def _dependent(a: Arrangement, s) -> bool:
    return _subset_rank(a, s) < len(s)


def canonical_presentation(a: Arrangement, t) -> Presentation:
    """All maximal index sets that stay concurrent under the translation t
    and whose normals are dependent (so that concurrency is a constraint).

    Every maximal concurrent set is the full incidence set of the affine
    flat cut out by at most k of its hyperplanes, so it suffices to sweep
    the flats of independent b, |b| <= k, and collect their incidence sets:
    i is incident when its cone row adds no rank to b's.  For a generic
    arrangement this returns exactly the maximal sets of size at least
    k+1; with parallel repeats, coincident translates at any size from 2
    up qualify as well.
    """
    n, k = a.n, a.k
    cone = translated_cone(a, t)
    families = set()
    for size in range(1, min(k, n) + 1):
        for b in itertools.combinations(range(1, n + 1), size):
            if _subset_rank(a, b) < size:
                continue
            inc = frozenset(i for i in range(1, n + 1)
                            if _subset_rank(cone, b + (i,)) == size)
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
    p's members (their dependency_rows, row scales undone), which holds the
    translations through one point and so is never 0; random integer
    combinations of a kernel basis with growing height are tried, starting
    with the zero translation.  Failure is a budget outcome, not a
    certificate that no representative exists; the report carries the
    presentation achieved by the last attempt, which is always above p.
    """
    if (p.n, p.k) != (a.n, a.k):
        raise ValueError(f"presentation on (n, k) = ({p.n}, {p.k}) does not "
                         f"fit an arrangement with ({a.n}, {a.k})")
    rows = [[x * c for x, c in zip(row, a.scales)] for s in _members_of(p)
            for row in dependency_rows(a.rows, a.p, s, a._minors)]
    basis, den = integer_kernel(rows, a.n, a.p)
    rng = random.Random(seed)
    achieved = None
    attempts = 0
    for attempt in range(budget + 1):
        attempts = attempt + 1
        height = 4 + 2 * attempt
        coeffs = [rng.randint(-height, height) if attempt else 0 for _ in basis]
        cand = tuple(_scalar(sum(c * v[i] for c, v in zip(coeffs, basis)), den, a.p)
                     for i in range(a.n))
        achieved = canonical_presentation(a, cand)
        if achieved.members == p.members:
            return RepresentativeResult(True, cand, achieved, attempts, seed)
    return RepresentativeResult(False, None, achieved, attempts, seed)
