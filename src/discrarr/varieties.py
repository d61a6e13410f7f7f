"""Rank-drop varieties of arrangements, their product equations, and the
desk-scale classification of minimal rank-drop presentations.

An arrangement belongs to the variety of a family (T, r) when the joint
dependency span of T has rank at most r.  For wheel- and ladder-shaped
families of triples in the plane, membership is cut out by a single
difference of two products of 2x2 determinants.  The public polynomials
keep the scalars of the normals: an int on a sampled arrangement, whose
normals are ints, and a Fraction on one read from JSON.  The eight-line
scan evaluates the same products in ints, on the table of 2x2 minors of the
integer normals, and the sampler on cross products of the integer rows it
draws, solving them for one normal to manufacture on-variety witnesses.

Both scans run on one engine, _scan: relabel, drop what a one-sided
prefilter rules out, and confirm the rest by exact rank.  Images are
streamed, never stored: for each family, one table cached per family holds
the first permutation of its support giving each distinct image, and the
scan walks every order-preserving embedding of the support into [n],
building one block of 2x2 minors per embedding and testing every image of
that embedding at once.  The prefilter of the eight-line scan, and of every
wheel-shaped class of the audit, is the family's product equation, in ints
on that block, over Q and over F_p: a second table per family lists the
distinct monomials of the equation over all images, so each is evaluated
once per embedding and every image's difference is picked from them in C.
The audit's other classes use the rank modulo DEFAULT_SCREEN_PRIME over Q,
and the rank over F_p itself over F_p, image by image.  Labels and member
sets are built only for the images a prefilter passes.
"""

import collections
import functools
import itertools
import math
import random
from dataclasses import dataclass
from operator import itemgetter, mul, neg, sub

from .arrangement import Arrangement, RetryBudgetExceeded, pair_det, parallel
from .discriminantal import dependency_rows, intersection_rank
from .linalg import DEFAULT_SCREEN_PRIME, eliminate, maximal_minors
from .presentations import (Presentation, check_bba, degenerate,
                            expected_rank, format_family, ladder,
                            min_expected_rank_above, orbit_canonical, permute,
                            presentation, wheel)


def field_name(a: Arrangement) -> str:
    return "Q" if a.p is None else f"F{a.p}"


@dataclass(frozen=True)
class MembershipVerdict:
    member: bool
    rank_certificate: int
    r: int
    field: str


@functools.lru_cache(maxsize=4096)
def default_r(p: Presentation):
    """The conventional rank bound for a family named without an explicit r:
    one less than the smallest expected rank strictly above it."""
    m = min_expected_rank_above(p)
    return None if m is None else m - 1


def membership(a: Arrangement, p: Presentation, r: int | None = None) -> MembershipVerdict:
    """Does the joint dependency span of p have rank at most r on a?

    With r omitted, the conventional bound from default_r is used and the
    verdict records which r was applied.
    """
    if p.n != a.n or p.k != a.k:
        p = p.with_ground(a.n)
        if p.k != a.k:
            raise ValueError("presentation context does not match the arrangement")
    if r is None:
        r = default_r(p)
        if r is None:
            raise ValueError("family has no strict upper bound; give r explicitly")
    cert = intersection_rank(a, p)
    return MembershipVerdict(cert <= r, cert, r, field_name(a))


@dataclass(frozen=True)
class WheelLabeling:
    """Rim indices in cyclic order and one hub index per rim edge.

    Rim entries are pairwise distinct; hubs may repeat (a merged wheel).
    """
    rim: tuple
    hubs: tuple

    def __post_init__(self):
        if len(self.rim) != len(self.hubs):
            raise ValueError("rim and hub lists must have equal length")
        if len(self.rim) < 3:
            raise ValueError("need at least 3 rim indices")
        if len(set(self.rim)) != len(self.rim):
            raise ValueError("rim indices must be pairwise distinct")


def _products(minor, left, right):
    """prod(minor(i, j) for (i, j) in left) - the same over right: the
    value of a product equation, with minor(i, j) = D(i, j)."""
    return (math.prod(minor(i, j) for i, j in left)
            - math.prod(minor(i, j) for i, j in right))


def _pair_minors(minors, n: int) -> list:
    """The table minors = maximal_minors(rows, p) of n integer rows in the
    plane as a nested list d with d[i][j] = D(i, j) for 1-based i, j:
    D(j, i) = -D(i, j), D(i, i) = 0."""
    d = [[0] * (n + 1) for _ in range(n + 1)]
    for (i, j), v in minors.items():
        d[i + 1][j + 1] = v
        d[j + 1][i + 1] = -v
    return d


def _wheel_factors(lab: WheelLabeling):
    m = len(lab.rim)
    left = [(lab.hubs[l], lab.rim[l]) for l in range(m)]
    right = [(lab.hubs[l], lab.rim[(l + 1) % m]) for l in range(m)]
    return left, right


def wheel_poly(a: Arrangement, lab: WheelLabeling, plain: bool = True):
    """Difference of hub-rim determinant products around the wheel.

    Vanishes exactly when some translation makes every rim edge triple and
    the hub set concurrent.  With plain=True the adjacent hyperplanes of
    the interleaved rim/hub cycle must be distinct (non-parallel), which
    is what the closed product formula needs.
    """
    if a.k != 2:
        raise ValueError("wheel products need k = 2")
    m = len(lab.rim)
    if plain:
        seq = []
        for l in range(m):
            seq.append(lab.rim[l])
            seq.append(lab.hubs[l])
        for t in range(2 * m):
            for step in (1, 2):
                u, v = seq[t], seq[(t + step) % (2 * m)]
                if u != v and parallel(a, u, v):
                    raise ValueError(
                        f"hyperplanes {u} and {v} coincide; wheel products need "
                        "distinct neighbours around the cycle")
    left, right = _wheel_factors(lab)
    return _products(functools.partial(pair_det, a), left, right)


def _ladder_factors(m: int):
    half = (m - 2) // 2
    left = [(2 * i, m) for i in range(1, half + 1)] + \
           [(2 * i - 1, m - 1) for i in range(1, half + 1)]
    right = [(2 * i, m - 1) for i in range(1, half + 1)] + \
            [(2 * i - 1, m) for i in range(1, half + 1)]
    return left, right


def ladder_poly(a: Arrangement, nrungs: int):
    """Pole-against-pole determinant products for the ladder on 2*nrungs+2
    lines; vanishes exactly on the ladder variety."""
    if a.k != 2:
        raise ValueError("ladder products need k = 2")
    m = 2 * nrungs + 2
    if a.n != m:
        raise ValueError(f"ladder on {m} lines, arrangement has {a.n}")
    left, right = _ladder_factors(m)
    return _products(functools.partial(pair_det, a), left, right)


def crapo_poly(a: Arrangement, labels=(1, 2, 3, 4, 5, 6)):
    """The classical six-line quartic (or its seven-line quintic variant).

    Six labels l1..l6: D(l1,l6) D(l2,l4) D(l3,l5) - D(l1,l5) D(l2,l6) D(l3,l4).
    Seven labels add the extra line in the quintic pattern.
    """
    if a.k != 2:
        raise ValueError("needs k = 2")
    l = tuple(labels)
    if len(l) == 6:
        left = [(l[0], l[5]), (l[1], l[3]), (l[2], l[4])]
        right = [(l[0], l[4]), (l[1], l[5]), (l[2], l[3])]
    elif len(l) == 7:
        left = [(l[0], l[3]), (l[0], l[5]), (l[1], l[6]), (l[2], l[4])]
        right = [(l[0], l[6]), (l[0], l[4]), (l[1], l[5]), (l[2], l[3])]
    else:
        raise ValueError("need 6 or 7 labels")
    return _products(functools.partial(pair_det, a), left, right)


def wheel_labeling_of(p: Presentation) -> WheelLabeling | None:
    """Detect wheel structure: rim edge triples around a cycle plus the hub
    member collecting the edge labels.  Returns None when p has no such shape."""
    for hub_member in sorted(p.members, key=lambda s: (len(s), sorted(s))):
        rest = [s for s in p.members if s != hub_member]
        if len(rest) < 3 or not all(len(s) == 3 for s in rest):
            continue
        hubset = set(hub_member)
        edges = []
        ok = True
        for s in sorted(rest, key=sorted):
            hs, rs = s & hubset, s - hubset
            if len(hs) != 1 or len(rs) != 2:
                ok = False
                break
            u, v = sorted(rs)
            edges.append((u, v, next(iter(hs))))
        if not ok or {h for _, _, h in edges} != hubset:
            continue
        adj: dict = {}
        for u, v, h in edges:
            adj.setdefault(u, []).append((v, h))
            adj.setdefault(v, []).append((u, h))
        if len(adj) != len(rest) or any(len(nb) != 2 for nb in adj.values()):
            continue
        start = min(adj)
        nxt, h0 = min(adj[start])
        rim, hubs = [start], [h0]
        prev, cur = start, nxt
        good = True
        while cur != start:
            rim.append(cur)
            options = [(w, h) for w, h in adj[cur] if w != prev]
            if len(options) != 1:
                good = False
                break
            (w, h) = options[0]
            hubs.append(h)
            prev, cur = cur, w
        if good and len(rim) == len(rest):
            return WheelLabeling(tuple(rim), tuple(hubs))
    return None


def presentation_of_labeling(lab: WheelLabeling, n: int) -> Presentation:
    m = len(lab.rim)
    members = [frozenset({lab.rim[l], lab.rim[(l + 1) % m], lab.hubs[l]})
               for l in range(m)]
    members.append(frozenset(lab.hubs))
    return presentation(n, 2, members)


@dataclass(frozen=True)
class VarietyFamily:
    """A named family with a closed product equation.

    left/right are lists of index pairs; the equation is
    prod(D(i, j) for (i, j) in left) - prod(D(i, j) for (i, j) in right).
    Every index must occur equally often in left and in right: then
    scaling a normal by c multiplies both products by the same power of
    c, so the equation keeps its zeros on the integer normals.
    """
    name: str
    pres: Presentation
    left: tuple
    right: tuple

    def __post_init__(self):
        count = collections.Counter(i for pair in self.left for i in pair)
        count.subtract(i for pair in self.right for i in pair)
        if any(count.values()):
            raise ValueError(f"equation of {self.name} is not homogeneous "
                             "in every normal")

    @property
    def ground(self) -> int:
        return self.pres.n

    def poly(self, a: Arrangement, mapping=None):
        left, right = self.left, self.right
        if mapping is not None:
            left = [(mapping[i], mapping[j]) for i, j in left]
            right = [(mapping[i], mapping[j]) for i, j in right]
        return _products(functools.partial(pair_det, a), left, right)

    def solve_index(self) -> int:
        """Largest index in which the equation is linear (appears exactly
        once in each product)."""
        lc = {}
        rc = {}
        for i, j in self.left:
            lc[i] = lc.get(i, 0) + 1
            lc[j] = lc.get(j, 0) + 1
        for i, j in self.right:
            rc[i] = rc.get(i, 0) + 1
            rc[j] = rc.get(j, 0) + 1
        good = [i for i in lc if lc[i] == 1 and rc.get(i, 0) == 1]
        if not good:
            raise ValueError(f"equation of {self.name} is linear in no index")
        return max(good)


def _wheel_family(name: str, pres: Presentation, lab: WheelLabeling) -> VarietyFamily:
    left, right = _wheel_factors(lab)
    return VarietyFamily(name, pres, tuple(left), tuple(right))


def wheel_family(m: int) -> VarietyFamily:
    lab = WheelLabeling(tuple(range(1, m, 2)), tuple(range(2, m + 1, 2)))
    return _wheel_family(f"W{m}", wheel(m), lab)


def ladder_family(m: int) -> VarietyFamily:
    left, right = _ladder_factors(m)
    return VarietyFamily(f"L{m}", ladder(m), tuple(left), tuple(right))


def merged_wheel_family(lab: WheelLabeling, name: str | None = None) -> VarietyFamily:
    n = max(max(lab.rim), max(lab.hubs))
    if name is None:
        name = f"DW{2 * len(lab.rim)}"
    return _wheel_family(name, presentation_of_labeling(lab, n), lab)


def _dw10_family() -> VarietyFamily:
    # ten-line wheel, indices 8 and 9 swapped, then 10 merged into 6 and
    # 9 merged into 4; the result lives on eight lines
    swapped = permute(wheel(10), {8: 9, 9: 8, **{i: i for i in (1, 2, 3, 4, 5, 6, 7, 10)}})
    step, _ = degenerate(swapped, 10, 6)
    pres, _ = degenerate(step, 9, 4)
    lab = WheelLabeling((1, 3, 5, 7, 8), (2, 4, 6, 4, 6))
    fam = _wheel_family("DW10", pres, lab)
    assert presentation_of_labeling(lab, 8).members == pres.members
    return fam


def _wd8_4_family() -> VarietyFamily:
    pres, _ = degenerate(wheel(8), 8, 4)
    lab = WheelLabeling((1, 3, 5, 7), (2, 4, 6, 4))
    assert presentation_of_labeling(lab, 7).members == pres.members
    return _wheel_family("Wd8_4", pres, lab)


@functools.lru_cache(maxsize=32)
def family_by_name(name: str) -> VarietyFamily:
    """Resolve the classification shortcuts: W6, W8, .., Wd8_4, L8, DW10."""
    if name == "Wd8_4":
        return _wd8_4_family()
    if name == "DW10":
        return _dw10_family()
    if name.startswith("W") and name[1:].isdigit():
        return wheel_family(int(name[1:]))
    if name.startswith("L") and name[1:].isdigit():
        return ladder_family(int(name[1:]))
    raise KeyError(f"unknown family name {name!r}")


def eight_line_families():
    """The five minimal families whose varieties meet spaces of eight lines."""
    return [family_by_name(n) for n in ("W6", "Wd8_4", "W8", "L8", "DW10")]


def solve_on_variety(family, seed: int, height: int = 9,
                     budget: int = 256) -> Arrangement:
    """Seeded generic arrangement lying exactly on the family's variety.

    Draws every normal but one at random, as integer rows, then solves the
    family equation for the remaining normal; the equation is linear
    homogeneous in it, and its coefficients are products of cross products
    of the rows.  A draw is accepted when every 2x2 minor of the rows with
    the solved normal in place is nonzero: a zero or parallel drawn normal,
    or a zero solved one, makes a minor vanish.  The Arrangement is built
    once, for the accepted draw, after rechecking that the equation
    vanishes exactly.  Its normals are the accepted int rows themselves, so
    its rows equal them and every scale is 1.  Raises ValueError when
    height < 1, and RetryBudgetExceeded when the budget runs out.
    """
    if isinstance(family, str):
        family = family_by_name(family)
    elif isinstance(family, WheelLabeling):
        family = merged_wheel_family(family)
    if height < 1:
        raise ValueError("height must be at least 1")
    m = family.solve_index()
    n = family.ground
    rng = random.Random(seed)

    def cross(i, j):  # D(i, j) on the rows of the current draw
        (a, b), (c, d) = rows[i - 1], rows[j - 1]
        return a * d - b * c

    for attempt in range(budget):
        h = height + attempt // 8
        rows = [(1, 0) if i == m else (rng.randint(-h, h), rng.randint(-h, h))
                for i in range(1, n + 1)]
        cx = _products(cross, family.left, family.right)
        rows[m - 1] = (0, 1)
        cy = _products(cross, family.left, family.right)
        rows[m - 1] = (-cy, cx)
        if all(maximal_minors(rows).values()):
            assert _products(cross, family.left, family.right) == 0, \
                "solved normal must lie on the variety"
            return Arrangement(2, rows)
    raise RetryBudgetExceeded(
        f"no on-variety sample for {family.name} in {budget} draws (seed={seed})")


@dataclass(frozen=True)
class ReportHit:
    family: str
    labels: tuple  # image of canonical index i is labels[i-1]
    r: int
    rank: int

    def to_json_dict(self) -> dict:
        return {"family": self.family, "labels": list(self.labels),
                "r": self.r, "rank": self.rank}


@dataclass(frozen=True)
class EightLineReport:
    field: str
    hits: tuple
    instances_scanned: int

    def to_json_dict(self, arrangement: str | None = None) -> dict:
        return {"arrangement": arrangement, "field": self.field,
                "instances_scanned": self.instances_scanned,
                "hits": [h.to_json_dict() for h in self.hits]}


@functools.cache
def _support_images(canonical: tuple) -> tuple:
    """(local, perms) for the family with the given canonical members.

    local lists each member as positions 0..m-1 in the family's support of
    m indices, sorted; perms holds, for each distinct image of the family
    on those positions, the first permutation of range(m) in itertools
    order that gives it, as bytes (a third of a tuple's size: a nine-index
    class has up to 9! of them).  The table does not depend on the ground
    set.  Its callers ask for the five eight-line families and the audit's
    candidate classes, a fixed set, so it is kept for the process.
    """
    support = sorted({i for s in canonical for i in s})
    pos = {i: j for j, i in enumerate(support)}
    local = tuple(tuple(pos[i] for i in s) for s in canonical)
    first = {}  # image on positions 0..m-1, as member bitmasks -> first permutation
    for perm in itertools.permutations(range(len(support))):
        key = tuple(sorted(sum(1 << perm[j] for j in s) for s in local))
        if key not in first:
            first[key] = bytes(perm)
    return local, tuple(first.values())


def _distinct_relabelings(p: Presentation, n: int):
    """One (emb, ts) per order-preserving embedding emb of p's support
    into [n], with ts = range(len(perms)): the images (emb, t), t in ts,
    are the distinct images of p in [n] carried by emb.

    An image uses exactly as many indices as p's support, m, so it is an
    image on [m] carried into [n] by one of the C(n, m) embeddings.  With
    (local, perms) = _support_images(p.canonical()), t indexes the
    permutation perms[t] giving it, and its labels are
    labels[j] = emb[perms[t][j]]: where the j-th smallest index of p's
    support goes, the lexicographically first labelling of the image.
    Image i of p's canonical members is {labels[j] for j in local[i]}.
    Nothing is built per image.
    """
    perms = _support_images(p.canonical())[1]
    ts = range(len(perms))
    return ((emb, ts) for emb in itertools.combinations(range(1, n + 1), len(perms[0])))


def _scan(a: Arrangement, jobs):
    """Relabel, prefilter, confirm: for each job (name, family, r, passed),
    walk the embeddings of the family's support into [a.n] from
    _distinct_relabelings.  Each embedding gets one block of 2x2 minors,
    block[u * m + v] = D(emb[u], emb[v]), and passed(block, emb), a
    one-sided test of all the embedding's images at once, yields the t it
    does not rule out.  Only those images get their labels and member sets,
    and are ranked exactly; a rank at most r is a hit.  Returns the hits
    sorted by (family, labels), which hides the walk order, and the number
    of images walked."""
    d = _pair_minors(a._minors, a.n)
    hits = []
    count = 0
    for name, family, r, passed in jobs:
        local, perms = _support_images(family.canonical())
        for emb, ts in _distinct_relabelings(family, a.n):
            count += len(ts)
            block = [d[i][j] for i in emb for j in emb]
            for t in passed(block, emb):
                labels = tuple(emb[j] for j in perms[t])
                rank = intersection_rank(a, [frozenset(labels[j] for j in s) for s in local])
                if rank <= r:
                    hits.append(ReportHit(name, labels, r, rank))
    hits.sort(key=lambda h: (h.family, h.labels))
    return tuple(hits), count


@functools.cache
def _equation_table(fam: VarietyFamily) -> tuple:
    """(factors, left, right): the family's product equation over every
    image of its _support_images, on the block of minors of an embedding.

    Under perms[t], each side of the equation is a product of block
    entries: the factor D(i, j) is block[u * m + v] with u, v the
    positions perms[t] sends i and j to, and, as D(v, u) = -D(u, v), it is
    minus block[v * m + u] when u > v.  So each side is a sign times a
    monomial, kept as the sorted positions u * m + v with u < v.  The table
    numbers the K distinct monomials of all images; factors holds one
    itemgetter per factor position, picking that factor of every monomial,
    so multiplying their picks gives the K values.  left picks each image's
    left monomial from the values, and right its right monomial from the
    values followed by their negations, at K + k when the two sides' signs
    differ: left minus right is then the image's equation up to its sign.
    Like the images table it is kept per family: building the five
    eight-line families' tables costs many warm eight-line scans."""
    support = sorted(fam.pres.support)
    m = len(support)
    pos = {i: j for j, i in enumerate(support)}
    sides = [[(pos[i], pos[j]) for i, j in side] for side in (fam.left, fam.right)]
    number = {}  # monomial -> its index among the distinct ones

    def monomial(perm, side):
        sign, positions = 1, []
        for i, j in side:
            u, v = perm[i], perm[j]
            if u > v:
                u, v, sign = v, u, -sign
            positions.append(u * m + v)
        return number.setdefault(tuple(sorted(positions)), len(number)), sign

    left, right = [], []
    for perm in _support_images(fam.pres.canonical())[1]:
        (k, s), (l, r) = (monomial(perm, side) for side in sides)
        left.append(k)
        right.append((l, s != r))
    size = len(number)
    factors = tuple(itemgetter(*column) for column in zip(*number))
    return (factors, itemgetter(*left),
            itemgetter(*[l + size * flip for l, flip in right]))


def _equation_filter(fam: VarietyFamily, p):
    """passed(block, emb): the t of every image of the embedding at which
    the family equation vanishes, in ints on the block, or mod p over F_p,
    in increasing order.  The equation's distinct monomials are evaluated
    once per embedding through the family's _equation_table, and each
    image's difference is picked from them."""
    (first, *rest), left, right = _equation_table(fam)

    def passed(block, emb):
        vals = first(block)
        for factor in rest:
            vals = map(mul, vals, factor(block))
        vals = list(vals)
        diff = list(map(sub, left(vals), right(vals + list(map(neg, vals)))))
        if p is not None:
            diff = list(map(p.__rmod__, diff))
        t = -1
        try:
            while True:
                t = diff.index(0, t + 1)
                yield t
        except ValueError:
            return
    return passed


def eight_line_report(a: Arrangement) -> EightLineReport:
    """Scan all relabelings of the five eight-line families and report
    every instance whose family equation vanishes and whose rank is <= r.

    The equations are evaluated in ints on the arrangement's table of 2x2
    minors of its integer rows, built once; a VarietyFamily's equation
    keeps its zeros there.  Genericity is read from the same table."""
    if a.n != 8 or a.k != 2:
        raise ValueError("the scan is defined for 8 lines in the plane")
    if not all(a._minors.values()):
        raise ValueError("the scan needs a generic arrangement")
    jobs = [(fam.name, fam.pres, default_r(fam.pres.with_ground(8)),
             _equation_filter(fam, a.p)) for fam in eight_line_families()]
    hits, count = _scan(a, jobs)
    return EightLineReport(field_name(a), hits, count)


def _size_multisets(nprime: int, nu: int):
    """Nondecreasing member sizes >= 3 with sum(size - 2) = nu and enough
    incidences to cover every one of nprime indices twice."""
    out = []

    def rec(prefix, rem, total):
        if rem == 0:
            if total >= 2 * nprime:
                out.append(tuple(prefix))
            return
        lo = prefix[-1] if prefix else 3
        for s in range(lo, min(nprime, rem + 2) + 1):
            rec(prefix + [s], rem - (s - 2), total + s)

    rec([], nu, 0)
    return out


def _gen_families(nprime: int, sizes: tuple):
    """All families on exactly [nprime] with the given member sizes,
    pairwise overlaps of at most one index, every index covered twice.
    Every size is at least 3, so no member contains another and each
    family is admissible.

    Members are produced in canonical order (sizes ascending, lex within a
    size).  Only relabelings introducing new vertices in consecutive order
    are generated: the canonical representative of every orbit assigns
    labels that way, so no orbit is lost, and most relabel duplicates
    never appear.  The survivors still need orbit deduplication.
    """
    ground = list(range(1, nprime + 1))
    maxdeg = (nprime - 1) // 2
    total_slots = sum(sizes)

    def feasible(deg, used_slots):
        slots_left = total_slots - used_slots
        deficit = sum(1 for v in ground if deg.get(v, 0) == 1)
        unseen = sum(1 for v in ground if deg.get(v, 0) == 0)
        return deficit + 2 * unseen <= slots_left

    def rec(members, pairs, deg, used_slots, used_count, pos):
        if pos == len(sizes):
            if used_count == nprime and all(deg.get(v, 0) >= 2 for v in ground):
                yield tuple(members)
            return
        size = sizes[pos]
        start = None
        if members and len(members[-1]) == size:
            start = members[-1]
        for comb in itertools.combinations(ground[:used_count + size], size):
            if start is not None and comb <= start:
                continue
            fresh = [v for v in comb if deg.get(v, 0) == 0]
            if fresh != list(range(used_count + 1, used_count + 1 + len(fresh))):
                continue
            cpairs = set(itertools.combinations(comb, 2))
            if cpairs & pairs:
                continue
            ndeg = dict(deg)
            okdeg = True
            for v in comb:
                ndeg[v] = ndeg.get(v, 0) + 1
                if ndeg[v] > maxdeg:
                    okdeg = False
                    break
            if not okdeg:
                continue
            if not feasible(ndeg, used_slots + size):
                continue
            members.append(comb)
            yield from rec(members, pairs | cpairs, ndeg,
                           used_slots + size, used_count + len(fresh), pos + 1)
            members.pop()

    yield from rec([], set(), {}, 0, 0, 0)


def candidate_presentations(n: int, k: int, nprime_max: int,
                            require_rank_defect_families: bool = True) -> tuple:
    """Orbit representatives of the families that can witness a rank drop.

    Enumerates admissible antichains T with every index of the union in at
    least two members, union size n' at most nprime_max, and expected rank
    between 2n'/3 and n'-2.  With the flag set (the default), keeps only
    families failing the union-count condition; switching it off retains
    the passing families too, whose varieties need an explicit rank bound.

    n and k are only validated: the classes depend on nprime_max and the
    flag, and are generated once per pair.
    """
    if k != 2:
        raise ValueError("the classification scan is built for k = 2")
    if n > 9 or nprime_max > n:
        raise ValueError("desk-scale bound: n <= 9 and nprime_max <= n")
    return _candidates(nprime_max, require_rank_defect_families)


@functools.lru_cache(maxsize=8)
def _candidates(nprime_max: int, require_rank_defect_families: bool) -> tuple:
    """candidate_presentations for a validated nprime_max."""
    reps = {}
    for nprime in range(4, nprime_max + 1):
        numin = -(-2 * nprime // 3)
        for nu in range(numin, nprime - 2 + 1):
            for sizes in _size_multisets(nprime, nu):
                for members in _gen_families(nprime, sizes):
                    p = presentation(nprime, 2, [frozenset(m) for m in members])
                    if require_rank_defect_families and check_bba(p).ok:
                        continue
                    can = orbit_canonical(p)
                    reps.setdefault(can.canonical(), can)
    return tuple(sorted(reps.values(), key=lambda p: (len(p.members), p.canonical())))


@dataclass(frozen=True)
class AuditReport:
    field: str
    nprime_max: int
    hits: tuple  # ReportHit entries, family named by canonical text form
    note: str

    def to_json_dict(self) -> dict:
        return {"field": self.field, "nprime_max": self.nprime_max,
                "hits": [h.to_json_dict() for h in self.hits],
                "note": self.note}


def _screen_rows(a: Arrangement, sizes, p: int) -> dict:
    """Every index set of [n] with a size in sizes, mapped to its integer
    dependency rows (the ones intersection_rank stacks), reduced mod p.

    Built once per audit and dropped with it.
    """
    out = {}
    for size in sizes:
        for s in itertools.combinations(range(1, a.n + 1), size):
            out[frozenset(s)] = [tuple(x % p for x in row)
                                 for row in dependency_rows(a.rows, a.p, s, a._minors)]
    return out


def _rank_mod_p(rows, p: int, r: int | None = None) -> int:
    """Rank modulo the prime p of integer rows already reduced mod p.

    With r given, stops as soon as the rank exceeds r and returns r + 1.
    """
    return len(eliminate(rows, p, limit=r)[1])


def _screen_filter(screen: dict, q: int, pres: Presentation, r: int):
    """passed(block, emb): the t of every image of pres on the embedding
    whose rank mod the prime q, which is at most its rank over the
    arrangement's field, does not exceed r; screen is
    _screen_rows(a, sizes, q).  The member sets come from the labels of
    (emb, t), through one itemgetter per member built here."""
    local, perms = _support_images(pres.canonical())
    members = [itemgetter(*s) for s in local]

    def passed(block, emb):
        for t, perm in enumerate(perms):
            labels = [emb[j] for j in perm]
            rows = [row for g in members for row in screen[frozenset(g(labels))]]
            if _rank_mod_p(rows, q, r) <= r:
                yield t
    return passed


def audit_arrangement(a: Arrangement, nprime_max: int) -> AuditReport:
    """Test every candidate family instance against the arrangement.

    A hit is an instance whose dependency span loses rank: rank at most
    expected_rank - 1.  The scan covers families whose union fits in
    nprime_max indices, including those passing the union-count condition
    (their varieties still capture genuine rank defects).  An empty list
    bounds nothing beyond the searched families, and the note says so.

    The arrangement's table of 2x2 minors of its integer rows decides
    genericity and feeds both prefilters, which _scan applies to the
    images it streams.  A wheel-shaped class (wheel_labeling_of finds a
    labelling) passes the zeros of its wheel equation, evaluated in ints
    on the minors, over Q and over F_p: on a generic arrangement the
    instance loses rank exactly when the equation vanishes.  Every other
    class passes unless its rank modulo a prime exceeds the bound:
    DEFAULT_SCREEN_PRIME over Q, a one-sided screen, and p itself over
    F_p, where the rank is exact.  Its dependency rows are built mod that
    prime once per call, for the member sizes of those classes only.
    Every instance that passes is ranked exactly by intersection_rank.
    """
    if not all(a._minors.values()):
        raise ValueError("the audit is defined for generic arrangements")
    candidates = candidate_presentations(a.n, a.k, min(nprime_max, a.n), False)
    labs = [wheel_labeling_of(pres) for pres in candidates]
    sizes = sorted({len(s) for pres, lab in zip(candidates, labs) if lab is None
                    for s in pres.members})
    q = DEFAULT_SCREEN_PRIME if a.p is None else a.p
    screen = _screen_rows(a, sizes, q)
    jobs = []
    for pres, lab in zip(candidates, labs):
        name, r = format_family(pres), expected_rank(pres) - 1
        passed = _screen_filter(screen, q, pres, r) if lab is None else \
            _equation_filter(_wheel_family(name, pres, lab), a.p)
        jobs.append((name, pres, r, passed))
    hits, _ = _scan(a, jobs)
    return AuditReport(field_name(a), nprime_max, hits,
                       "no hit rules out rank defects only within the searched bound")
