"""Families of index sets that can present intersections of a
discriminantal arrangement, and the order theory around them.

A presentation is an antichain of subsets of the ground set {1, .., n}
carrying the ambient rank k as context.  Admissible presentations
additionally have every member of size >= k+1 and every k-subset of the
ground set inside at most one member.  The admissible families that also
pass the union-count condition (`check_bba`) are exactly the ones realized
by every sufficiently unconstrained arrangement.
"""

import itertools
import re
from dataclasses import dataclass


class SearchBudgetExceeded(RuntimeError):
    """An exhaustive poset search ran past its state budget."""


@dataclass(frozen=True)
class Presentation:
    n: int
    k: int
    members: frozenset  # frozenset of frozensets of 1-based indices

    def __post_init__(self):
        mem = frozenset(frozenset(s) for s in self.members)
        object.__setattr__(self, "members", mem)
        for s in mem:
            if not s:
                raise ValueError("empty member")
            if any(not isinstance(i, int) or not 1 <= i <= self.n for i in s):
                raise ValueError(f"member {sorted(s)} leaves the ground set [{self.n}]")
        for s1 in mem:
            for s2 in mem:
                if s1 < s2:
                    raise ValueError("members must form an antichain")

    def canonical(self) -> tuple:
        """Members sorted by (size, lexicographic), indices ascending."""
        return tuple(sorted((tuple(sorted(s)) for s in self.members),
                            key=lambda t: (len(t), t)))

    @property
    def support(self) -> frozenset:
        return frozenset(i for s in self.members for i in s)

    def with_ground(self, n: int) -> "Presentation":
        """Same members on a different ground set."""
        if any(i > n for i in self.support):
            raise ValueError("members do not fit the requested ground set")
        return Presentation(n, self.k, self.members)

    def __str__(self):
        return format_family(self)


def presentation(n: int, k: int, members) -> Presentation:
    return Presentation(n, k, frozenset(frozenset(s) for s in members))


def is_admissible(p: Presentation) -> bool:
    """Antichain, members of size >= k+1, pairwise overlaps of size < k."""
    for s in p.members:
        if len(s) < p.k + 1:
            return False
    mem = sorted(p.members, key=lambda s: (len(s), sorted(s)))
    for s1, s2 in itertools.combinations(mem, 2):
        if len(s1 & s2) >= p.k:
            return False
    return True


def expected_rank(p: Presentation) -> int:
    """Sum of (|S| - k): the rank the intersection has in the unconstrained case."""
    return sum(len(s) - p.k for s in p.members)


def leq(p1: Presentation, p2: Presentation) -> bool:
    """p1 <= p2 iff every member of p1 sits inside some member of p2."""
    if (p1.n, p1.k) != (p2.n, p2.k):
        raise ValueError("presentations live on different ground sets")
    return all(any(s1 <= s2 for s2 in p2.members) for s1 in p1.members)


@dataclass(frozen=True)
class BbaVerdict:
    ok: bool
    witness: frozenset | None  # a violating subfamily of minimum size


def check_bba(p: Presentation) -> BbaVerdict:
    """Union-count condition on every subfamily of size >= 2.

    A subfamily F violates it when |union F| - k fails to exceed
    sum over F of (|S| - k).  The whole family counts as a subfamily.
    """
    if not is_admissible(p):
        raise ValueError("condition is only defined for admissible presentations")
    mem = sorted(p.members, key=lambda s: (len(s), sorted(s)))
    k = p.k
    for size in range(2, len(mem) + 1):
        for sub in itertools.combinations(mem, size):
            union = frozenset().union(*sub)
            if len(union) - k <= sum(len(s) - k for s in sub):
                return BbaVerdict(False, frozenset(sub))
    return BbaVerdict(True, None)


def permute(p: Presentation, sigma) -> Presentation:
    """Relabel every member through a bijection of the ground set."""
    if not isinstance(sigma, dict):
        sigma = {i + 1: s for i, s in enumerate(sigma)}
    if sorted(sigma) != list(range(1, p.n + 1)) or \
            sorted(sigma.values()) != list(range(1, p.n + 1)):
        raise ValueError("sigma must be a bijection on the ground set")
    return presentation(p.n, p.k, (frozenset(sigma[i] for i in s) for s in p.members))


def _closure(members: set, k: int) -> frozenset:
    """Smallest antichain with small pairwise overlaps above the given family.

    Repeatedly drops contained members and merges any two members sharing
    at least k indices.  Both moves are forced for any admissible family
    above the input, so the fixpoint is the unique minimum.
    """
    fam = set(frozenset(s) for s in members)
    changed = True
    while changed:
        changed = False
        for s1, s2 in itertools.combinations(sorted(fam, key=lambda s: (len(s), sorted(s))), 2):
            if s1 <= s2:
                fam.discard(s1)
                changed = True
                break
            if s2 <= s1:
                fam.discard(s2)
                changed = True
                break
            if len(s1 & s2) >= k:
                fam.discard(s1)
                fam.discard(s2)
                fam.add(s1 | s2)
                changed = True
                break
    return frozenset(fam)


def degenerate(p: Presentation, frm: int, to: int):
    """Merge index frm (the top of the ground set) into index to.

    Replaces frm by to in every member, discards members that shrink to
    size k, closes up to the minimal admissible family above the result,
    and reports gamma, the number of members containing both indices.
    Returns (presentation on n-1 indices, gamma).
    """
    if frm != p.n:
        raise ValueError("can only merge the largest index down")
    if not 1 <= to < frm:
        raise ValueError("target index must be smaller than the merged one")
    if not is_admissible(p):
        raise ValueError("input must be admissible")
    gamma = sum(1 for s in p.members if frm in s and to in s)
    replaced = set()
    for s in p.members:
        s2 = frozenset(to if i == frm else i for i in s)
        if len(s2) <= p.k:
            continue
        replaced.add(s2)
    result = Presentation(p.n - 1, p.k, _closure(replaced, p.k))
    if not is_admissible(result):
        raise AssertionError("closure fixpoint left the admissible family poset")
    return result, gamma


def wheel(m: int) -> Presentation:
    """Cyclic family on [m]: rim triples {2i-1, 2i, 2i+1} plus the even hub set."""
    if m < 6 or m % 2:
        raise ValueError("wheel needs an even ground set of size at least 6")
    half = m // 2
    wrap = lambda x: (x - 1) % m + 1
    members = [frozenset({wrap(2 * i - 1), wrap(2 * i), wrap(2 * i + 1)})
               for i in range(1, half + 1)]
    members.append(frozenset(range(2, m + 1, 2)))
    return presentation(m, 2, members)


def twin_wheel(m: int) -> Presentation:
    """The even-rim counterpart: triples {2i, 2i+1, 2i+2} plus the odd hub set."""
    if m < 6 or m % 2:
        raise ValueError("wheel needs an even ground set of size at least 6")
    half = m // 2
    wrap = lambda x: (x - 1) % m + 1
    members = [frozenset({wrap(2 * i), wrap(2 * i + 1), wrap(2 * i + 2)})
               for i in range(1, half + 1)]
    members.append(frozenset(range(1, m + 1, 2)))
    return presentation(m, 2, members)


def ladder(m: int) -> Presentation:
    """Two poles m-1 and m, with rungs {2i-1, 2i} on pole m-1 and
    staggered rungs {2i, 2i+1} on pole m, closing with {1, m-2, m}."""
    if m < 8 or m % 2:
        raise ValueError("ladder needs an even ground set of size at least 8")
    half = (m - 2) // 2
    members = [frozenset({2 * i - 1, 2 * i, m - 1}) for i in range(1, half + 1)]
    members += [frozenset({2 * i, 2 * i + 1, m}) for i in range(1, half)]
    members.append(frozenset({1, m - 2, m}))
    return presentation(m, 2, members)


def _set_partitions(items: list):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1:]
        yield [[first]] + part


def _family_ok(fam, k: int) -> bool:
    fam = sorted(fam, key=lambda s: (len(s), sorted(s)))
    for s1, s2 in itertools.combinations(fam, 2):
        if s1 <= s2 or s2 <= s1 or len(s1 & s2) >= k:
            return False
    return True


def min_expected_rank_above(p: Presentation, budget: int = 1_000_000):
    """Exact minimum of expected_rank over strict upper bounds of p that
    pass check_bba.  Returns None when no strict upper bound exists.

    Any upper bound splits into a core (members containing some member of
    p) and extra members.  When some core member strictly grew, dropping
    the extras leaves a strict upper bound with smaller expected_rank, so
    cores are searched alone: every core arises from a partition of p's
    members (each block merged into its union) followed by enlarging
    members one index at a time.  Merging is not monotone in
    expected_rank, hence partitions are enumerated outright with a layered
    padding search per partition, bounded by the best value found.  Extras
    can only matter on top of p unchanged, which requires p itself to pass
    the condition; that route is searched by total extra cost.
    """
    if not is_admissible(p):
        raise ValueError("input must be admissible")
    n, k = p.n, p.k
    target = p.members
    members = sorted(p.members, key=lambda s: (len(s), sorted(s)))
    best = None
    visited = 0

    def bump():
        nonlocal visited
        visited += 1
        if visited > budget:
            raise SearchBudgetExceeded(f"more than {budget} families visited")

    parts = []
    for part in _set_partitions(members):
        fam = frozenset(frozenset().union(*block) for block in part)
        lb = sum(len(u) - k for u in fam)
        parts.append((lb, fam))
    parts.sort(key=lambda t: t[0])

    for lb, fam in parts:
        if best is not None and lb >= best:
            continue
        if not _family_ok(fam, k):
            continue
        layer = {fam}
        seen = {fam}
        nu_here = lb
        while layer and (best is None or nu_here < best):
            nxt = set()
            done = False
            for f in layer:
                bump()
                if f != target and check_bba(Presentation(n, k, f)).ok:
                    best = nu_here
                    done = True
                    break
                for s in f:
                    for x in range(1, n + 1):
                        if x in s:
                            continue
                        child = frozenset((f - {s}) | {s | {x}})
                        if child in seen:
                            continue
                        seen.add(child)
                        if _family_ok(child, k):
                            nxt.add(child)
            if done:
                break
            layer = nxt
            nu_here += 1

    if check_bba(p).ok:
        base_nu = expected_rank(p)
        cost = 1
        while best is None or base_nu + cost < best:
            found = _extras_of_cost(p, cost, bump)
            if found:
                best = base_nu + cost
                break
            cost += 1
            if cost > n - k:
                break
    return best


def _extras_of_cost(p: Presentation, cost: int, bump) -> bool:
    """Is there an antichain of fresh members with total cost (|V| - k each)
    equal to `cost` whose union with p is admissible and passes check_bba?"""
    n, k = p.n, p.k

    def rec(fam, remaining, min_size):
        if remaining == 0:
            bump()
            return check_bba(Presentation(n, k, frozenset(fam))).ok
        for size in range(min_size, k + remaining + 1):
            for extra in itertools.combinations(range(1, n + 1), size):
                v = frozenset(extra)
                if v in fam:
                    continue
                cand = fam | {v}
                if not _family_ok(cand, k):
                    continue
                if rec(cand, remaining - (size - k), size):
                    return True
        return False

    return rec(set(p.members), cost, k + 1)


def parse_family(text: str, n: int, k: int) -> Presentation:
    """Parse '123,156,246,345' (single-digit indices) or
    '[1 2 13],[4 5 6]' (bracketed, for ground sets past 9).  Only commas
    and whitespace may stand outside the bracketed groups."""
    text = text.strip()
    if not text:
        return presentation(n, k, [])
    members = []
    if "[" in text:
        for rest in re.split(r"\[[^\]]*\]", text):
            if not re.fullmatch(r"[\s,]*", rest):
                raise ValueError(f"unexpected text {rest.strip()!r} outside "
                                 "bracketed groups")
        for g in re.findall(r"\[([^\]]*)\]", text):
            idx = [int(t) for t in g.replace(",", " ").split()]
            if not idx:
                raise ValueError("empty bracketed group")
            members.append(frozenset(idx))
    else:
        for g in text.split(","):
            g = g.strip()
            if not g.isdigit():
                raise ValueError(f"bad index group {g!r}")
            members.append(frozenset(int(c) for c in g))
    return presentation(n, k, members)


def format_family(p: Presentation) -> str:
    """Writer: compact digit groups below ground size 10, bracketed from 10 up."""
    can = p.canonical()
    if p.n >= 10:
        return ",".join("[" + " ".join(str(i) for i in s) + "]" for s in can)
    return ",".join("".join(str(i) for i in s) for s in can)


def orbit_canonical(p: Presentation) -> Presentation:
    """Minimum serialized form of p over all relabelings, on a compact ground set.

    Serialized forms are compared as sequences of (size, index tuple) keys.
    The member list is built greedily in sorted order: a deferred member
    only ever receives larger labels, so the next element of the minimum
    form always has the minimum hypothetical key among unplaced members.
    Branches over key ties and over assignments of new labels, with prefix
    pruning against the best form found so far.
    """
    msets = list(p.members)
    if not msets:
        return presentation(0, p.k, [])
    best: list = [None]  # tuple of (size, img) keys
    support = sorted({i for s in msets for i in s})
    if support == list(range(1, len(support) + 1)):
        # the input itself is one of the candidate forms; start from it
        best[0] = tuple(sorted(((len(s), tuple(sorted(s))) for s in msets)))

    def image_key(s, label_of, next_label):
        known = sorted(label_of[v] for v in s if v in label_of)
        u = len(s) - len(known)
        img = tuple(sorted(known + list(range(next_label, next_label + u))))
        return (len(s), img)

    def rec(placed, used, label_of, next_label):
        if len(placed) == len(msets):
            cand = tuple(placed)
            if best[0] is None or cand < best[0]:
                best[0] = cand
            return
        keys = {}
        for idx, s in enumerate(msets):
            if idx in used:
                continue
            keys[idx] = image_key(s, label_of, next_label)
        kmin = min(keys.values())
        if best[0] is not None:
            prefix = tuple(placed + [kmin])
            if prefix > best[0][:len(prefix)]:
                return
        for idx, key in keys.items():
            if key != kmin:
                continue
            s = msets[idx]
            unknown = sorted(v for v in s if v not in label_of)
            labels = list(range(next_label, next_label + len(unknown)))
            for perm in itertools.permutations(unknown):
                lab = dict(label_of)
                for v, lbl in zip(perm, labels):
                    lab[v] = lbl
                rec(placed + [key], used | {idx}, lab, next_label + len(unknown))

    rec([], set(), {}, 1)
    members = [frozenset(img) for _, img in best[0]]
    nprime = max((i for m in members for i in m), default=0)
    return presentation(nprime, p.k, members)
