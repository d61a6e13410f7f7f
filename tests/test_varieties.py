import functools
import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discrarr.arrangement import (Arrangement, delete, from_int_columns,
                                  is_generic, pair_det, random_generic, scaled)
from discrarr.discriminantal import dependency_rows, intersection_rank
from discrarr.linalg import (DEFAULT_SCREEN_PRIME, PrimeField, eliminate,
                             integer_form, maximal_minors)
from discrarr.presentations import (expected_rank, format_family,
                                    is_admissible, ladder,
                                    min_expected_rank_above, orbit_canonical,
                                    parse_family, presentation, twin_wheel,
                                    wheel)
from discrarr.varieties import (VarietyFamily, WheelLabeling, _candidates,
                                _distinct_relabelings, _equation_filter,
                                _equation_table, _gen_families, _pair_minors,
                                _products, _rank_mod_p, _support_images,
                                _wheel_family, _size_multisets,
                                audit_arrangement,
                                candidate_presentations, crapo_poly,
                                default_r, eight_line_families,
                                eight_line_report, family_by_name, ladder_poly,
                                membership, merged_wheel_family,
                                solve_on_variety, wheel_labeling_of,
                                wheel_poly)
from .conftest import (crapo_arrangement, equation_keep_oracle, equation_with,
                       rank_oracle)

W6_LAB = WheelLabeling((1, 3, 5), (2, 4, 6))
W6_FAMILY = [{1, 2, 3}, {1, 5, 6}, {2, 4, 6}, {3, 4, 5}]


def test_membership_crapo():
    v = membership(crapo_arrangement(-1), wheel(6), 3)
    assert v.member and v.rank_certificate == 3 and v.field == "Q"
    v = membership(crapo_arrangement(3), wheel(6), 3)
    assert not v.member and v.rank_certificate == 4


def test_membership_default_r():
    v = membership(crapo_arrangement(-1), wheel(6))
    assert v.r == 3 and v.member


def test_membership_over_prime_field():
    fp = PrimeField(1299709)
    a = crapo_arrangement(-1)
    afp = Arrangement(2, tuple(tuple(fp(x) for x in v) for v in a.normals))
    v = membership(afp, wheel(6), 3)
    assert v.member and v.field == "F1299709"


def test_wheel_poly_crapo_values():
    # hub-rim products evaluate to the parameter plus one
    for lam in (-1, 3, 7, F(5, 2)):
        a = crapo_arrangement(lam)
        assert wheel_poly(a, W6_LAB) == F(lam) + 1


def test_wheel_poly_guard_coincident_neighbours():
    a = from_int_columns(2, [(1, 0), (2, 0), (0, 1), (1, 1), (1, 2), (1, 3)])
    with pytest.raises(ValueError):
        wheel_poly(a, W6_LAB, plain=True)  # lines 1 and 2 coincide
    # merged labelings skip the adjacency check
    assert wheel_poly(a, WheelLabeling((3, 4, 5), (6, 6, 6)), plain=False) is not None


def test_crapo_poly_values():
    for lam in (-1, 3, F(-9, 4)):
        assert crapo_poly(crapo_arrangement(lam)) == F(lam) + 1
    assert crapo_poly(crapo_arrangement(-1)) == 0


def test_crapo_poly_seven_label_variant(nine_line):
    # the seven-index pattern specializes to the six-index one when the
    # repeated-index substitution is applied
    rng = random.Random(3)
    for _ in range(10):
        a = random_generic(7, 2, seed=rng.randint(0, 10 ** 6))
        seven = crapo_poly(a, (1, 2, 3, 4, 5, 6, 4))
        six = crapo_poly(a, (1, 2, 3, 4, 5, 6))
        assert seven == pair_det(a, 1, 4) * six


def test_ladder_poly_matches_eight_line_row():
    rng = random.Random(5)
    for _ in range(10):
        a = random_generic(8, 2, seed=rng.randint(0, 10 ** 6))
        d = lambda i, j: pair_det(a, i, j)
        row = (d(1, 7) * d(3, 7) * d(5, 7) * d(2, 8) * d(4, 8) * d(6, 8)
               - d(1, 8) * d(3, 8) * d(5, 8) * d(2, 7) * d(4, 7) * d(6, 7))
        assert ladder_poly(a, 3) == row
    with pytest.raises(ValueError):
        ladder_poly(random_generic(6, 2, seed=1), 3)


def test_eight_line_rows_match_registry():
    rng = random.Random(6)
    for _ in range(6):
        a = random_generic(8, 2, seed=rng.randint(0, 10 ** 6))
        d = lambda i, j: pair_det(a, i, j)
        rows = {
            "W6": d(2, 1) * d(4, 3) * d(6, 5) - d(2, 3) * d(4, 5) * d(6, 1),
            "Wd8_4": d(2, 1) * d(4, 3) * d(6, 5) * d(4, 7)
                     - d(2, 3) * d(4, 5) * d(6, 7) * d(4, 1),
            "W8": d(2, 1) * d(4, 3) * d(6, 5) * d(8, 7)
                  - d(2, 3) * d(4, 5) * d(6, 7) * d(8, 1),
            "L8": d(1, 7) * d(3, 7) * d(5, 7) * d(2, 8) * d(4, 8) * d(6, 8)
                  - d(1, 8) * d(3, 8) * d(5, 8) * d(2, 7) * d(4, 7) * d(6, 7),
            "DW10": d(2, 1) * d(4, 3) * d(6, 5) * d(4, 7) * d(6, 8)
                    - d(2, 3) * d(4, 5) * d(6, 7) * d(4, 8) * d(6, 1),
        }
        for name, value in rows.items():
            assert family_by_name(name).poly(a) == value, name


def test_family_presentations():
    assert family_by_name("W6").pres.members == wheel(6).members
    assert family_by_name("W8").pres.members == wheel(8).members
    assert family_by_name("L8").pres.members == ladder(8).members
    wd = family_by_name("Wd8_4").pres
    assert format_family(wd) == "123,147,246,345,567"
    dw = family_by_name("DW10").pres
    assert format_family(dw) == "123,168,246,345,478,567"
    with pytest.raises(KeyError):
        family_by_name("X9")


def test_default_r_values():
    for name, r in (("W6", 3), ("Wd8_4", 4), ("W8", 5), ("L8", 5), ("DW10", 5)):
        assert default_r(family_by_name(name).pres) == r


def test_default_r_is_the_threshold_below_the_next_rank():
    # default_r is cached on the Presentation itself, with a fixed bound
    pres = [family_by_name(name).pres for name in SHORTCUTS] + \
        list(candidate_presentations(8, 2, 8, False))
    for p in pres:
        assert default_r(p) == min_expected_rank_above(p) - 1
    assert default_r.cache_info().maxsize == 4096


def test_solve_on_variety_wheels():
    a = solve_on_variety("W6", seed=7)
    assert is_generic(a)
    assert wheel_poly(a, W6_LAB) == 0
    assert intersection_rank(a, wheel(6)) == 3
    a8 = solve_on_variety("W8", seed=1)
    assert intersection_rank(a8, wheel(8)) == 5


def test_solve_on_variety_ladder():
    a = solve_on_variety("L8", seed=2)
    assert ladder_poly(a, 3) == 0
    assert intersection_rank(a, ladder(8)) == 5


def test_solve_on_variety_labeling_argument():
    lab = WheelLabeling((1, 3, 5, 7), (2, 4, 6, 4))
    a = solve_on_variety(lab, seed=4)
    assert a.n == 7 and wheel_poly(a, lab, plain=False) == 0


def test_generic_sample_off_variety():
    # off-variety with the double-draw rule: a vanishing value on a random
    # sample is a coincidence to re-seed once, twice in a row is a failure
    seed = 11
    for _ in range(2):
        a = random_generic(8, 2, seed=seed)
        if family_by_name("W8").poly(a) != 0:
            break
        seed += 1
    else:
        pytest.fail("two consecutive vanishing draws")


def test_twin_agreement():
    for seed in range(4):
        a = solve_on_variety("W6", seed=seed)
        m = membership(a, wheel(6), 3).member
        mt = membership(a, twin_wheel(6), 3).member
        assert m and mt
    g = random_generic(6, 2, seed=3)
    assert membership(g, wheel(6), 3).member == \
        membership(g, twin_wheel(6), 3).member == False  # noqa: E712


def test_wheel_labeling_detection():
    lab = wheel_labeling_of(wheel(8))
    assert lab is not None
    assert set(lab.rim) == {1, 3, 5, 7} and set(lab.hubs) == {2, 4, 6, 8}
    lab_d = wheel_labeling_of(family_by_name("DW10").pres)
    assert lab_d is not None and sorted(lab_d.hubs) == [2, 4, 4, 6, 6]
    assert wheel_labeling_of(ladder(8)) is None


def test_eight_line_report_on_witness():
    a = solve_on_variety("W8", seed=1)
    rep = eight_line_report(a)
    assert any(h.family == "W8" and h.labels == (1, 2, 3, 4, 5, 6, 7, 8)
               for h in rep.hits)
    assert all(h.rank <= h.r for h in rep.hits)
    d = rep.to_json_dict()
    assert d["field"] == "Q" and d["hits"]


def test_eight_line_report_on_crapo_extension():
    base = crapo_arrangement(-1)
    a = Arrangement(2, base.normals + ((F(1), F(17)), (F(1), F(23))))
    assert is_generic(a)
    rep = eight_line_report(a)
    assert any(h.family == "W6" and set(h.labels) == {1, 2, 3, 4, 5, 6}
               for h in rep.hits)


def test_eight_line_report_generic_empty():
    seed = 13
    for _ in range(2):
        g = random_generic(8, 2, seed=seed)
        rep = eight_line_report(g)
        if not rep.hits:
            break
        seed += 1
    else:
        pytest.fail("two consecutive full scans with hits on random draws")


def test_enumerate_candidates_small_unions():
    assert [format_family(c) for c in candidate_presentations(6, 2, 6)] == \
        [format_family(orbit_canonical(wheel(6)))]
    cands7 = candidate_presentations(7, 2, 7)
    assert len(cands7) == 2
    assert format_family(orbit_canonical(family_by_name("Wd8_4").pres)) \
        in [format_family(c) for c in cands7]


def test_audit_crapo():
    # the special-parameter configuration is symmetric enough to sit on
    # several quadruple-class instances at once; all certificates are 3,
    # and the classical instance is among them
    a = crapo_arrangement(-1)
    rep = audit_arrangement(a, 6)
    assert rep.hits and all(h.rank == 3 and h.r == 3 for h in rep.hits)
    target = frozenset(frozenset(s) for s in W6_FAMILY)
    found = False
    wclass = orbit_canonical(wheel(6))
    for h in rep.hits:
        support = sorted(wclass.support)
        mapping = dict(zip(support, h.labels))
        image = frozenset(frozenset(mapping[i] for i in s)
                          for s in wclass.members)
        if image == target:
            found = True
    assert found


def test_audit_random_generic_empty():
    seed = 21
    for _ in range(2):
        g = random_generic(6, 2, seed=seed)
        if not audit_arrangement(g, 6).hits:
            break
        seed += 1
    else:
        pytest.fail("two consecutive audits with hits on random draws")


def test_degeneration_of_variety_members():
    # a parallel copy pinned on the wheel variety, then deleted, lands in
    # the merged-wheel variety with the bound dropped by one
    w8 = family_by_name("W8")
    wd = family_by_name("Wd8_4")
    import itertools
    done = 0
    seed = 0
    while done < 6:
        seed += 1
        rng = random.Random(seed)
        normals = {i: (F(rng.randint(-9, 9)), F(rng.randint(-9, 9)))
                   for i in (1, 2, 3, 4, 5, 6)}
        if any(not any(v) for v in normals.values()):
            continue
        normals[8] = normals[4]
        pairs = [(i, j) for i, j in itertools.combinations((1, 2, 3, 4, 5, 6, 8), 2)
                 if (i, j) != (4, 8)]
        if any(normals[i][0] * normals[j][1] == normals[i][1] * normals[j][0]
               for i, j in pairs):
            continue
        cx = equation_with(w8, normals, 7, (F(1), F(0)))
        cy = equation_with(w8, normals, 7, (F(0), F(1)))
        if not cx and not cy:
            continue
        normals[7] = (-cy, cx)
        if not any(normals[7]):
            continue
        if any(normals[7][0] * normals[j][1] == normals[7][1] * normals[j][0]
               for j in (1, 2, 3, 4, 5, 6, 8)):
            continue
        a = Arrangement(2, tuple(normals[i] for i in range(1, 9)))
        assert membership(a, wheel(8), 5).member
        assert membership(delete(a, 8), wd.pres.with_ground(7), 4).member
        done += 1


def test_seven_line_degeneration_instance(crapo):
    # five free lines plus a copy of line 4 in slot 7, solved onto the
    # seven-line quintic variety through line 6; deleting the copy lands
    # in the six-line quartic variety with the bound dropped by one
    seven = presentation(7, 2, [{1, 2, 3}, {1, 4, 7}, {1, 5, 6},
                                {2, 4, 6}, {3, 5, 7}])
    assert default_r(seven) == 4
    done = 0
    seed = 100
    while done < 6:
        seed += 1
        rng = random.Random(seed)
        normals = {i: (F(rng.randint(-9, 9)), F(rng.randint(-9, 9)))
                   for i in (1, 2, 3, 4, 5)}
        if any(not any(v) for v in normals.values()):
            continue
        normals[7] = tuple(F(2) * x for x in normals[4])
        import itertools as it
        pairs = [(i, j) for i, j in it.combinations((1, 2, 3, 4, 5, 7), 2)
                 if (i, j) != (4, 7)]
        if any(normals[i][0] * normals[j][1] == normals[i][1] * normals[j][0]
               for i, j in pairs):
            continue

        def quintic(v6):
            table = dict(normals)
            table[6] = v6
            d = lambda i, j: table[i][0] * table[j][1] - table[i][1] * table[j][0]
            return (d(1, 4) * d(1, 6) * d(2, 7) * d(3, 5)
                    - d(1, 7) * d(1, 5) * d(2, 6) * d(3, 4))

        cx, cy = quintic((F(1), F(0))), quintic((F(0), F(1)))
        if not cx and not cy:
            continue
        normals[6] = (-cy, cx)
        if not any(normals[6]):
            continue
        if any(normals[6][0] * normals[j][1] == normals[6][1] * normals[j][0]
               for j in (1, 2, 3, 4, 5, 7)):
            continue
        a = Arrangement(2, tuple(normals[i] for i in range(1, 8)))
        assert crapo_poly(a, (1, 2, 3, 4, 5, 6, 7)) == 0
        assert membership(a, seven, 4).member
        assert membership(delete(a, 7), wheel(6), 3).member
        done += 1


def test_nine_line_wheel_equations(nine_line):
    # every small-wheel family the nine-line configuration belongs to also
    # satisfies the corresponding product equation
    smalls = [
        ["123", "456", "147", "258", "3678"],
        ["456", "789", "258", "369", "2347"],
    ]
    completions = ["159", "357"]
    t0 = [{1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {1, 4, 7}, {2, 5, 8}, {3, 6, 9}]
    for groups in smalls:
        p = presentation(9, 2, [frozenset(int(c) for c in g) for g in groups])
        lab = wheel_labeling_of(p)
        assert lab is not None
        assert wheel_poly(nine_line, lab, plain=False) == 0
    for extra in completions:
        p = presentation(9, 2, t0 + [set(int(c) for c in extra)])
        lab = wheel_labeling_of(p)
        assert lab is not None and len(lab.rim) == 6
        assert wheel_poly(nine_line, lab, plain=False) == 0


def labelled(p, n):
    """(labels, image) for each image (emb, t) of p in [n], t in the range
    _distinct_relabelings(p, n) gives with emb: labels[j] =
    emb[perms[t][j]], image in p's canonical member order."""
    local, perms = _support_images(p.canonical())
    for emb, ts in _distinct_relabelings(p, n):
        for t in ts:
            labels = tuple(emb[j] for j in perms[t])
            yield labels, tuple(frozenset(labels[j] for j in s) for s in local)


def filtered(p, d, passed):
    """(emb, t, zero) for each image (emb, t) of p in walk order, zero
    telling whether passed(block, emb) yielded t; d is _pair_minors of the
    arrangement's table of minors."""
    for emb, ts in _distinct_relabelings(p, len(d) - 1):
        zeros = set(passed([d[i][j] for i in emb for j in emb], emb))
        for t in ts:
            yield emb, t, t in zeros


def reference_relabelings(p, n):
    """(labels, image) per distinct image of p in [n], lexicographically
    first labels, by enumerating every injective map of the support."""
    support = sorted(p.support)
    seen = set()
    for targets in itertools.permutations(range(1, n + 1), len(support)):
        mapping = dict(zip(support, targets))
        fam = frozenset(frozenset(mapping[i] for i in s) for s in p.members)
        if fam in seen:
            continue
        seen.add(fam)
        yield targets, fam


@pytest.mark.parametrize("p, n", [
    (family_by_name("W6").pres.with_ground(8), 8),
    (family_by_name("Wd8_4").pres.with_ground(8), 8),
    (parse_family("123,145,246,356", 9, 2), 9),
    (parse_family("123,145,167,246,357", 9, 2), 9),
])
def test_relabel_table_matches_full_enumeration(p, n):
    # the walk is embedding-major, so only the set of (labels, image) is
    # compared: one entry per image, with its lexicographically first labels
    got = list(labelled(p, n))
    assert sorted((labels, frozenset(image)) for labels, image in got) == \
        list(reference_relabelings(p, n))
    for labels, image in got:
        mapping = dict(zip(sorted(p.support), labels))
        assert image == tuple(frozenset(mapping[i] for i in s)
                              for s in p.canonical())


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda nc: st.lists(st.lists(st.integers(-6, 6), min_size=nc, max_size=nc),
                        min_size=1, max_size=5)),
    st.sampled_from([2, 3, 5, 7, DEFAULT_SCREEN_PRIME]))
def test_rank_mod_p_is_a_sound_screen(rows, p):
    reduced = [[x % p for x in row] for row in rows]
    full = _rank_mod_p(reduced, p)
    assert full <= rank_oracle(rows)
    for r in range(len(rows) + 1):
        early = _rank_mod_p(reduced, p, r)
        assert early == min(full, r + 1)
        assert (early > r) == (full > r)


def nine_line_grid_relabelled(seed):
    order = list(range(1, 10))
    random.Random(seed).shuffle(order)
    return Arrangement(2, tuple((F(i - 5), F(1)) for i in order))


def over_prime(a, p):
    fp = PrimeField(p)
    return Arrangement(a.k, tuple(tuple(fp(x) for x in v) for v in a.normals))


def generic_over(p, seed, n=8):
    """n lines over F_p with pairwise distinct directions: a seeded
    choice of points of the projective line, each scaled by a unit."""
    fp = PrimeField(p)
    rng = random.Random(seed)
    points = rng.sample([(1, t) for t in range(p)] + [(0, 1)], n)
    units = [rng.randint(1, p - 1) for _ in points]
    return Arrangement(2, tuple((fp(c * x), fp(c * y)) for c, (x, y) in zip(units, points)))


# every class at n' <= 7 is wheel-shaped, so the audit filters by its
# equation, over Q and over F_p, and ranks what passes exactly
@pytest.mark.parametrize("a, nprime_max", [
    (nine_line_grid_relabelled(3), 6), (random_generic(9, 2, seed=8), 6),
    (over_prime(nine_line_grid_relabelled(3), 101), 6),
    (generic_over(11, 5, 9), 6), (generic_over(7, 2, 7), 7),
    (random_generic(9, 2, seed=5), 7), (generic_over(13, 6), 8)],
    ids=["a0", "a1", "a2", "F11", "F7", "Q7", "F13-8"])
def test_screened_audit_equals_exact_scan(a, nprime_max):
    expected = []
    for c in candidate_presentations(a.n, 2, nprime_max, False):
        r = expected_rank(c) - 1
        for labels, image in reference_relabelings(c, a.n):
            rank = intersection_rank(a, image)
            if rank <= r:
                expected.append((format_family(c), labels, r, rank))
    got = [(h.family, h.labels, h.r, h.rank)
           for h in audit_arrangement(a, nprime_max).hits]
    assert got == sorted(expected)


def test_grid_audit_work_counts(nine_line):
    classes = candidate_presentations(9, 2, 7, False)
    assert sum(len(ts) for c in classes for _, ts in _distinct_relabelings(c, 9)) == 17640
    assert len(audit_arrangement(nine_line, 7).hits) == 139


def test_tables_are_kept_per_family():
    # after one eight-line scan and one audit at n' <= 7, whose classes are
    # all wheel-shaped, each table holds exactly the families scanned, and
    # neither scan touched the arrangement's table of minors
    _support_images.cache_clear()
    _equation_table.cache_clear()
    a, b = random_generic(8, 2, 13), random_generic(9, 2, 5)
    eight_line_report(a)
    audit_arrangement(b, 7)
    classes = candidate_presentations(9, 2, 7, False)
    expected = {f.pres.canonical() for f in eight_line_families()} | \
        {c.canonical() for c in classes}
    info = _support_images.cache_info()
    assert info.currsize == len(expected) == 7
    for key in expected:
        _support_images(key)
    assert _support_images.cache_info().hits == info.hits + len(expected)
    assert _equation_table.cache_info().currsize == len(expected)
    for x in (a, b):
        assert x._minors == maximal_minors(x.rows)


SHORTCUTS = ("W6", "W8", "W10", "Wd8_4", "L8", "DW10")
MERGED = (WheelLabeling((1, 3, 5, 7), (2, 4, 6, 4)),
          WheelLabeling((1, 3, 5, 7, 8), (2, 4, 6, 4, 6)),
          WheelLabeling((1, 3, 5, 7, 9, 11), (2, 4, 6, 2, 4, 6)))


def test_family_cache_is_bounded():
    assert family_by_name.cache_info().maxsize is not None


def test_candidates_are_built_once():
    first = candidate_presentations(7, 2, 7)
    assert type(first) is tuple and candidate_presentations(7, 2, 7) is first
    assert _candidates.cache_info().maxsize is not None


def test_candidates_depend_only_on_nprime_max_and_flag():
    first = candidate_presentations(8, 2, 7, False)
    assert candidate_presentations(9, 2, 7, False) is first
    assert candidate_presentations(8, 2, 7, require_rank_defect_families=False) is first
    assert candidate_presentations(9, 2, 7) is candidate_presentations(9, 2, 7, True)
    with pytest.raises(ValueError):
        candidate_presentations(6, 2, 7, False)
    with pytest.raises(ValueError):
        candidate_presentations(8, 3, 7, False)


def test_generated_families_are_admissible():
    # members have size at least 3 and share no index pair, so the
    # generator needs no admissibility filter
    count = 0
    for nprime in range(4, 9):
        for nu in range(-(-2 * nprime // 3), nprime - 1):
            for sizes in _size_multisets(nprime, nu):
                for members in _gen_families(nprime, sizes):
                    assert is_admissible(presentation(nprime, 2, members)), members
                    count += 1
    assert count == 121


def test_family_equations_are_homogeneous():
    fams = [family_by_name(name) for name in SHORTCUTS] + \
        [merged_wheel_family(lab) for lab in MERGED]
    for fam in fams:
        for i in fam.pres.support:
            assert sum(pair.count(i) for pair in fam.left) == \
                sum(pair.count(i) for pair in fam.right), (fam.name, i)
    with pytest.raises(ValueError, match="homogeneous"):
        VarietyFamily("bad", wheel(6), ((1, 2), (3, 4)), ((1, 2), (3, 5)))


def test_integer_products_scale_the_fraction_value():
    # over integer_form-scaled normals, each product picks up the scale of
    # normal i to the number of factors holding i: the same on both sides
    rng = random.Random(12)
    for fam in [family_by_name(name) for name in SHORTCUTS] + \
            [merged_wheel_family(lab) for lab in MERGED]:
        for on in (True, False):
            a = solve_on_variety(fam, rng.randint(0, 999)) if on else \
                random_generic(fam.ground, 2, rng.randint(0, 999))
            for i in range(1, a.n + 1):
                a = scaled(a, i, F(rng.choice((-1, 1)) * rng.randint(1, 9),
                                   rng.randint(1, 9)))
            normals, _, scales = integer_form(a.normals)
            d = _pair_minors(maximal_minors(normals), len(normals))
            value = _products(lambda i, j: d[i][j], fam.left, fam.right)
            degree = math.prod(scales[i - 1] for pair in fam.left for i in pair)
            assert value == fam.poly(a) * degree
            assert (value == 0) == on


def padded(a, seed, n=8):
    """a with seeded integer normals appended until there are n, every
    pair of normals independent."""
    rng = random.Random(seed)
    normals = list(a.normals)
    while len(normals) < n:
        v = (F(rng.randint(-9, 9)), F(rng.randint(-9, 9)))
        if any(v) and all(u[0] * v[1] - u[1] * v[0] for u in normals):
            normals.append(v)
    return Arrangement(2, tuple(normals))


@pytest.mark.parametrize("prime", (None, DEFAULT_SCREEN_PRIME))
def test_eight_line_zero_test_matches_fraction_poly(prime):
    # the old zero test, fam.poly(a, mapping) == 0 in Fractions, against
    # the scan's integer test, passed(block, emb), and against the hits, on
    # every 48th labelling, every image passed and every hit
    samples = [solve_on_variety(name, 5) for name in ("W8", "L8", "DW10")]
    samples += [padded(solve_on_variety("W6", 5), 5), random_generic(8, 2, 5)]
    for a in samples:
        if prime is not None:
            fp = PrimeField(prime)
            a = Arrangement(2, tuple(tuple(fp(x) for x in v) for v in a.normals))
        hits = {(h.family, h.labels) for h in eight_line_report(a).hits}
        d = _pair_minors(a._minors, 8)
        for fam in eight_line_families():
            support = sorted(fam.pres.support)
            perms = _support_images(fam.pres.canonical())[1]
            for u, (emb, t, passed) in enumerate(
                    filtered(fam.pres, d, _equation_filter(fam, a.p))):
                labels = tuple(emb[j] for j in perms[t])
                hit = (fam.name, labels) in hits
                if u % 48 and not passed and not hit:
                    continue
                zero = fam.poly(a, dict(zip(support, labels))) == 0
                assert zero == passed == hit, (fam.name, labels)


@pytest.mark.parametrize("a", [padded(solve_on_variety("W6", 5), 5),
                               generic_over(11, 1), generic_over(13, 1)],
                         ids=["W6-over-Q", "F11", "F13"])
def test_eight_line_prefilter_loses_no_hit(a):
    # every image of W6 and Wd8_4 in [8], ranked exactly, against the scan
    # that ranks only the zeros of the family equation
    assert is_generic(a)
    fams = [family_by_name(name) for name in ("W6", "Wd8_4")]
    expected = []
    walked = 0
    for fam in fams:
        r = default_r(fam.pres.with_ground(8))
        for labels, image in reference_relabelings(fam.pres, 8):
            walked += 1
            rank = intersection_rank(a, image)
            if rank <= r:
                expected.append((fam.name, labels, r, rank))
    assert walked == 4200
    got = [(h.family, h.labels, h.r, h.rank) for h in eight_line_report(a).hits
           if h.family in ("W6", "Wd8_4")]
    assert got == sorted(expected)
    assert got


def wheel_classes():
    """(class, wheel labelling) for every wheel-shaped class at n' <= 8."""
    return [(c, lab) for c in candidate_presentations(9, 2, 8, False)
            if (lab := wheel_labeling_of(c)) is not None]


def planted_nine(index):
    """A nine-line sample on the variety of the index-th wheel class."""
    c, lab = wheel_classes()[index]
    return padded(solve_on_variety(_wheel_family(format_family(c), c, lab), 2), 2, 9)


# a planted sample is checked on its own class only
WHEEL_INPUTS = {"grid": lambda: from_int_columns(2, [(i - 5, 1) for i in range(1, 10)]),
                "random-h3": lambda: random_generic(9, 2, 4, height=3),
                **{f"planted-{i}": functools.partial(planted_nine, i) for i in range(4)},
                "F7": lambda: generic_over(7, 3, 7),
                "F11": lambda: generic_over(11, 3, 9)}


def member_rows_ranker(a):
    """intersection_rank(a, image) with the dependency rows of each member
    set built once: the same rows and elimination, shared across images."""
    minors = maximal_minors(a.rows, a.p)
    cache = {}

    def rank(image):
        rows = []
        for s in image:
            if s not in cache:
                cache[s] = dependency_rows(a.rows, a.p, s, minors)
            rows += cache[s]
        return len(eliminate(rows, a.p)[1])
    return rank, minors


@pytest.mark.parametrize("case", WHEEL_INPUTS)
def test_wheel_equation_is_exact(case):
    # the audit's equation filter passes an image exactly when its exact
    # rank drops: every image at n' <= 7, every 7th at n' = 8; the shared
    # rows are checked against intersection_rank on every passed image and
    # every 50th other one
    a = WHEEL_INPUTS[case]()
    assert is_generic(a)
    rank, minors = member_rows_ranker(a)
    d = _pair_minors(minors, a.n)
    classes = wheel_classes()
    if case.startswith("planted-"):
        classes = [classes[int(case[8:])]]
    walked = drops = 0
    for c, lab in classes:
        if len(c.support) > a.n:
            continue
        r = expected_rank(c) - 1
        passed = _equation_filter(_wheel_family(format_family(c), c, lab), a.p)
        local, perms = _support_images(c.canonical())
        stride = 7 if len(c.support) == 8 else 1
        for u, (emb, t, zero) in enumerate(filtered(c, d, passed)):
            if u % stride:
                continue
            walked += 1
            labels = tuple(emb[j] for j in perms[t])
            image = [frozenset(labels[j] for j in s) for s in local]
            got = rank(image)
            if zero or walked % 50 == 0:
                assert got == intersection_rank(a, image)
            drops += got <= r
            assert zero == (got <= r), (format_family(c), labels)
    assert walked and (drops or case == "random-h3")


def eight_line_planted(name):
    """An eight-line sample on the variety of the named eight-line family."""
    return padded(solve_on_variety(name, 3), 3)


ORACLE_INPUTS = {**{case: WHEEL_INPUTS[case] for case in
                    ("grid", "random-h3", "planted-0", "planted-3", "F7", "F11")},
                 **{f"planted-{name}": functools.partial(eight_line_planted, name)
                    for name in ("W6", "Wd8_4", "W8", "L8", "DW10")},
                 "random-8": lambda: random_generic(8, 2, 6),
                 "F1299709": lambda: over_prime(planted_nine(1), 1299709),
                 "F1299709-8": lambda: over_prime(eight_line_planted("DW10"), 1299709)}


@pytest.mark.parametrize("case", ORACLE_INPUTS)
def test_batched_equation_filter_matches_per_image_oracle(case):
    # passed(block, emb) yields, in order, exactly the t at which the
    # per-image evaluator of tests/conftest.py finds the equation zero:
    # every wheel class at n' <= 8 on every embedding, and the five
    # eight-line families on eight-line inputs
    a = ORACLE_INPUTS[case]()
    assert is_generic(a)
    d = _pair_minors(a._minors, a.n)
    fams = [_wheel_family(format_family(c), c, lab) for c, lab in wheel_classes()]
    if a.n == 8:
        fams += eight_line_families()
    zeros = 0
    for fam in fams:
        if len(fam.pres.support) > a.n:
            continue
        passed, keep = _equation_filter(fam, a.p), equation_keep_oracle(fam, a.p)
        for emb, ts in _distinct_relabelings(fam.pres, a.n):
            block = [d[i][j] for i in emb for j in emb]
            got = list(passed(block, emb))
            assert got == [t for t in ts if keep(block, emb, t)], (fam.name, emb)
            zeros += len(got)
    assert zeros or case.startswith("random")
