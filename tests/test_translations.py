"""The translation layer on the arrangement's cone against the Fraction-
Matrix forms it replaced (kept in conftest), over Q and F_7, and its
input checks."""

import re
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discrarr.arrangement import Arrangement, maximal_minor, random_generic
from discrarr.discriminantal import (canonical_presentation, dependency_space,
                                     find_representative, has_common_point,
                                     translated_cone)
from discrarr.linalg import FpElement, PrimeField
from discrarr.presentations import presentation, wheel
from discrarr.svg import concurrent_point_count, render_svg
from .conftest import (canonical_presentation_oracle, dependency_space_oracle,
                       find_representative_oracle, has_common_point_oracle,
                       maximal_minor_oracle)

# numerators stay below 7 in absolute value and denominators below 7, so
# every scalar drawn has a value in F_7 and no nonzero one vanishes there
scalars = st.one_of(st.integers(-4, 4).map(F),
                    st.builds(F, st.integers(-6, 6), st.integers(1, 5)))
units = scalars.filter(bool)


@st.composite
def translated(draw):
    """k = 1..3, up to 6 normals with non-unit denominators, some of them
    scaled copies of earlier ones, and a translation in which each entry
    puts its hyperplane through one of two points (or is drawn freely),
    so that concurrencies occur."""
    k = draw(st.integers(1, 3))
    normals = []
    for _ in range(draw(st.integers(max(2, k), 6))):
        if normals and draw(st.integers(0, 3)) == 0:
            c = draw(units)
            normals.append(tuple(c * x for x in draw(st.sampled_from(normals))))
            continue
        v = draw(st.lists(scalars, min_size=k, max_size=k))
        if not any(v):
            v[draw(st.integers(0, k - 1))] = draw(units)
        normals.append(tuple(v))
    points = draw(st.lists(st.lists(scalars, min_size=k, max_size=k),
                           min_size=2, max_size=2))
    t = []
    for v in normals:
        choice = draw(st.integers(0, 4))
        if choice < 4:
            t.append(sum((x * y for x, y in zip(v, points[choice % 2])), F(0)))
        else:
            t.append(draw(scalars))
    return normals, t


@pytest.mark.parametrize("prime", (None, 7))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_translation_layer_matches_matrix_forms(prime, data):
    normals, t = data.draw(translated())
    k = len(normals[0])
    field = (lambda x: x) if prime is None else PrimeField(prime)
    a = Arrangement(k, tuple(tuple(field(x) for x in v) for v in normals))
    tf = tuple(field(x) for x in t)  # the oracles need the field's elements
    n = a.n
    # over F_7 the library reads Fraction entries of t as residues
    got = canonical_presentation(a, t)
    assert got == canonical_presentation_oracle(a, tf)
    s = data.draw(st.lists(st.integers(1, n), unique=True))
    assert has_common_point(a, t, s) == has_common_point_oracle(a, tf, s)
    s = data.draw(st.lists(st.integers(1, n), min_size=1, unique=True))
    assert dependency_space(a, s) == dependency_space_oracle(a, s)
    if n >= k:
        s = data.draw(st.lists(st.integers(1, n), min_size=k, max_size=k,
                               unique=True))
        assert maximal_minor(a, s) == maximal_minor_oracle(a, s)
    seed = data.draw(st.integers(0, 99))
    for target in (got, presentation(n, k, [])):
        res = find_representative(a, target, seed=seed, budget=2)
        assert res == find_representative_oracle(a, target, seed=seed, budget=2)
        if res.found:
            assert all(type(x) is (F if prime is None else FpElement)
                       for x in res.witness)


def test_translation_length_must_match():
    a = random_generic(5, 2, 1)
    for t in ((0, 0, 0), tuple(range(9))):
        with pytest.raises(ValueError, match="translation length"):
            has_common_point(a, t, {1, 2})
        with pytest.raises(ValueError, match="translation length"):
            canonical_presentation(a, t)


@pytest.mark.parametrize("entry", (0.5, Decimal("0.5"), "1/2"))
def test_non_exact_translation_entries_raise(entry):
    a = random_generic(4, 2, 1)
    t = (0, entry, 0, 0)
    pattern = "translation entry " + re.escape(repr(entry))
    with pytest.raises(TypeError, match=pattern):
        has_common_point(a, t, {1, 2})
    with pytest.raises(TypeError, match=pattern):
        canonical_presentation(a, t)
    with pytest.raises(TypeError, match=pattern):
        render_svg(a, t)


def test_translation_field_must_match():
    a = random_generic(4, 2, 1)
    with pytest.raises(ValueError, match="different fields"):
        translated_cone(a, (FpElement(1, 7), 0, 0, 0))
    fp = PrimeField(7)
    b = Arrangement(2, tuple(tuple(fp(x) for x in v) for v in a.normals))
    assert translated_cone(b, (F(1, 2), 0, 0, 0)).p == 7


def test_find_representative_needs_matching_presentation():
    a = random_generic(6, 2, 1)
    with pytest.raises(ValueError, match="does not fit"):
        find_representative(a, presentation(6, 3, [range(1, 5)]))
    with pytest.raises(ValueError, match="does not fit"):
        find_representative(a, wheel(8))


def test_find_representative_over_prime_field_returns_field_elements():
    fp = PrimeField(7)
    a = random_generic(5, 2, 1)
    b = Arrangement(2, tuple(tuple(fp(x) for x in v) for v in a.normals))
    zero = find_representative(b, presentation(5, 2, [range(1, 6)]))
    assert zero.found and zero.attempts == 1
    assert zero.witness == tuple(FpElement(0, 7) for _ in range(5))
    free = find_representative(b, presentation(5, 2, []), seed=3)
    assert free.found and free.attempts > 1
    assert all(isinstance(x, FpElement) for x in free.witness)


def test_concurrent_point_count_needs_plane_arrangement():
    with pytest.raises(ValueError, match="plane"):
        concurrent_point_count(random_generic(4, 3, 1), (0,) * 4)
