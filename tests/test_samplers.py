"""The samplers against the draw loops they replaced.

random_generic and solve_on_variety decide every draw on its integer rows
and build one Arrangement, for the draw they return.  The oracles in
conftest keep the earlier loops, which wrapped each draw in Fractions and
rejected it in up to four separate tests.  Both must return the same
arrangement, or fail with the same text, and every rejecting branch of the
oracles must fire somewhere in the grid.  The samplers' normals are the int
rows they drew, which the constructor keeps as its rows, with scale 1.
"""

import collections
import json

from discrarr.arrangement import RetryBudgetExceeded, random_generic
from discrarr.presentations import wheel
from discrarr.varieties import (VarietyFamily, WheelLabeling, family_by_name,
                                merged_wheel_family, solve_on_variety)
from .conftest import random_generic_oracle, solve_on_variety_oracle

# index 6 has partner 1 in both products, so the equation is
# D(1, v) (D(2,3) D(4,5) - D(2,5) D(3,4)) in the solved normal v and
# vanishes identically when the bracket does: the zero solved normal
SHARED_PARTNER = VarietyFamily("X6", wheel(6), ((1, 6), (2, 3), (4, 5)),
                               ((1, 6), (2, 5), (3, 4)))


def outcome(draw):
    try:
        return draw()
    except RetryBudgetExceeded as e:
        return f"RetryBudgetExceeded: {e}"


def assert_same(got, want, where) -> bool:
    """The sampler's arrangement equals the oracle's, whose normals are
    Fractions, normal by normal and in JSON; its normals are the int rows
    it drew, which are its rows, each of scale 1.  Or both fail with the
    same text; True then."""
    if isinstance(want, str):
        assert got == want, where
        return True
    assert got == want and got.normals == want.normals, where
    assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict()), where
    assert all(type(x) is int for v in got.normals for x in v), where
    assert got.rows == got.normals and got.scales == (1,) * got.n, where
    return False


def test_random_generic_matches_the_fraction_loop():
    fired = collections.Counter()
    failed = 0
    for k in (1, 2, 3, 4):
        for n in (k, k + 2, k + 4):
            for height in (1, 2, 3, 9):
                for seed in range(3):
                    want = outcome(lambda: random_generic_oracle(
                        n, k, seed, height, 16, fired))
                    got = outcome(lambda: random_generic(
                        n, k, seed, height=height, budget=16))
                    failed += assert_same(got, want, (n, k, height, seed))
    assert set(fired) == {"zero normal", "not generic"}
    assert failed


def test_solve_on_variety_matches_the_fraction_loop():
    fired = collections.Counter()
    families = [family_by_name(name) for name in ("W6", "Wd8_4", "W8", "L8", "DW10")]
    families += [merged_wheel_family(WheelLabeling((1, 3, 5, 7), (2, 4, 6, 4))),
                 SHARED_PARTNER]
    failed = 0
    for fam in families:
        for height in (1, 2, 3, 9):
            for seed in range(4):
                for budget in (3, 64):
                    want = outcome(lambda: solve_on_variety_oracle(
                        fam, seed, height, budget, fired))
                    got = outcome(lambda: solve_on_variety(
                        fam, seed, height=height, budget=budget))
                    failed += assert_same(got, want, (fam.name, height, seed, budget))
    assert set(fired) == {"zero normal", "parallel drawn pair",
                          "zero solved normal", "not generic"}
    assert failed
