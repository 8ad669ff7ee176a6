"""The exhaustive ground-truth routines themselves."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest

from popmax import BoundExceededError, random_instance
from popmax.oracle import (
    brute_min_cost_popular_max,
    brute_popular_max,
    brute_unpopularity_factor,
    enum_matchings,
    enum_max_matchings,
)

from conftest import mk, random_cases


def test_enum_counts(i0, i1, i3):
    assert len(enum_matchings(i0)) == 2
    assert len(enum_matchings(i1)) == 5
    assert len(enum_matchings(i3)) == 4


def test_enum_max_counts(i0, i1, i3):
    assert len(enum_max_matchings(i0)) == 1
    assert len(enum_max_matchings(i1)) == 1
    assert len(enum_max_matchings(i3)) == 3


def test_enum_duplicate_free(i1):
    ms = enum_matchings(i1)
    assert len({m.pairs for m in ms}) == len(ms)


def test_enum_matchings_are_the_disjoint_edge_subsets():
    """Each pairwise-disjoint edge subset is listed once, on seeded
    instances with at most 12 edges."""
    checked = 0
    for _seed, inst in random_cases(300, 4, 5100):
        edges = inst.edges
        if len(edges) > 12:
            continue
        want = {frozenset(c) for k in range(len(edges) + 1) for c in combinations(edges, k)
                if len({u for e in c for u in e}) == 2 * k}
        got = [m.pairs for m in enum_matchings(inst)]
        assert len(got) == len(set(got)) and set(got) == want
        checked += 1
    assert checked >= 200


def test_bound_is_loud():
    inst = random_instance(6, 6, 1.0, 1)
    with pytest.raises(BoundExceededError):
        enum_matchings(inst, bound=24)
    enum_matchings(inst, bound=40)


def test_brute_popular_max_fixtures(i1, i2, i3):
    assert [sorted(m.pairs) for m in brute_popular_max(i1)] == [[("a1", "b1"), ("a2", "b2")]]
    got = {frozenset(m.pairs) for m in brute_popular_max(i2)}
    assert got == {frozenset({("a1", "b1"), ("a2", "b2")}),
                   frozenset({("a1", "b2"), ("a2", "b1")})}
    assert [sorted(m.pairs) for m in brute_popular_max(i3)] == [[("a1", "b1")]]


def test_brute_min_cost(i0, i1, i2c):
    m, cost = brute_min_cost_popular_max(i2c)
    assert cost == 0 and sorted(m.pairs) == [("a1", "b2"), ("a2", "b1")]
    _m, cost0 = brute_min_cost_popular_max(i0)
    assert cost0 == 0
    _m, cost1 = brute_min_cost_popular_max(i1)
    assert cost1 == 0


def test_unpopularity_factor(i0, i2, i5):
    stable = mk(i2, ("a1", "b1"), ("a2", "b2"))
    assert brute_unpopularity_factor(i2, stable) <= 1
    bad = mk(i5, ("a1", "b1"), ("a2", "b2"))
    assert brute_unpopularity_factor(i5, bad) == float("inf")
    assert brute_unpopularity_factor(i0, mk(i0, ("a", "b"))) == Fraction(0)
