"""Deferred acceptance and stability checks."""

from __future__ import annotations

from popmax import blocking_edges, gale_shapley, is_stable
from popmax.oracle import enum_matchings

from conftest import b_optimal, mk, random_cases


def _brute_stable(inst):
    return [m for m in enum_matchings(inst, bound=30) if is_stable(inst, m)]


def test_gs_single_edge(i0):
    assert sorted(gale_shapley(i0).pairs) == [("a", "b")]


def test_gs_i1_unique_stable(i1):
    assert sorted(gale_shapley(i1).pairs) == [("a2", "b1")]
    assert [sorted(m.pairs) for m in _brute_stable(i1)] == [[("a2", "b1")]]


def test_gs_i2_both_sides(i2):
    assert sorted(gale_shapley(i2).pairs) == [("a1", "b1"), ("a2", "b2")]
    assert sorted(b_optimal(i2).pairs) == [("a1", "b2"), ("a2", "b1")]
    assert len(_brute_stable(i2)) == 2


def test_blocking_edges_of_stable_empty(i2):
    assert blocking_edges(i2, gale_shapley(i2)) == []


def test_blocking_edges_i1(i1):
    assert blocking_edges(i1, mk(i1, ("a1", "b1"), ("a2", "b2"))) == [("a2", "b1")]


def test_blocking_edges_i3(i3):
    assert blocking_edges(i3, mk(i3, ("a3", "b1"))) == [("a1", "b1"), ("a2", "b1")]


def test_is_stable_examples(i0, i1):
    assert is_stable(i1, gale_shapley(i1))
    assert not is_stable(i1, mk(i1, ("a1", "b1"), ("a2", "b2")))
    assert not is_stable(i0, mk(i0))  # the single edge blocks the empty matching


def test_gs_output_stable_on_randoms():
    for _seed, inst in random_cases(60, 5, 4000):
        assert is_stable(inst, gale_shapley(inst))
        assert is_stable(inst, b_optimal(inst))


def test_all_stable_matchings_same_size():
    for _seed, inst in random_cases(40, 5, 4100):
        sizes = {len(m) for m in _brute_stable(inst)}
        assert len(sizes) == 1


def test_proposer_optimality_per_node():
    for _seed, inst in random_cases(40, 5, 4200):
        best = gale_shapley(inst)
        for m in _brute_stable(inst):
            for a in inst.side_a:
                pa, pm = best.partner_of(a), m.partner_of(a)
                if pm is None:
                    assert pa is None  # stable matchings all match the same nodes
                else:
                    assert pa is not None and inst.rank(a, pa) <= inst.rank(a, pm)
