"""Characterization verifier and Pareto checker against the oracle."""

from __future__ import annotations

import pytest

from popmax import (
    NotMaximumError,
    apply_witness,
    build_alternating_digraph,
    compare,
    format_witness,
    is_maximum,
    is_pareto_optimal,
    verify_popular_max,
)
from popmax.oracle import (
    brute_popular_max,
    brute_unpopularity_factor,
    enum_matchings,
)

from conftest import chain, mk, random_cases


def test_digraph_arc_count(i1, i2):
    m = mk(i2, ("a1", "b1"), ("a2", "b2"))
    dg = build_alternating_digraph(i2, m)
    assert len(dg.arcs) == len(i2.edges) - len(m.pairs)


def test_digraph_build_does_not_revalidate_edges(monkeypatch):
    from popmax import Instance, gale_shapley, random_instance, wt_edge

    inst = random_instance(30, 30, 0.2, 5)
    m = gale_shapley(inst)
    expected = [(a, b, wt_edge(inst, m, (a, b)))
                for a, b in inst.edges if m.partner_of(a) != b]

    def refuse(*_args):
        raise AssertionError("edge re-validated while building the digraph")

    monkeypatch.setattr(Instance, "as_edge", refuse)
    monkeypatch.setattr(Instance, "has_edge", refuse)
    dg = build_alternating_digraph(inst, m)
    assert [(a, b, w) for _src, _dst, a, b, w in dg.arcs] == expected


def _random_maximum(inst, rng):
    """A maximum matching grown from a greedy one over shuffled edges by
    augmenting along the paths `is_maximum` returns."""
    from popmax import Matching

    edges = list(inst.edges)
    rng.shuffle(edges)
    pairs, used = set(), set()
    for a, b in edges:
        if a not in used and b not in used:
            pairs.add((a, b))
            used.update((a, b))
    m = Matching(frozenset(pairs))
    while True:
        maximum, path = is_maximum(inst, m)
        if maximum:
            return m
        m = Matching(m.pairs ^ {inst.as_edge(u, v) for u, v in zip(path, path[1:])})


def test_cut_scan_agrees_with_wt_edge():
    """The weights read from partner-rank cuts equal `wt_edge`, edge for
    edge, on maximum matchings that are not stable and leave nodes with
    neighbors unmatched on both sides: the scan itself, the digraph's arcs,
    the blocking arcs Pareto reads, `blocking_edges`, and the (F) lines of
    `verify_certificate` on the all-zero certificate."""
    import random

    from popmax import (
        DualCertificate,
        Instance,
        blocking_edges,
        random_instance,
        verify_certificate,
        wt_edge,
    )
    from popmax.core import _blocking, _weights

    rng = random.Random(17)
    checked = f_lines = dominated = 0
    for seed in range(60):
        # side by side, a part with more A-nodes and one with more B-nodes
        parts = ((random_instance(rng.randint(4, 7), rng.randint(2, 4), 0.5, seed), "p"),
                 (random_instance(rng.randint(2, 4), rng.randint(4, 7), 0.5, seed + 1000), "q"))
        inst = Instance(tuple(u + t for part, t in parts for u in part.side_a),
                        tuple(u + t for part, t in parts for u in part.side_b),
                        {u + t: tuple(v + t for v in lst)
                         for part, t in parts for u, lst in part.prefs.items()})
        m = _random_maximum(inst, rng)
        wt = {e: wt_edge(inst, m, e) for e in inst.edges}
        if not (2 in wt.values()
                and any(inst.prefs[a] and not m.is_matched(a) for a in inst.side_a)
                and any(inst.prefs[b] and not m.is_matched(b) for b in inst.side_b)):
            continue
        checked += 1
        assert list(_weights(inst, m)) == [(a, b, wt[a, b]) for a, b in inst.edges]
        dg = build_alternating_digraph(inst, m)
        assert [arc[2:] for arc in dg.arcs] == \
            [(a, b, wt[a, b]) for a, b in inst.edges if m.partner_of(a) != b]
        assert all(arc[:2] == (dg.vertex_of[arc[2]], dg.vertex_of[arc[3]]) for arc in dg.arcs)
        blocking = [e for e in inst.edges if wt[e] == 2]
        assert list(_blocking(inst, m)) == blocking_edges(inst, m) == blocking
        verdict = is_pareto_optimal(inst, m)
        if not verdict.pareto:
            dominated += 1
            assert all(wt[e] == 2 for e in verdict.witness.edges if e not in m.pairs)
        top = 2 * (len(m) - 1)
        expected = []
        for a, b in inst.edges:
            if m.is_matched(a) or m.is_matched(b):
                s = 0 if m.is_matched(a) else -top
                if s < wt[a, b]:
                    expected.append(f"F: alpha[{a}] + alpha[{b}] = {s} < wt = {wt[a, b]} at ({a},{b})")
        report = verify_certificate(inst, m, DualCertificate(dict.fromkeys(m.partner, 0), len(m)))
        assert [v for v in report.violations if v.startswith("F:")] == expected
        f_lines += len(expected)
    assert checked >= 40 and f_lines >= 200 and dominated >= 3


def test_verifier_accepts_i1_perfect(i1):
    m = mk(i1, ("a1", "b1"), ("a2", "b2"))
    verdict = verify_popular_max(i1, m)
    assert verdict.popular and verdict.witness is None


def test_verifier_rejects_i3_with_path_witness(i3):
    m = mk(i3, ("a3", "b1"))
    verdict = verify_popular_max(i3, m)
    assert not verdict.popular
    assert format_witness(m, verdict.witness) == "path: a1 (b1,a3) wt=2"


def test_stable_maximum_is_popular(i2):
    from popmax import gale_shapley

    m = gale_shapley(i2)
    assert verify_popular_max(i2, m).popular


def test_verifier_requires_maximum(i1):
    with pytest.raises(NotMaximumError):
        verify_popular_max(i1, mk(i1, ("a2", "b1")))


def test_pareto_i5_cycle_witness(i5):
    m = mk(i5, ("a1", "b1"), ("a2", "b2"))
    verdict = is_pareto_optimal(i5, m)
    assert not verdict.pareto
    assert verdict.witness.kind == "cycle"
    flipped = apply_witness(m, verdict.witness)
    assert compare(i5, flipped, m) == (4, 0, 4)


def test_pareto_cycle_closes_on_a_vertex_still_on_the_path():
    """The search enters b2 from the root, then b1, whose arc back to b2
    closes the cycle while b2 is still on the path. A search that marked an
    entered vertex as finished would miss it and call M Pareto-optimal,
    which the oracle refutes (a matching beats M unopposed)."""
    from popmax import parse_instance

    inst = parse_instance(
        "side A a0 a1 a2\nside B b0 b1 b2\n"
        "pref a0: b2 b0\npref a1: b1 b2\npref a2: b2 b1\n"
        "pref b0: a0\npref b1: a1 a2\npref b2: a0 a2 a1\n")
    m = mk(inst, ("a0", "b0"), ("a1", "b2"), ("a2", "b1"))
    assert brute_unpopularity_factor(inst, m) == float("inf")
    verdict = is_pareto_optimal(inst, m)
    assert not verdict.pareto
    assert format_witness(m, verdict.witness) == "cycle: (b2,a1) (b1,a2) wt=4"
    tally = compare(inst, apply_witness(m, verdict.witness), m)
    assert tally.phi_mn > 0 and tally.phi_nm == 0


def test_pareto_path_enters_each_vertex_once():
    """The path search enters each vertex by the first arc that reaches it
    in breadth-first order: (b3,a3) is reached from (b1,a1) and again from
    (b2,a2), one level out from a0, and the witness runs through (b1,a1).
    A search that entered a vertex again would return the path through
    (b2,a2), and on a layered digraph its frontier would double with each
    layer."""
    from popmax import parse_instance

    inst = parse_instance(
        "side A a0 a1 a2 a3\nside B b1 b2 b3 b4\n"
        "pref a0: b1 b2\npref a1: b3 b1\npref a2: b3 b2\npref a3: b4 b3\n"
        "pref b1: a0 a1\npref b2: a0 a2\npref b3: a1 a2 a3\npref b4: a3\n")
    m = mk(inst, ("a1", "b1"), ("a2", "b2"), ("a3", "b3"))
    verdict = is_pareto_optimal(inst, m)
    assert not verdict.pareto
    assert format_witness(m, verdict.witness) == "path: a0 (b1,a1) (b3,a3) b4 wt=6"
    tally = compare(inst, apply_witness(m, verdict.witness), m)
    assert tally.phi_mn > 0 and tally.phi_nm == 0


def test_pareto_stable_matching(i2):
    from popmax import gale_shapley

    assert is_pareto_optimal(i2, gale_shapley(i2)).pareto


def test_pareto_i1_oracle_decides(i1):
    # brute force over all N: nothing dominates {(a2,b1)}, so it is
    # Pareto-optimal even though its augmenting path exists.
    m = mk(i1, ("a2", "b1"))
    truth = brute_unpopularity_factor(i1, m) != float("inf")
    assert is_pareto_optimal(i1, m).pareto == truth
    assert truth


def test_oracle_equivalence_and_witness_soundness():
    """Verdicts match the brute-force definition on every matching of small
    random instances; negative witnesses beat the matching by at least one
    vote among maximum matchings."""
    for _seed, inst in random_cases(60, 4, 5000):
        pops = {frozenset(m.pairs) for m in brute_popular_max(inst, bound=30)}
        for m in enum_matchings(inst, bound=30):
            maximum, _ = is_maximum(inst, m)
            if not maximum:
                with pytest.raises(NotMaximumError):
                    verify_popular_max(inst, m)
                continue
            verdict = verify_popular_max(inst, m)
            assert verdict.popular == (frozenset(m.pairs) in pops)
            if not verdict.popular:
                flipped = apply_witness(m, verdict.witness)
                assert is_maximum(inst, flipped)[0]
                assert compare(inst, flipped, m).delta >= 1
                assert verdict.witness.weight >= 2


def test_pareto_oracle_equivalence_and_witnesses():
    for _seed, inst in random_cases(50, 4, 5100):
        for m in enum_matchings(inst, bound=30):
            verdict = is_pareto_optimal(inst, m)
            truth = brute_unpopularity_factor(inst, m, bound=30) != float("inf")
            assert verdict.pareto == truth
            if not verdict.pareto:
                flipped = apply_witness(m, verdict.witness)
                tally = compare(inst, flipped, m)
                assert tally.phi_mn > 0 and tally.phi_nm == 0


def test_popular_implies_pareto():
    for _seed, inst in random_cases(40, 4, 5200):
        for m in enum_matchings(inst, bound=30):
            if not is_maximum(inst, m)[0]:
                continue
            if verify_popular_max(inst, m).popular:
                assert is_pareto_optimal(inst, m).pareto


def test_cycle_witness_preferred_over_path():
    """When both positive structures exist the cycle is reported."""
    from popmax import parse_instance

    # a3 unmatched gives a positive path; a1/a2 swap gives a positive cycle.
    inst = parse_instance(
        "side A a1 a2 a3\nside B b1 b2\n"
        "pref a1: b2 b1\npref a2: b1 b2\npref a3: b1\n"
        "pref b1: a2 a1 a3\npref b2: a1 a2\n")
    m = mk(inst, ("a1", "b1"), ("a2", "b2"))
    verdict = verify_popular_max(inst, m)
    assert not verdict.popular
    assert verdict.witness.kind == "cycle"


def _planted_swap(n):
    """n pairs (a_i, b_i) chained by weight -2 arcs a_i -> b_(i+1), plus one
    blocking swap between the first two pairs: a0-b1 and a1-b0 both have
    weight 2, so the only positive structure is a cycle of weight 4."""
    from popmax import parse_instance

    lines = ["side A " + " ".join(f"a{i}" for i in range(n)),
             "side B " + " ".join(f"b{i}" for i in range(n)),
             "pref a0: b1 b0", "pref b0: a1 a0", "pref a1: b0 b1 b2", "pref b1: a0 a1"]
    for i in range(2, n):
        lines.append(f"pref a{i}: b{i}" + (f" b{i + 1}" if i + 1 < n else ""))
        lines.append(f"pref b{i}: a{i} a{i - 1}")
    inst = parse_instance("\n".join(lines) + "\n")
    return inst, mk(inst, *((f"a{i}", f"b{i}") for i in range(n)))


def test_cycle_rejection_stops_after_first_sweeps(monkeypatch):
    """A short positive cycle is reported as soon as it closes in the
    predecessor graph: after the first improving round, not after n+1
    rounds over the arcs. The rounds are counted as `_rounds_and_verdicts`
    counts them, through `popularity._pred_cycle`, which the pass calls
    once after each round that raised a value."""
    from popmax import popularity

    rounds = [0]
    pred_cycle = popularity._pred_cycle

    def counted(pred):
        rounds[0] += 1
        return pred_cycle(pred)

    monkeypatch.setattr(popularity, "_pred_cycle", counted)
    inst, m = _planted_swap(500)
    verdict = verify_popular_max(inst, m)
    assert not verdict.popular
    assert format_witness(m, verdict.witness) == "cycle: (b0,a0) (b1,a1) wt=4"
    assert rounds[0] == 1


def _locals_at_return(func, *args):
    """The local variables of func's frame as it returns from func(*args),
    read by a profile hook."""
    import sys

    seen = {}

    def hook(frame, event, _arg):
        if event == "return" and frame.f_code is func.__code__:
            seen.update(frame.f_locals)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        func(*args)
    finally:
        sys.setprofile(previous)
    return seen


def test_both_passes_read_one_arc_layout():
    """The round pass relaxes `build_alternating_digraph`'s arcs in order
    with the names dropped; Pareto's per-vertex lists are exactly the
    weight-2 arcs grouped by source, in `inst.edges` order; and each arc's
    edge, read off the vertex table, is the next non-matching edge in
    `inst.edges` order, whose `wt_edge` is the arc's weight. Each pass's
    arcs are read off its frame as it returns, on seeded random instances
    (their popular max-matching and a random maximum one) and on every
    maximum matching of small ones."""
    import random

    from popmax import popular_max_matching, popularity, random_instance, wt_edge

    rng = random.Random(39)
    cases = []
    for seed in range(40):
        inst = random_instance(rng.randint(2, 12), rng.randint(2, 12), rng.choice((0.2, 0.5, 0.9)), seed)
        cases += [(inst, popular_max_matching(inst)), (inst, _random_maximum(inst, rng))]
    for _seed, inst in random_cases(40, 4, 3900):
        cases += [(inst, m) for m in enum_matchings(inst, bound=30) if is_maximum(inst, m)[0]]
    blocked = rejected = 0
    for inst, m in cases:
        dg = build_alternating_digraph(inst, m)
        rounds = _locals_at_return(popularity._witness_or_potentials, inst, m)
        pareto = _locals_at_return(popularity.is_pareto_optimal, inst, m)
        arcs, vertices = rounds["arcs"], dg.vertices
        assert arcs == [(src, dst, w) for src, dst, _a, _b, w in dg.arcs]
        assert rounds["vertices"] == pareto["vertices"] == vertices
        by_source = [[] for _ in vertices]
        for arc in arcs:
            if arc[2] == 2:
                by_source[arc[0]].append(arc)
        assert pareto["adj"] == by_source
        edges = [(vertices[src][1], vertices[dst][-1]) for src, dst, _w in arcs]
        assert edges == [e for e in inst.edges if e not in m.pairs]
        assert [wt_edge(inst, m, e) for e in edges] == [w for _src, _dst, w in arcs]
        blocked += any(pareto["adj"])
        rejected += not verify_popular_max(inst, m).popular
    assert len(cases) >= 250 and blocked >= 150 and rejected >= 150


def test_cycle_witnesses_are_closed_and_win():
    """Every cycle witness on small seeded instances closes on matched
    nodes only, claims the summed weight of its non-matching edges (at
    least 2), and toggles to a maximum matching that wins by a vote."""
    from popmax import wt_edge

    cycles = 0
    for _seed, inst in random_cases(80, 5, 5300, min_side=3, density=(0.5, 1.0)):
        for m in enum_matchings(inst, bound=60):
            if not is_maximum(inst, m)[0]:
                continue
            witness = verify_popular_max(inst, m).witness
            if witness is None or witness.kind != "cycle":
                continue
            cycles += 1
            assert len(set(witness.nodes)) == len(witness.nodes)
            assert all(m.partner_of(u) is not None for u in witness.nodes)
            outside = [e for e in witness.edges if e not in m.pairs]
            assert len(outside) * 2 == len(witness.edges)
            assert witness.weight == sum(wt_edge(inst, m, e) for e in outside) >= 2
            flipped = apply_witness(m, witness)
            assert is_maximum(inst, flipped)[0]
            assert compare(inst, flipped, m).delta >= 1
    assert cycles >= 50


def _rounds_and_verdicts(monkeypatch, inst, m):
    """The improving rounds of `verify_popular_max`'s pass on m, counted by
    wrapping `popularity._pred_cycle`, which runs once after each round
    that raised a value; and m's three verdicts, each checked."""
    from popmax import certify_popular_max, popularity, verify_certificate

    rounds = [0]
    pred_cycle = popularity._pred_cycle

    def counted(pred):
        rounds[0] += 1
        return pred_cycle(pred)

    monkeypatch.setattr(popularity, "_pred_cycle", counted)
    assert verify_popular_max(inst, m).popular
    monkeypatch.setattr(popularity, "_pred_cycle", pred_cycle)
    assert verify_certificate(inst, m, certify_popular_max(inst, m)).ok
    assert is_pareto_optimal(inst, m).pareto
    return rounds[0]


@pytest.mark.parametrize("ladder", [False, True], ids=["chain", "ladder"])
def test_popularity_rounds_on_the_chain_families(monkeypatch, ladder):
    """On the chain and ladder families M is popular, certified and
    Pareto-optimal. Declared in natural order the pass converges in one
    improving round. Reversed, each round carries the values one arc
    against the path, so it takes L - 1 rounds: today's bound, which a pass
    whose cost does not depend on the input order would lower."""
    for size in (200, 400):
        assert _rounds_and_verdicts(monkeypatch, *chain(size, ladder)) == 1
    for size in (250, 500, 1000):
        assert _rounds_and_verdicts(monkeypatch, *chain(size, ladder, reverse=True)) == size - 1
