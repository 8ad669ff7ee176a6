"""Exhaustive checks, on every small instance, of the claims that let
`solve` and `mincost` run fewer levels than the paper's derived instance.

An instance is labelled: a bipartite graph on fixed sides plus strict
preference lists. Only |A| > |B| is checked, since elsewhere the level
count T = `gstar._n_levels` is |A| already. For each instance:
- (a) the stable matchings of the T-level derived instance project onto
  exactly `oracle.brute_popular_max`;
- (b) the A-proposing run gives the same matching at T and at |A| levels,
  and its levels differ by |A| - T on the deficient part D (the A-nodes
  reached from unmatched ones by even alternating paths, and their
  neighbors) and nowhere else;
- (c) on every 0/1 cost vector, `min_cost_popular_max` (T levels) gives
  the matching of |A| levels, at the cost of
  `oracle.brute_min_cost_popular_max`.

Tier-1 checks (a) and (b) on every instance of shapes 2x1, 3x1, 4x1 and
3x2 (5, 16, 65 and 847 instances) and on one instance per relabelling of A
of shape 4x2 (1,125 of 26,669), and (c) on every instance up to 4x1 and
on one per relabelling of A of shape 3x2 (144 of 847). The full sweep,
(a) and (b) on every instance up to 4x2 and (c) on every instance up to
3x2, runs as a script:
`PYTHONPATH=src python tests/test_small_world.py --full`.
"""

from __future__ import annotations

import sys
from itertools import permutations, product

from popmax import Instance, gstar, mincost
from popmax.oracle import brute_min_cost_popular_max, brute_popular_max, enumerate_stable

SHAPES = ((2, 1), (3, 1), (4, 1), (3, 2), (4, 2))


def _b_lists(na: int, nb: int, canonical: bool, named: int = 0):
    """Every tuple of nb preference lists over A-indices. When canonical,
    indices from `named` up first appear in increasing order with no gap,
    which keeps one tuple per relabelling of A."""
    if nb == 0:
        yield ()
        return
    for r in range(na + 1):
        for lst in permutations(range(na), r):
            fresh = [i for i in lst if i >= named]
            if canonical and fresh != list(range(named, named + len(fresh))):
                continue
            for rest in _b_lists(na, nb - 1, canonical, max([named, *(i + 1 for i in lst)])):
                yield (lst,) + rest


def instances(na: int, nb: int, canonical: bool = False):
    """Every labelled instance with sides na x nb, or with `canonical` one
    per relabelling of A."""
    side_a = tuple(f"a{i}" for i in range(na))
    side_b = tuple(f"b{j}" for j in range(nb))
    for lists in _b_lists(na, nb, canonical):
        prefs = {b: tuple(side_a[i] for i in lst) for b, lst in zip(side_b, lists)}
        neighbors = [[b for b, lst in zip(side_b, lists) if i in lst] for i in range(na)]
        for a_lists in product(*map(permutations, neighbors)):
            prefs.update(zip(side_a, a_lists))
            yield Instance(side_a, side_b, prefs)


def _deficient(inst, m) -> set:
    """The A-nodes reached from m's unmatched A-nodes by even alternating
    paths, and their neighbors."""
    todo = [a for a in inst.side_a if not m.is_matched(a)]
    part = set(todo)
    while todo:
        for b in inst.prefs[todo.pop()]:
            part.add(b)
            a = m.partner[b]
            if a not in part:
                part.add(a)
                todo.append(a)
    return part


def check_levels(inst) -> None:
    """Claims (a) and (b) on one instance."""
    t, n = gstar._n_levels(inst), len(inst.side_a)
    gs = gstar._named(gstar._tables(inst, t))
    projected = {gstar.project(gs, s).pairs for s in enumerate_stable(gs.inner)}
    assert projected == {m.pairs for m in brute_popular_max(inst)}, inst
    m, level = gstar._level_run(inst, t)
    m_n, level_n = gstar.level_proposals(inst)
    assert m.pairs == m_n.pairs, inst
    part = _deficient(inst, m)
    assert {u: level[u] + (n - t) * (u in part) for u in level} == level_n, inst


def check_costs(inst) -> None:
    """Claim (c) on every 0/1 cost vector of one instance."""
    n = len(inst.side_a)
    for bits in product((0, 1), repeat=len(inst.edges)):
        costed = Instance(inst.side_a, inst.side_b, inst.prefs, dict(zip(inst.edges, bits)))
        res = mincost.min_cost_popular_max(costed)
        assert res.matching.pairs == mincost._min_cost(costed, n).matching.pairs, costed
        assert res.cost == brute_min_cost_popular_max(costed)[1], costed


def sweep(na: int, nb: int, canonical: bool, check) -> int:
    """Run `check` on each instance of the shape; returns how many."""
    count = 0
    for inst in instances(na, nb, canonical):
        check(inst)
        count += 1
    return count


def test_level_claims_on_small_shapes():
    counts = [sweep(na, nb, (na, nb) == (4, 2), check_levels) for na, nb in SHAPES]
    assert counts == [5, 16, 65, 847, 1125]


def test_min_cost_claim_on_small_shapes():
    counts = [sweep(na, nb, (na, nb) == (3, 2), check_costs) for na, nb in SHAPES[:4]]
    assert counts == [5, 16, 65, 144]


def full_sweep() -> None:
    for na, nb in SHAPES:
        print(f"(a), (b) {na}x{nb}: {sweep(na, nb, False, check_levels)} instances")
    for na, nb in SHAPES[:4]:
        print(f"(c) {na}x{nb}: {sweep(na, nb, False, check_costs)} instances")


if __name__ == "__main__":
    if sys.argv[1:] != ["--full"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_small_world.py --full")
    full_sweep()
