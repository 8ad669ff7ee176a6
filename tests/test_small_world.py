"""Exhaustive checks, on every small instance, of the claims that let
`solve` and `mincost` run fewer levels than the paper's derived instance,
and of every public verdict against the brute-force oracle.

An instance is labelled: a bipartite graph on fixed sides plus strict
preference lists. The level claims are checked only for |A| > |B|, since
elsewhere the level count T = `gstar._n_levels` is |A| already. For each
instance:
- (a) the stable matchings of the T-level derived instance project onto
  exactly `oracle.brute_popular_max`, and `GStarTables.read` and `place`
  invert each other on them;
- (b) the A-proposing run gives the same matching at T and at |A| levels,
  and its levels differ by |A| - T on the deficient part D (the A-nodes
  reached from unmatched ones by even alternating paths, and their
  neighbors) and nowhere else;
- (c) on every 0/1 cost vector, `min_cost_popular_max` (T levels) gives
  the matching of |A| levels, at the cost of
  `oracle.brute_min_cost_popular_max`;
- (d) there, at T and at |A| levels, the certificate read off the levels
  of the min-cost stable matching is `certify_popular_max`'s for its
  matching.
`check_verdicts` runs over every matching of an instance of any shape:
`verify_popular_max`, `certify_popular_max`, `is_pareto_optimal` and
`verify_certificate` must agree with the oracle.

Tier-1 checks (a) and (b) on every instance of shapes 2x1, 3x1, 4x1 and
3x2 (5, 16, 65 and 847 instances) and on one instance per relabelling of A
of shape 4x2 (1,125 of 26,669), (c) and (d) on every instance up to 4x1
and on one per relabelling of A of shape 3x2 (144 of 847), and the
verdicts on every instance of shapes 2x2, 2x3 and 3x2 (47, 847 and 847).
The full sweep, (a) and (b) on every instance up to 4x2, (c) and (d) on
every instance up to 3x2, and the verdicts also on one instance per
relabelling of A of shape 3x3 (22,506), there without enumerating
certificates, runs as a script:
`PYTHONPATH=src python tests/test_small_world.py --full`.
"""

from __future__ import annotations

import sys
from itertools import permutations, product

import pytest

from popmax import (
    DualCertificate,
    Instance,
    NotMaximumError,
    NotPopularError,
    certify_popular_max,
    gstar,
    is_pareto_optimal,
    mincost,
    verify_certificate,
    verify_popular_max,
)
from popmax.oracle import (
    brute_min_cost_popular_max,
    brute_popular_max,
    brute_unpopularity_factor,
    enum_matchings,
    enumerate_stable,
)

SHAPES = ((2, 1), (3, 1), (4, 1), (3, 2), (4, 2))
VERDICT_SHAPES = ((2, 2), (2, 3), (3, 2))


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
    """Claims (a) and (b) on one instance, with the read/place round trip
    on every stable matching."""
    t, n = gstar._n_levels(inst), len(inst.side_a)
    gs = gstar._named(gstar._tables(inst, t))
    projected = set()
    for s in enumerate_stable(gs.inner):
        ids = {(gs.ids[u], gs.ids[v]) for u, v in s.pairs}
        m, level = gs.tables.read(ids)
        assert (m, level) == (gstar.project(gs, s), gstar.levels(gs, s)), inst
        assert set(gs.tables.place(m.pairs, level)) == ids, inst
        projected.add(m.pairs)
    assert projected == {m.pairs for m in brute_popular_max(inst)}, inst
    m, level = gstar._level_run(inst, t)
    m_n, level_n = gstar.level_proposals(inst)
    assert m.pairs == m_n.pairs, inst
    part = _deficient(inst, m)
    assert {u: level[u] + (n - t) * (u in part) for u in level} == level_n, inst


def check_costs(inst) -> None:
    """Claims (c) and (d) on every 0/1 cost vector of one instance."""
    n = len(inst.side_a)
    for bits in product((0, 1), repeat=len(inst.edges)):
        costed = Instance(inst.side_a, inst.side_b, inst.prefs, dict(zip(inst.edges, bits)))
        res = mincost.min_cost_popular_max(costed)
        full = mincost._min_cost(costed, n)
        assert res.matching.pairs == full.matching.pairs, costed
        assert res.cost == brute_min_cost_popular_max(costed)[1], costed
        assert res.certificate == certify_popular_max(costed, res.matching), costed
        assert full.certificate == certify_popular_max(costed, full.matching), costed


def check_verdicts(inst, every_certificate: bool = True) -> None:
    """Every verdict on every matching of one instance against the oracle:
    popularity, certification, Pareto-optimality and, with
    `every_certificate`, verification of every certificate in the value
    range (k^(2k) of them on a maximum matching of k pairs)."""
    matchings = enum_matchings(inst)
    k = max(map(len, matchings))
    popular = {m.pairs for m in brute_popular_max(inst)}
    for m in matchings:
        finite = brute_unpopularity_factor(inst, m) != float("inf")
        assert is_pareto_optimal(inst, m).pareto == finite, (inst, m)
        if len(m) < k:
            for verdict in (verify_popular_max, certify_popular_max):
                with pytest.raises(NotMaximumError):
                    verdict(inst, m)
            continue
        assert verify_popular_max(inst, m).popular == (m.pairs in popular), (inst, m)
        if m.pairs in popular:
            assert verify_certificate(inst, m, certify_popular_max(inst, m)).ok, (inst, m)
        else:
            with pytest.raises(NotPopularError):
                certify_popular_max(inst, m)
        if not every_certificate:
            continue
        matched = sorted(m.partner)
        ranges = [range(0, -2 * k, -2) if inst.is_a(u) else range(0, 2 * k, 2) for u in matched]
        for values in product(*ranges):
            cert = DualCertificate(dict(zip(matched, values)), k)
            report = verify_certificate(inst, m, cert)
            assert not report.ok or m.pairs in popular, (inst, m, cert)
            # (Z) is implied by the domain check and (CS)
            failed = {v.split(":")[0] for v in report.violations}
            assert "Z" not in failed or "CS" in failed, (inst, m, cert)


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


def test_verdicts_on_small_shapes():
    counts = [sweep(na, nb, False, check_verdicts) for na, nb in VERDICT_SHAPES]
    assert counts == [47, 847, 847]


def full_sweep() -> None:
    for na, nb in SHAPES:
        print(f"(a), (b) {na}x{nb}: {sweep(na, nb, False, check_levels)} instances")
    for na, nb in SHAPES[:4]:
        print(f"(c), (d) {na}x{nb}: {sweep(na, nb, False, check_costs)} instances")
    for na, nb in VERDICT_SHAPES:
        print(f"verdicts {na}x{nb}: {sweep(na, nb, False, check_verdicts)} instances")
    count = sweep(3, 3, True, lambda inst: check_verdicts(inst, every_certificate=False))
    print(f"verdicts 3x3, one per relabelling of A, no certificate enumeration: {count} instances")


if __name__ == "__main__":
    if sys.argv[1:] != ["--full"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_small_world.py --full")
    full_sweep()
