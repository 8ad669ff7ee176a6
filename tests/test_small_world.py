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
Claim (f) of `min_cost_popular_max`, the stopping rule that lets `mincost`
run fewer levels than T, is checked on the 3x3 instances whose A-proposing
run matches every node with neighbors (`check_stopping_rule`): T = 3 is the
least level count at which the rule can stop below T. On every such 3x3
instance each popular max-matching already has levels in 0..top+1, top the
run's highest level, so stopping at top + 2 levels unconditionally would
pass there too; the seeded squares `FAR_LEVELS` have a popular
max-matching that needs more levels, where the rule must refuse to stop.
The tight-cycle theorem of ROADMAP item 13 (`check_tight_cycles`: the
popular max-matchings are exactly `solve`'s matching toggled by sets of
vertex-disjoint tight cycles that verify popular, and `solve`'s alone when
no tight cycle exists) is checked on every instance `check_levels` and
`check_verdicts` visit, and on 1,366 seeded instances with sides 2-7
(`seeded_up_to_7x7`), where a rule that drops the weight from tightness
fails.
`check_verdicts` runs over every matching of an instance of any shape:
`verify_popular_max`, `certify_popular_max`, `is_pareto_optimal` and
`verify_certificate` must agree with the oracle, and `lift` must turn each
certificate that `verify_certificate` accepts into a stable matching of
the derived instance that projects to its matching.

Tier-1 checks (a) and (b) on every instance of shapes 2x1, 3x1, 4x1 and
3x2 (5, 16, 65 and 847 instances) and on one instance per relabelling of A
of shape 4x2 (1,125 of 26,669), (c) and (d) on every instance up to 4x1
and on one per relabelling of A of shape 3x2 (144 of 847), the verdicts
on every instance of shapes 2x2, 2x3 and 3x2 (47, 847 and 847; 2,591
accepted certificates lifted), and (f) on
the 314 such 3x3 instances, one per relabelling of A and B, with at most 6
edges and on the 4x4 one of `FAR_LEVELS`. The full sweep, (a) and (b) on
every instance up to 4x2, (c) and (d) on every instance up to 3x2, (f) on
all 3,630 such 3x3 instances and on `FAR_LEVELS`, and
the verdicts also on one instance per relabelling of A of shape 3x3
(22,506), there without enumerating certificates, runs as a script:
`PYTHONPATH=src python tests/test_small_world.py --full`.
"""

from __future__ import annotations

import random
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
    is_stable,
    lift,
    mincost,
    random_instance,
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

from conftest import tight_toggles

SHAPES = ((2, 1), (3, 1), (4, 1), (3, 2), (4, 2))
VERDICT_SHAPES = ((2, 2), (2, 3), (3, 2))
# pin-free squares (n, n, density, seed) whose n levels hold a popular
# max-matching that top + 2 levels do not, top the run's highest level
FAR_LEVELS = ((4, 4, 0.7, 937584), (5, 5, 0.7, 120933), (5, 5, 0.7, 839344), (6, 6, 0.5, 786280))


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
    gs = gstar._named(gstar.GStarTables(inst, t))
    projected = set()
    for s in enumerate_stable(gs.inner):
        ids = {(gs.ids[u], gs.ids[v]) for u, v in s.pairs}
        m, level = gs.tables.read(ids)
        assert (m, level) == (gstar.project(gs, s), gstar.levels(gs, s)), inst
        assert set(gs.tables.place(m.pairs, level)) == ids, inst
        projected.add(m.pairs)
    popular = {m.pairs for m in brute_popular_max(inst)}
    assert projected == popular, inst
    check_tight_cycles(inst, popular)
    m, level = gstar._level_run(inst, t)
    m_n, level_n = gstar.level_proposals(inst)
    assert m.pairs == m_n.pairs, inst
    part = _deficient(inst, m)
    assert {u: level[u] + (n - t) * (u in part) for u in level} == level_n, inst


def check_tight_cycles(inst, popular: set) -> bool:
    """The tight-cycle theorem (ROADMAP item 13) on one instance: the
    toggles of `solve`'s matching by vertex-disjoint tight cycles that
    verify popular (`conftest.tight_toggles`) are exactly `popular`, the
    pairs of every popular max-matching, and with no tight cycle `solve`'s
    matching is the only one. Returns whether the tight graph is acyclic."""
    m = gstar.popular_max_matching(inst)
    found, cycles = tight_toggles(inst, m)
    assert len(found) == len(popular) and {n.pairs for n in found} == popular, inst
    assert cycles or found == [m], inst
    return not cycles


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


def _stable_levels(inst, t: int) -> set:
    """Each stable matching of the t-level derived instance, read as its
    projection's pairs and the levels of its matched nodes."""
    gs = gstar._named(gstar.GStarTables(inst, t))
    out = set()
    for s in enumerate_stable(gs.inner):
        m, level = gs.tables.read((gs.ids[u], gs.ids[v]) for u, v in s.pairs)
        out.add((m.pairs, frozenset((u, level[u]) for u in m.partner)))
    return out


def check_stopping_rule(inst) -> int:
    """Claim (f) of `mincost.min_cost_popular_max` on one pin-free instance.

    At every t <= T: the stable matchings of the t-level instance that
    match every node with neighbors are those of T levels with every level
    <= t-1, they are closed under the shifts by +-1 that keep the levels
    in 0..t-1, and all of them match those nodes iff t exceeds the run's
    top level, where the run at t levels is the run at T. Then, on every
    0/1 cost vector over the edges of the popular max-matchings, the route
    gives `mincost._min_cost` at T, and so does the min-cost stable
    matching at every t > top whose levels are all <= t-2. Other edges
    keep cost 0: no pair of a stable matching of the derived instance
    projects onto them, so `mincost` never reads their cost. Returns how
    many (cost vector, t) pairs the rule fired on below T.
    """
    t_all = gstar._n_levels(inst)
    m0, level0 = gstar._level_run(inst, t_all)
    top = max((level0[a] for a, _ in m0.pairs), default=-1)
    covered = {u for u in inst.nodes if inst.prefs[u]}
    assert set(m0.partner) == covered, inst
    stable = {t: _stable_levels(inst, t) for t in range(1, t_all + 1)}
    for t, found in stable.items():
        fit = {s for s in found if set(dict(s[1])) == covered}
        assert fit == {s for s in stable[t_all] if max(dict(s[1]).values(), default=0) <= t - 1}, inst
        for pairs, level in fit:
            for c in (-1, 1):
                if all(0 <= lv + c <= t - 1 for _u, lv in level):
                    assert (pairs, frozenset((u, lv + c) for u, lv in level)) in fit, (inst, t, pairs)
        assert (fit == found) == (t > top), (inst, t)
        if t > top:
            m, level = gstar._level_run(inst, t)
            assert m.pairs == m0.pairs, (inst, t)
            assert all(level[u] == level0[u] for u in m.partner), (inst, t)
    edges = sorted(set().union(*(pairs for pairs, _level in stable[t_all])))
    run = m0, {a: level0[a] for a, _ in m0.pairs}
    fired = 0
    for bits in product((0, 1), repeat=len(edges)):
        costed = Instance(inst.side_a, inst.side_b, inst.prefs, dict(zip(edges, bits)))
        full = mincost._min_cost(costed, t_all)
        assert mincost.min_cost_popular_max(costed) == full, costed
        for t in range(top + 1, t_all):
            res, res_top = mincost._min_cost_run(costed, t, run)
            if res_top <= t - 2:
                assert res == full, (costed, t)
                fired += 1
    return fired


def _pin_free_3x3(keep=lambda inst: True):
    """The 3x3 instances, one per relabelling of A and B, whose A-proposing
    run matches every node with neighbors and that `keep` accepts."""
    seen = set()
    for inst in filter(keep, instances(3, 3, canonical=True)):
        forms = []
        for pa in permutations(inst.side_a):
            for pb in permutations(inst.side_b):
                name = dict(zip(inst.side_a + inst.side_b, pa + pb))
                forms.append(sorted((name[u], [name[v] for v in lst]) for u, lst in inst.prefs.items()))
        form = repr(min(forms))
        if form in seen:
            continue
        seen.add(form)
        m, _level = gstar._level_run(inst, 3)
        if all(u in m.partner for u in inst.nodes if inst.prefs[u]):
            yield inst


def check_verdicts(inst, every_certificate: bool = True) -> int:
    """Every verdict on every matching of one instance against the oracle:
    popularity, certification, Pareto-optimality and, with
    `every_certificate`, verification of every certificate in the value
    range (k^(2k) of them on a maximum matching of k pairs), each accepted
    one lifted to a stable matching of the derived instance that projects
    to its matching. Returns how many certificates were lifted."""
    lifted = 0
    gs = gstar.build_gstar(inst) if every_certificate else None
    matchings = enum_matchings(inst)
    k = max(map(len, matchings))
    popular = {m.pairs for m in brute_popular_max(inst)}
    check_tight_cycles(inst, popular)
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
            if report.ok:
                s = lift(inst, m, cert)
                assert is_stable(gs.inner, s) and gstar.project(gs, s) == m, (inst, m, cert)
                lifted += 1
            # (Z) is implied by the domain check and (CS)
            failed = {v.split(":")[0] for v in report.violations}
            assert "Z" not in failed or "CS" in failed, (inst, m, cert)
    return lifted


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


def test_stopping_rule_on_sparse_3x3_and_a_4x4():
    fired = [check_stopping_rule(inst) for inst in _pin_free_3x3(lambda inst: len(inst.edges) <= 6)]
    assert (len(fired), sum(fired)) == (314, 2157)
    assert check_stopping_rule(random_instance(*FAR_LEVELS[0])) == 352


def seeded_up_to_7x7():
    """Seeded costed instances with sides 2-7 and at most 22 edges, beyond
    the sweep's shapes, where 3x3 cannot tell some rules apart: (seed,
    instance) for each of seeds 0-1,499 that keeps its instance."""
    for seed in range(1500):
        rng = random.Random(seed)
        na, nb = rng.randint(2, 7), rng.randint(2, 7)
        inst = random_instance(na, nb, rng.choice([0.3, 0.5, 0.8]), seed, (0, 9))
        if len(inst.edges) <= 22:
            yield seed, inst


def test_tight_cycles_on_seeded_instances_up_to_7x7():
    """The tight-cycle theorem holds on each seeded instance, and 1,020 of
    the 1,366 have no tight cycle, so a unique popular max-matching. With
    the weight dropped from the tight rule (y[b] == y[a]), the list misses
    the oracle on 32 of them, the first at seed 20: the check tells the
    rules apart."""
    count = acyclic = 0
    missed = []
    for seed, inst in seeded_up_to_7x7():
        count += 1
        popular = {m.pairs for m in brute_popular_max(inst)}
        acyclic += check_tight_cycles(inst, popular)
        found, _cycles = tight_toggles(inst, gstar.popular_max_matching(inst),
                                       tight=lambda ya, w, yb: yb == ya)
        if {n.pairs for n in found} != popular:
            missed.append(seed)
    assert (count, acyclic) == (1366, 1020)
    assert (len(missed), missed[0]) == (32, 20)


def test_verdicts_on_small_shapes():
    lifted = []
    counts = [sweep(na, nb, False, lambda inst: lifted.append(check_verdicts(inst)))
              for na, nb in VERDICT_SHAPES]
    assert counts == [47, 847, 847] and sum(lifted) == 2591


def full_sweep() -> None:
    for na, nb in SHAPES:
        print(f"(a), (b) {na}x{nb}: {sweep(na, nb, False, check_levels)} instances")
    for na, nb in SHAPES[:4]:
        print(f"(c), (d) {na}x{nb}: {sweep(na, nb, False, check_costs)} instances")
    fired = [check_stopping_rule(inst) for inst in _pin_free_3x3()]
    print(f"(f) 3x3 pin-free, one per relabelling of A and B: {len(fired)} instances, "
          f"the rule stopped below T on {sum(fired)} (cost vector, t) pairs")
    for args in FAR_LEVELS:
        print(f"(f) random_instance{args}: the rule stopped below T on "
              f"{check_stopping_rule(random_instance(*args))} (cost vector, t) pairs")
    for na, nb in VERDICT_SHAPES:
        lifted = []
        count = sweep(na, nb, False, lambda inst: lifted.append(check_verdicts(inst)))
        print(f"verdicts {na}x{nb}: {count} instances, {sum(lifted)} accepted certificates lifted")
    count = sweep(3, 3, True, lambda inst: check_verdicts(inst, every_certificate=False))
    print(f"verdicts 3x3, one per relabelling of A, no certificate enumeration: {count} instances")


if __name__ == "__main__":
    if sys.argv[1:] != ["--full"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_small_world.py --full")
    full_sweep()
