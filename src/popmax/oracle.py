"""Exponential-time ground truth used to cross-validate every solver.

The brute-force routines transcribe a definition over exhaustive
enumeration, share no logic with the polynomial-time code paths, and refuse
to run past their edge-count bound. The stable-matching lattice enumerator
(`enumerate_stable`) is output-polynomial instead: it is built on
`mincost.find_rotations`, and `test_closed_subset_bijection_and_topo_independence`
checks it against `enum_matchings` + `is_stable`.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Instance, Matching, compare, make_matching, matching_cost
from .errors import BoundExceededError
from .mincost import RotationPoset, _eliminate_closed, find_rotations

DEFAULT_BOUND = 24


def enum_matchings(inst: Instance, bound: int = DEFAULT_BOUND) -> list[Matching]:
    """All matchings of the instance, including the empty one.

    By prefix extension over the edges, with no recursion: the matchings of
    the first i + 1 edges are those of the first i, then, with edge i added,
    each of them that leaves both its ends free; so each is listed once.
    Refuses instances with more than `bound` edges.
    """
    edges = inst.edges
    if len(edges) > bound:
        raise BoundExceededError(
            f"enumeration bound exceeded: {len(edges)} edges > bound {bound}")
    out = [Matching(())]
    for a, b in edges:
        out += [Matching(m.pairs | {(a, b)}) for m in out
                if a not in m.partner and b not in m.partner]
    return out


def enum_max_matchings(inst: Instance, bound: int = DEFAULT_BOUND) -> list[Matching]:
    """All maximum-cardinality matchings."""
    all_matchings = enum_matchings(inst, bound)
    best = max((len(m) for m in all_matchings), default=0)
    return [m for m in all_matchings if len(m) == best]


def brute_popular_max(inst: Instance, bound: int = DEFAULT_BOUND) -> list[Matching]:
    """All maximum matchings M with delta(M, N) >= 0 against every maximum N."""
    maxes = enum_max_matchings(inst, bound)
    return [m for m in maxes if all(compare(inst, m, n).delta >= 0 for n in maxes)]


def brute_min_cost_popular_max(inst: Instance, bound: int = DEFAULT_BOUND) -> tuple[Matching, int]:
    """Cheapest popular max-matching; ties broken by lexicographic edge list."""
    candidates = brute_popular_max(inst, bound)
    best = min(candidates, key=lambda m: (matching_cost(inst, m), sorted(m.pairs)))
    return best, matching_cost(inst, best)


def unpopularity_ratio(phi_nm: int, phi_mn: int) -> Fraction | float:
    """phi(N,M)/phi(M,N) with the conventions used for u(M)."""
    if phi_nm == 0:
        return Fraction(0)
    if phi_mn == 0:
        return float("inf")
    return Fraction(phi_nm, phi_mn)


def brute_unpopularity_factor(inst: Instance, m: Matching,
                              bound: int = DEFAULT_BOUND) -> Fraction | float:
    """max over N != M of phi(N,M)/phi(M,N); inf when some N wins unopposed.

    Matchings N with phi(N,M) = 0 contribute 0; the 0/0 corner never takes
    the max because of that convention.
    """
    worst: Fraction | float = Fraction(0)
    for n in enum_matchings(inst, bound):
        if n.pairs == m.pairs:
            continue
        tally = compare(inst, n, m)
        ratio = unpopularity_ratio(tally.phi_mn, tally.phi_nm)
        if ratio == float("inf"):
            return float("inf")
        if ratio > worst:
            worst = ratio
    return worst


def closed_subsets(poset: RotationPoset) -> list[frozenset[int]]:
    """All downward-closed rotation sets, in prefix order: the closed sets of
    rotations 0..r-1, then, with r added, each of them that holds r's
    predecessors. Rotation indices are an elimination order (every
    predecessor of r comes before r), so each closed set is listed once."""
    out = [frozenset()]
    for r, preds in enumerate(poset.preds):
        out += [s | {r} for s in out if s.issuperset(preds)]
    return out


def matching_of_closed_subset(poset: RotationPoset, subset: frozenset[int]) -> Matching:
    """Eliminate a closed subset from `base` in index order (an elimination order)."""
    return make_matching(poset.instance, _eliminate_closed(poset.base.pairs, poset.cycles, subset))


def eliminate(inst: Instance, m: Matching, cycle: tuple[tuple[str, str], ...]) -> Matching:
    """The matching left by eliminating the rotation `cycle` from m; raises
    InternalError unless every pair of the cycle is in m (it is exposed)."""
    return make_matching(inst, _eliminate_closed(m.pairs, (cycle,), (0,)))


def enumerate_stable(inst: Instance) -> list[Matching]:
    """All stable matchings via closed subsets of the rotation poset; exact
    and duplicate-free."""
    poset = find_rotations(inst)
    return [matching_of_closed_subset(poset, s) for s in closed_subsets(poset)]
