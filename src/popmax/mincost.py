"""Exact min-cost popular max-matching and its machinery.

The route: build the derived instance with costs copied onto copy-image
edges (dummy edges free), find a minimum-cost stable matching there, and
project. Min-cost stable matching itself runs on the rotation poset: the
stable matchings of a marriage instance are exactly the eliminations of
downward-closed rotation sets from the proposer-optimal matching, so a
cheapest one is a minimum-weight closed subset, found by max-flow/min-cut.
Everything is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import Instance, Matching, make_matching, matching_cost
from .errors import InternalError, LimitExceededError
from .gstar import build_gstar, copy_name, dummy_name, image_name, project
from .stable import gale_shapley

# ---------------------------------------------------------------------------
# Rotations


@dataclass(frozen=True)
class Rotation:
    """An ordered cycle of matched pairs; eliminating it moves every listed
    man to the next pair's woman (cyclically), every woman to the previous
    pair's man."""

    cycle: tuple[tuple[str, str], ...]

    @property
    def added(self) -> tuple[tuple[str, str], ...]:
        k = len(self.cycle)
        return tuple((self.cycle[i][0], self.cycle[(i + 1) % k][1]) for i in range(k))


@dataclass(frozen=True)
class RotationPoset:
    """All rotations of an instance in one elimination order, with
    predecessor lists; closed subsets (all predecessors included) biject
    onto the stable matchings via elimination from `base`."""

    instance: Instance = field(repr=False)
    rotations: tuple[Rotation, ...]
    preds: tuple[tuple[int, ...], ...]
    base: Matching


def eliminate(inst: Instance, m: Matching, rot: Rotation) -> Matching:
    pairs = set(m.pairs)
    for e in rot.cycle:
        pairs.discard(e)
    pairs.update(rot.added)
    return make_matching(inst, pairs)


def _next_candidate(inst: Instance, m: Matching, man: str) -> str | None:
    """The next woman below `man`'s current partner who would accept him;
    None when his list is exhausted first or the acceptor is unmatched
    (an unmatched acceptor can never be part of a rotation)."""
    lst = inst.prefs[man]
    start = inst.rank(man, m.partner[man]) + 1
    for w in lst[start:]:
        p = m.partner_of(w)
        if p is None:
            return None
        if inst.prefers(w, man, p):
            return w
    return None


def _exposed_rotations(inst: Instance, m: Matching) -> list[Rotation]:
    succ: dict[str, str] = {}
    target: dict[str, str] = {}
    for man in inst.side_a:
        if not m.is_matched(man):
            continue
        w = _next_candidate(inst, m, man)
        if w is not None:
            succ[man] = m.partner[w]
            target[man] = w
    state: dict[str, int] = {}
    rotations = []
    for man in inst.side_a:
        if not m.is_matched(man) or state.get(man):
            continue
        path = []
        u = man
        while u in succ and state.get(u, 0) == 0:
            state[u] = 1
            path.append(u)
            u = succ[u]
        if state.get(u, 0) == 1:
            rotations.append(path[path.index(u):])
        for v in path:
            state[v] = 2
    out = []
    a_index = {a: i for i, a in enumerate(inst.side_a)}
    for cycle_men in rotations:
        pivot = min(range(len(cycle_men)), key=lambda k: a_index[cycle_men[k]])
        cycle_men = cycle_men[pivot:] + cycle_men[:pivot]
        out.append(Rotation(tuple((man, m.partner[man]) for man in cycle_men)))
    out.sort(key=lambda r: a_index[r.cycle[0][0]])
    return out


def find_rotations(inst: Instance, tie_break: str = "min") -> RotationPoset:
    """Discover all rotations by iterated elimination from the man-optimal
    matching and build the precedence DAG.

    Predecessor edges combine two rules: the rotations moving one man form
    a chain in elimination order, and a rotation skipping a man past some
    woman requires the earlier rotation that first lifted that woman's
    partner above him. `tie_break` picks which exposed rotation to
    eliminate first and must not affect the discovered set (a tested
    invariant).
    """
    base = gale_shapley(inst, "A")
    rotations: list[Rotation] = []
    man_moves: dict[str, list[int]] = {}
    woman_moves: dict[str, list[tuple[int, str]]] = {}
    m = base
    while True:
        exposed = _exposed_rotations(inst, m)
        if not exposed:
            break
        rot = exposed[0] if tie_break == "min" else exposed[-1]
        r = len(rotations)
        rotations.append(rot)
        for man, _w in rot.cycle:
            man_moves.setdefault(man, []).append(r)
        k = len(rot.cycle)
        for i in range(k):
            _man, w = rot.cycle[i]
            new_partner = rot.cycle[(i - 1) % k][0]
            woman_moves.setdefault(w, []).append((r, new_partner))
        m = eliminate(inst, m, rot)

    preds: list[set[int]] = [set() for _ in rotations]
    for moves in man_moves.values():
        for earlier, later in zip(moves, moves[1:]):
            preds[later].add(earlier)
    for r, rot in enumerate(rotations):
        k = len(rot.cycle)
        for i in range(k):
            man, w_from = rot.cycle[i]
            w_to = rot.cycle[(i + 1) % k][1]
            lo = inst.rank(man, w_from)
            hi = inst.rank(man, w_to)
            for w in inst.prefs[man][lo + 1:hi]:
                if base.partner_of(w) is None:
                    raise InternalError("rotation skips a woman unmatched in stable matchings")
                if inst.prefers(w, base.partner[w], man):
                    continue  # she outranked him from the start
                for sigma, new_partner in woman_moves.get(w, []):
                    if inst.prefers(w, new_partner, man):
                        if sigma >= r:
                            raise InternalError("precedence points forward in elimination order")
                        preds[r].add(sigma)
                        break
                else:
                    raise InternalError("no rotation lifts a woman past a skipped suitor")
    return RotationPoset(inst, tuple(rotations), tuple(tuple(sorted(p)) for p in preds), base)


def closed_subsets(poset: RotationPoset, limit: int | None = None) -> list[frozenset[int]]:
    """All downward-closed rotation sets, in a fixed recursive order."""
    k = len(poset.rotations)
    out: list[frozenset[int]] = []
    chosen: set[int] = set()

    def rec(i: int):
        if i == k:
            if limit is not None and len(out) >= limit:
                raise LimitExceededError(
                    f"more than {limit} stable matchings", [frozenset(c) for c in out])
            out.append(frozenset(chosen))
            return
        rec(i + 1)
        if all(p in chosen for p in poset.preds[i]):
            chosen.add(i)
            rec(i + 1)
            chosen.discard(i)

    rec(0)
    return out


def matching_of_closed_subset(poset: RotationPoset, subset: frozenset[int]) -> Matching:
    m = poset.base
    for r in sorted(subset):
        m = eliminate(poset.instance, m, poset.rotations[r])
    return m


def enumerate_stable(inst: Instance, limit: int | None = None) -> list[Matching]:
    """All stable matchings via closed subsets of the rotation poset.

    Exact and duplicate-free; raises LimitExceededError (with the partial
    list attached) when more than `limit` exist.
    """
    poset = find_rotations(inst)
    try:
        subsets = closed_subsets(poset, limit)
    except LimitExceededError as exc:
        exc.partial = [matching_of_closed_subset(poset, s) for s in exc.partial]
        raise
    return [matching_of_closed_subset(poset, s) for s in subsets]


# ---------------------------------------------------------------------------
# Max-flow / min-cut


@dataclass(frozen=True)
class FlowNetwork:
    """Integer-capacity directed network."""

    num_nodes: int
    arcs: tuple[tuple[int, int, int], ...]  # (from, to, capacity)
    source: int
    sink: int


@dataclass(frozen=True)
class MaxFlowResult:
    value: int
    source_side: frozenset[int]
    cut_capacity: int


def max_flow(net: FlowNetwork) -> MaxFlowResult:
    """Dinic's algorithm. The returned cut is the minimal source side
    (residual-reachable set); its capacity always equals the flow value,
    which is asserted on every call."""
    for u, v, c in net.arcs:
        if c < 0:
            raise ValueError("capacities must be nonnegative")
    n = net.num_nodes
    head: list[list[int]] = [[] for _ in range(n)]
    to: list[int] = []
    cap: list[int] = []

    def add(u, v, c):
        head[u].append(len(to))
        to.append(v)
        cap.append(c)
        head[v].append(len(to))
        to.append(u)
        cap.append(0)

    for u, v, c in net.arcs:
        add(u, v, c)

    total = 0
    INF = sum(c for _u, _v, c in net.arcs) + 1
    while True:
        level = [-1] * n
        level[net.source] = 0
        queue = [net.source]
        for u in queue:
            for e in head[u]:
                if cap[e] > 0 and level[to[e]] < 0:
                    level[to[e]] = level[u] + 1
                    queue.append(to[e])
        if level[net.sink] < 0:
            break
        it = [0] * n

        def dfs(u: int, f: int) -> int:
            if u == net.sink:
                return f
            while it[u] < len(head[u]):
                e = head[u][it[u]]
                v = to[e]
                if cap[e] > 0 and level[v] == level[u] + 1:
                    got = dfs(v, min(f, cap[e]))
                    if got > 0:
                        cap[e] -= got
                        cap[e ^ 1] += got
                        return got
                it[u] += 1
            return 0

        while True:
            pushed = dfs(net.source, INF)
            if pushed == 0:
                break
            total += pushed

    reach = {net.source}
    stack = [net.source]
    while stack:
        u = stack.pop()
        for e in head[u]:
            if cap[e] > 0 and to[e] not in reach:
                reach.add(to[e])
                stack.append(to[e])
    cut = sum(c for u, v, c in net.arcs if u in reach and v not in reach)
    if cut != total:
        raise InternalError(f"max-flow {total} does not certify against min-cut {cut}")
    return MaxFlowResult(total, frozenset(reach), cut)


# ---------------------------------------------------------------------------
# Min-cost stable matching via weighted closure


def _rotation_delta(inst: Instance, rot: Rotation) -> int:
    return sum(inst.cost(e) for e in rot.added) - sum(inst.cost(e) for e in rot.cycle)


def min_cost_stable(inst: Instance) -> Matching:
    """A stable matching of minimum total edge cost.

    cost(closed subset) = cost(base) + sum of rotation deltas, so the
    optimum is a minimum-weight closed subset of the precedence DAG,
    reduced to min-cut. Among equal-cost optima this returns the one with
    the inclusion-minimal closed subset, which is deterministic.
    """
    poset = find_rotations(inst)
    k = len(poset.rotations)
    weights = [-_rotation_delta(inst, rot) for rot in poset.rotations]
    source, sink = k, k + 1
    INF = sum(abs(w) for w in weights) + 1
    arcs = []
    for r, w in enumerate(weights):
        if w > 0:
            arcs.append((source, r, w))
        elif w < 0:
            arcs.append((r, sink, -w))
    for r in range(k):
        for p in poset.preds[r]:
            arcs.append((r, p, INF))
    result = max_flow(FlowNetwork(k + 2, tuple(arcs), source, sink))
    closure = frozenset(r for r in result.source_side if r != source)
    for r in closure:
        if not all(p in closure for p in poset.preds[r]):
            raise InternalError("min-cut closure is not predecessor-closed")
    m = matching_of_closed_subset(poset, closure)
    predicted = matching_cost(inst, poset.base) + sum(
        _rotation_delta(inst, poset.rotations[r]) for r in closure)
    if matching_cost(inst, m) != predicted:
        raise InternalError("closure cost model disagrees with the eliminated matching")
    return m


@dataclass(frozen=True)
class MinCostResult:
    matching: Matching
    cost: int
    certificate: "DualCertificate"  # noqa: F821 - imported lazily


def min_cost_popular_max(inst: Instance) -> MinCostResult:
    """Minimum-cost popular max-matching with its dual certificate.

    Costs are copied onto all copy-image edges of the derived instance and
    dummy edges are free, so the derived cost of a stable matching equals
    the source cost of its projection; minimizing over stable matchings
    minimizes over all popular max-matchings.
    """
    from .certificates import certify_popular_max

    gs = build_gstar(inst)
    s = min_cost_stable(gs.inner)
    m = project(gs, s)
    if matching_cost(gs.inner, s) != matching_cost(inst, m):
        raise InternalError("cost lifting is not cost-preserving")
    cert = certify_popular_max(inst, m)
    return MinCostResult(m, matching_cost(inst, m), cert)


# ---------------------------------------------------------------------------
# Extended formulation emitter


def _enc(name: str) -> str:
    """LP-safe encoding of a source node id: [A-Za-z0-9_] kept, everything
    else percent-escaped. Dots never appear, so they can separate fields."""
    out = []
    for ch in name:
        if ch.isascii() and (ch.isalnum() or ch == "_"):
            out.append(ch)
        else:
            out.append(f"%{ord(ch):02X}")
    return "".join(out)


def _lp_token(gs, node: str) -> str:
    kind = gs.origin[node]
    if kind[0] == "copy":
        return f"{_enc(kind[1])}.c{kind[2]}"
    if kind[0] == "dummy":
        return f"{_enc(kind[1])}.d{kind[2]}"
    return f"{_enc(kind[1])}.t"


def emit_lp(inst: Instance) -> str:
    """Emit the extended formulation as CPLEX-LP-format text.

    Variables: one `xs.*` per derived edge and one `x.*` per source edge.
    Rows: a stability row per copy-image edge, a degree row per derived
    node (equality for the nodes every stable matching must match), and a
    linkage row tying each source edge variable to the sum of its copies.
    Minimizing the cost objective over this polytope solves min-cost
    popular max-matching; vertices are integral.
    """
    gs = build_gstar(inst)
    inner = gs.inner

    def evar(u: str, v: str) -> str:
        return f"xs.{_lp_token(gs, u)}.{_lp_token(gs, v)}"

    def gvar(a: str, b: str) -> str:
        return f"x.{_enc(a)}.{_enc(b)}"

    lines = ["\\ extended formulation for the popular max-matching polytope"]
    lines.append("Minimize")
    terms = [f"{inst.cost(e)} {gvar(*e)}" for e in inst.edges]
    if not terms and inner.edges:
        terms = [f"0 {evar(*inner.edges[0])}"]
    lines.append(" obj: " + " + ".join(terms))
    lines.append("Subject To")

    for u, v in inner.edges:
        if gs.origin[v][0] == "dummy":
            continue
        ahead_u = [evar(u, w) for w in inner.prefs[u][:inner.rank(u, v)]]
        ahead_v = [evar(z, v) for z in inner.prefs[v][:inner.rank(v, u)]]
        expr = " + ".join(ahead_u + ahead_v + [evar(u, v)])
        lines.append(f" stab.{_lp_token(gs, u)}.{_lp_token(gs, v)}: {expr} >= 1")

    must_match = set()
    for a in inst.side_a:
        for i in range(gs.n0 - 1):
            must_match.add(copy_name(a, i))
        for i in range(1, gs.n0):
            must_match.add(dummy_name(a, i))
    for node in inner.nodes:
        incident = [evar(*inner.as_edge(node, v)) for v in inner.prefs[node]]
        if not incident:
            continue
        expr = " + ".join(incident)
        lines.append(f" deg.{_lp_token(gs, node)}: {expr} <= 1")
        if node in must_match:
            lines.append(f" fix.{_lp_token(gs, node)}: {expr} = 1")

    for a, b in inst.edges:
        copies = " - ".join(evar(copy_name(a, i), image_name(b)) for i in range(gs.n0))
        lines.append(f" link.{_enc(a)}.{_enc(b)}: {gvar(a, b)} - {copies} = 0")

    lines.append("Bounds")
    for u, v in inner.edges:
        lines.append(f" 0 <= {evar(u, v)} <= 1")
    for a, b in inst.edges:
        lines.append(f" 0 <= {gvar(a, b)} <= 1")
    lines.append("End")
    return "\n".join(lines) + "\n"
