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

from .certificates import DualCertificate, certify_popular_max
from .core import Edge, Instance, Matching, make_matching, matching_cost
from .errors import InternalError, LimitExceededError
from .gstar import build_gstar, place, project
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


def find_rotations(inst: Instance) -> RotationPoset:
    """Discover all rotations in one walk from the man-optimal matching and
    build the precedence DAG.

    The walk (Gusfield & Irving 1989, section 3.3) keeps one stack of men,
    each followed by the partner of his next acceptor: the first woman
    below his partner who would accept him. A man met a second time closes
    an exposed rotation, which is eliminated at once in the partner map. A
    man whose next acceptor is unmatched, or who has none, keeps his partner
    for the rest of the walk, and so does every man whose walk leads to him.
    Women's partners only improve, so each man's list pointer only
    advances.

    Predecessor edges combine two rules: the rotations moving one man form
    a chain in elimination order, and a rotation skipping a man past some
    woman requires the earlier rotation that first lifted that woman's
    partner above him.
    """
    base = gale_shapley(inst, "A")
    a_index = {a: i for i, a in enumerate(inst.side_a)}
    partner = dict(base.partner)
    ptr = {man: inst.rank(man, partner[man]) + 1 for man in inst.side_a if man in partner}
    rotations: list[Rotation] = []
    preds: list[set[int]] = []
    last_move: dict[str, int] = {}  # man -> the latest rotation moving him
    lifted: dict[tuple[str, str], int] = {}  # (w, man) -> rotation lifting w above man

    def next_acceptor(man: str) -> str | None:
        lst = inst.prefs[man]
        while ptr[man] < len(lst):
            w = lst[ptr[man]]
            p = partner.get(w)
            if p is None:
                return None
            if inst.prefers(w, man, p):
                return w
            ptr[man] += 1
        return None

    fixed: set[str] = set()
    stack: list[str] = []
    on_stack: dict[str, int] = {}
    for start in inst.side_a:
        while start in ptr and start not in fixed:
            if not stack:
                on_stack[start] = 0
                stack.append(start)
            w = next_acceptor(stack[-1])
            if w is None or partner[w] in fixed:
                fixed.update(stack)
                stack.clear()
                on_stack.clear()
                continue
            nxt = partner[w]
            if nxt not in on_stack:
                on_stack[nxt] = len(stack)
                stack.append(nxt)
                continue
            cycle_men = stack[on_stack[nxt]:]
            del stack[on_stack[nxt]:]
            for man in cycle_men:
                del on_stack[man]
            pivot = min(range(len(cycle_men)), key=lambda k: a_index[cycle_men[k]])
            cycle_men = cycle_men[pivot:] + cycle_men[:pivot]
            rot = Rotation(tuple((man, partner[man]) for man in cycle_men))
            r = len(rotations)
            rotations.append(rot)
            preds.append(set())
            k = len(rot.cycle)
            for i in range(k):
                man, w = rot.cycle[i]
                new_partner = rot.cycle[(i - 1) % k][0]
                for between in inst.prefs[w][inst.rank(w, new_partner) + 1:inst.rank(w, man)]:
                    lifted[(w, between)] = r
            for (man, w_from), (_man, w_to) in zip(rot.cycle, rot.added):
                if man in last_move:
                    preds[r].add(last_move[man])
                last_move[man] = r
                for w in inst.prefs[man][inst.rank(man, w_from) + 1:inst.rank(man, w_to)]:
                    if base.partner_of(w) is None:
                        raise InternalError("rotation skips a woman unmatched in stable matchings")
                    if inst.prefers(w, base.partner[w], man):
                        continue  # she outranked him from the start
                    sigma = lifted.get((w, man))
                    if sigma is None:
                        raise InternalError("no rotation lifts a woman past a skipped suitor")
                    if sigma >= r:
                        raise InternalError("precedence points forward in elimination order")
                    preds[r].add(sigma)
                partner[man] = w_to
                partner[w_to] = man
                ptr[man] = inst.rank(man, w_to) + 1
    return RotationPoset(inst, tuple(rotations), tuple(tuple(sorted(p)) for p in preds), base)


def closed_subsets(poset: RotationPoset, limit: int | None = None) -> list[frozenset[int]]:
    """All downward-closed rotation sets, in a fixed depth-first order:
    each rotation is first left out, then taken when its predecessors are."""
    k = len(poset.rotations)
    out: list[frozenset[int]] = []
    taken = [False] * k
    chosen: set[int] = set()
    while True:
        if limit is not None and len(out) >= limit:
            raise LimitExceededError(
                f"more than {limit} stable matchings", [frozenset(c) for c in out])
        out.append(frozenset(chosen))
        i = k - 1
        while i >= 0 and (taken[i] or not all(p in chosen for p in poset.preds[i])):
            if taken[i]:
                taken[i] = False
                chosen.discard(i)
            i -= 1
        if i < 0:
            return out
        taken[i] = True
        chosen.add(i)


def matching_of_closed_subset(poset: RotationPoset, subset: frozenset[int]) -> Matching:
    """Eliminate a closed subset from `base` in index order (an elimination order)."""
    pairs = set(poset.base.pairs)
    for r in sorted(subset):
        rot = poset.rotations[r]
        if not pairs.issuperset(rot.cycle):
            raise InternalError(f"rotation {r} is not exposed when eliminated")
        pairs.difference_update(rot.cycle)
        pairs.update(rot.added)
    return make_matching(poset.instance, pairs)


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
        path: list[int] = []  # arcs of the level-graph walk from the source
        u = net.source
        while True:
            if u == net.sink:
                pushed = min(cap[e] for e in path)
                for e in path:
                    cap[e] -= pushed
                    cap[e ^ 1] += pushed
                total += pushed
                path.clear()
                u = net.source
                continue
            while it[u] < len(head[u]):
                e = head[u][it[u]]
                if cap[e] > 0 and level[to[e]] == level[u] + 1:
                    break
                it[u] += 1
            if it[u] < len(head[u]):
                e = head[u][it[u]]
                path.append(e)
                u = to[e]
            elif path:
                u = to[path.pop() ^ 1]  # dead end: retreat and skip the arc
                it[u] += 1
            else:
                break

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
    certificate: DualCertificate


def min_cost_popular_max(inst: Instance) -> MinCostResult:
    """Minimum-cost popular max-matching with its dual certificate.

    Costs are copied onto all copy-image edges of the derived instance and
    dummy edges are free, so the derived cost of a stable matching equals
    the source cost of its projection; minimizing over stable matchings
    minimizes over all popular max-matchings.
    """
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
    """LP-safe encoding of a source node id: ASCII [A-Za-z0-9_] kept, every
    other UTF-8 byte written as %XX, so distinct ids never share a token.
    Dots never appear, so they can separate fields."""
    out = []
    for byte in name.encode("utf-8", "surrogatepass"):
        ch = chr(byte)
        out.append(ch if byte < 0x80 and (ch.isalnum() or ch == "_") else f"%{byte:02X}")
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
    token = {u: _lp_token(gs, u) for u in inner.nodes}

    def evar(u: str, v: str) -> str:
        return f"xs.{token[u]}.{token[v]}"

    def gvar(a: str, b: str) -> str:
        return f"x.{_enc(a)}.{_enc(b)}"

    lines = ["\\ extended formulation for the popular max-matching polytope"]
    lines.append("Minimize")
    terms = [f"{inst.cost(e)} {gvar(*e)}" for e in inst.edges]
    if not terms and inner.edges:
        terms = [f"0 {evar(*inner.edges[0])}"]
    lines.append(" obj: " + " + ".join(terms))
    lines.append("Subject To")

    # each node's edge variables in its preference order, formatted once
    row = {x: [evar(*inner.as_edge(x, y)) for y in inner.prefs[x]] for x in inner.nodes}
    copies: dict[Edge, list[str]] = {e: [] for e in inst.edges}  # lowest copy first
    for u, v in inner.edges:
        if gs.origin[v][0] == "dummy":
            continue
        ru = inner.rank(u, v)
        expr = " + ".join(row[u][:ru] + row[v][:inner.rank(v, u)] + [row[u][ru]])
        lines.append(f" stab.{token[u]}.{token[v]}: {expr} >= 1")
        copies[gs.origin[u][1], gs.origin[v][1]].append(row[u][ru])

    # the nodes every stable matching matches: those the dummy chains fill
    # when no source node is matched
    must_match = place(gs, Matching(frozenset()), {}).partner
    for node in inner.nodes:
        if not row[node]:
            continue
        expr = " + ".join(row[node])
        lines.append(f" deg.{token[node]}: {expr} <= 1")
        if node in must_match:
            lines.append(f" fix.{token[node]}: {expr} = 1")

    for a, b in inst.edges:
        lines.append(f" link.{_enc(a)}.{_enc(b)}: {gvar(a, b)} - {' - '.join(copies[a, b])} = 0")

    lines.append("Bounds")
    for u, v in inner.edges:
        lines.append(f" 0 <= {evar(u, v)} <= 1")
    for a, b in inst.edges:
        lines.append(f" 0 <= {gvar(a, b)} <= 1")
    lines.append("End")
    return "\n".join(lines) + "\n"
