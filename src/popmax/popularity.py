"""Popularity and Pareto-optimality verdicts with explicit witnesses.

A maximum matching is popular within the maximum matchings iff there is no
positive-weight alternating cycle and no positive-weight alternating path
with an unmatched endpoint. Both conditions are decided on a digraph whose
vertices are matched pairs plus unmatched nodes and whose arcs are the
non-matching edges weighted by `wt_edge`; matched edges live inside the
pair vertices and contribute weight 0, so directed walks are alternating
walks. One longest-walk pass over it yields either a witness or the
potentials that `certify_popular_max` compresses into a dual certificate;
it stops at the first cycle of its predecessor graph, a positive cycle.
Both passes hold the same integer arcs, made by `_arcs`: the round pass
relaxes all of them, the Pareto pass its weight-2 arcs grouped by source.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .core import Edge, Instance, Matching, _blocking, _weights, is_maximum
from .errors import InternalError, NotMaximumError

# (src vertex, dst vertex, weight): the edge from the A-node of src to the
# B-node of dst, named off the vertex table by `_witness` and the public digraph
Arc = tuple[int, int, int]


class AlternatingDigraph(NamedTuple):
    vertices: tuple[tuple, ...]  # ("pair", a, b) | ("ua", a) | ("ub", b)
    arcs: tuple[tuple[int, int, str, str, int], ...]  # (src vertex, dst vertex, a, b, weight)
    vertex_of: dict[str, int]


def build_alternating_digraph(inst: Instance, m: Matching) -> AlternatingDigraph:
    """One vertex per matched pair and per unmatched node; one arc per
    non-matching edge (a, b), from a's vertex to b's vertex."""
    vertices, vertex_of = _vertices(inst, m)
    arcs = tuple((src, dst, vertices[src][1], vertices[dst][-1], w)
                 for src, dst, w in _arcs(vertex_of, _weights(inst, m)))
    return AlternatingDigraph(vertices, arcs, vertex_of)


def _arcs(vertex_of: dict[str, int], edges: Iterable[tuple[str, str, int]]) -> list[Arc]:
    """The arc of each (a, b, w), in the order given, where a and b are on
    different vertices: only the two ends of a matched edge share one."""
    return [(src, dst, w) for a, b, w in edges if (src := vertex_of[a]) != (dst := vertex_of[b])]


def _vertices(inst: Instance, m: Matching) -> tuple[tuple[tuple, ...], dict[str, int]]:
    """The matched pairs in sorted order, then the unmatched A-nodes and the
    unmatched B-nodes in side order, and the vertex of every node. With
    p = |m|, the pairs are the vertices [0, p), the unmatched A-nodes
    [p, |A|) and the unmatched B-nodes [|A|, n): the passes read a vertex's
    kind off its index."""
    vertices = [("pair", a, b) for a, b in sorted(m.pairs)]
    vertices += [("ua", a) for a in inst.side_a if a not in m.partner]
    vertices += [("ub", b) for b in inst.side_b if b not in m.partner]
    vertex_of: dict[str, int] = {}
    for i, vertex in enumerate(vertices):  # a pair's two nodes, or one node twice
        vertex_of[vertex[1]] = vertex_of[vertex[-1]] = i
    return tuple(vertices), vertex_of


class Witness(NamedTuple):
    """An alternating cycle or path.

    `edges` is the ordered edge list of the walk (matching edges included);
    `nodes` is the node sequence: bare unmatched endpoints, and each
    traversed pair listed entry-node first. Toggling `edges` against the
    matching realizes the improvement the witness claims.
    """

    kind: str  # "cycle" or "path"
    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    weight: int


class PopularityVerdict(NamedTuple):
    popular: bool
    witness: Witness | None


class ParetoVerdict(NamedTuple):
    pareto: bool
    witness: Witness | None


def apply_witness(m: Matching, witness: Witness) -> Matching:
    """Symmetric difference of the matching with the witness edges."""
    return Matching(frozenset(m.pairs) ^ frozenset(witness.edges))


def format_witness(m: Matching, witness: Witness) -> str:
    """One-line rendering: bare ids for unmatched endpoints, `(entry,partner)`
    for traversed pairs, then the walk weight."""
    tokens = []
    nodes = witness.nodes
    i = 0
    while i < len(nodes):
        if i + 1 < len(nodes) and m.partner_of(nodes[i]) == nodes[i + 1]:
            tokens.append(f"({nodes[i]},{nodes[i + 1]})")
            i += 2
        else:
            tokens.append(nodes[i])
            i += 1
    return f"{witness.kind}: " + " ".join(tokens) + f" wt={witness.weight}"


def _witness(vertices: tuple[tuple, ...], kind: str, arcs: list[Arc]) -> Witness:
    """Convert a directed cycle or path of arcs into the alternating walk it
    encodes. Every pair vertex the walk enters adds its matched edge, so
    toggling stays a matching; a cycle starts at its least pair vertex, and
    a path first enters the source vertex of its first arc."""
    if kind == "cycle":
        pivot = min(range(len(arcs)), key=lambda k: arcs[k][1])  # pairs are in sorted order
        arcs = arcs[pivot:] + arcs[:pivot]
    steps = [((vertices[src][1], vertices[dst][-1]), dst) for src, dst, _w in arcs]
    if kind == "path":
        steps.insert(0, (None, arcs[0][0]))
    edges: list[Edge] = []
    nodes: list[str] = []
    for edge, v in steps:
        if edge is not None:
            edges.append(edge)
        vertex = vertices[v]
        if vertex[0] == "pair":
            _, pa, pb = vertex
            nodes.extend([pb, pa])
            edges.append((pa, pb))
        elif kind == "cycle":
            raise InternalError("directed cycle through an unmatched vertex")
        else:
            nodes.append(vertex[1])
    return Witness(kind, tuple(nodes), tuple(edges), sum(arc[2] for arc in arcs))


def _collect_arcs(pred: list, v: int) -> list[Arc]:
    seq = []
    while pred[v] is not None:
        arc = pred[v]
        seq.append(arc)
        v = arc[0]
    seq.reverse()
    return seq


def _pred_cycle(pred: list) -> list[Arc] | None:
    """The first cycle of the predecessor graph, walked from each vertex in
    index order and stamping it with the start, as arcs in walk order. Values
    rise only by strict improvement, so every such cycle is positive
    (Cherkassky & Goldberg, Math. Prog. 1999)."""
    stamp = [-1] * len(pred)
    for start in range(len(pred)):
        v = start
        while stamp[v] == -1 and pred[v] is not None:
            stamp[v] = start
            v = pred[v][0]
        if stamp[v] == start:
            cycle = [pred[v]]
            while cycle[-1][0] != v:
                cycle.append(pred[cycle[-1][0]])
            return cycle[::-1]
    return None


def _witness_or_potentials(inst: Instance, m: Matching) -> Witness | dict[str, int]:
    """One longest-walk pass over the alternating digraph of m.

    Pair vertices and unmatched B-nodes start at 0, unmatched A-nodes at
    top = 2(n0'-1), and arcs are relaxed in rounds. The pass stops at the
    first predecessor cycle, checked after every round that raised a value:
    a positive cycle, which keeps the values rising until one forms. Once
    the values converge, the result is, in this order, a positive path from
    an unmatched A-node when a pair vertex ends above top; a positive path
    into an unmatched B-node when one ends above 0; and otherwise the
    potentials, mapping every matched node to the even value y in 0..top of
    its pair, with y(b) >= y(a) + wt(a, b) on every arc. The potential of
    an A-node is -alpha, of a B-node alpha.
    Raises NotMaximumError, with its augmenting path, unless m is maximum.
    """
    maximum, path = is_maximum(inst, m)
    if not maximum:
        raise NotMaximumError(
            "matching is not maximum; popularity among maximum matchings is undefined", path)
    vertices, vertex_of = _vertices(inst, m)
    arcs = _arcs(vertex_of, _weights(inst, m))
    n, p, na = len(vertices), len(m.pairs), len(inst.side_a)
    top = 2 * (p - 1)
    y = [0] * p + [top] * (na - p) + [0] * (n - na)  # see `_vertices`
    pred: list[Arc | None] = [None] * n
    for _round in range(n + 1):
        improved = False
        for arc in arcs:
            src, dst, w = arc
            if y[src] + w > y[dst]:
                y[dst] = y[src] + w
                pred[dst] = arc
                improved = True
        if not improved:
            break
        cycle = _pred_cycle(pred)
        if cycle is not None:
            return _witness(vertices, "cycle", cycle)
    else:
        raise InternalError("relaxation did not converge and no predecessor cycle formed")

    # the highest pair vertex above top, else the highest unmatched B-node
    # above 0, the first on ties, ends a positive path
    for span, floor in ((range(p), top), (range(na, n), 0)):
        v = max(span, key=y.__getitem__, default=None)
        if v is not None and y[v] > floor:
            seq = _collect_arcs(pred, v)
            if v >= na and seq[0][0] >= p:  # from an unmatched A-node
                raise InternalError("augmenting path in a maximum matching")
            return _witness(vertices, "path", seq)
    return {u: y[i] for i in range(p) for u in vertices[i][1:]}


def verify_popular_max(inst: Instance, m: Matching) -> PopularityVerdict:
    """Decide whether a maximum matching is popular among maximum matchings.

    Raises NotMaximumError unless m is maximum. A negative verdict carries a
    positive-weight alternating cycle (preferred when both exist), else a
    positive-weight alternating path from an unmatched A-node (preferred),
    else one into an unmatched B-node; toggling the witness yields a
    maximum matching preferred by a majority.
    """
    found = _witness_or_potentials(inst, m)
    if isinstance(found, Witness):
        return PopularityVerdict(False, found)
    return PopularityVerdict(True, None)


def is_pareto_optimal(inst: Instance, m: Matching) -> ParetoVerdict:
    """Decide Pareto-optimality (finite unpopularity factor), with a witness.

    m fails exactly when some matching beats it unopposed: a directed cycle
    of weight-2 arcs, or an augmenting path whose non-matching edges are all
    weight-2 arcs. Toggling the witness Pareto-dominates m. Cycles are
    reported in preference to paths.
    """
    vertices, vertex_of = _vertices(inst, m)
    n, p, na = len(vertices), len(m.pairs), len(inst.side_a)
    # the weight-2 arcs by source, in `inst.edges` order; `_blocking` reads
    # each A-list only up to its cut, where `_weights` would read all of it
    adj: list[list[Arc]] = [[] for _ in range(n)]
    for arc in _arcs(vertex_of, ((a, b, 2) for a, b in _blocking(inst, m))):
        adj[arc[0]].append(arc)

    color = [0] * n
    next_arc = [0] * n
    for root in range(p):
        if color[root] != 0:
            continue
        color[root] = 1
        walk: list[Arc] = []  # the arcs of the walk from root; the last one's head is current
        while True:
            v = walk[-1][1] if walk else root
            if next_arc[v] == len(adj[v]):
                color[v] = 2
                if not walk:
                    break
                walk.pop()
                continue
            arc = adj[v][next_arc[v]]
            next_arc[v] += 1
            dst = arc[1]
            if color[dst] == 0:
                color[dst] = 1
                walk.append(arc)
            elif color[dst] == 1:
                start = len(walk) - 1
                while walk[start][0] != dst:
                    start -= 1
                return ParetoVerdict(False, _witness(vertices, "cycle", walk[start:] + [arc]))

    pred: list[Arc | None] = [None] * n
    frontier = list(range(p, na))  # the unmatched A-nodes
    seen = set(frontier)
    while frontier:
        nxt = []
        for v in frontier:
            for arc in adj[v]:
                dst = arc[1]
                if dst in seen:
                    continue
                seen.add(dst)
                pred[dst] = arc
                if dst >= na:  # an unmatched B-node
                    return ParetoVerdict(False, _witness(vertices, "path", _collect_arcs(pred, dst)))
                nxt.append(dst)
        frontier = nxt
    return ParetoVerdict(True, None)
