"""Exact min-cost popular max-matching and its machinery.

The route: lay out the derived instance as integer tables, with at most
max(min(|A|, |B|), 1) levels and often far fewer (claims (a) and (f) of
`min_cost_popular_max`), each copy-image edge costing its source edge and
dummy edges free, find a minimum-cost stable matching there, and project
it, reading the certificate off its copy levels (claim (d)).
Min-cost stable matching itself runs on the rotation poset: the stable
matchings of a marriage instance are exactly the eliminations of
downward-closed rotation sets from the proposer-optimal matching, so a
cheapest one is a minimum-weight closed subset, found by max-flow/min-cut.
One rotation walk serves both the string-named `Instance` and the integer
tables. Everything is exact integer arithmetic.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import accumulate, chain
from typing import TYPE_CHECKING, NamedTuple

from .core import Instance, Matching, _pins, make_matching, matching_cost
from .errors import InternalError
from .gstar import GStarTables, _level_run, _lists, _n_levels
from .stable import gale_shapley

if TYPE_CHECKING:  # `_min_cost_run` imports the certificate layer when called
    from .certificates import DualCertificate

# ---------------------------------------------------------------------------
# Rotations


def _added(cycle):
    """The pairs a rotation's elimination creates: each man takes the next pair's woman."""
    men, women = zip(*cycle)  # a rotation has at least one pair
    return tuple(zip(men, women[1:] + women[:1]))


class RotationPoset(NamedTuple):
    """All rotations of an instance in one elimination order, with
    predecessor lists; closed subsets (all predecessors included) biject
    onto the stable matchings via elimination from `base`. A rotation is
    its cycle of matched (man, woman) pairs: eliminating it moves every
    listed man to the next pair's woman (cyclically), every woman to the
    previous pair's man."""

    instance: Instance
    cycles: tuple[tuple[tuple[str, str], ...], ...]
    preds: tuple[tuple[int, ...], ...]
    base: Matching


def find_rotations(inst: Instance) -> RotationPoset:
    """Discover all rotations in one walk from the man-optimal matching and
    build the precedence DAG; the walk reads the instance's own preference
    lists and rank maps (see `_rotation_walk`)."""
    base = gale_shapley(inst)
    cycles, preds = _rotation_walk(inst.prefs, inst._rank, inst.side_a, base.partner)
    return RotationPoset(inst, tuple(cycles), preds, base)


def _rotation_walk(prefs, rank, men, base):
    """All rotations, as cycles of (man, woman) pairs in elimination order,
    and their sorted predecessor lists.

    `prefs[u]` lists u's neighbors, `rank[u]` maps each to its position,
    `men` is the proposing side in order and `base` the partner map of the
    man-optimal matching. Nodes may be names or integer ids.

    The walk (Gusfield & Irving 1989, section 3.3) keeps one stack of men,
    each followed by the partner of his next acceptor: the first woman
    below his partner who would accept him. A man met a second time closes
    an exposed rotation, which is eliminated at once in the partner map. A
    man whose next acceptor is unmatched, or who has none, keeps his partner
    for the rest of the walk, and so does every man whose walk leads to him.
    Women's partners only improve, so each man's list pointer only
    advances. Each cycle starts at its earliest man in `men`.

    Predecessor edges combine two rules: the rotations moving one man form
    a chain in elimination order, and a rotation skipping a man past some
    woman requires the earlier rotation that first lifted that woman's
    partner above him. A rotation moves a woman from her partner to a man
    she ranks higher, lifting her past the block of her list strictly
    between them; her blocks are disjoint, so `lifted[w]`, a list as long
    as hers made when a rotation first lifts her past a suitor, labels each
    position q with the rotation that lifted her past the suitor there, and
    each slot is set at most once.
    """
    order = {man: i for i, man in enumerate(men)}
    partner = dict(base)
    ptr = {man: rank[man][partner[man]] + 1 for man in men if man in partner}
    cycles: list[tuple] = []
    preds: list[set[int]] = []
    last_move: dict = {}  # man -> the latest rotation moving him
    lifted: dict = {}  # w -> the rotation that lifted w past each position of her list

    fixed: set = set()
    stack: list = []
    on_stack: dict = {}
    for start in men:
        while start in ptr and start not in fixed:
            if not stack:
                on_stack[start] = 0
                stack.append(start)
            # the next acceptor of the top man: the first woman from his list
            # pointer on who would take him; None if she is unmatched or he has none
            man = stack[-1]
            lst, p, w = prefs[man], ptr[man], None
            while p < len(lst):
                x = lst[p]
                nxt = partner.get(x)
                if nxt is None:
                    break
                if rank[x][man] < rank[x][nxt]:
                    w = x
                    break
                p += 1
            ptr[man] = p
            if w is None or nxt in fixed:
                fixed.update(stack)
                stack.clear()
                on_stack.clear()
                continue
            if nxt not in on_stack:
                on_stack[nxt] = len(stack)
                stack.append(nxt)
                continue
            cycle_men = stack[on_stack[nxt]:]
            del stack[on_stack[nxt]:]
            for man in cycle_men:
                del on_stack[man]
            pivot = cycle_men.index(min(cycle_men, key=order.__getitem__))
            cycle_men = cycle_men[pivot:] + cycle_men[:pivot]
            cycle = tuple(zip(cycle_men, map(partner.__getitem__, cycle_men)))
            r, pred = len(cycles), set()
            cycles.append(cycle)
            preds.append(pred)
            # each woman moves up to the previous pair's man
            for (man, w), new_partner in zip(cycle, cycle_men[-1:] + cycle_men[:-1]):
                start_w, end_w = rank[w][new_partner] + 1, rank[w][man]
                if start_w < end_w:
                    if w not in lifted:
                        lifted[w] = [None] * len(prefs[w])
                    lifted[w][start_w:end_w] = [r] * (end_w - start_w)
            for (man, w_from), (_man, w_to) in zip(cycle, _added(cycle)):
                if man in last_move:
                    pred.add(last_move[man])
                last_move[man] = r
                for w in prefs[man][rank[man][w_from] + 1:rank[man][w_to]]:
                    if w not in base:
                        raise InternalError("rotation skips a woman unmatched in stable matchings")
                    q = rank[w][man]
                    if rank[w][base[w]] < q:
                        continue  # she outranked him from the start
                    sigma = lifted[w][q] if w in lifted else None
                    if sigma is None:
                        raise InternalError("no rotation lifts a woman past a skipped suitor")
                    if sigma >= r:
                        raise InternalError("precedence points forward in elimination order")
                    pred.add(sigma)
                partner[man] = w_to
                partner[w_to] = man
                ptr[man] = rank[man][w_to] + 1
    return cycles, tuple(tuple(sorted(p)) for p in preds)


def _eliminate_closed(base, cycles, subset) -> set:
    """The pair set left by eliminating the rotations in `subset` from
    `base`, in index order."""
    pairs = set(base)
    for r in sorted(subset):
        if not pairs.issuperset(cycles[r]):
            raise InternalError(f"rotation {r} is not exposed when eliminated")
        pairs.difference_update(cycles[r])
        pairs.update(_added(cycles[r]))
    return pairs


# ---------------------------------------------------------------------------
# Max-flow / min-cut


class FlowNetwork(NamedTuple):
    """Integer-capacity directed network."""

    num_nodes: int
    arcs: tuple[tuple[int, int, int], ...]  # (from, to, capacity)
    source: int
    sink: int


class MaxFlowResult(NamedTuple):
    value: int
    source_side: frozenset[int]
    cut_capacity: int


def max_flow(net: FlowNetwork) -> MaxFlowResult:
    """Dinic's algorithm. The returned cut is the minimal source side: the
    nodes that the last breadth-first search, the one that misses the sink,
    reached in the residual graph. Its capacity always equals the flow
    value, which is asserted on every call."""
    n, source, sink = net.num_nodes, net.source, net.sink
    # arc 2x is the x-th given arc and arc 2x+1 its residual twin
    head: list[list[int]] = [[] for _ in range(n)]
    to: list[int] = []
    cap: list[int] = []
    for e, (u, v, c) in enumerate(net.arcs):
        if c < 0:
            raise ValueError("capacities must be nonnegative")
        head[u].append(2 * e)
        head[v].append(2 * e + 1)
        to += (v, u)
        cap += (c, 0)

    total = 0
    while True:
        level = [-1] * n
        level[source] = 0
        queue = [source]
        for u in queue:
            for e in head[u]:
                if cap[e] > 0 and level[to[e]] < 0:
                    level[to[e]] = level[u] + 1
                    queue.append(to[e])
        if level[sink] < 0:
            break
        it = [0] * n
        path: list[int] = []  # arcs of the level-graph walk from the source
        u = source
        while True:
            if u == sink:
                pushed = min(cap[e] for e in path)
                for e in path:
                    cap[e] -= pushed
                    cap[e ^ 1] += pushed
                total += pushed
                path.clear()
                u = source
                continue
            arcs, x, up = head[u], it[u], level[u] + 1
            while x < len(arcs):
                e = arcs[x]
                if cap[e] > 0 and level[to[e]] == up:
                    break
                x += 1
            it[u] = x
            if x < len(arcs):
                path.append(arcs[x])
                u = to[arcs[x]]
            elif path:
                u = to[path.pop() ^ 1]  # dead end: retreat and skip the arc
                it[u] += 1
            else:
                break

    reach = frozenset(u for u in range(n) if level[u] >= 0)
    cut = sum(c for u, v, c in net.arcs if level[u] >= 0 > level[v])
    if cut != total:
        raise InternalError(f"max-flow {total} does not certify against min-cut {cut}")
    return MaxFlowResult(total, reach, cut)


# ---------------------------------------------------------------------------
# Min-cost stable matching via weighted closure


def min_cost_stable(inst: Instance) -> Matching:
    """A stable matching of minimum total edge cost (see `_cheapest_elimination`)."""
    poset = find_rotations(inst)
    return make_matching(inst, _cheapest_elimination(poset.base.pairs, poset.cycles, poset.preds, inst.cost))


def _cheapest_elimination(base, cycles, preds, cost) -> set:
    """The pairs of a cheapest stable matching, given the rotations'
    cycles and predecessor lists and the edge `cost` of a pair.

    cost(closed subset) = cost(base) + sum of rotation deltas, so the
    optimum is a minimum-weight closed subset of the precedence DAG,
    reduced to min-cut. Among equal-cost optima this returns the one with
    the inclusion-minimal closed subset, which is deterministic.
    """
    k = len(cycles)
    deltas = [sum(map(cost, _added(c))) - sum(map(cost, c)) for c in cycles]
    source, sink = k, k + 1
    INF = sum(abs(d) for d in deltas) + 1
    arcs = []
    for r, d in enumerate(deltas):
        if d < 0:
            arcs.append((source, r, -d))
        elif d > 0:
            arcs.append((r, sink, d))
    for r in range(k):
        for p in preds[r]:
            arcs.append((r, p, INF))
    result = max_flow(FlowNetwork(k + 2, tuple(arcs), source, sink))
    closure = frozenset(r for r in result.source_side if r != source)
    for r in closure:
        if not all(p in closure for p in preds[r]):
            raise InternalError("min-cut closure is not predecessor-closed")
    pairs = _eliminate_closed(base, cycles, closure)
    if sum(map(cost, pairs)) != sum(map(cost, base)) + sum(deltas[r] for r in closure):
        raise InternalError("closure cost model disagrees with the eliminated matching")
    return pairs


class MinCostResult(NamedTuple):
    matching: Matching
    cost: int
    certificate: DualCertificate


def min_cost_popular_max(inst: Instance) -> MinCostResult:
    """Minimum-cost popular max-matching with its dual certificate.

    The derived instance is read as integer tables: each copy-image edge
    costs its source edge and dummy edges are free, so the derived cost of
    a stable matching equals the source cost of its projection, and
    minimizing over stable matchings minimizes over all popular
    max-matchings. The tables have T = `gstar._n_levels(inst)` levels, so
    |A| * T copies instead of the paper's |A| * |A|: by claim (a) of
    `_n_levels` their stable matchings still project onto exactly the
    popular max-matchings. One loop runs `_min_cost_run` (the tables, the
    rotation walk and the max-flow) once per level count t, each time from
    `_level_run` at T levels placed on the copies with its leftover A-nodes
    at the top copy, which is the copies' proposer-optimal matching at
    every t the loop runs. t starts at T. When the run matches every node
    with a nonempty list, fewer levels give the same result (claim (f)),
    and t starts at top + 2 instead, top the run's highest level. Each pass
    reports the highest level of its min-cost stable matching; the loop
    returns at t = T or once that level is <= t-2, and otherwise doubles t,
    capped at T: fewer than 3T levels in all. Any other instance runs T
    levels once.

    (c) The matching is the one |A| levels give. `_cheapest_elimination`
    returns the inclusion-minimal min-weight closed rotation set (such
    sets are closed under union and intersection), that is the greatest
    min-cost stable matching in the order of `_n_levels` (b), in which
    fewer eliminated rotations is better for every copy. Its levels are
    least for its matching, so it is the greatest element of the part of
    R_T whose matchings have minimum cost; the bijection of (b) keeps the
    matchings and each A-node's comparison, so it maps that element to the
    greatest element of the same part of R_|A|, with the same matching.

    (d) The certificate is the one `certify_popular_max` gives the
    matching M, so `_min_cost` reads it off the levels of its own stable
    matching (`certificates._read_certificate`) and runs no popularity
    pass. Let k = |M|. Halved, the pass's potentials are the least levels
    l_k^M of `_n_levels` on the matched nodes: its relaxation is the
    longest-chain closure from 0 at the pairs and 2(k-1) at the unmatched
    A-nodes, whose arcs weigh 0 when M is popular (the preferences of (P)),
    and the arcs into unmatched B-nodes raise no pair. By (c) the min-cost
    stable matching has the least levels l_T^M of its matching, which the
    proof of (b) makes l_k^M + (T-k) on D and l_k^M off it. Both maps are
    compressed by `_remap_levels`, which reads only the order of the
    levels, their adjacency and the rigid gaps, and these agree:
    - with d the pairs of M in D, a level off D is the gain of a chain that
      stays off D, at most k-d-1, and a level on D is at least T-d >= k-d,
      so every level off D lies below every level on D;
    - no edge joins an A-node of D to a B-node off D (D holds the
      neighbors of its A-nodes), and an edge from an A-node off D to a
      B-node of D rises, so a rigid gap lies inside one part, where the
      maps differ by a constant, and the gap between the parts is not
      rigid.
    So both maps are packed, pinned and widened alike into the same
    certificate; the same argument holds at |A| levels.

    (f) On a pin-free instance, one whose run at T levels matches every
    node with a nonempty list, the stopping rule gives the result of T
    levels. Every maximum matching then matches those nodes (it has as many
    pairs), so D is empty and (P) of `_n_levels` is vacuous. For t <= T,
    let L_t be the stable matchings of the t-level instance, each read as
    (M, l) with l the levels of M's matched nodes, and order them by what
    the copies prefer: S <= S' when every copy likes S at least as well,
    the reverse of (b)'s order. Per A-node that compares (level, rank of
    the partner), so meet and join take levels pointwise min and max; the
    meet eliminates the intersection of the two closed rotation sets and
    the join their union. `_cheapest_elimination` returns the least
    min-cost element of L_t (its (c) optimum), call it S_t.
    - L_t is a down-set and a sublattice of L_T. By rural hospitals every
      stable matching of an instance matches the same nodes, and a source
      node is matched iff its image, or its top copy, is. So every element
      of L_T matches what the run matches, and by the level form L_T holds
      exactly the (M, l) with M matching those nodes and l in 0..T-1
      meeting (E). The run's levels are pointwise least in L_T; let top be
      their maximum. For t > top the run lies in L_t, so every element of
      L_t matches the same nodes, L_t = {S in L_T : every level <= t-1},
      and the run is the least element of L_t: the run at t levels.
    - Shifts. (E) is a difference constraint, so S + c (every level plus
      c) lies in L_t while its levels stay in 0..t-1.
    - Cost is modular. The cost of S is that of M, so S + c costs as much
      as S. It is also the base cost plus the rotation deltas of S's closed
      set, so c(X ^ Y) + c(X v Y) = c(X) + c(Y).
    - The rule. Let f(t) be the least cost in L_t, and let top < t < T
      with every level of S_t <= t-2. L_t lies in L_{t+1}, so
      f(t+1) <= f(t). Let S* be optimal in L_{t+1}. S_t + 1 lies in L_t,
      and so does S* ^ (S_t + 1), whose levels are <= t-1; so it costs at
      least f(t), and J = S* v (S_t + 1) costs at most
      f(t+1) + f(t) - f(t) = f(t+1).
      J's levels lie in 1..t, so J - 1 lies in L_t and f(t) <= f(t+1).
      So S_t is optimal in L_{t+1}, hence S_{t+1} <= S_t, whose levels are
      <= t-2; so S_{t+1} lies in L_t, is optimal there and S_t <= S_{t+1}.
      With S_{t+1} = S_t, whose levels are <= (t+1)-2, induction gives
      S_T = S_t: the same matching, levels and cost, and by (d) the same
      certificate.
    The levels of S_t are no lower than the run's, so the rule cannot fire
    below t = top + 2, where the route starts.
    """
    n_levels = _n_levels(inst)
    m0, level = _level_run(inst, n_levels)
    run = m0, {a: level[a] for a, _ in m0.pairs}  # leftover A-nodes sit at the top copy
    t = n_levels
    if not any(_pins(inst, m0)):  # pin-free: claim (f)
        t = min(max(run[1].values(), default=-1) + 2, n_levels)
    while True:
        res, top = _min_cost_run(inst, t, run)
        if t == n_levels or top <= t - 2:
            return res
        t = min(2 * t, n_levels)


def _min_cost(inst: Instance, n_levels: int) -> MinCostResult:
    """`min_cost_popular_max` on the derived instance with `n_levels` levels,
    the certificate read off its levels (claim (d))."""
    return _min_cost_run(inst, n_levels, _level_run(inst, n_levels))[0]


def _min_cost_run(inst: Instance, n_levels: int, run) -> tuple[MinCostResult, int]:
    """`_min_cost` started from `run`, the matching and levels of the
    A-proposing run at `n_levels` levels (A-nodes missing from its levels
    are leftovers), with the highest level of a matched A-node in the
    min-cost stable matching, -1 if none is matched. The walk reads the
    lists of `gstar._lists` and the rank maps built here."""
    gt = GStarTables(inst, n_levels)
    prefs = _lists(gt)
    rank = [{v: r for r, v in enumerate(lst)} for lst in prefs]
    m0, level = run
    base = gt.place(m0.pairs, level)
    partner = dict(base)
    partner.update((v, u) for u, v in base)
    cycles, preds = _rotation_walk(prefs, rank, range(gt.n_copies), partner)
    s = _cheapest_elimination(base, cycles, preds, gt.cost)
    from .certificates import _read_certificate
    m, level, cert = _read_certificate(gt, s)
    cost = sum(map(gt.cost, s))
    if cost != matching_cost(inst, m):
        raise InternalError("cost lifting is not cost-preserving")
    return MinCostResult(m, cost, cert), max((level[a] for a, _ in m.pairs), default=-1)


# ---------------------------------------------------------------------------
# Extended formulation emitter


_SEP = len(" + ")  # the separator between the terms of a row


def _enc(name: str) -> str:
    """LP-safe encoding of a source node id: ASCII [A-Za-z0-9_] kept, every
    other UTF-8 byte written as %XX, so distinct ids never share a token.
    Dots never appear, so they can separate fields."""
    out = []
    for byte in name.encode("utf-8", "surrogatepass"):
        ch = chr(byte)
        out.append(ch if byte < 0x80 and (ch.isalnum() or ch == "_") else f"%{byte:02X}")
    return "".join(out)


def emit_lp(inst: Instance) -> str:
    """Emit the extended formulation as CPLEX-LP-format text.

    Variables: one `xs.*` per derived edge and one `x.*` per source edge.
    Rows: a stability row per copy-image edge, a degree row per derived
    node (equality for the nodes every stable matching must match), and a
    linkage row tying each source edge variable to the sum of its copies.
    Minimizing the cost objective over this polytope solves min-cost
    popular max-matching; vertices are integral.

    The text is the join of `_lp_text`, which the `emit-lp` command writes
    as it goes, so the command never holds the whole text: the stability
    rows grow as the square of each image's list, about n^4 characters on
    a square instance with n nodes a side.
    """
    return "".join(_lp_text(inst))


def _lp_text(inst: Instance) -> Iterator[str]:
    """The text of `emit_lp` in pieces, each a run of whole lines, made as
    they are consumed: the header, then per copy its stability rows, the
    degree rows T nodes at a time, per A-node the linkage rows of its edges
    and the bounds of its copies' edges, and the rest. The instance is
    checked on the first `next`.

    The rows are written from the layout of the paper's derived instance,
    a `gstar.GStarTables`, whose id lists are never built: each source node
    is encoded once and `GStarTables.names` labels every derived node with
    its encoding. The edge of copy u and partner v is the variable
    xs.<u>.<v>, so a row is one `_terms` join of tokens between fixed
    strings: a copy's row joins its partners' tokens in the order of
    `GStarTables.copy_lists`, and an image's or dummy's row the tokens of
    the copies that `other_lists` lists for it. Only the tokens, each
    node's row and each image's prefix ends are kept. A stability row
    takes two prefixes: the copy's row up to the image's term, whose end
    runs along the row, and the image's row up to the copy's term, which
    ends where `image_start` and `level_block` place it.
    """
    gt = GStarTables(inst, len(inst.side_a))
    prefs, src_rank = inst.prefs, inst._rank
    enc = {u: _enc(u) for u in inst.nodes}
    pair = {e: f"{enc[e[0]]}.{enc[e[1]]}" for e in inst.edges}  # x.<pair> per source edge
    token = gt.names(lambda a, i: f"{enc[a]}.c{i}", lambda b: f"{enc[b]}.t",
                     lambda a, i: f"{enc[a]}.d{i}")
    image = {b: gt.image(j) for j, b in enumerate(inst.side_b)}

    # the copies are the ids below n_copies: each one's partners by level,
    # by A-node, and the head of each of its terms
    lists = [gt.copy_lists([token[image[b]] for b in prefs[a]], [token[d] for d in gt.dummies(k)])
             for k, a in enumerate(inst.side_a)]
    heads = [f"xs.{t}." for t in token[:gt.n_copies]]
    joined = [_terms(head, lst, "") for head, lst in zip(heads, chain.from_iterable(lists))]
    # each A-node's copies by level, as tokens; the images' and dummies'
    # lists in id order, of those tokens
    copies = [[token[u] for u in gt.copies(k)] for k in range(len(inst.side_a))]
    others = list(gt.other_lists(copies))
    joined += [_terms("xs.", lst, f".{token[v]}") for v, lst in enumerate(others, gt.n_copies)]
    # an image's first q terms with their separators end at ends[j][q]
    ends = []
    for v, lst in enumerate(others[:len(inst.side_b)], gt.n_copies):
        around = len(f"xs..{token[v]} + ")  # a term and its separator, less the copy's token
        ends.append(list(accumulate([len(u) + around for u in lst], initial=0)))

    terms = [f"{inst.cost(e)} x.{p}" for e, p in pair.items()]
    if not terms:
        terms = [f"0 {row.split(' + ')[0]}" for row in joined[:gt.n_copies] if row][:1]
    # each level's block in an image's row and start in a copy's row
    spots = [(gt.level_block(i), gt.image_start(i)) for i in range(gt.n_levels)]
    yield ("\\ extended formulation for the popular max-matching polytope\n"
           f"Minimize\n obj: {' + '.join(terms)}\nSubject To\n")

    for k, a in enumerate(inst.side_a):
        # per neighbor b: its image's token and row, and the ends in that
        # row of a's copies by level block: copy (k, i) sits at
        # level_block(i) * deg(b) + rank_b(a)
        images = [(token[image[b]], joined[image[b]], ends[gt.index[b]][src_rank[b][a]::len(prefs[b])])
                  for b in prefs[a]]
        for (block, s), u, lst in zip(spots, gt.copies(k), lists[k]):
            stab, head, ju = f" stab.{token[u]}.", heads[u], joined[u]
            end = sum(map(len, lst[:s])) + s * (len(head) + _SEP)  # the copy's row before its first image
            parts = []  # the rows' pieces, joined once, so each prefix is copied twice
            for v, jv, at in images:
                parts += (stab, v, ": ", ju[:end], jv[:at[block]], head, v, " >= 1\n")
                end += len(head) + len(v) + _SEP
            yield "".join(parts)

    # the degree rows T nodes a piece, with a fix row for each node every
    # stable matching matches: those the dummy chains fill when no source
    # node is matched
    must_match = set(chain.from_iterable(gt.place((), {})))
    step = max(gt.n_levels, 1)
    for lo in range(0, gt.n_nodes, step):
        yield "".join([f" deg.{t}: {row} <= 1\n fix.{t}: {row} = 1\n" if u in must_match
                       else f" deg.{t}: {row} <= 1\n"
                       for u, t, row in zip(range(lo, lo + step), token[lo:lo + step], joined[lo:lo + step])
                       if row])

    for k, a in enumerate(inst.side_a):  # the source edges in order, A-node by A-node
        # each edge's copies, by level
        links = [(pair[a, b], _terms("xs.", copies[k], f".{token[image[b]]}", " - ")) for b in prefs[a]]
        yield "".join([f" link.{p}: x.{p} - {terms} = 0\n" for p, terms in links])

    yield "Bounds\n"
    for k in range(len(inst.side_a)):
        yield "".join([_terms(f" 0 <= {heads[u]}", lst, " <= 1\n", "")
                       for u, lst in zip(gt.copies(k), lists[k])])
    yield _terms(" 0 <= x.", pair.values(), " <= 1\n", "") + "End\n"


def _terms(head: str, items, tail: str, sep: str = " + ") -> str:
    """head + item + tail for each item, joined by sep, in one join."""
    body = (tail + sep + head).join(items)
    return f"{head}{body}{tail}" if body else ""
