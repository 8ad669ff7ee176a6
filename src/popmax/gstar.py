"""The auxiliary marriage instance whose stable matchings project onto
exactly the popular max-matchings of the source instance.

For a source with n0 = |A|, every A-node gets n0 copies chained through
n0-1 dummy nodes, and every B-node gets one image whose list ranks
higher-subscript copies first. Deleting dummy edges from a stable matching
of the derived instance and collapsing copies yields a popular
max-matching; conversely every popular max-matching arises this way, and
the copy subscripts carry the dual-certificate levels.

The layout is written once, in `GStarTables`, on integer ids, for any
number of levels T: its ids and the positions in each list are arithmetic
on the source's lists. Its constructor lays out the edge costs and
checks no id, and one call, `GStarTables.lists(label)`, writes every
list in the three orders, each entry as its caller labels it: the min-cost
route passes the ids, for its rotation walk, the LP emitter its nodes'
tokens, and `_named` and the `gstar` command's `_text` the nodes' names,
which `_names` writes: the reserved characters `#!~` are checked there
alone, so only the products that write names (`gstar`, `build_gstar`,
`lift`) refuse a source id holding one.
The products keep the paper's T = n0: the LP emitter builds no id lists,
the `gstar` command writes its text from the tables, `build_gstar` builds
the string instance for `certificates.lift` (and the library), and
`level_proposals` reports its levels. The routes that return only a source
matching run fewer. `popular_max_matching` runs T = `_n_levels(inst)` =
max(min(|A|, |B|), 1) levels, which yields the same matching (see
`_n_levels`). Min-cost optimization walks the lists in one loop over level
counts: from T or, when the run at T matches every node with neighbors,
from two levels above the run's top one, doubling up to T until a stopping
rule fires (claim (f) of `mincost.min_cost_popular_max`), with the same
result.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

from .core import Edge, Instance, Matching, _instance_text, make_matching
from .errors import NotStableError, ValidationError
from .stable import _propose, is_stable

RESERVED = "#!~"
_RESERVED = frozenset(RESERVED)


def copy_name(a: str, i: int) -> str:
    return f"{a}#{i}"


def dummy_name(a: str, i: int) -> str:
    return f"{a}!d{i}"


def image_name(b: str) -> str:
    return f"{b}~"


class GStarTables:
    """The derived instance on integer ids.

    Ids follow `build_gstar`'s node order. With T = `n_levels` levels and
    n = |A| A-nodes, copy i (0 <= i < T) of the k-th A-node is k*T + i,
    the image of the j-th B-node is n*T + j, and dummy i (1 <= i < T) of
    the k-th A-node is n*T + |B| + k*(T-1) + i-1. `copies(k)`, `image(j)`
    and `dummies(k)` are the one way to these ids and `read` the one way
    back; `names` labels them all, one block of ids at a time. The
    copies, ids below `n_copies` = n*T, are the proposing side. The
    paper's instance has T = n. `index` gives every source node its
    position on its side.

    The lists are arithmetic on the source's, and `image_start` and
    `level_block` give where each id sits in its neighbors' lists:
    - copy (a, i) lists its lower dummy when i >= 1, then the images of
      `prefs[a]` in order, then its upper dummy when i <= T-2, so image b
      sits at `image_start(i)` + rank_a(b);
    - image b lists the copies of its neighbors level by level from the
      top, each level in b's order, so copy (a, i) sits at
      `level_block(i)` * deg(b) + rank_b(a);
    - dummy i of a lists copy (a, i-1), then copy (a, i): it is the last
      entry of its lower copy's list and the first of its upper copy's.
    `lists(label)` is the one layout call: it writes every list in these
    orders, each id v as `label[v]`, and is the only code that writes
    them. `costs[k]` maps the images of the k-th A-node's neighbors to
    their nonzero edge costs, in its list's order. No source id is
    checked: the tables hold ids, and `_names` checks the characters the
    derived names reserve.
    """

    __slots__ = ("source", "n_levels", "n_copies", "n_nodes", "index", "costs")

    def __init__(self, source: Instance, n_levels: int):
        self.source, self.n_levels = source, n_levels
        self.index = {a: k for k, a in enumerate(source.side_a)}
        self.index.update((b, j) for j, b in enumerate(source.side_b))
        n_a = len(source.side_a)
        self.n_copies = n_a * n_levels
        self.n_nodes = self.n_copies + len(source.side_b) + n_a * (n_levels - 1)
        costs = source.costs  # the nonzero costs, laid out in list order
        self.costs = [{self.image(self.index[b]): c for b in source.prefs[a] if (c := costs.get((a, b)))}
                      for a in source.side_a]

    def image(self, j: int) -> int:
        return self.n_copies + j

    def copies(self, k: int) -> range:
        """The ids of the k-th A-node's copies, by level: copy i is `copies(k)[i]`."""
        return range(k * self.n_levels, (k + 1) * self.n_levels)

    def dummies(self, k: int) -> range:
        """The ids of the k-th A-node's dummies 1..T-1, by subscript: dummy i
        is `dummies(k)[i - 1]`."""
        first = self.n_copies + len(self.source.side_b) + k * (self.n_levels - 1)
        return range(first, first + self.n_levels - 1)

    def image_start(self, i: int) -> int:
        """Where the images begin in the list of a copy at level i: after
        its lower dummy, which only copies above level 0 have."""
        return 1 if i else 0

    def level_block(self, i: int) -> int:
        """Which block of an image's list holds the copies at level i: the
        copies of the B-node's neighbors at one level form a block, in its
        own order, and the higher levels come first."""
        return self.n_levels - 1 - i

    def lists(self, label) -> list:
        """Every id's list by id, from most to least preferred, each entry v
        written as `label[v]`: the one place the three list orders are
        written. Copy i of an A-node lists its lower dummy i when i >= 1, then
        the images of its A-node's list, then its upper dummy i+1 when
        i <= T-2; image b lists the copies of its neighbors level by level
        from the top, each level in b's order; dummy i lists copy i-1, then
        copy i."""
        inst, index = self.source, self.index
        copies = [[label[u] for u in self.copies(k)] for k in range(len(inst.side_a))]
        out = []
        for k, a in enumerate(inst.side_a):
            row = [label[self.image(index[b])] for b in inst.prefs[a]]
            ends = [(), *((label[d],) for d in self.dummies(k)), ()]  # copy i: ends[i] below, ends[i+1] above
            out += [[*lower, *row, *upper] for lower, upper in zip(ends, ends[1:])]
        top_first = sorted(range(self.n_levels), key=self.level_block)
        for b in inst.side_b:
            rows = [copies[index[a]] for a in inst.prefs[b]]
            out.append([row[i] for i in top_first for row in rows])
        out += [pair for row in copies for pair in zip(row[:-1], row[1:])]
        return out

    def names(self, copy, image, dummy) -> list:
        """Every id's label in id order, block by block as `copies`, `image`
        and `dummies` number the ids: `copy(a, i)` for the copies, a-major,
        then `image(b)` for the images, then `dummy(a, i)` for the
        dummies, a-major."""
        side_a, levels = self.source.side_a, range(self.n_levels)
        return ([copy(a, i) for a in side_a for i in levels] + [*map(image, self.source.side_b)]
                + [dummy(a, i) for a in side_a for i in levels[1:]])

    def cost(self, e: tuple[int, int]) -> int:
        """Cost of the edge (copy, partner): its source edge's, 0 for a dummy edge."""
        return self.costs[e[0] // self.n_levels].get(e[1], 0)

    def place(self, pairs, level: dict[str, int]) -> list[tuple[int, int]]:
        """The id pairs that put the source pairs at the given levels.

        The copy of each matched A-node at its level takes the partner's
        image; copies below that level hold their upper dummy and copies
        above it their lower dummy. An A-node missing from `level` sits at
        the leftover level T-1, where only its top copy is free.
        """
        t, index = self.n_levels, self.index
        out = [(self.copies(index[a])[level[a]], self.image(index[b])) for a, b in pairs]
        for k, a in enumerate(self.source.side_a):
            i = level.get(a, t - 1)
            copies, dummies = self.copies(k), self.dummies(k)
            out.extend(zip(copies[:i], dummies[:i]))
            out.extend(zip(copies[i + 1:], dummies[i:]))
        return out

    def read(self, pairs) -> tuple[Matching, dict[str, int]]:
        """The source matching and levels a set of id pairs stands for: the
        inverse of `place`.

        Each pair is (copy, partner). Copy u is copy u mod T of the
        (u div T)-th A-node; partner v is the image of the j-th B-node when
        j = v - `n_copies` < |B|, else a dummy, and then the pair is
        dropped. A kept pair takes the copy's subscript as the level of both
        ends. A leftover A-node sits at T-1 and a leftover B-node at 0; one
        map covers both sides, whose ids are disjoint. Raises if two copies
        of one node hold images, which cannot happen when the pairs are
        stable.
        """
        side_a, side_b = self.source.side_a, self.source.side_b
        level = dict.fromkeys(side_a, self.n_levels - 1)
        level.update(dict.fromkeys(side_b, 0))
        out: list[Edge] = []
        seen_a = set()
        for u, v in pairs:
            j = v - self.n_copies
            if j >= len(side_b):  # a dummy
                continue
            k, i = divmod(u, self.n_levels)
            a, b = side_a[k], side_b[j]
            if a in seen_a:
                raise ValidationError(
                    f"projection is not a matching: two copies of {a!r} are matched to images")
            seen_a.add(a)
            out.append((a, b))
            level[a] = level[b] = i
        return make_matching(self.source, out), level


class GStarInstance(NamedTuple):
    """Derived marriage instance on string names. Node i of `inner.nodes`
    is id i of `tables`, and `ids` maps each name back to its id."""

    source: Instance
    inner: Instance
    n0: int
    ids: dict[str, int]
    tables: GStarTables


def build_gstar(inst: Instance) -> GStarInstance:
    """The derived instance on string names: the paper's |A| levels, named;
    deterministic given source order."""
    return _named(GStarTables(inst, len(inst.side_a)))


def _named(gt: GStarTables) -> GStarInstance:
    """The ids and lists of `gt` named, with its level count as `n0`."""
    names = _names(gt)
    costs = {(a, b): c for a, b, c in _priced(gt, names)}
    inner = Instance(names[:gt.n_copies], names[gt.n_copies:], dict(zip(names, gt.lists(names))), costs)
    return GStarInstance(gt.source, inner, gt.n_levels, {name: u for u, name in enumerate(names)}, gt)


def _text(inst: Instance) -> str:
    """`serialize_instance(build_gstar(inst).inner)`, written straight from
    the tables: the names, `GStarTables.lists` and `_priced` feed the
    instance writer, and no string instance is built or checked."""
    gt = GStarTables(inst, len(inst.side_a))
    names = _names(gt)
    return _instance_text(names[:gt.n_copies], names[gt.n_copies:], gt.lists(names), _priced(gt, names))


def _names(gt: GStarTables) -> list:
    """Every id's derived name, in id order: `a#i`, `b~` and `a!di`. The
    only check of the reserved characters, made here, where the names are
    written: raises `ValidationError` if a source id holds one of them.
    The min-cost route and the LP writer read the tables on ids and tokens
    alone, so they accept every id `Instance` accepts."""
    for u in gt.source.nodes:
        if not _RESERVED.isdisjoint(u):
            raise ValidationError(
                f"node id {u!r} contains a character reserved for derived names ({RESERVED})")
    return gt.names(copy_name, image_name, dummy_name)


def _priced(gt: GStarTables, names) -> Iterator[tuple]:
    """(copy, image, cost), labelled by `names`, for each copy-image edge of
    nonzero cost, in edge order: copy by copy in id order, each in its list's
    order. Dummy edges cost nothing."""
    return ((names[u], names[v], c) for k, row in enumerate(gt.costs) for u in gt.copies(k) for v, c in row.items())


def project(gs: GStarInstance, s: Matching) -> Matching:
    """Drop dummy edges and collapse copies: (a_i, b~) becomes (a, b).

    Raises if two copies of the same node are matched to images, which
    cannot happen when s is stable.
    """
    return gs.tables.read((gs.ids[u], gs.ids[v]) for u, v in s.pairs)[0]


def levels(gs: GStarInstance, s: Matching) -> dict[str, int]:
    """Copy-subscript level of every source node, read off a stable
    matching of the derived instance by `GStarTables.read`: a matched
    A-node and its partner take the subscript of its matched copy, a
    leftover A-node n0-1 and a leftover B-node 0.
    """
    if not is_stable(gs.inner, s):
        raise NotStableError("levels require a stable matching of the derived instance")
    return gs.tables.read((gs.ids[u], gs.ids[v]) for u, v in s.pairs)[1]


def place(gs: GStarInstance, m: Matching, level: dict[str, int]) -> Matching:
    """The matching of the derived instance that puts source matching m at
    the given levels (see `GStarTables.place`): the inverse of project and
    levels."""
    names = gs.inner.nodes
    return make_matching(gs.inner, [(names[u], names[v]) for u, v in gs.tables.place(m.pairs, level)])


def level_proposals(inst: Instance) -> tuple[Matching, dict[str, int]]:
    """The canonical popular max-matching and its levels in the paper's
    derived instance, without building it.

    Every A-node proposes down its list at its current level; when the
    list is exhausted it moves up one level and starts again from the
    top, and at level n0-1 it stays unmatched. Each B-node holds the
    proposer with the largest (level, own preference). This is a valid
    run of A-proposing deferred acceptance in the derived instance: the
    active copy of a is its copy at the current level, the copies below
    it hold their dummies, and an image ranks higher-subscript copies
    first. The proposer-optimal stable matching is unique, so `place` of
    the result is gale_shapley(build_gstar(inst).inner), and the
    result is its project/levels: the returned map gives every source
    node its level, leftover B-nodes at 0. It costs O(|E| x levels used).
    """
    return _level_run(inst, len(inst.side_a))


def _level_run(inst: Instance, n_levels: int) -> tuple[Matching, dict[str, int]]:
    """`level_proposals` in the derived instance with `n_levels` levels."""
    held, level = _propose(inst, n_levels - 1)
    m = make_matching(inst, held.items())
    level.update((b, level[held[b]] if b in held else 0) for b in inst.side_b)
    return m, level


def _n_levels(inst: Instance) -> int:
    """T = max(min(|A|, |B|), 1): the level count of `popular_max_matching`,
    and the most levels min-cost optimization runs (claim (f) of
    `mincost.min_cost_popular_max` lets it stop below T). With k the size
    of a maximum matching, k <= T <= |A|. Two claims keep their output that
    of |A| levels.

    Level form. In a stable matching S of the T-level instance every dummy
    is matched (copy a_i ranks dummy i first), so S = `place`(M, l) for
    its projection M and levels l: a pair of M shares one level, leftover
    A-nodes sit at T-1 and leftover B-nodes at 0. Reading off the
    copy-image edges, `place`(M, l) is stable iff l maps into 0..T-1 and
      (E) l(b) >= l(a) + wt(a, b)/2 on each edge outside M with both ends
          matched (wt is `core.wt_edge`: the two votes summed);
      (P) no edge joins two leftover nodes; a neighbor b of a leftover
          A-node has l(b) = T-1 and prefers its partner; a neighbor a of
          a leftover B-node has l(a) = 0 and prefers its partner
          (`core._pins` lists these top and bottom pins).
    For M fixed these are difference constraints. If feasible, their least
    solution l_T^M is the longest-chain closure from the lower bounds (0
    everywhere, T-1 at the top pins of (P)) along the pairs of M (both
    ways, gain 0) and the edges of (E) (A-end to B-end, gain wt/2 <= 1);
    M is feasible iff no chain cycle gains and l_T^M meets the upper
    bounds T-1 and 0 at the bottom pins.

    Chains. A chain that repeats no node alternates between pairs of M and
    other edges, so one touching j pairs gains at most j-1 (with no gaining
    cycle). Let D hold the A-nodes that some maximum matching leaves
    unmatched, and their neighbors (Dulmage-Mendelsohn). For maximum M, D
    is the set reached from leftover A-nodes by even alternating paths, so
    it does not depend on M; each pair of M lies inside or outside D; a
    chain that reaches D stays in it; the top pins lie in D, the bottom pins
    outside it (else an augmenting path); and each matched node of D is
    reached by a chain from a top pin along such a path, which keeps a
    value of at least T - (pairs of M in D).

    (a) For T >= max(k, 1) the stable matchings project onto exactly the
    popular max-matchings. If M is not maximum, an augmenting path with
    r < k pairs either joins two leftover nodes or runs a chain from a top
    pin (T-1) to a bottom pin (0) that drops at most r-1: T <= r < k. If
    M is maximum, neither a gaining cycle nor the preferences of (P)
    involve T; off D, l_T^M(x) is the best gain of a chain into x, at
    most k-1 <= T-1 and the same for every T. On D, l_T^M(x) = T-1 + g(x),
    g(x) the best gain from a top pin and the same for every T. No other
    chain beats the top chains: one starting in D starts at 0, and one
    entering D from outside brings at most the pairs of M outside D, k
    minus the pairs in D; the top chain there keeps at least T minus the
    pairs in D, which is no less. So M meets the upper bounds at one
    T >= k iff at all of them, and at T = |A| >= k the paper's theorem
    makes that popularity (with |A| = 0 only the empty matching exists).

    (b) The A-proposing run gives the same matching at T and at |A| levels.
    Copy a_i ranks its lower dummy first, the images next and its upper
    dummy last, so all copies fare at least as well in (M, l) as in
    (M', l') iff for every A-node a, l(a) < l'(a), or l(a) = l'(a) and a
    ranks M(a) no lower than M'(a) (being unmatched last). So the
    A-optimal stable matching has least levels: it is the greatest element
    of R_T = {(M, l_T^M) : M a popular max-matching}. By the proof of (a)
    l_{T+1}^M = l_T^M + 1 on D (leftover A-nodes included) and unchanged
    off it, with one D for all M. So (M, l_T^M) -> (M, l_{T+1}^M) is a
    bijection R_T -> R_{T+1} (by (a) both list the popular max-matchings)
    that keeps each A-node's comparison; it maps the greatest element to
    the greatest element, with the same M. Induction takes T up to |A|.
    """
    return max(min(len(inst.side_a), len(inst.side_b)), 1)


def popular_max_matching(inst: Instance) -> Matching:
    """The canonical popular max-matching: the projection of the
    A-proposing deferred-acceptance run in the derived instance, run on
    the source graph by `_level_run` with `_n_levels(inst)` levels, which
    gives the matching of `level_proposals` in O(|E| x levels used)."""
    return _level_run(inst, _n_levels(inst))[0]
