"""The auxiliary marriage instance whose stable matchings project onto
exactly the popular max-matchings of the source instance.

For a source with n0 = |A|, every A-node gets n0 copies chained through
n0-1 dummy nodes, and every B-node gets one image whose list ranks
higher-subscript copies first. Deleting dummy edges from a stable matching
of the derived instance and collapsing copies yields a popular
max-matching; conversely every popular max-matching arises this way, and
the copy subscripts carry the dual-certificate levels.

The layout is written once, in `build_tables`, on integer ids. Min-cost
optimization and the LP emitter read those tables; `build_gstar` names
their ids for the `gstar` command and for `certificates.lift`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import Edge, Instance, Matching, make_matching
from .errors import NotStableError, ValidationError
from .stable import _propose, is_stable

RESERVED = "#!~"


def copy_name(a: str, i: int) -> str:
    return f"{a}#{i}"


def dummy_name(a: str, i: int) -> str:
    return f"{a}!d{i}"


def image_name(b: str) -> str:
    return f"{b}~"


class GStarTables:
    """The derived instance on integer ids.

    Ids follow `build_gstar`'s node order. With n0 = |A|, copy i of the
    k-th A-node is k*n0 + i, the image of the j-th B-node is n0*n0 + j, and
    dummy i (1 <= i < n0) of the k-th A-node is n0*n0 + |B| + k*(n0-1) + i-1.
    The copies, ids below n0*n0, are the proposing side. `prefs[u]` lists
    ids from most to least preferred and `rank[u]` maps each of them to its
    position; `index` gives every source node its position on its side.
    """

    __slots__ = ("source", "n0", "index", "prefs", "rank")

    def __init__(self, source: Instance, n0: int, index: dict[str, int],
                 prefs: list[tuple[int, ...]], rank: list[dict[int, int]]):
        self.source, self.n0, self.index, self.prefs, self.rank = source, n0, index, prefs, rank

    def copy(self, k: int, i: int) -> int:
        return k * self.n0 + i

    def image(self, j: int) -> int:
        return self.n0 * self.n0 + j

    def dummy(self, k: int, i: int) -> int:
        return self.n0 * self.n0 + len(self.source.side_b) + k * (self.n0 - 1) + i - 1

    def origin(self, u: int) -> tuple:
        """("copy", a, i), ("image", b) or ("dummy", a, i): the node id u stands for."""
        n0, side_b = self.n0, self.source.side_b
        if u < n0 * n0:
            k, i = divmod(u, n0)
            return ("copy", self.source.side_a[k], i)
        u -= n0 * n0
        if u < len(side_b):
            return ("image", side_b[u])
        k, i = divmod(u - len(side_b), n0 - 1)  # dummies exist only when n0 >= 2
        return ("dummy", self.source.side_a[k], i + 1)

    def cost(self, e: tuple[int, int]) -> int:
        """Cost of the edge (copy, partner): its source edge's, 0 for a dummy edge."""
        j = e[1] - self.n0 * self.n0
        if j >= len(self.source.side_b):
            return 0
        return self.source.cost((self.source.side_a[e[0] // self.n0], self.source.side_b[j]))

    def place(self, pairs, level: dict[str, int]) -> list[tuple[int, int]]:
        """The id pairs that put the source pairs at the given levels.

        The copy of each matched A-node at its level takes the partner's
        image; copies below that level hold their upper dummy and copies
        above it their lower dummy. An A-node missing from `level` sits at
        the leftover level n0-1, where only its top copy is free.
        """
        n0, index = self.n0, self.index
        out = [(self.copy(index[a], level[a]), self.image(index[b])) for a, b in pairs]
        for k, a in enumerate(self.source.side_a):
            i = level.get(a, n0 - 1)
            out.extend((self.copy(k, j), self.dummy(k, j + 1)) for j in range(i))
            out.extend((self.copy(k, j), self.dummy(k, j)) for j in range(i + 1, n0))
        return out

    def project(self, pairs) -> Matching:
        """`project` of a set of id pairs."""
        return _collapse(self.source, pairs, self.origin)


def build_tables(inst: Instance) -> GStarTables:
    """Lay out the derived instance on integer ids; deterministic given source order."""
    for u in inst.nodes:
        if any(c in RESERVED for c in u):
            raise ValidationError(
                f"node id {u!r} contains a character reserved for derived names ({RESERVED})")
    n0 = len(inst.side_a)
    index = {a: k for k, a in enumerate(inst.side_a)}
    index.update((b, j) for j, b in enumerate(inst.side_b))
    gt = GStarTables(inst, n0, index, [], [])
    for k, a in enumerate(inst.side_a):
        images = tuple(gt.image(index[b]) for b in inst.prefs[a])
        for i in range(n0):
            lst = images
            if 1 <= i:
                lst = (gt.dummy(k, i),) + lst
            if i <= n0 - 2:
                lst = lst + (gt.dummy(k, i + 1),)
            gt.prefs.append(lst)
    for b in inst.side_b:
        gt.prefs.append(tuple(gt.copy(index[a], i) for i in range(n0 - 1, -1, -1) for a in inst.prefs[b]))
    for k in range(n0):
        gt.prefs.extend((gt.copy(k, i - 1), gt.copy(k, i)) for i in range(1, n0))
    gt.rank.extend({v: r for r, v in enumerate(lst)} for lst in gt.prefs)
    return gt


@dataclass(frozen=True)
class GStarInstance:
    """Derived marriage instance plus naming back-references to the source.
    Node i of `inner.nodes` is id i of `tables`."""

    source: Instance
    inner: Instance
    n0: int
    origin: dict[str, tuple] = field(repr=False)  # node -> ("copy",a,i) | ("dummy",a,i) | ("image",b)
    tables: GStarTables = field(repr=False)


_NAMERS = {"copy": copy_name, "dummy": dummy_name, "image": image_name}


def build_gstar(inst: Instance) -> GStarInstance:
    """The derived instance on string names: the ids of `build_tables`, named."""
    gt = build_tables(inst)
    origins = [gt.origin(u) for u in range(len(gt.prefs))]
    names = [_NAMERS[o[0]](*o[1:]) for o in origins]
    prefs = {names[u]: tuple(names[v] for v in lst) for u, lst in enumerate(gt.prefs)}
    copies = gt.n0 * gt.n0
    costs = {(names[u], names[v]): gt.cost((u, v)) for u in range(copies) for v in gt.prefs[u]}
    inner = Instance(tuple(names[:copies]), tuple(names[copies:]), prefs, costs)
    return GStarInstance(inst, inner, gt.n0, dict(zip(names, origins)), gt)


def _collapse(source: Instance, pairs, origin) -> Matching:
    """Drop dummy pairs and collapse copies, reading each derived node
    through `origin`."""
    out: list[Edge] = []
    seen_a = set()
    for u, v in pairs:
        kind = origin(v)
        if kind[0] == "dummy":
            continue
        a = origin(u)[1]
        if a in seen_a:
            raise ValidationError(
                f"projection is not a matching: two copies of {a!r} are matched to images")
        seen_a.add(a)
        out.append((a, kind[1]))
    return make_matching(source, out)


def project(gs: GStarInstance, s: Matching) -> Matching:
    """Drop dummy edges and collapse copies: (a_i, b~) becomes (a, b).

    Raises if two copies of the same node are matched to images, which
    cannot happen when s is stable.
    """
    return _collapse(gs.source, s.pairs, gs.origin.__getitem__)


def levels(gs: GStarInstance, s: Matching) -> dict[str, int]:
    """Copy-subscript level of every source node, read off a stable
    matching of the derived instance.

    A matched A-node takes the subscript of its matched copy and its
    partner the same level; a leftover A-node lands at level n0-1 and a
    leftover B-node at level 0. One map covers both sides, whose ids are
    disjoint.
    """
    if not is_stable(gs.inner, s):
        raise NotStableError("levels require a stable matching of the derived instance")
    level = {a: gs.n0 - 1 for a in gs.source.side_a}
    level.update((b, 0) for b in gs.source.side_b)
    for u, v in s.pairs:
        if gs.origin[v][0] == "dummy":
            continue
        _, a, i = gs.origin[u]
        _, b = gs.origin[v]
        level[a] = level[b] = i
    return level


def place(gs: GStarInstance, m: Matching, level: dict[str, int]) -> Matching:
    """The matching of the derived instance that puts source matching m at
    the given levels (see `GStarTables.place`): the inverse of project and
    levels."""
    names = gs.inner.nodes
    return make_matching(gs.inner, [(names[u], names[v]) for u, v in gs.tables.place(m.pairs, level)])


def level_proposals(inst: Instance) -> tuple[Matching, dict[str, int]]:
    """The canonical popular max-matching and its levels, without the
    derived instance.

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
    held, level = _propose(inst, inst.side_a, len(inst.side_a) - 1)
    m = make_matching(inst, held.items())
    level.update((b, level[held[b]] if b in held else 0) for b in inst.side_b)
    return m, level


def popular_max_matching(inst: Instance) -> Matching:
    """The canonical popular max-matching: the projection of the
    A-proposing deferred-acceptance run in the derived instance, run by
    `level_proposals` on the source graph in O(|E| x levels used)."""
    return level_proposals(inst)[0]
