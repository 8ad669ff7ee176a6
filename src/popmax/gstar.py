"""The auxiliary marriage instance whose stable matchings project onto
exactly the popular max-matchings of the source instance.

For a source with n0 = |A|, every A-node gets n0 copies chained through
n0-1 dummy nodes, and every B-node gets one image whose list ranks
higher-subscript copies first. Deleting dummy edges from a stable matching
of the derived instance and collapsing copies yields a popular
max-matching; conversely every popular max-matching arises this way, and
the copy subscripts carry the dual-certificate levels.
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


@dataclass(frozen=True)
class GStarInstance:
    """Derived marriage instance plus naming back-references to the source."""

    source: Instance
    inner: Instance
    n0: int
    origin: dict[str, tuple] = field(repr=False)  # node -> ("copy",a,i) | ("dummy",a,i) | ("image",b)


def build_gstar(inst: Instance) -> GStarInstance:
    """Construct the derived instance; deterministic given source order."""
    for u in inst.nodes:
        if any(c in RESERVED for c in u):
            raise ValidationError(
                f"node id {u!r} contains a character reserved for derived names ({RESERVED})")
    n0 = len(inst.side_a)
    origin: dict[str, tuple] = {}
    side_a = []
    for a in inst.side_a:
        for i in range(n0):
            side_a.append(copy_name(a, i))
            origin[copy_name(a, i)] = ("copy", a, i)
    side_b = []
    for b in inst.side_b:
        side_b.append(image_name(b))
        origin[image_name(b)] = ("image", b)
    for a in inst.side_a:
        for i in range(1, n0):
            side_b.append(dummy_name(a, i))
            origin[dummy_name(a, i)] = ("dummy", a, i)

    prefs: dict[str, tuple[str, ...]] = {}
    for a in inst.side_a:
        images = [image_name(b) for b in inst.prefs[a]]
        for i in range(n0):
            lst: list[str] = []
            if 1 <= i:
                lst.append(dummy_name(a, i))
            lst.extend(images)
            if i <= n0 - 2:
                lst.append(dummy_name(a, i + 1))
            prefs[copy_name(a, i)] = tuple(lst)
        for i in range(1, n0):
            prefs[dummy_name(a, i)] = (copy_name(a, i - 1), copy_name(a, i))
    for b in inst.side_b:
        lst = []
        for i in range(n0 - 1, -1, -1):
            lst.extend(copy_name(a, i) for a in inst.prefs[b])
        prefs[image_name(b)] = tuple(lst)

    costs = {}
    for (a, b), c in inst.costs.items():
        for i in range(n0):
            costs[(copy_name(a, i), image_name(b))] = c
    inner = Instance(tuple(side_a), tuple(side_b), prefs, costs)
    return GStarInstance(inst, inner, n0, origin)


def project(gs: GStarInstance, s: Matching) -> Matching:
    """Drop dummy edges and collapse copies: (a_i, b~) becomes (a, b).

    Raises if two copies of the same node are matched to images, which
    cannot happen when s is stable.
    """
    pairs: list[Edge] = []
    seen_a = set()
    for u, v in s.pairs:
        kind = gs.origin[v][0]
        if kind == "dummy":
            continue
        _, a, _i = gs.origin[u]
        _, b = gs.origin[v]
        if a in seen_a:
            raise ValidationError(
                f"projection is not a matching: two copies of {a!r} are matched to images")
        seen_a.add(a)
        pairs.append((a, b))
    return make_matching(gs.source, pairs)


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
    the given levels: the inverse of project and levels.

    The copy of each matched A-node at its level takes the partner's
    image; copies below that level hold their upper dummy and copies above
    it their lower dummy. An A-node missing from `level` sits at the
    leftover level n0-1, where only its top copy is free.
    """
    n0 = gs.n0
    pairs = [(copy_name(a, level[a]), image_name(b)) for a, b in m.pairs]
    for a in gs.source.side_a:
        i = level.get(a, n0 - 1)
        pairs.extend((copy_name(a, j), dummy_name(a, j + 1)) for j in range(i))
        pairs.extend((copy_name(a, j), dummy_name(a, j)) for j in range(i + 1, n0))
    return make_matching(gs.inner, pairs)


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
    the result is gale_shapley(build_gstar(inst).inner, "A"), and the
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
