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

from collections import deque
from dataclasses import dataclass, field

from .core import Edge, Instance, Matching, make_matching
from .errors import CertificateError, InternalError, NotStableError, ValidationError
from .stable import is_stable

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


@dataclass(frozen=True)
class LevelPartition:
    """Copy-subscript levels read off a stable matching of the derived instance.

    Matched A-nodes take the subscript of their matched copy; leftover
    A-nodes land at level n0-1. Matched B-nodes take their partner's
    subscript; leftover B-nodes land at level 0.
    """

    level_of_a: dict[str, int]
    level_of_b: dict[str, int]
    n0: int


def levels(gs: GStarInstance, s: Matching) -> LevelPartition:
    if not is_stable(gs.inner, s):
        raise NotStableError("level partition requires a stable matching of the derived instance")
    n0 = gs.n0
    level_of_a = {a: n0 - 1 for a in gs.source.side_a}
    level_of_b = {b: 0 for b in gs.source.side_b}
    for u, v in s.pairs:
        if gs.origin[v][0] == "dummy":
            continue
        _, a, i = gs.origin[u]
        _, b = gs.origin[v]
        level_of_a[a] = i
        level_of_b[b] = i
    return LevelPartition(level_of_a, level_of_b, n0)


def level_proposals(inst: Instance) -> tuple[Matching, LevelPartition]:
    """The canonical popular max-matching and its levels, without the
    derived instance.

    Every A-node proposes down its list at its current level; when the
    list is exhausted it moves up one level and starts again from the
    top, and at level n0-1 it stays unmatched. Each B-node holds the
    proposer with the largest (level, own preference). This is a valid
    run of A-proposing deferred acceptance in the derived instance: the
    active copy of a is its copy at the current level, the copies below
    it hold their dummies, and an image ranks higher-subscript copies
    first. The proposer-optimal stable matching is unique, so the result
    equals project/levels of gale_shapley(build_gstar(inst).inner, "A").
    It costs O(|E| x levels used).
    """
    n0 = len(inst.side_a)
    level = {a: 0 for a in inst.side_a}
    next_choice = {a: 0 for a in inst.side_a}
    held: dict[str, str] = {}  # B-node -> A-node
    queue = deque(inst.side_a)
    while queue:
        a = queue.popleft()
        lst = inst.prefs[a]
        if not lst:
            level[a] = n0 - 1
            continue
        while True:
            if next_choice[a] == len(lst):
                if level[a] == n0 - 1:
                    break
                level[a] += 1
                next_choice[a] = 0
            b = lst[next_choice[a]]
            next_choice[a] += 1
            current = held.get(b)
            if current is None:
                held[b] = a
                break
            if level[a] > level[current] or (
                    level[a] == level[current] and inst.prefers(b, a, current)):
                held[b] = a
                queue.append(current)
                break
    level_of_b = {b: 0 for b in inst.side_b}
    for b, a in held.items():
        level_of_b[b] = level[a]
    m = make_matching(inst, [(a, b) for b, a in held.items()])
    return m, LevelPartition(level, level_of_b, n0)


def popular_max_matching(inst: Instance) -> Matching:
    """The canonical popular max-matching: the projection of the
    A-proposing deferred-acceptance run in the derived instance, run by
    `level_proposals` on the source graph in O(|E| x levels used)."""
    return level_proposals(inst)[0]


def _down_edge_exists(inst: Instance, lvl: dict[str, int], low: int) -> bool:
    """Is there an edge, both endpoints matched, with its A-end one level
    above its B-end at `low`? Such edges pin consecutive levels together."""
    for a, b in inst.edges:
        if lvl.get(a) == low + 1 and lvl.get(b) == low:
            return True
    return False


def _remap_levels(inst: Instance, m: Matching, level: dict[str, int], n_levels: int,
                  pin_bottom: bool, pin_top: bool) -> dict[int, int]:
    """Order-preserving injection of the occupied levels into 0..n_levels-1
    that keeps rigidly chained levels adjacent and pins the extremes when
    unmatched nodes demand it."""
    occupied = sorted({level[a] for a, _ in m.pairs})
    if not occupied:
        return {}
    steps = []  # minimal widths between consecutive occupied levels
    stretchable = []
    for k in range(len(occupied) - 1):
        low, high = occupied[k], occupied[k + 1]
        rigid = high == low + 1 and _down_edge_exists(inst, level, low)
        steps.append(1)
        if not rigid:
            stretchable.append(k)
    span = sum(steps)
    if pin_top and pin_bottom:
        slack = (n_levels - 1) - span
        if slack < 0:
            raise InternalError("certificate level span exceeds the derived instance")
        if slack > 0:
            if not stretchable:
                raise InternalError("rigid level chain cannot be stretched to the pins")
            steps[stretchable[0]] += slack
        base = 0
    elif pin_top:
        base = (n_levels - 1) - span
        if base < 0:
            raise InternalError("certificate level span exceeds the derived instance")
    else:
        base = 0
    out = {}
    pos = base
    for k, l in enumerate(occupied):
        if k > 0:
            pos += steps[k - 1]
        out[l] = pos
    return out


def lift(inst: Instance, m: Matching, cert, *, gs: GStarInstance | None = None) -> Matching:
    """Build a stable matching of the derived instance projecting to m.

    `cert` is a verified dual certificate for m; its levels choose which
    copy of each matched A-node pairs with its partner's image, and the
    dummy chains fill in around that copy. With unmatched nodes present the
    certificate levels are stretched so that neighbors of unmatched A-nodes
    sit at the top copy and neighbors of unmatched B-nodes at copy 0; for a
    perfect matching the certificate levels are used as-is.
    """
    from .certificates import verify_certificate

    report = verify_certificate(inst, m, cert)
    if not report.ok:
        raise CertificateError("certificate invalid for the matching", report.violations)
    if gs is None:
        gs = build_gstar(inst)
    n0 = gs.n0
    cert_level = {u: abs(v) // 2 for u, v in cert.alpha.items()}
    unmatched_a = [a for a in inst.side_a if not m.is_matched(a) and inst.prefs[a]]
    unmatched_b = [b for b in inst.side_b if not m.is_matched(b) and inst.prefs[b]]
    if unmatched_a:
        # neighbors of unmatched A-nodes must end up at the top copy, so the
        # certificate levels are stretched up to it
        remap = _remap_levels(inst, m, cert_level, n0,
                              pin_bottom=bool(unmatched_b), pin_top=True)
    else:
        remap = {cert_level[a]: cert_level[a] for a, _ in m.pairs}

    pairs: list[Edge] = []
    placed = {}
    for a, b in m.pairs:
        placed[a] = remap[cert_level[a]]
        pairs.append((copy_name(a, placed[a]), image_name(b)))
    for a in inst.side_a:
        i = placed.get(a, n0 - 1)
        for j in range(i):
            pairs.append((copy_name(a, j), dummy_name(a, j + 1)))
        for j in range(i + 1, n0):
            pairs.append((copy_name(a, j), dummy_name(a, j)))
    lifted = make_matching(gs.inner, pairs)
    if not is_stable(gs.inner, lifted):
        raise CertificateError(
            "certificate does not lift to a stable matching; "
            "the matching is likely not a popular max-matching")
    if project(gs, lifted).pairs != m.pairs:
        raise InternalError("lift does not project back to the input matching")
    return lifted
