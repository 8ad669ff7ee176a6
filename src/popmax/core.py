"""Instance and matching data model, file formats, and vote arithmetic.

An instance is a bipartite graph where every node holds a strict preference
list over its neighbors; edges may carry integer costs. Matchings, the
three-valued edge weight `wt_edge`, and head-to-head vote tallies between
matchings are defined here and used by every other module.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import ParseError, ValidationError

Edge = tuple[str, str]  # always oriented (A-side id, B-side id)


class _Frozen:
    """A value on __slots__ whose fields are set once, through `_set`, and
    read-only after. Values of one class are equal when their `_compared`
    fields are, which also give the hash, the repr and the constructor arguments."""

    __slots__ = ()
    _compared: tuple[str, ...] = ()

    def _set(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._compared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return self.__class__, self._key()

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._compared)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__


class Instance(_Frozen):
    """A bipartite preference instance.

    `prefs[u]` lists u's neighbors from most to least preferred. Preference
    lists must be mutually consistent: b appears in prefs[a] iff a appears in
    prefs[b], and the edge set is exactly those mutual pairs. Costs default
    to 0 and are stored only for nonzero values; keys must be edges.
    Fields cannot be rebound, and all operations on instances are pure; the
    `prefs` and `costs` dicts must not be mutated either, since the rank
    maps built from the lists on their first read would go stale. Instances
    are unhashable.
    """

    __slots__ = ("side_a", "side_b", "prefs", "costs", "_ranks", "_a_set")
    _compared = ("side_a", "side_b", "prefs", "costs")

    def __init__(self, side_a: Sequence[str], side_b: Sequence[str],
                 prefs: dict[str, Sequence[str]], costs: dict[Edge, int] | None = None):
        self._set(side_a=side_a, side_b=side_b, prefs=prefs, costs={} if costs is None else costs)
        self.__post_init__()

    def __post_init__(self):
        # each entry is checked once. A value of the wrong Python type makes a check
        # of its part raise, and the part's `try` (free from Python 3.11 on, until
        # something raises) reports it as a ValidationError
        try:
            side_a, side_b = tuple(self.side_a), tuple(self.side_b)
            a_set, b_set = set(side_a), set(side_b)
            ids = side_a + side_b
            # str.split() splits on exactly the characters str.isspace() accepts, so the
            # ids, joined by spaces, split back into themselves iff none is empty or spaced;
            # then some id starts with '#' (a matching line it began would read as a
            # comment) iff a '#' begins the string or follows a space
            joined = " ".join(ids)
        except TypeError:
            raise ValidationError("node identifiers must be strings") from None
        known = a_set | b_set
        if len(known) != len(ids):
            raise ValidationError("duplicate node identifier")
        if ":" in joined or joined.split() != list(ids) or joined[:1] == "#" or " #" in joined:
            u = next(u for u in ids if u.split() != [u] or ":" in u or u[:1] == "#")
            raise ValidationError(f"bad node identifier {u!r}")
        try:
            get = self.prefs.get
            unknown = not known.issuperset(self.prefs)
        except (AttributeError, TypeError):
            raise ValidationError("preferences must map nodes to lists") from None
        if unknown:
            # the least unknown key, string keys first: keys of mixed types do not compare
            u = min(set(self.prefs) - known, key=lambda u: (not isinstance(u, str), str(u)))
            raise ValidationError(f"preference list for unknown node {u!r}")
        # one set per list: its size finds duplicates, its members the side and the mirror
        prefs, listed = {}, {}
        try:
            for side, opposite in ((side_a, b_set), (side_b, a_set)):
                within = opposite.issuperset
                for u in side:
                    lst = tuple(get(u, ()))
                    members = set(lst)
                    if len(members) != len(lst):
                        raise ValidationError(f"duplicate entry in preference list of {u!r}")
                    if not within(members):
                        v = next(v for v in lst if v not in opposite)
                        raise ValidationError(f"{u!r} lists {v!r}, which is not on the opposite side")
                    prefs[u] = lst
                    listed[u] = members
        except TypeError:
            raise ValidationError(f"bad preference list for {u!r}") from None
        for a in side_a:
            for b in prefs[a]:
                if a not in listed[b]:
                    raise ValidationError(f"non-mutual preference: {a!r} lists {b!r} but not vice versa")
        # every A-side entry is mirrored, so a B-side entry is unmirrored iff B lists more
        if sum(map(len, prefs.values())) != 2 * sum(map(len, map(prefs.__getitem__, side_a))):
            for b in side_b:
                for a in prefs[b]:
                    if b not in listed[a]:
                        raise ValidationError(f"non-mutual preference: {b!r} lists {a!r} but not vice versa")
        try:
            items = self.costs.items()
        except AttributeError:
            raise ValidationError("costs must map edges to integers") from None
        costs = {}
        try:
            for e, c in items:
                a, b = e
                if a not in a_set or b not in listed[a]:
                    raise ValidationError(f"cost on non-edge {(a, b)!r}")
                value = int(c)
                if value != c:
                    raise ValidationError(f"non-integer cost on {(a, b)!r}")
                if value:
                    costs[e if type(e) is tuple else (a, b)] = value
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(f"bad cost entry {e!r}: {c!r}") from None
        self._set(side_a=side_a, side_b=side_b, prefs=prefs, costs=costs, _ranks=None, _a_set=a_set)

    @property
    def _rank(self) -> dict[str, dict[str, int]]:
        """Each node's rank map, v -> the position of v in prefs[u]: built by
        `_rank_maps` on the first read and kept. Only the solvers, `rank`,
        `compare` and `wt_edge` read it; a verdict reads positions off the lists."""
        if self._ranks is None:
            self._set(_ranks=_rank_maps(self.prefs))
        return self._ranks

    @property
    def edges(self) -> tuple[Edge, ...]:
        """Every edge (a, b), A-node by A-node in side order and each in a's
        list order; computed on each read, so read it once per use."""
        return tuple((a, b) for a in self.side_a for b in self.prefs[a])

    @property
    def nodes(self) -> tuple[str, ...]:
        return self.side_a + self.side_b

    def is_a(self, u: str) -> bool:
        return u in self._a_set

    def has_edge(self, u: str, v: str) -> bool:
        return v in self.prefs.get(u, ())

    def as_edge(self, u: str, v: str) -> Edge:
        """Return (u, v) oriented as (A-node, B-node); raise if not an edge."""
        a, b = (u, v) if u in self._a_set else (v, u)
        if b not in self.prefs.get(a, ()):
            raise ValidationError(f"({u!r}, {v!r}) is not an edge")
        return (a, b)

    def rank(self, u: str, v: str) -> int:
        return self._rank[u][v]

    def cost(self, e: Edge) -> int:
        return self.costs.get(e, 0)


def _rank_maps(prefs: dict[str, tuple[str, ...]]) -> dict[str, dict[str, int]]:
    """u -> (v -> position of v in prefs[u]), for every list."""
    return {u: {v: i for i, v in enumerate(lst)} for u, lst in prefs.items()}


class Matching(_Frozen):
    """A set of pairwise node-disjoint edges; `partner` is the derived map,
    a dict that must not be mutated."""

    __slots__ = ("pairs", "partner")
    _compared = ("pairs",)

    def __init__(self, pairs: Iterable[Edge]):
        self._set(pairs=pairs)
        self.__post_init__()

    def __post_init__(self):
        pairs, partner = frozenset(self.pairs), {}
        for a, b in pairs:
            if a in partner or b in partner:
                raise ValidationError("matching edges are not node-disjoint")
            partner[a] = b
            partner[b] = a
        self._set(pairs=pairs, partner=partner)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(sorted(self.pairs))

    def partner_of(self, u: str) -> str | None:
        return self.partner.get(u)

    def is_matched(self, u: str) -> bool:
        return u in self.partner


def make_matching(inst: Instance, pairs: Iterable[Sequence[str]]) -> Matching:
    """Validate `pairs` against `inst` and build a Matching (edges reoriented A-first)."""
    return Matching(frozenset(inst.as_edge(u, v) for u, v in pairs))


class VoteTally(NamedTuple):
    """Head-to-head election result between two matchings: the voters
    preferring m, those preferring n, and delta = phi_mn - phi_nm."""

    phi_mn: int
    phi_nm: int
    delta: int


def wt_edge(inst: Instance, m: Matching, e: Edge) -> int:
    """Three-valued weight of edge e against matching m.

    2 if both endpoints strictly prefer each other to their assignment under m
    (a blocking edge; being unmatched counts as the worst assignment), -2 if
    both endpoints are matched and strictly prefer their partners to each
    other, 0 otherwise. In particular every edge of m has weight 0.
    """
    a, b = inst.as_edge(*e)
    if m.partner.get(a) == b:
        return 0
    rank = inst._rank
    wants = sum(p is None or rank[u][v] < rank[u][p]
                for u, v, p in ((a, b, m.partner.get(a)), (b, a, m.partner.get(b))))
    return 2 * wants - 2


def _cuts(inst: Instance, m: Matching) -> tuple[dict[str, int], dict[str, set[str]]]:
    """Each A-node's cut under m, and the set of nodes each B-node lists
    ahead of its own cut. A node's cut is the position of its partner in its
    list, or the length of its list when it is unmatched. u votes +1 for a
    neighbor v over its assignment iff v is ahead of u's cut, and -1 for a
    non-partner v behind it, so wt(a, b) is the sum of the two votes."""
    prefs, partner = inst.prefs, m.partner
    return ({a: prefs[a].index(partner[a]) if a in partner else len(prefs[a]) for a in inst.side_a},
            {b: set(prefs[b][:prefs[b].index(partner[b])] if b in partner else prefs[b])
             for b in inst.side_b})


def _weights(inst: Instance, m: Matching) -> Iterator[tuple[str, str, int]]:
    """(a, b, wt(a, b)) for every edge, in `inst.edges` order. Each A-list is
    read by position: a votes for the entries before its cut, sits at its
    partner on the cut and votes against the rest, so only b's vote needs a
    lookup, in the set of nodes b lists ahead of its cut. An edge of m has
    weight 0."""
    prefs, (cut, ahead) = inst.prefs, _cuts(inst, m)
    for a in inst.side_a:
        lst, c = prefs[a], cut[a]
        for b in lst[:c]:
            yield a, b, 2 if a in ahead[b] else 0
        if c < len(lst):
            yield a, lst[c], 0
            for b in lst[c + 1:]:
                yield a, b, 0 if a in ahead[b] else -2


def _blocking(inst: Instance, m: Matching) -> Iterator[Edge]:
    """The edges of weight 2, in `inst.edges` order: the entries b before
    a's cut that list a ahead of their own cut."""
    prefs, (cut, ahead) = inst.prefs, _cuts(inst, m)
    for a in inst.side_a:
        for b in prefs[a][:cut[a]]:
            if a in ahead[b]:
                yield a, b


def _pins(inst: Instance, m: Matching) -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    """The pins of rule (P) (`gstar._n_levels`) under m, side by side: the
    (unmatched A-node, neighbor) pairs, whose neighbor sits at the top
    level, and the (unmatched B-node, neighbor) pairs, whose neighbor sits
    at level 0; each in side order and list order. This is the one scan for
    unmatched nodes with neighbors."""
    partner, prefs = m.partner, inst.prefs
    return tuple([(u, v) for u in side if u not in partner for v in prefs[u]]
                 for side in (inst.side_a, inst.side_b))


def compare(inst: Instance, m: Matching, n: Matching) -> VoteTally:
    """Count the nodes preferring m over n and vice versa.

    A node prefers the matching where it is matched over one where it is not;
    a node matched in both prefers the better partner; otherwise it abstains.
    """
    phi_mn = phi_nm = 0
    rank = inst._rank
    for u in inst.nodes:
        pm = m.partner_of(u)
        pn = n.partner_of(u)
        if pm == pn:
            continue
        rm = rank[u][pm] if pm is not None else None
        rn = rank[u][pn] if pn is not None else None
        if rn is None or (rm is not None and rm < rn):
            phi_mn += 1
        elif rm is None or rn < rm:
            phi_nm += 1
    return VoteTally(phi_mn, phi_nm, phi_mn - phi_nm)


def is_maximum(inst: Instance, m: Matching) -> tuple[bool, list[str] | None]:
    """Decide maximality by breadth-first alternating-path search from the
    unmatched A-nodes, in side order.

    Returns (True, None) or (False, witness) where the witness is an
    augmenting path as a node sequence a - b - ... - b' between two
    unmatched nodes. Vertices reached from a failed start stay visited: they
    lead only to each other, never to an unmatched B-node (Hopcroft & Karp,
    SIAM J. Comput. 1973). So the witness is the one a fresh search from the
    first start with an augmenting path finds, and the search costs O(|E|).
    """
    parent: dict[str, str] = {}
    seen_a: set[str] = set()
    for start in inst.side_a:
        if m.is_matched(start):
            continue
        frontier = [start]
        seen_a.add(start)
        while frontier:
            next_frontier = []
            for a in frontier:
                for b in inst.prefs[a]:
                    if b in parent:
                        continue
                    parent[b] = a
                    pb = m.partner_of(b)
                    if pb is None:
                        path = [b]
                        node = b
                        while node != start:
                            node = parent[node]
                            path.append(node)
                        path.reverse()
                        return False, path
                    if pb not in seen_a:
                        seen_a.add(pb)
                        parent[pb] = b
                        next_frontier.append(pb)
            frontier = next_frontier
    return True, None


def matching_cost(inst: Instance, m: Matching) -> int:
    """Total integer cost of the matching; the empty matching costs 0."""
    return sum(inst.cost(e) for e in m.pairs)


# ---------------------------------------------------------------------------
# File formats


def _line_ends(text: str) -> str:
    """`text` with each CRLF and lone CR read as LF, as text mode reads them."""
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _lines(text: str) -> list[str]:
    """The lines of `text`, ended only at LF, CRLF and a lone CR, as text mode
    ends them; `str.splitlines` would also end one at VT, FF, FS, GS, RS,
    NEL, LS and PS, which `str.split` reads as whitespace inside a line."""
    return _line_ends(text).split("\n")


def parse_instance(text: str) -> Instance:
    """Parse the line-based instance format.

    Lines: `side A <id> ...`, `side B <id> ...`, `pref <id>: <id> ...`,
    `cost <idA> <idB> <int>`. Lines whose first non-blank character is '#'
    are comments. A node without a pref line has an empty list.
    """
    side_a: list[str] = []
    side_b: list[str] = []
    prefs: dict[str, tuple[str, ...]] = {}
    costs: dict[Edge, int] = {}
    lines = _lines(text)

    def column(line: str, token_index: int) -> int:
        rest = line.split(None, token_index)[token_index:]  # the line from that token on
        return len(line) - len(rest[0] if rest else "") + 1

    def first_line(*head: str) -> int:
        """The number of the first line whose tokens begin with `head`; only
        an error message needs it, so only an error walks the lines again."""
        return next(n for n, raw in enumerate(lines, 1) if raw.split()[:len(head)] == list(head))

    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if not tokens or tokens[0][0] == "#":
            continue
        kind = tokens[0]
        if kind == "pref":  # most lines are pref lines
            if len(tokens) < 2 or not tokens[1].endswith(":"):
                raise ParseError("expected `pref <id>: ...`", lineno, column(raw, 1))
            node = tokens[1][:-1]
            if not node:
                raise ParseError("empty node id before ':'", lineno, column(raw, 1))
            if node in prefs:
                raise ParseError(f"duplicate pref line for {node!r} (first at line {first_line(kind, tokens[1])})", lineno, column(raw, 1))
            prefs[node] = tuple(tokens[2:])
        elif kind == "side":
            if len(tokens) < 2 or tokens[1] not in ("A", "B"):
                raise ParseError("expected `side A ...` or `side B ...`", lineno, column(raw, 1))
            (side_a if tokens[1] == "A" else side_b).extend(tokens[2:])
        elif kind == "cost":
            if len(tokens) != 4:
                raise ParseError("expected `cost <idA> <idB> <integer>`", lineno, column(raw, 1))
            try:
                value = int(tokens[3])
            except ValueError:
                raise ParseError(f"bad integer {tokens[3]!r}", lineno, column(raw, 3)) from None
            e = (tokens[1], tokens[2])
            if e in costs:
                raise ParseError(f"duplicate cost line for {e} (first at line {first_line(kind, *e)})", lineno, column(raw, 1))
            costs[e] = value
        else:
            raise ParseError(f"unknown directive {kind!r}", lineno, column(raw, 0))

    known = set(side_a).union(side_b)
    if not known.issuperset(prefs):
        node = next(node for node in prefs if node not in known)
        raise ValidationError(f"pref line for undeclared node {node!r} (line {first_line('pref', node + ':')})")
    if costs:
        set_a, set_b = set(side_a), set(side_b)
        for u, v in costs:
            if u not in set_a or v not in set_b:
                raise ValidationError(f"cost line must name an A-node then a B-node (line {first_line('cost', u, v)})")
    return Instance(tuple(side_a), tuple(side_b), prefs, costs)


def serialize_instance(inst: Instance) -> str:
    """Canonical text for an instance; parse(serialize(x)) == x."""
    lines = ["side A " + " ".join(inst.side_a) if inst.side_a else "side A",
             "side B " + " ".join(inst.side_b) if inst.side_b else "side B"]
    for u in inst.nodes:
        lst = inst.prefs[u]
        lines.append(f"pref {u}:" + ("" if not lst else " " + " ".join(lst)))
    costs, prefs = inst.costs, inst.prefs
    if costs:  # cost lines in edge order
        for a in inst.side_a:
            for b in prefs[a]:
                c = costs.get((a, b))
                if c:
                    lines.append(f"cost {a} {b} {c}")
    return "\n".join(lines) + "\n"


def serialize_matching(m: Matching) -> str:
    """One `<idA> <idB>` line per pair, lexicographically sorted."""
    return "".join(f"{a} {b}\n" for a, b in sorted(m.pairs))


def matching_to_json(inst: Instance, m: Matching) -> dict:
    return {"pairs": [list(e) for e in sorted(m.pairs)], "cost": matching_cost(inst, m)}


def parse_matching(inst: Instance, text: str) -> Matching:
    """Parse a matching file: `<idA> <idB>` lines, or the JSON alternative.

    A pair listed twice, in either orientation, is rejected rather than
    collapsed into one. One loop orients, de-duplicates and edge-checks each
    pair: a malformed line or a repeated pair is reported first, then the
    first pair that is not an edge, then pairs that share a node.
    """
    a_set, prefs = inst._a_set, inst.prefs
    if text.lstrip().startswith("{"):
        import json
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc.msg}", exc.lineno, exc.colno) from None
        except RecursionError:
            raise ValidationError("matching JSON is nested too deeply") from None
        pairs = obj.get("pairs") if isinstance(obj, dict) else None
        if not isinstance(pairs, list) or not all(
                isinstance(p, list) and len(p) == 2 and all(isinstance(u, str) for u in p)
                for p in pairs):
            raise ValidationError(
                "matching JSON must be an object whose `pairs` is a list of [idA, idB] string pairs")
        entries = ((u, v, 0) for u, v in pairs)  # line 0: JSON pairs have no line
    else:
        entries = _pair_lines(text)
    first: dict[Edge, int] = {}  # oriented pair -> its line
    non_edge = None
    for u, v, lineno in entries:
        e = (u, v) if u in a_set else (v, u)
        if e in first:
            if not lineno:
                raise ValidationError(f"matching JSON lists the pair {e} twice")
            raise ParseError(f"duplicate pair {e} (first at line {first[e]})", lineno)
        first[e] = lineno
        if non_edge is None and e[1] not in prefs.get(e[0], ()):
            non_edge = u, v
    if non_edge:
        raise ValidationError(f"({non_edge[0]!r}, {non_edge[1]!r}) is not an edge")
    return Matching(first)


def _pair_lines(text: str) -> Iterator[tuple[str, str, int]]:
    """(u, v, line number) for each `<idA> <idB>` line of a matching file."""
    for lineno, raw in enumerate(_lines(text), start=1):
        tokens = raw.split()
        if not tokens or tokens[0][0] == "#":
            continue
        if len(tokens) != 2:
            raise ParseError("expected `<idA> <idB>`", lineno)
        yield tokens[0], tokens[1], lineno


def random_instance(na: int, nb: int, density: float, seed: int,
                    cost_range: tuple[int, int] | None = None) -> Instance:
    """Seeded random instance: sample an edge set, then shuffle each node's
    incident list independently. Guarantees mutual preference lists."""
    if na < 0 or nb < 0:
        raise ValidationError(f"side sizes must be nonnegative, got {na} and {nb}")
    if not 0 <= density <= 1:
        raise ValidationError(f"density must lie in [0, 1], got {density}")
    if cost_range is not None and cost_range[0] > cost_range[1]:
        raise ValidationError(f"empty cost range {cost_range[0]}..{cost_range[1]}")
    import random
    rng = random.Random(seed)
    side_a = tuple(f"a{i+1}" for i in range(na))
    side_b = tuple(f"b{j+1}" for j in range(nb))
    incident: dict[str, list[str]] = {u: [] for u in side_a + side_b}
    costs: dict[Edge, int] = {}
    for a in side_a:
        for b in side_b:
            if rng.random() < density:
                incident[a].append(b)
                incident[b].append(a)
                if cost_range is not None:
                    costs[(a, b)] = rng.randint(cost_range[0], cost_range[1])
    for u in side_a + side_b:
        rng.shuffle(incident[u])
    prefs = {u: tuple(v) for u, v in incident.items()}
    return Instance(side_a, side_b, prefs, costs)
