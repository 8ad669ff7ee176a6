"""Seeded input generators owned by the benchmark.

Every instance, matching and formula the benchmark hands to popmax is made
here with `random.Random`, so a change to popmax's own generators
(`core.random_instance`, `gen-random`) cannot change a workload. The same
seed always gives the same files.
"""

from __future__ import annotations

import hashlib
import random


class Inst:
    """A preference instance as plain lists: the benchmark's own model, used
    to write input files and to check outputs without calling popmax."""

    __slots__ = ("side_a", "side_b", "prefs", "costs")

    def __init__(self, side_a, side_b, prefs, costs=None):
        self.side_a = list(side_a)
        self.side_b = list(side_b)
        self.prefs = prefs
        self.costs = costs or {}

    @property
    def edges(self) -> list[tuple[str, str]]:
        return [(a, b) for a in self.side_a for b in self.prefs[a]]

    def rank(self, u: str) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.prefs[u])}

    def text(self) -> str:
        lines = ["side A " + " ".join(self.side_a), "side B " + " ".join(self.side_b)]
        for u in self.side_a + self.side_b:
            lines.append(f"pref {u}: " + " ".join(self.prefs[u]))
        for (a, b), c in self.costs.items():
            lines.append(f"cost {a} {b} {c}")
        return "\n".join(lines) + "\n"


def parse_instance_text(text: str) -> Inst:
    """Read the `side` / `pref` / `cost` lines of an instance file."""
    side = {"A": [], "B": []}
    prefs: dict[str, list[str]] = {}
    costs: dict[tuple[str, str], int] = {}
    for line in text.splitlines():
        tok = line.split()
        if not tok or tok[0].startswith("#"):
            continue
        if tok[0] == "side":
            side[tok[1]].extend(tok[2:])
        elif tok[0] == "pref":
            prefs[tok[1].rstrip(":")] = tok[2:]
        elif tok[0] == "cost":
            costs[(tok[1], tok[2])] = int(tok[3])
    for u in side["A"] + side["B"]:
        prefs.setdefault(u, [])
    return Inst(side["A"], side["B"], prefs, costs)


def random_instance(rng: random.Random, na: int, nb: int, density: float,
                    cost_hi: int | None = None) -> Inst:
    """Exactly round(density * na * nb) edges, chosen uniformly, so the
    instance size is fixed by its parameters; every node ranks its
    neighbours in an independent random order; costs are 0..cost_hi."""
    side_a = [f"a{i + 1}" for i in range(na)]
    side_b = [f"b{j + 1}" for j in range(nb)]
    prefs: dict[str, list[str]] = {u: [] for u in side_a + side_b}
    costs = {}
    for k in sorted(rng.sample(range(na * nb), round(density * na * nb))):
        a, b = side_a[k // nb], side_b[k % nb]
        prefs[a].append(b)
        prefs[b].append(a)
        if cost_hi is not None:
            costs[(a, b)] = rng.randint(0, cost_hi)
    for lst in prefs.values():
        rng.shuffle(lst)
    return Inst(side_a, side_b, prefs, costs)


def max_matching(inst: Inst, rng: random.Random) -> dict[str, str]:
    """A random maximum matching as an A -> B map: augment from the A-nodes
    in random order, scanning neighbours in random order (BFS augmenting
    paths, so no recursion)."""
    adj = {a: rng.sample(inst.prefs[a], len(inst.prefs[a])) for a in inst.side_a}
    order = rng.sample(inst.side_a, len(inst.side_a))
    mate_a: dict[str, str] = {}
    mate_b: dict[str, str] = {}
    for root in order:
        parent: dict[str, str] = {}
        frontier, end = [root], None
        while frontier and end is None:
            nxt = []
            for a in frontier:
                for b in adj[a]:
                    if b in parent:
                        continue
                    parent[b] = a
                    if b not in mate_b:
                        end = b
                        break
                    nxt.append(mate_b[b])
                if end is not None:
                    break
            frontier = nxt
        while end is not None:
            a = parent[end]
            prev = mate_a.get(a)
            mate_a[a], mate_b[end] = end, a
            end = prev
    return mate_a


def max_matching_size(inst: Inst) -> int:
    return len(max_matching(inst, random.Random(0)))


def stable_matching(inst: Inst) -> dict[str, str]:
    """A-proposing deferred acceptance, as an A -> B map."""
    rank = {b: inst.rank(b) for b in inst.side_b}
    nxt = {a: 0 for a in inst.side_a}
    holder: dict[str, str] = {}
    free = list(reversed(inst.side_a))
    while free:
        a = free.pop()
        lst = inst.prefs[a]
        while nxt[a] < len(lst):
            b = lst[nxt[a]]
            nxt[a] += 1
            cur = holder.get(b)
            if cur is None or rank[b][a] < rank[b][cur]:
                holder[b] = a
                if cur is not None:
                    free.append(cur)
                break
    return {a: b for b, a in holder.items()}


def _move_before(lst: list[str], x: str, y: str) -> None:
    """Make x rank directly above y if it ranks below y now."""
    if lst.index(x) > lst.index(y):
        lst.remove(x)
        lst.insert(lst.index(y), x)


def plant_swap(inst: Inst, mate_a: dict[str, str], rng: random.Random) -> None:
    """Reorder four preference lists so that two matched pairs (a1,b1),
    (a2,b2) with both cross edges all prefer to swap partners. The edge set
    is unchanged, so the matching stays maximum, but it is then neither
    Pareto-optimal nor popular."""
    pairs = sorted(mate_a.items())
    rng.shuffle(pairs)
    edge = set(inst.edges)
    for i, (a1, b1) in enumerate(pairs):
        for a2, b2 in pairs[i + 1:]:
            if (a1, b2) in edge and (a2, b1) in edge:
                _move_before(inst.prefs[a1], b2, b1)
                _move_before(inst.prefs[b2], a1, a2)
                _move_before(inst.prefs[a2], b1, b2)
                _move_before(inst.prefs[b1], a2, a1)
                return
    raise ValueError("no matched pairs with both cross edges to plant a swap on")


def planted_cnf(rng: random.Random, nvars: int, nclauses: int):
    """Random 3-CNF over distinct variables per clause, each clause
    satisfied by a hidden assignment. Returns (clauses, assignment)."""
    hidden = {v: rng.random() < 0.5 for v in range(1, nvars + 1)}
    clauses = []
    while len(clauses) < nclauses:
        vs = rng.sample(range(1, nvars + 1), 3)
        clause = tuple(v if rng.random() < 0.5 else -v for v in vs)
        if any(hidden[abs(l)] == (l > 0) for l in clause):
            clauses.append(clause)
    return clauses, hidden


def cnf_text(nvars: int, clauses) -> str:
    lines = [f"p cnf {nvars} {len(clauses)}"]
    lines += [" ".join(map(str, c)) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


def matching_text(pairs) -> str:
    return "".join(f"{a} {b}\n" for a, b in sorted(pairs))


def digest(files: dict[str, str]) -> str:
    """sha256 over file names and contents, in name order."""
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name].encode() + b"\0")
    return h.hexdigest()
