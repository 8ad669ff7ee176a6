"""Gale-Shapley proposals and stability checking for marriage instances."""

from __future__ import annotations

from collections import deque

from .core import Edge, Instance, Matching, _wt, make_matching


def gale_shapley(inst: Instance, proposing_side: str = "A") -> Matching:
    """Proposer-optimal stable matching via deferred acceptance.

    Proposals run from a fixed queue in declaration order, which makes the
    run deterministic; the resulting matching is the classical
    proposer-optimal one regardless of order. Nodes with exhausted lists
    stay unmatched.
    """
    if proposing_side not in ("A", "B"):
        raise ValueError("proposing_side must be 'A' or 'B'")
    proposers = inst.side_a if proposing_side == "A" else inst.side_b
    next_choice = {u: 0 for u in proposers}
    engaged: dict[str, str] = {}  # receiver -> proposer
    queue = deque(proposers)
    while queue:
        u = queue.popleft()
        lst = inst.prefs[u]
        while next_choice[u] < len(lst):
            v = lst[next_choice[u]]
            next_choice[u] += 1
            current = engaged.get(v)
            if current is None:
                engaged[v] = u
                break
            if inst.prefers(v, u, current):
                engaged[v] = u
                queue.append(current)
                break
    if proposing_side == "A":
        pairs = [(u, v) for v, u in engaged.items()]
    else:
        pairs = [(v, u) for v, u in engaged.items()]
    return make_matching(inst, pairs)


def blocking_edges(inst: Instance, m: Matching) -> list[Edge]:
    """All edges whose endpoints mutually prefer each other over their
    assignments (weight-2 edges), in instance edge order."""
    return [(a, b) for a, b in inst.edges if _wt(inst, m, a, b) == 2]


def is_stable(inst: Instance, m: Matching) -> bool:
    return not blocking_edges(inst, m)
