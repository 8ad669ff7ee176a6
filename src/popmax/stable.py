"""Gale-Shapley proposals and stability checking for marriage instances."""

from __future__ import annotations

from collections import deque

from .core import Edge, Instance, Matching, _blocking, make_matching


def gale_shapley(inst: Instance) -> Matching:
    """A-optimal stable matching via deferred acceptance, A proposing.

    Proposals run from a fixed queue in declaration order, which makes the
    run deterministic; the result is the A-optimal one regardless of order.
    Nodes with exhausted lists stay unmatched. The B-optimal matching is
    this run on the instance with its sides swapped.
    """
    held, _ = _propose(inst, 0)
    return make_matching(inst, held.items())


def _propose(inst: Instance, top: int) -> tuple[dict[str, str], dict[str, int]]:
    """Deferred acceptance from side A, a fixed queue in declaration order,
    with levels 0..top: a proposer that exhausts its list starts it again
    one level higher, and stays unmatched at `top`. A receiver holds the
    proposer with the largest (level, own preference). Returns the
    receiver -> proposer map and every proposer's final level."""
    prefs, rank, proposers = inst.prefs, inst._rank, inst.side_a
    level = dict.fromkeys(proposers, 0)
    next_choice = dict.fromkeys(proposers, 0)
    held: dict[str, str] = {}
    queue = deque(proposers)
    while queue:
        u = queue.popleft()
        lst = prefs[u]
        i, lv = next_choice[u], level[u]
        while True:
            if i == len(lst):
                if not lst or lv == top:
                    lv = top
                    break
                lv += 1
                i = 0
            v = lst[i]
            i += 1
            current = held.get(v)
            if current is None:
                held[v] = u
                break
            lc = level[current]
            if lv > lc or (lv == lc and rank[v][u] < rank[v][current]):
                held[v] = u
                queue.append(current)
                break
        next_choice[u], level[u] = i, lv
    return held, level


def blocking_edges(inst: Instance, m: Matching) -> list[Edge]:
    """All edges whose endpoints mutually prefer each other over their
    assignments (weight-2 edges), in instance edge order."""
    return list(_blocking(inst, m))


def is_stable(inst: Instance, m: Matching) -> bool:
    return not blocking_edges(inst, m)
