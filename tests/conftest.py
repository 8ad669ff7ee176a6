"""Shared fixtures: the small hand-analyzed instances used throughout."""

from __future__ import annotations

import random

import pytest

from popmax import (Instance, Matching, gale_shapley, make_matching, parse_instance, random_instance,
                    verify_popular_max, wt_edge)

I0_TEXT = """\
side A a
side B b
pref a: b
pref b: a
"""

I1_TEXT = """\
side A a1 a2
side B b1 b2
pref a1: b1
pref a2: b1 b2
pref b1: a2 a1
pref b2: a2
"""

I2_TEXT = """\
side A a1 a2
side B b1 b2
pref a1: b1 b2
pref a2: b2 b1
pref b1: a2 a1
pref b2: a1 a2
"""

I2_COSTED_TEXT = I2_TEXT + "cost a1 b1 1\ncost a2 b2 1\n"

I3_TEXT = """\
side A a1 a2 a3
side B b1
pref a1: b1
pref a2: b1
pref a3: b1
pref b1: a1 a2 a3
"""

I5_TEXT = """\
side A a1 a2
side B b1 b2
pref a1: b2 b1
pref a2: b1 b2
pref b1: a2 a1
pref b2: a1 a2
"""

# a1 and b3 stay unmatched in {a2-b4, a3-b1, a4-b2}, so a certificate's
# levels are pinned at both ends; edge (a4, b1) chains levels 1 and 2.
STRETCH_TEXT = """\
side A a1 a2 a3 a4
side B b1 b2 b3 b4
pref a1: b2
pref a2: b1 b4 b3
pref a3: b1
pref a4: b2 b1
pref b1: a3 a4 a2
pref b2: a4 a1
pref b3: a2
pref b4: a2
"""


@pytest.fixture
def i0():
    return parse_instance(I0_TEXT)


@pytest.fixture
def i1():
    return parse_instance(I1_TEXT)


@pytest.fixture
def i2():
    return parse_instance(I2_TEXT)


@pytest.fixture
def i2c():
    return parse_instance(I2_COSTED_TEXT)


@pytest.fixture
def i3():
    return parse_instance(I3_TEXT)


@pytest.fixture
def i5():
    return parse_instance(I5_TEXT)


@pytest.fixture
def stretch():
    return parse_instance(STRETCH_TEXT)


def mk(inst, *pairs) -> Matching:
    return make_matching(inst, pairs)


def b_optimal(inst) -> Matching:
    """The B-optimal stable matching: A-proposing `gale_shapley` on the
    instance with its sides swapped, its pairs turned back to (A, B)."""
    return make_matching(inst, gale_shapley(Instance(inst.side_b, inst.side_a, inst.prefs)).pairs)


def random_cases(count, max_side, seed0, min_side=1, density=(0.3, 1.0), costs=None):
    """Seeded stream of (seed, instance) pairs shared by the property tests."""
    for seed in range(count):
        rng = random.Random(seed0 + seed)
        na = rng.randint(min_side, max_side)
        nb = rng.randint(min_side, max_side)
        d = rng.uniform(*density)
        yield seed, random_instance(na, nb, d, seed0 + 100_000 + seed, costs)


def chain(L, ladder=False, reverse=False):
    """The adversarial path families of the verdict and `mincost` routes,
    with their popular max-matching M = {a_i b_i : i = 1..L}; a0 is the
    leftover node.

    chain(L): A = a0..aL and B = b1..bL; a0 lists (b1), a_i lists
    (b_i, b_{i+1}) and a_L only b_L; b_i lists (a_i, a_{i-1}). The ladder
    adds the edges (a_{i+1}, b_i) for i = 1..L-1, each last in both lists,
    which makes the pair vertices one strongly connected component.
    `reverse` declares side A as aL..a0.
    """
    a = [f"a{i}" for i in range(L + 1)]
    b = [None] + [f"b{i}" for i in range(1, L + 1)]
    prefs = {a[0]: [b[1]]}
    for i in range(1, L + 1):
        prefs[a[i]] = [b[i]] + ([b[i + 1]] if i < L else []) + ([b[i - 1]] if ladder and i > 1 else [])
        prefs[b[i]] = [a[i], a[i - 1]] + ([a[i + 1]] if ladder and i < L else [])
    inst = Instance(a[::-1] if reverse else a, b[1:], prefs)
    return inst, make_matching(inst, [(a[i], b[i]) for i in range(1, L + 1)])


def planted_gadget(nvars, seed):
    """The gadget instance of a seeded 3-CNF with 4 clauses per variable, each
    satisfied by a hidden assignment, and the matching of that assignment:
    `pareto` accepts it and `verify` rejects it, as on the benchmark's gadgets."""
    from popmax import CnfFormula, assignment_to_matching, build_gadget_instance, transform_formula

    rng = random.Random(seed)
    hidden = {v: rng.random() < 0.5 for v in range(1, nvars + 1)}
    clauses = []
    while len(clauses) < 4 * nvars:
        clause = tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, nvars + 1), 3))
        if any(hidden[abs(lit)] == (lit > 0) for lit in clause):
            clauses.append(clause)
    g = build_gadget_instance(transform_formula(CnfFormula(nvars, tuple(clauses))))
    assignment = {**hidden, **{nvars + v: not x for v, x in hidden.items()}}
    return g.instance, assignment_to_matching(g, assignment)


def tight_toggles(inst, m, tight=lambda ya, w, yb: yb == ya + w):
    """(found, cycles) for a popular max-matching m: the simple cycles of
    its tight graph, and in `found` each m xor U that `verify_popular_max`
    accepts, U any set of vertex-disjoint such cycles (the empty set
    included); None past 64 cycles.

    y is the potential `popularity._witness_or_potentials` gives m, and a
    non-matching edge (a, b) with both ends matched is tight when
    `tight(y[a], wt(a, b), y[b])`, by default y[b] == y[a] + wt(a, b). It
    is the arc from a's pair to b's; a cycle a1 -> ... -> ak -> a1 of
    pairs, named by their A-nodes, trades each (a_i, m(a_i)) for
    (a_i, m(a_i+1)). If every popular max-matching is m xor U for such a U
    (the tight-cycle theorem of ROADMAP item 13), `found` holds them all,
    and with no tight cycle m is the only one. Shares nothing with the
    derived instance, the rotation walk or the flow.
    """
    from popmax.popularity import _witness_or_potentials

    y = _witness_or_potentials(inst, m)
    pairs = sorted(m.pairs)
    at = {a: i for i, (a, _b) in enumerate(pairs)}
    succ = [[] for _ in pairs]
    for a, b in inst.edges:
        if a in y and b in y and m.partner[a] != b and tight(y[a], wt_edge(inst, m, (a, b)), y[b]):
            succ[at[a]].append(at[m.partner[b]])
    cycles = []
    for s in range(len(pairs)):  # each simple cycle once, from its least pair
        path, stack = [s], [iter(succ[s])]
        while stack:
            for v in stack[-1]:
                if v == s:
                    cycles.append(path[:])
                    if len(cycles) > 64:
                        return None
                elif v > s and v not in path:
                    path.append(v)
                    stack.append(iter(succ[v]))
                    break
            else:
                stack.pop()
                path.pop()
    unions = [(frozenset(), ())]
    for c in cycles:
        unions += [(used | set(c), u + (c,)) for used, u in unions if used.isdisjoint(c)]
    found = []
    for _used, u in unions:
        toggled = set(m.pairs)
        for c in u:
            toggled -= {pairs[i] for i in c}
            toggled |= {(pairs[i][0], pairs[j][1]) for i, j in zip(c, c[1:] + c[:1])}
        n = make_matching(inst, toggled)
        if verify_popular_max(inst, n).popular:
            found.append(n)
    return found, cycles
