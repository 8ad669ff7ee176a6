"""Rotation poset, enumeration, max-flow, weighted closure, LP emitter."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from popmax import (
    FlowNetwork,
    Instance,
    InternalError,
    Matching,
    certify_popular_max,
    emit_lp,
    enumerate_stable,
    find_rotations,
    gale_shapley,
    is_stable,
    make_matching,
    matching_cost,
    max_flow,
    min_cost_popular_max,
    min_cost_stable,
    parse_instance,
    random_instance,
    verify_certificate,
    verify_popular_max,
)
from popmax import gstar, mincost
from popmax.gstar import build_gstar, copy_name, image_name, place, project
from popmax.mincost import RotationPoset, _enc
from popmax.oracle import (
    brute_min_cost_popular_max,
    closed_subsets,
    eliminate,
    enum_matchings,
    matching_of_closed_subset,
)

from conftest import b_optimal, chain, random_cases


def _brute_stable(inst, bound=30):
    return [m for m in enum_matchings(inst, bound) if is_stable(inst, m)]


def test_no_rotations_single_edge(i0):
    poset = find_rotations(i0)
    assert poset.cycles == ()
    assert poset.base.pairs == b_optimal(i0).pairs  # woman-optimal too


def test_i2_single_rotation(i2):
    poset = find_rotations(i2)
    assert len(poset.cycles) == 1
    cycle = poset.cycles[0]
    assert set(cycle) == {("a1", "b1"), ("a2", "b2")}
    assert sorted(eliminate(i2, poset.base, cycle).pairs) == [("a1", "b2"), ("a2", "b1")]


def test_eliminate_refuses_a_rotation_that_is_not_exposed(i2):
    """A rotation is eliminated only from a matching that holds all its
    pairs: not from the empty matching, and not a second time."""
    poset = find_rotations(i2)
    cycle = poset.cycles[0]
    once = eliminate(i2, poset.base, cycle)
    for m in (make_matching(i2, ()), once):
        with pytest.raises(InternalError, match="not exposed"):
            eliminate(i2, m, cycle)


def test_enumerate_fixtures(i0, i1, i2):
    assert len(enumerate_stable(i0)) == 1
    assert len(enumerate_stable(i2)) == 2
    assert [sorted(m.pairs) for m in enumerate_stable(i1)] == [[("a2", "b1")]]


def test_gstar_poset_projects_to_both_popular_max(i2):
    gs = build_gstar(i2)
    projections = {frozenset(project(gs, s).pairs) for s in enumerate_stable(gs.inner)}
    assert projections == {frozenset({("a1", "b1"), ("a2", "b2")}),
                           frozenset({("a1", "b2"), ("a2", "b1")})}


def test_max_flow_single_arc():
    res = max_flow(FlowNetwork(2, ((0, 1, 3),), 0, 1))
    assert res.value == 3 and res.cut_capacity == 3


def test_max_flow_diamond():
    net = FlowNetwork(4, ((0, 1, 2), (0, 2, 1), (1, 3, 1), (2, 3, 2), (1, 2, 1)), 0, 3)
    res = max_flow(net)
    assert res.value == 3
    assert res.cut_capacity == res.value


def test_max_flow_disconnected():
    assert max_flow(FlowNetwork(3, (), 0, 2)).value == 0


def test_max_flow_rejects_negative_capacity():
    with pytest.raises(ValueError, match="^capacities must be nonnegative$"):
        max_flow(FlowNetwork(2, ((0, 1, 3), (0, 1, -1)), 0, 1))


def test_max_flow_random_cut_certificates():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randint(2, 8)
        arcs = tuple((rng.randrange(n), rng.randrange(n), rng.randint(0, 9))
                     for _ in range(rng.randint(0, 20)))
        arcs = tuple((u, v, c) for u, v, c in arcs if u != v)
        res = max_flow(FlowNetwork(n, arcs, 0, n - 1))
        assert res.cut_capacity == res.value  # also asserted internally


def test_max_flow_long_path():
    """Augmenting paths as long as the network run without recursion."""
    n = 1500
    arcs = tuple((i, i + 1, 5 + i % 7) for i in range(n - 1))
    res = max_flow(FlowNetwork(n, arcs, 0, n - 1))
    assert res.value == res.cut_capacity == 5
    assert res.source_side == frozenset({0})


def test_max_flow_source_side_is_the_least_minimum_cut():
    """By brute force over every s-t cut of seeded networks with at most 8
    nodes: the source side has the least capacity, and it is the
    intersection of the source sides of all minimum cuts. The inclusion-
    minimal closure of claim (c) rests on this."""
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(2, 8)
        arcs = tuple((u, v, rng.randint(0, 9)) for u, v in
                     ((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 24)))
                     if u != v)
        res = max_flow(FlowNetwork(n, arcs, 0, n - 1))
        cuts = {}
        for bits in range(2 ** (n - 2)):
            side = frozenset([0] + [v for v in range(1, n - 1) if bits >> (v - 1) & 1])
            cuts[side] = sum(c for u, v, c in arcs if u in side and v not in side)
        least = min(cuts.values())
        assert res.value == res.cut_capacity == cuts[res.source_side] == least
        assert res.source_side == frozenset.intersection(
            *(side for side, c in cuts.items() if c == least))


def _closed_by_brute_force(preds):
    """The index sets of 0..k-1 that hold the predecessors of each member."""
    k = len(preds)
    subsets = (frozenset(r for r in range(k) if bits >> r & 1) for bits in range(2 ** k))
    return {s for s in subsets if all(s.issuperset(preds[r]) for r in s)}


def _assert_closed_subsets(poset):
    got = closed_subsets(poset)
    assert len(got) == len(set(got))
    assert set(got) == _closed_by_brute_force(poset.preds)


def test_closed_subsets_of_found_posets():
    """Every closed set of the rotations of seeded instances and of their
    derived instances, which have more, each once."""
    sizes = set()
    for _seed, inst in random_cases(60, 4, 7300, min_side=2):
        for poset in (find_rotations(inst), find_rotations(build_gstar(inst).inner)):
            if len(poset.cycles) <= 12:
                _assert_closed_subsets(poset)
                sizes.add(len(poset.cycles))
    assert len(sizes) >= 10


def test_closed_subsets_of_hand_made_posets(i0):
    """Every closed set of seeded posets with up to 12 rotations, each
    once; every predecessor comes before its rotation, as in an
    elimination order."""
    rng = random.Random(4711)
    base = gale_shapley(i0)
    for _ in range(150):
        k = rng.randint(0, 12)
        density = rng.random()
        preds = tuple(tuple(p for p in range(r) if rng.random() < density / 2)
                      for r in range(k))
        _assert_closed_subsets(RotationPoset(i0, ((("a", "b"),),) * k, preds, base))


def test_closed_subsets_long_chain(i0):
    """A chain deeper than the recursion limit is enumerated without
    recursion: its closed sets are exactly its k + 1 prefixes."""
    k = 1500
    base = gale_shapley(i0)
    poset = RotationPoset(i0, ((("a", "b"),),) * k,
                          ((),) + tuple((i - 1,) for i in range(1, k)), base)
    assert closed_subsets(poset) == [frozenset(range(j)) for j in range(k + 1)]


def test_min_cost_stable_unique(i0):
    assert sorted(min_cost_stable(i0).pairs) == [("a", "b")]


def test_min_cost_stable_picks_cheaper(i2c):
    m = min_cost_stable(i2c)
    assert sorted(m.pairs) == [("a1", "b2"), ("a2", "b1")]
    assert matching_cost(i2c, m) == 0


def test_min_cost_stable_tie_break_deterministic(i2):
    text = ("side A a1 a2\nside B b1 b2\n"
            "pref a1: b1 b2\npref a2: b2 b1\npref b1: a2 a1\npref b2: a1 a2\n"
            "cost a1 b1 1\ncost a2 b2 1\ncost a1 b2 1\ncost a2 b1 1\n")
    inst = parse_instance(text)
    first = min_cost_stable(inst)
    assert matching_cost(inst, first) == 2
    # inclusion-minimal optimal closure: the base matching wins ties
    assert first.pairs == gale_shapley(inst).pairs
    assert min_cost_stable(inst).pairs == first.pairs


def test_min_cost_popular_max_fixtures(i0, i1, i2c):
    assert sorted(min_cost_popular_max(i0).matching.pairs) == [("a", "b")]
    res = min_cost_popular_max(i2c)
    assert sorted(res.matching.pairs) == [("a1", "b2"), ("a2", "b1")]
    assert res.cost == 0
    assert verify_certificate(i2c, res.matching, res.certificate).ok
    res1 = min_cost_popular_max(i1)
    assert sorted(res1.matching.pairs) == [("a1", "b1"), ("a2", "b2")]


def test_closed_subset_bijection_and_topo_independence():
    """Closed-subset enumeration hits every stable matching exactly once,
    and eliminating a closed subset in any topological order gives the
    same matching."""
    rng = random.Random(31337)
    for _seed, inst in random_cases(40, 5, 9000, costs=(0, 9)):
        got = sorted(sorted(m.pairs) for m in enumerate_stable(inst))
        want = sorted(sorted(m.pairs) for m in _brute_stable(inst))
        assert got == want
        poset = find_rotations(inst)
        for subset in closed_subsets(poset):
            baseline = matching_of_closed_subset(poset, subset)
            remaining = set(subset)
            done: set[int] = set()
            m = poset.base
            while remaining:
                ready = [r for r in remaining if set(poset.preds[r]) <= done]
                r = rng.choice(sorted(ready))
                m = eliminate(inst, m, poset.cycles[r])
                remaining.discard(r)
                done.add(r)
            assert m.pairs == baseline.pairs


def _poset_by_pairs(poset):
    """Each rotation as its set of pairs, mapped to its predecessors' sets."""
    keys = [frozenset(c) for c in poset.cycles]
    return {key: frozenset(keys[p] for p in preds) for key, preds in zip(keys, poset.preds)}


def test_rotation_set_independent_of_discovery_order():
    """Reversing side A moves the walk's start and the cycle pivots; the
    rotations and their precedence must not change."""
    for _seed, inst in random_cases(40, 5, 9100):
        flipped = Instance(inst.side_a[::-1], inst.side_b, inst.prefs, inst.costs)
        assert _poset_by_pairs(find_rotations(inst)) == _poset_by_pairs(find_rotations(flipped))
    inst = build_gstar(random_instance(8, 8, 0.5, 9101)).inner
    flipped = Instance(inst.side_a[::-1], inst.side_b, inst.prefs, inst.costs)
    poset = _poset_by_pairs(find_rotations(inst))
    assert len(poset) > 1 and any(poset.values())
    assert poset == _poset_by_pairs(find_rotations(flipped))


def test_find_rotations_builds_only_the_base_matching(monkeypatch):
    inst = build_gstar(random_instance(8, 8, 0.5, 9101)).inner
    built = []
    post_init = Matching.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Matching, "__post_init__", counting)
    poset = find_rotations(inst)
    assert len(poset.cycles) > 1
    assert built == [poset.base]


def test_min_cost_stable_matches_oracle():
    for _seed, inst in random_cases(60, 5, 9200, costs=(0, 9)):
        m = min_cost_stable(inst)
        assert is_stable(inst, m)
        best = min(matching_cost(inst, s) for s in _brute_stable(inst))
        assert matching_cost(inst, m) == best


def test_min_cost_popular_max_matches_oracle():
    """Small random instances, then every shape with |A| in 0..7 and |B| in
    0..3: no dummies at |A| <= 1, empty sides, and |A| >> |B|."""
    cases = [inst for _seed, inst in random_cases(50, 4, 9300, costs=(0, 9))]
    rng = random.Random(9350)
    cases += [random_instance(na, nb, rng.uniform(0.2, 1.0), rng.randrange(10**6), (0, 9))
              for na in range(8) for nb in range(4) for _rep in range(3)]
    for inst in cases:
        res = min_cost_popular_max(inst)
        assert verify_popular_max(inst, res.matching).popular
        assert verify_certificate(inst, res.matching, res.certificate).ok
        _m, best = brute_min_cost_popular_max(inst, bound=30)
        assert res.cost == best


def test_gstar_table_walk_equals_walk_on_named_gstar(monkeypatch):
    """The rotation walk that `mincost._min_cost` runs on the integer
    tables at T = `gstar._n_levels` levels finds the rotations, in the same
    order and with the same predecessor lists, as `find_rotations` on the
    same tables named; so does the walk on the paper's |A|-level tables
    against `build_gstar`."""
    walk = mincost._rotation_walk
    seen = []

    def recording(*args):
        seen.append(walk(*args))
        return seen[-1]

    monkeypatch.setattr(mincost, "_rotation_walk", recording)
    cases = [random_instance(n, n, d, 9400 + n, (0, 9)) for n in range(2, 8) for d in (0.3, 0.6)]
    cases += [random_instance(na, 2, 0.5, seed, (0, 9)) for na, seed in ((7, 9427), (7, 9408), (9, 9419))]
    total = 0
    for inst in cases:
        runs = ((lambda i: mincost._min_cost(i, gstar._n_levels(i)),
                 gstar._named(gstar.GStarTables(inst, gstar._n_levels(inst))).inner),
                (lambda i: mincost._min_cost(i, len(i.side_a)), build_gstar(inst).inner))
        for solve, inner in runs:
            seen.clear()
            solve(inst)
            poset = find_rotations(inner)
            (cycles, preds), _named = seen
            assert list(poset.cycles) == [
                tuple((inner.nodes[m], inner.nodes[w]) for m, w in cycle) for cycle in cycles]
            assert poset.preds == preds
            total += len(cycles)
    assert total > 100


def test_mincost_runs_only_the_levels_its_answer_needs(monkeypatch):
    """On a pin-free 60x60 square `min_cost_popular_max` lays out one
    table, at top + 2 = 3 of its 60 levels, where the stopping rule fires
    at once (the min-cost stable matching's top level is exactly t - 2),
    and gives the result of 60 levels; on a
    pin-free 6x6 square, whose stopping rule fails at top + 2 = 2 levels
    and fires at 4, it lays out tables at exactly 2 and 4 levels; a
    bottom-pinned instance (a leftover B-node with neighbors) and one with
    a leftover A-node with neighbors each lay out one table, at T."""
    built = []
    init = gstar.GStarTables.__init__

    def recording(self, source, n_levels):
        built.append(n_levels)
        init(self, source, n_levels)

    monkeypatch.setattr(gstar.GStarTables, "__init__", recording)
    square = random_instance(60, 60, 0.3, 1264, (0, 9))
    res = min_cost_popular_max(square)
    assert built == [3]
    assert res == mincost._min_cost(square, 60)
    small = random_instance(6, 6, 0.5, 7602, (0, 9))
    built.clear()
    res = min_cost_popular_max(small)
    assert built == [2, 4]
    assert res == mincost._min_cost(small, 6)
    for na, nb in ((9, 12), (12, 9)):
        inst = random_instance(na, nb, 0.5, 3, (0, 9))
        m = gstar._level_run(inst, 9)[0]
        pinned = inst.side_a if na > nb else inst.side_b
        assert any(inst.prefs[u] and not m.is_matched(u) for u in pinned)
        built.clear()
        min_cost_popular_max(inst)
        assert built == [9]


@pytest.mark.parametrize("size", [10, 20, 40])
def test_mincost_on_the_chain_walks_every_rotation(monkeypatch, size):
    """On chain(L) the leftover a0 has a neighbor, so `min_cost_popular_max`
    lays out one table, at T = L levels; its walk finds all L(L-1)/2
    rotations with (L-1)(L-2) precedence arcs (ROADMAP item 12), and it
    returns M at cost 0 with `certify_popular_max`'s certificate."""
    built, rotations, arcs = [], [], []
    init, walk = gstar.GStarTables.__init__, mincost._rotation_walk

    def recording(self, source, n_levels):
        built.append(n_levels)
        init(self, source, n_levels)

    def counting(*args):
        cycles, preds = walk(*args)
        rotations.append(len(cycles))
        arcs.append(sum(map(len, preds)))
        return cycles, preds

    monkeypatch.setattr(gstar.GStarTables, "__init__", recording)
    monkeypatch.setattr(mincost, "_rotation_walk", counting)
    inst, m = chain(size)
    res = min_cost_popular_max(inst)
    assert built == [size]
    assert rotations == [size * (size - 1) // 2]
    assert arcs == [(size - 1) * (size - 2)]
    assert res.matching == m and res.cost == 0
    assert res.certificate == certify_popular_max(inst, m)


def test_stopping_rule_refuses_levels_that_cost_more():
    """Pin-free squares whose min-cost stable matching at t = top + 2
    levels, top the run's highest level, costs more than at T: it uses level
    t - 1, so the rule of claim (f) does not stop there, and the route
    still gives the result of T levels."""
    for n, d, seed, t in ((13, 0.5, 484021, 2), (15, 0.5, 180173, 2), (15, 0.3, 111638, 2),
                          (16, 0.2, 954387, 5)):
        inst = random_instance(n, n, d, seed, (0, 9))
        m0, level = gstar._level_run(inst, n)
        assert max(level[a] for a, _ in m0.pairs) + 2 == t
        early, top = mincost._min_cost_run(inst, t, (m0, {a: level[a] for a, _ in m0.pairs}))
        full = mincost._min_cost(inst, n)
        assert early.cost > full.cost
        assert top == t - 1
        assert min_cost_popular_max(inst) == full


# ---------------------------------------------------------------------------
# LP emitter


def _parse_lp(text: str):
    """Minimal parser for the emitter's own output."""
    section = None
    objective: dict[str, float] = {}
    rows = []  # (name, {var: coef}, op, rhs)
    bounds: dict[str, tuple[float, float]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("\\"):
            continue
        if line in ("Minimize", "Subject To", "Bounds", "End"):
            section = line
            continue
        if section == "Minimize":
            _name, expr = line.split(":", 1)
            objective.update(_parse_expr(expr))
        elif section == "Subject To":
            name, rest = line.split(":", 1)
            m = re.match(r"(.*?)(<=|>=|=)\s*(-?\d+)\s*$", rest.strip())
            coefs = _parse_expr(m.group(1))
            rows.append((name.strip(), coefs, m.group(2), float(m.group(3))))
        elif section == "Bounds":
            lo, var, hi = re.match(r"(-?\d+)\s*<=\s*(\S+)\s*<=\s*(-?\d+)", line).groups()
            bounds[var] = (float(lo), float(hi))
    return objective, rows, bounds


def _parse_expr(expr: str) -> dict[str, float]:
    coefs: dict[str, float] = {}
    sign, pending = 1.0, None
    for tok in expr.split():
        if tok == "+":
            sign, pending = 1.0, None
        elif tok == "-":
            sign, pending = -1.0, None
        elif re.fullmatch(r"-?\d+", tok):
            pending = float(tok)
        else:
            coefs[tok] = coefs.get(tok, 0.0) + sign * (pending if pending is not None else 1.0)
            sign, pending = 1.0, None
    return coefs


def test_emit_lp_single_edge_structure(i0):
    text = emit_lp(i0)
    _obj, rows, _bounds = _parse_lp(text)
    stab = [r for r in rows if r[0].startswith("stab.")]
    link = [r for r in rows if r[0].startswith("link.")]
    assert len(stab) == 1 and len(link) == 1
    assert "x.a.b" in link[0][1]


def test_emit_lp_i1_variable_counts(i1):
    text = emit_lp(i1)
    variables = set()
    _obj, rows, bounds = _parse_lp(text)
    for _name, coefs, _op, _rhs in rows:
        variables |= set(coefs)
    assert sum(v.startswith("xs.") for v in variables) == 10
    assert sum(v.startswith("x.") and not v.startswith("xs.") for v in variables) == 3
    assert set(bounds) == variables


def test_emit_lp_deterministic(i2c):
    assert emit_lp(i2c) == emit_lp(i2c)


def test_emit_lp_encodes_each_source_node_once(monkeypatch):
    """Every derived node's token and every source edge's variable reuse
    the one encoding of their source nodes."""
    from collections import Counter

    inst = random_instance(4, 5, 0.6, 3, (0, 9))
    enc = mincost._enc
    encoded = Counter()

    def counted(name):
        encoded[name] += 1
        return enc(name)

    monkeypatch.setattr(mincost, "_enc", counted)
    text = emit_lp(inst)
    assert encoded == Counter(inst.nodes)
    monkeypatch.setattr(mincost, "_enc", enc)
    assert emit_lp(inst) == text


def _lp_token(gs, name: str) -> str:
    """The LP token of a node of the named derived instance."""
    kind, node, *level = gs.tables.origin(gs.ids[name])
    suffix = {"copy": "c", "dummy": "d"}.get(kind, "t")
    return f"{_enc(node)}.{suffix}{level[0] if level else ''}"


def _expected_rows(inst):
    """The rows of the extended formulation read off `build_gstar(inst)`:
    name -> (coefficients, sense, right-hand side)."""
    gs = build_gstar(inst)
    inner = gs.inner
    tok = {u: _lp_token(gs, u) for u in inner.nodes}
    copies = set(inner.side_a)

    def xs(u, v):  # the variable of the edge {u, v}, named copy first
        return f"xs.{tok[u]}.{tok[v]}" if u in copies else f"xs.{tok[v]}.{tok[u]}"

    rows = {}
    for a, v in inner.edges:
        if gs.tables.origin(gs.ids[v])[0] != "image":
            continue
        terms = [xs(a, v)]
        terms += [xs(a, w) for w in inner.prefs[a][:inner.rank(a, v)]]
        terms += [xs(c, v) for c in inner.prefs[v][:inner.rank(v, a)]]
        rows[f"stab.{tok[a]}.{tok[v]}"] = (dict.fromkeys(terms, 1.0), ">=", 1.0)
    filled = {u for e in place(gs, make_matching(inst, ()), {}).pairs for u in e}
    for u in inner.nodes:
        if inner.prefs[u]:
            terms = dict.fromkeys((xs(u, v) for v in inner.prefs[u]), 1.0)
            rows[f"deg.{tok[u]}"] = (terms, "<=", 1.0)
            if u in filled:
                rows[f"fix.{tok[u]}"] = (terms, "=", 1.0)
    for a, b in inst.edges:
        p = f"{_enc(a)}.{_enc(b)}"
        terms = {f"x.{p}": 1.0}
        terms.update((xs(copy_name(a, i), image_name(b)), -1.0) for i in range(gs.n0))
        rows[f"link.{p}"] = (terms, "=", 0.0)
    return rows


def test_emit_lp_rows_mean_the_named_gstar_constraints():
    """Every stability, degree, fix and linkage row of `emit_lp` is the
    constraint read off the string-named derived instance: x(u, v) plus
    the edges u and v each rank above the other, all of a node's edges in
    its list's order, exactly the nodes `place` fills when nothing is
    matched, and each source edge against its copies. The golden digests
    pin the bytes on a fixed corpus; this pins what the rows mean on any
    instance."""
    cases = [random_instance(n, n, d, 9500 + n, (0, 9)) for n in (2, 4, 6) for d in (0.4, 0.8)]
    cases += [random_instance(na, nb, 0.7, 9530 + na, (0, 9)) for na, nb in ((7, 2), (9, 3), (6, 1))]
    cases += [random_instance(1, nb, 0.8, 9540 + nb, (0, 9)) for nb in (1, 3)]
    cases += [random_instance(na, 0, 0.5, 9550 + na) for na in (1, 3)]
    cases.append(parse_instance("side A x-1 a2 a3\nside B b1 b2 é\npref x-1: b1 é\n"
                                "pref b1: x-1\npref é: x-1\ncost x-1 é 4\n"))
    for inst in cases:
        _obj, rows, bounds = _parse_lp(emit_lp(inst))
        got = {name: (coefs, op, rhs) for name, coefs, op, rhs in rows}
        assert len(got) == len(rows), "row names repeat"
        expected = _expected_rows(inst)
        assert got == expected
        for name, (terms, _op, _rhs) in expected.items():
            if name.startswith("deg."):
                assert list(got[name][0]) == list(terms), f"{name} is not in list order"
        gs = build_gstar(inst)
        assert set(bounds) == ({f"xs.{_lp_token(gs, a)}.{_lp_token(gs, v)}" for a, v in gs.inner.edges}
                               | {f"x.{_enc(a)}.{_enc(b)}" for a, b in inst.edges})


@pytest.mark.parametrize("method", ["copy_lists", "other_lists"])
def test_every_list_order_comes_from_the_tables(monkeypatch, method):
    """`GStarTables.copy_lists` and `other_lists` are the one place the
    derived instance's list orders are written: with either refused, the
    LP text, the named derived instance and the min-cost route all fail
    through it."""
    inst = random_instance(4, 4, 0.6, 9560, (0, 9))

    def refuse(*_args, **_kwargs):
        raise AssertionError(f"{method} was called")

    monkeypatch.setattr(gstar.GStarTables, method, refuse)
    for run in (emit_lp, build_gstar, min_cost_popular_max):
        with pytest.raises(AssertionError, match=f"^{method} was called$"):
            run(inst)


def test_rotation_walk_keeps_one_block_per_lift():
    """The walk labels each position of a woman's list at most once, and
    only for a woman lifted past a suitor: its traced peak at n = 40 stays
    below 2.4 MB. It was 3.4 MB with one (woman, suitor) key per suitor
    passed, 2.48 MB with one (start, end, rotation) block per lift, and is
    2.49 MB with a label list for every woman a rotation moves (2.30 MB
    here, Python 3.11)."""
    import tracemalloc

    inst = random_instance(40, 40, 0.3, 1264, (0, 9))
    gt = gstar.GStarTables(inst, 40)
    prefs = gstar._lists(gt)
    rank = [{v: r for r, v in enumerate(lst)} for lst in prefs]
    m0, level = gstar._level_run(inst, 40)
    partner = dict(gt.place(m0.pairs, level))
    partner.update((v, u) for u, v in list(partner.items()))
    tracemalloc.start()
    try:
        cycles, _preds = mincost._rotation_walk(prefs, rank, range(gt.n_copies), partner)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cycles) > 500
    assert peak < 2_400_000, peak


def test_emit_lp_distinct_ids_get_distinct_rows():
    """'x-1' and 'x\u02d1' used to share the token x%2D1 and so their rows."""
    inst = parse_instance("side A x-1 x\u02d1\nside B b\npref x-1: b\npref x\u02d1: b\n"
                          "pref b: x-1 x\u02d1\n")
    _obj, rows, bounds = _parse_lp(emit_lp(inst))
    names = [r[0] for r in rows]
    assert len(names) == len(set(names))
    assert "x.x%2D1.b" in bounds and "x.x%CB%91.b" in bounds


@given(st.text(), st.text())
@example("x-1", "x\u02d1")
@example("\u00f10", "\u0f10")
def test_enc_is_injective_and_lp_safe(u, v):
    assert re.fullmatch(r"[A-Za-z0-9_%]*", _enc(u))
    assert (_enc(u) == _enc(v)) == (u == v)


def _solve_lp(text: str):
    import numpy as np
    from scipy.optimize import linprog

    objective, rows, bounds = _parse_lp(text)
    variables = sorted(bounds)
    index = {v: i for i, v in enumerate(variables)}
    c = np.zeros(len(variables))
    for v, coef in objective.items():
        c[index[v]] = coef
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for _name, coefs, op, rhs in rows:
        row = np.zeros(len(variables))
        for v, coef in coefs.items():
            row[index[v]] = coef
        if op == "<=":
            a_ub.append(row)
            b_ub.append(rhs)
        elif op == ">=":
            a_ub.append(-row)
            b_ub.append(-rhs)
        else:
            a_eq.append(row)
            b_eq.append(rhs)
    res = linprog(c, A_ub=np.array(a_ub), b_ub=np.array(b_ub),
                  A_eq=np.array(a_eq), b_eq=np.array(b_eq),
                  bounds=[bounds[v] for v in variables], method="highs")
    assert res.success
    return res.fun, dict(zip(variables, res.x))


def test_emit_lp_external_solver_matches(i2c):
    pytest.importorskip("scipy")
    optimum, values = _solve_lp(emit_lp(i2c))
    res = min_cost_popular_max(i2c)
    assert abs(optimum - res.cost) < 1e-6
    for v, x in values.items():
        assert min(abs(x), abs(x - 1)) < 1e-6  # integral vertex
    chosen = {v for v, x in values.items()
              if v.startswith("x.") and not v.startswith("xs.") and x > 0.5}
    assert chosen == {"x.a1.b2", "x.a2.b1"}


def test_emit_lp_external_solver_random():
    pytest.importorskip("scipy")
    for _seed, inst in random_cases(12, 3, 9400, costs=(0, 9)):
        if not inst.edges:
            continue
        optimum, values = _solve_lp(emit_lp(inst))
        res = min_cost_popular_max(inst)
        assert abs(optimum - res.cost) < 1e-6
        for x in values.values():
            assert min(abs(x), abs(x - 1)) < 1e-6
        pairs = []
        for v, x in values.items():
            if v.startswith("x.") and not v.startswith("xs.") and x > 0.5:
                _, a, b = v.split(".")
                pairs.append((a, b))
        m = make_matching(inst, pairs)
        assert verify_popular_max(inst, m).popular
        assert matching_cost(inst, m) == res.cost
