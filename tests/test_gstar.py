"""Auxiliary-instance construction, projection, levels, and lifting."""

from __future__ import annotations

import random
import types

import pytest

import popmax
from popmax import (
    ValidationError,
    build_gstar,
    gale_shapley,
    is_stable,
    level_proposals,
    levels,
    lift,
    make_matching,
    parse_instance,
    place,
    popular_max_matching,
    project,
    random_instance,
    serialize_instance,
    serialize_matching,
    wt_edge,
)
from popmax import cli, gstar
from popmax.certificates import DualCertificate, extract_certificate
from popmax.oracle import brute_popular_max, enumerate_stable
from popmax.popularity import verify_popular_max

from conftest import chain, mk, random_cases


def test_single_copy_degenerate(i0):
    gs = build_gstar(i0)
    assert gs.n0 == 1
    assert gs.inner.side_a == ("a#0",)
    assert gs.inner.side_b == ("b~",)
    assert gs.inner.edges == (("a#0", "b~"),)


def test_i1_size_formulas(i1):
    gs = build_gstar(i1)
    n0, e = 2, 3
    assert len(gs.inner.side_a) == n0 * 2
    assert len(gs.inner.side_b) == 2 + (n0 - 1) * 2
    assert len(gs.inner.edges) == n0 * e + 2 * (n0 - 1) * 2


def test_i1_image_preference_grouping(i1):
    gs = build_gstar(i1)
    assert gs.inner.prefs["b1~"] == ("a2#1", "a1#1", "a2#0", "a1#0")


def test_copy_and_dummy_preferences(i3):
    gs = build_gstar(i3)
    assert gs.inner.prefs["a1#0"] == ("b1~", "a1!d1")
    assert gs.inner.prefs["a1#1"] == ("a1!d1", "b1~", "a1!d2")
    assert gs.inner.prefs["a1#2"] == ("a1!d2", "b1~")
    assert gs.inner.prefs["a1!d1"] == ("a1#0", "a1#1")


def test_size_formulas_random():
    for _seed, inst in random_cases(30, 5, 6000):
        gs = build_gstar(inst)
        n0, na, nb, e = len(inst.side_a), len(inst.side_a), len(inst.side_b), len(inst.edges)
        assert len(gs.inner.side_a) == n0 * na
        assert len(gs.inner.side_b) == nb + max(0, (n0 - 1)) * na
        assert len(gs.inner.edges) == n0 * e + 2 * (n0 - 1) * na


def test_reserved_characters_rejected():
    inst = parse_instance("side A x#1\nside B b\npref x#1: b\npref b: x#1\n")
    with pytest.raises(ValidationError, match="reserved"):
        build_gstar(inst)


def test_tables_check_ids_when_made():
    """Every way to make the derived instance checks the source's ids: a
    `GStarTables` made directly raises as `build_gstar` does."""
    inst = parse_instance("side A x#1\nside B b\npref x#1: b\npref b: x#1\n")
    message = "node id 'x#1' contains a character reserved for derived names (#!~)"
    for n_levels in (1, 3):
        with pytest.raises(ValidationError) as err:
            popmax.gstar.GStarTables(inst, n_levels)
        assert str(err.value) == message


@pytest.mark.parametrize("na, nb", [(1, 0), (1, 3), (3, 0), (2, 2), (4, 3), (3, 5)])
def test_names_label_every_id(na, nb):
    """`GStarTables.names` gives `build_gstar`'s node names in id order, and
    each id the label its kind and the forward rule (`copies`, `image`,
    `dummies`) give it; |A| = 1 has no dummies, |B| = 0 no images."""
    for seed in range(3):
        inst = random_instance(na, nb, 0.5, seed)
        gt = popmax.gstar.GStarTables(inst, len(inst.side_a))
        names = gt.names(gstar.copy_name, gstar.image_name, gstar.dummy_name)
        assert names == list(build_gstar(inst).inner.nodes)
        expected = [None] * gt.n_nodes
        for k, a in enumerate(inst.side_a):
            for i, u in enumerate(gt.copies(k)):
                expected[u] = gstar.copy_name(a, i)
            for i, u in enumerate(gt.dummies(k), start=1):
                expected[u] = gstar.dummy_name(a, i)
        for j, b in enumerate(inst.side_b):
            expected[gt.image(j)] = gstar.image_name(b)
        assert names == expected


def test_tables_are_whole_when_made():
    """A `GStarTables` holds no preference lists or rank maps, and answers
    `cost` as soon as it is made: copy-image edges cost their source edge,
    dummy edges nothing."""
    inst = parse_instance("side A a1 a2\nside B b1 b2\npref a1: b1 b2\npref a2: b1\n"
                          "pref b1: a2 a1\npref b2: a1\ncost a1 b2 5\ncost a2 b1 -3\n")
    gt = popmax.gstar.GStarTables(inst, 2)
    assert not hasattr(gt, "prefs") and not hasattr(gt, "rank")
    b1, b2 = gt.image(0), gt.image(1)
    d1, d2 = gt.dummies(0)[0], gt.dummies(1)[0]
    costs = {(u, v): gt.cost((u, v)) for u, lst in enumerate(popmax.gstar._lists(gt))
             if u < gt.n_copies for v in lst}
    assert costs == {(0, b1): 0, (0, b2): 5, (0, d1): 0, (1, d1): 0, (1, b1): 0, (1, b2): 5,
                     (2, b1): -3, (2, d2): 0, (3, d2): 0, (3, b1): -3}


def test_gstar_serializes_in_core_format(i1):
    gs = build_gstar(i1)
    assert parse_instance(serialize_instance(gs.inner)) == gs.inner


def test_project_dummy_only_is_empty(i1):
    gs = build_gstar(i1)
    s = make_matching(gs.inner, [("a1#0", "a1!d1"), ("a2#0", "a2!d1")])
    assert project(gs, s).pairs == frozenset()


def test_project_fixture(i1):
    gs = build_gstar(i1)
    s = make_matching(gs.inner, [("a1#1", "b1~"), ("a2#0", "b2~"),
                                 ("a1#0", "a1!d1"), ("a2#1", "a2!d1")])
    assert sorted(project(gs, s).pairs) == [("a1", "b1"), ("a2", "b2")]


def test_project_rejects_double_copy(i1):
    gs = build_gstar(i1)
    s = make_matching(gs.inner, [("a2#0", "b2~"), ("a2#1", "b1~")])
    with pytest.raises(ValidationError, match="two copies"):
        project(gs, s)


def test_project_gs_run_is_stable_on_source(i2):
    gs = build_gstar(i2)
    m = project(gs, gale_shapley(gs.inner))
    assert is_stable(i2, m)


def test_levels_single_copy(i0):
    gs = build_gstar(i0)
    assert levels(gs, gale_shapley(gs.inner)) == {"a": 0, "b": 0}


def test_levels_fixture(i1):
    gs = build_gstar(i1)
    s = make_matching(gs.inner, [("a1#1", "b1~"), ("a2#0", "b2~"),
                                 ("a1#0", "a1!d1"), ("a2#1", "a2!d1")])
    assert levels(gs, s) == {"a1": 1, "a2": 0, "b1": 1, "b2": 0}


def test_levels_leftover_rule(i3):
    gs = build_gstar(i3)
    level = levels(gs, gale_shapley(gs.inner))
    assert level["a2"] == 2 and level["a3"] == 2


def test_popular_max_matching_fixtures(i0, i1, i3):
    assert sorted(popular_max_matching(i0).pairs) == [("a", "b")]
    assert sorted(popular_max_matching(i1).pairs) == [("a1", "b1"), ("a2", "b2")]
    assert sorted(popular_max_matching(i3).pairs) == [("a1", "b1")]


def test_lift_single_edge(i0):
    lifted = lift(i0, mk(i0, ("a", "b")), DualCertificate({"a": 0, "b": 0}, 1))
    assert sorted(lifted.pairs) == [("a#0", "b~")]


def test_lift_i1_fixture(i1):
    gs = build_gstar(i1)
    m = mk(i1, ("a1", "b1"), ("a2", "b2"))
    cert = DualCertificate({"a1": -2, "a2": 0, "b1": 2, "b2": 0}, 2)
    lifted = lift(i1, m, cert)
    assert sorted(lifted.pairs) == [("a1#0", "a1!d1"), ("a1#1", "b1~"),
                                    ("a2#0", "b2~"), ("a2#1", "a2!d1")]
    assert is_stable(gs.inner, lifted)


def test_lift_round_trip_i2(i2):
    gs = build_gstar(i2)
    m2 = mk(i2, ("a1", "b2"), ("a2", "b1"))
    from popmax.certificates import certify_popular_max

    cert = certify_popular_max(i2, m2)
    lifted = lift(i2, m2, cert)
    assert is_stable(gs.inner, lifted)
    assert project(gs, lifted).pairs == m2.pairs


def test_level_properties_on_randoms():
    """Every stable matching of the derived instance projects onto a popular
    max-matching, and the level partition behaves: matched pairs level-equal,
    no edge drops two levels, one-level drops weigh -2, blocking edges climb,
    unmatched nodes sit at the extremes, projection maximum."""
    for _seed, inst in random_cases(50, 4, 6100):
        gs = build_gstar(inst)
        pops = {frozenset(x.pairs) for x in brute_popular_max(inst, bound=30)}
        for s in enumerate_stable(gs.inner):
            m = project(gs, s)
            assert frozenset(m.pairs) in pops
            la = lb = levels(gs, s)
            for a, b in m.pairs:
                assert la[a] == lb[b]
            for a, b in inst.edges:
                assert la[a] <= lb[b] + 1
                if la[a] == lb[b] + 1:
                    assert wt_edge(inst, m, (a, b)) == -2
                if wt_edge(inst, m, (a, b)) == 2:
                    assert la[a] <= lb[b] - 1
            for a in inst.side_a:
                if not m.is_matched(a):
                    assert la[a] == gs.n0 - 1
            for b in inst.side_b:
                if not m.is_matched(b):
                    assert lb[b] == 0


def test_lift_right_inverse_on_randoms():
    for _seed, inst in random_cases(40, 4, 6200):
        gs = build_gstar(inst)
        for s in enumerate_stable(gs.inner):
            m = project(gs, s)
            cert = extract_certificate(gs, s)
            assert place(gs, m, levels(gs, s)) == s
            lifted = lift(inst, m, cert)
            assert is_stable(gs.inner, lifted)
            assert project(gs, lifted).pairs == m.pairs


def _level_run_cases():
    """Square and rectangular instances with |A| and |B| from 0, sparse ones
    with empty lists, and level-heavy ones with |A| much larger than |B|."""
    yield from (inst for _seed, inst in random_cases(200, 7, 6400, min_side=0,
                                                     density=(0.0, 1.0)))
    rng = random.Random(6500)
    for k in range(100):
        na, nb = rng.randint(6, 12), rng.randint(0, 3)
        yield popmax.random_instance(na, nb, rng.uniform(0.3, 1.0), 6600 + k)


def test_level_proposals_equal_gstar_run():
    """The level run is the A-proposing deferred acceptance of the derived
    instance: `place` of the run is that matching, whose projection and
    levels give the run back."""
    for inst in _level_run_cases():
        gs = build_gstar(inst)
        s = gale_shapley(gs.inner)
        m, lp = level_proposals(inst)
        assert place(gs, m, lp) == s
        assert m.pairs == project(gs, s).pairs
        assert lp == levels(gs, s)


def test_solve_and_canonical_certify_never_build_gstar(monkeypatch, i1, i2, i3):
    """`solve` and `certify` neither build the derived instance nor scan
    stable matchings, also when certifying a non-canonical matching."""
    def refuse(*_args, **_kwargs):
        raise AssertionError("the derived instance was built or enumerated")

    for mod in (popmax, popmax.gstar, popmax.certificates, popmax.mincost, popmax.oracle):
        for name in ("build_gstar", "enumerate_stable"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, refuse)
    cases = [(inst, popular_max_matching(inst)) for inst in (i1, i3)]
    non_canonical = mk(i2, ("a1", "b2"), ("a2", "b1"))
    assert non_canonical.pairs != level_proposals(i2)[0].pairs
    cases.append((i2, non_canonical))
    for inst, m in cases:
        cert = popmax.certify_popular_max(inst, m)
        assert popmax.verify_certificate(inst, m, cert).ok


def test_solve_complete_level_heavy():
    """A complete 300 x 5 instance climbs through hundreds of levels."""
    inst = popmax.random_instance(300, 5, 1.0, 7)
    m = popular_max_matching(inst)
    assert len(m) == 5 and verify_popular_max(inst, m).popular
    _, level = level_proposals(inst)
    assert all(level[a] == 299 for a in inst.side_a if not m.is_matched(a))


def test_solve_and_mincost_run_min_side_levels(monkeypatch, tmp_path, capsys):
    """`solve` and `mincost` run the derived instance with min(|A|, |B|)
    levels; `emit-lp` and `gstar` still lay out the paper's |A| levels."""
    tops, copies = [], []
    propose, init = popmax.gstar._propose, popmax.gstar.GStarTables.__init__

    def recording_propose(inst, top):
        held, level = propose(inst, top)
        tops.append((top, max(level.values())))
        return held, level

    def recording_init(self, *args):
        init(self, *args)
        copies.append(self.n_copies)

    monkeypatch.setattr(popmax.gstar, "_propose", recording_propose)
    monkeypatch.setattr(popmax.gstar.GStarTables, "__init__", recording_init)

    def run(command, inst):
        path = tmp_path / "inst.txt"
        path.write_text(serialize_instance(inst))
        tops.clear()
        copies.clear()
        assert cli.main([command, str(path)]) == 0
        capsys.readouterr()

    heavy = popmax.random_instance(300, 5, 1.0, 7, (0, 9))
    run("solve", heavy)
    assert tops == [(4, 4)] and copies == []
    run("mincost", heavy)
    assert tops == [(4, 4)] and copies == [300 * 5]
    small = popmax.random_instance(30, 5, 1.0, 7, (0, 9))
    for command in ("emit-lp", "gstar"):
        run(command, small)
        assert tops == [] and copies == [30 * 30]


@pytest.mark.parametrize("size", [100, 200])
@pytest.mark.parametrize("reverse", [False, True])
def test_solve_on_the_chain_makes_a_quadratic_count_of_proposals(tmp_path, capsys, monkeypatch,
                                                                 size, reverse):
    """`solve` on chain(L) reads exactly L(L+1) list entries in
    `stable._propose`, one per proposal, in either order of side A: the
    bound ROADMAP item 12 pins until item 2 lowers it."""
    reads = []

    class Entries(tuple):
        def __getitem__(self, i):
            reads.append(i)
            return tuple.__getitem__(self, i)

    propose = gstar._propose

    def counting(inst, top):
        prefs = {u: Entries(lst) for u, lst in inst.prefs.items()}
        return propose(types.SimpleNamespace(side_a=inst.side_a, prefs=prefs, _rank=inst._rank), top)

    monkeypatch.setattr(gstar, "_propose", counting)
    inst, m = chain(size, reverse=reverse)
    path = tmp_path / "chain.txt"
    path.write_text(serialize_instance(inst))
    assert cli.main(["solve", str(path)]) == 0
    assert capsys.readouterr().out == serialize_matching(m)
    assert len(reads) == size * (size + 1)
