"""Data model, file formats, vote arithmetic."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import popmax
from popmax import (
    Instance,
    ParseError,
    ValidationError,
    compare,
    is_maximum,
    matching_cost,
    parse_instance,
    parse_matching,
    random_instance,
    serialize_instance,
    serialize_matching,
    wt_edge,
)

from conftest import I1_TEXT, mk, random_cases


def test_parse_single_edge():
    inst = parse_instance("side A a\nside B b\npref a: b\npref b: a\n")
    assert inst.edges == (("a", "b"),)


def test_parse_i1_edge_count(i1):
    assert len(i1.edges) == 3
    assert i1.prefs["b1"] == ("a2", "a1")


def test_parse_comments_and_blanks(i1):
    text = "# header\n\n" + I1_TEXT + "\n# trailing\n"
    assert parse_instance(text) == i1


def test_parse_non_mutual_rejected():
    text = "side A a\nside B b\npref a: b\npref b:\n"
    with pytest.raises(ValidationError, match="non-mutual"):
        parse_instance(text)


def test_parse_duplicate_node_rejected():
    with pytest.raises(ValidationError, match="duplicate node"):
        parse_instance("side A a a\nside B b\npref a: b\npref b: a\n")


def test_parse_duplicate_in_pref_list_rejected():
    with pytest.raises(ValidationError, match="duplicate entry"):
        parse_instance("side A a\nside B b\npref a: b b\npref b: a a\n")


def test_parse_cost_on_non_edge_rejected():
    text = "side A a1 a2\nside B b\npref a1: b\npref b: a1\ncost a2 b 1\n"
    with pytest.raises(ValidationError, match="non-edge"):
        parse_instance(text)


def test_parse_syntax_error_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_instance("side A a\nside B b\npref a b\n")
    assert exc.value.line == 3


def test_parse_unknown_directive():
    with pytest.raises(ParseError, match="unknown directive"):
        parse_instance("sides A a\n")


def test_roundtrip_single_edge(i0):
    assert parse_instance(serialize_instance(i0)) == i0


def test_roundtrip_i1(i1):
    assert parse_instance(serialize_instance(i1)) == i1


def test_roundtrip_costs(i2c):
    text = serialize_instance(i2c)
    assert "cost a1 b1 1" in text
    assert parse_instance(text) == i2c


def test_roundtrip_random_instances():
    for _seed, inst in random_cases(40, 5, 7100, costs=(0, 9)):
        assert parse_instance(serialize_instance(inst)) == inst


def test_isolated_nodes_allowed():
    inst = parse_instance("side A a x\nside B b\npref a: b\npref b: a\npref x:\n")
    assert inst.prefs["x"] == ()
    assert parse_instance(serialize_instance(inst)) == inst


def _rejection(side_a, side_b, prefs, costs=None) -> str:
    with pytest.raises(ValidationError) as exc:
        Instance(side_a, side_b, prefs, costs or {})
    return str(exc.value)


@pytest.mark.parametrize("bad", ["a\u00a0x", "a\u2003x", "a\x1f", "", "a:x", " a"])
def test_instance_rejects_bad_identifier(bad):
    prefs = {"a": ("b",), "b": ("a",)}
    assert _rejection(["a", bad], ["b"], prefs) == f"bad node identifier {bad!r}"
    assert _rejection(["a"], ["b", bad], prefs) == f"bad node identifier {bad!r}"


@pytest.mark.parametrize("side_a, side_b", [
    (["#a", "a2"], ["b"]), (["a2", "#a"], ["b"]), (["a"], ["b", "#a"]), ([], ["#a", "b"]),
])
def test_instance_rejects_identifier_starting_with_hash(side_a, side_b):
    """A matching line that began with such an id would read as a comment;
    a B-node may begin one too, since a pair may name its B-node first."""
    assert _rejection(side_a, side_b, {}) == "bad node identifier '#a'"
    assert Instance(["a#1"], ["b#"], {}).side_b == ("b#",)


def test_first_bad_identifier_is_reported_under_every_hash_seed(tmp_path):
    """The ids are walked in declaration order, not in set order."""
    path = tmp_path / "i.txt"
    path.write_text("side A x:1 y:2 z:3\nside B b\n")
    src = str(Path(popmax.__file__).parents[1])
    for seed in range(1, 7):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-m", "popmax.cli", "solve", str(path)],
                              capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stderr) == (2, "error: bad node identifier 'x:1'\n")


def test_instance_rejects_unknown_key_beside_missing_node():
    # as many lists as declared nodes: one key is unknown, one node has none
    prefs = {"a1": (), "b1": (), "zz": ()}
    assert len(prefs) == 3
    assert _rejection(["a1", "a2"], ["b1"], prefs) == "preference list for unknown node 'zz'"
    prefs["yy"] = ()
    assert _rejection(["a1", "a2"], ["b1"], prefs) == "preference list for unknown node 'yy'"


def test_instance_rejects_entry_on_wrong_side():
    prefs = {"a1": ("b1", "a2"), "a2": (), "b1": ("a1",)}
    assert _rejection(["a1", "a2"], ["b1"], prefs) == \
        "'a1' lists 'a2', which is not on the opposite side"
    prefs = {"a1": ("b1",), "b1": ("a1", "b2"), "b2": ()}
    assert _rejection(["a1"], ["b1", "b2"], prefs) == \
        "'b1' lists 'b2', which is not on the opposite side"


@pytest.mark.parametrize("cost", [1.5, -0.25])
def test_instance_rejects_non_integer_cost(cost):
    prefs = {"a": ("b",), "b": ("a",)}
    assert _rejection(["a"], ["b"], prefs, {("a", "b"): cost}) == \
        "non-integer cost on ('a', 'b')"


def test_instance_integral_float_cost_is_stored_as_int():
    inst = Instance(["a"], ["b"], {"a": ("b",), "b": ("a",)}, {("a", "b"): 2.0})
    assert inst.costs == {("a", "b"): 2} and type(inst.costs[("a", "b")]) is int


@pytest.mark.parametrize("prefs, message", [
    # a1 -> b1 is not mirrored, and b2 lists a2 twice: list checks come first
    ({"a1": ("b1",), "a2": ("b2",), "b1": (), "b2": ("a2", "a2")},
     "duplicate entry in preference list of 'b2'"),
    # a non-mutual A-side entry is reported before a non-mutual B-side entry
    ({"a1": ("b2",), "a2": ("b1",), "b1": ("a1",), "b2": ()},
     "non-mutual preference: 'a1' lists 'b2' but not vice versa"),
    ({"a1": ("b1",), "a2": (), "b1": ("a1", "a2"), "b2": ()},
     "non-mutual preference: 'b1' lists 'a2' but not vice versa"),
    # lists are checked in side order: a wrong-side entry of a2 before b1's duplicate
    ({"a1": (), "a2": ("a1",), "b1": ("a1", "a1"), "b2": ()},
     "'a2' lists 'a1', which is not on the opposite side"),
])
def test_instance_fault_precedence(prefs, message):
    assert _rejection(["a1", "a2"], ["b1", "b2"], prefs) == message


_AB = {"a1": ("b1",), "b1": ("a1",)}


@pytest.mark.parametrize("side_a, prefs, costs, message", [
    (["a1"], _AB, {("a1", "b1"): "x"}, "bad cost entry ('a1', 'b1'): 'x'"),
    (["a1"], _AB, {("a1", "b1"): None}, "bad cost entry ('a1', 'b1'): None"),
    (["a1"], _AB, {("a1",): 1}, "bad cost entry ('a1',): 1"),
    (["a1"], _AB, {("a1", "b1", "x"): 1}, "bad cost entry ('a1', 'b1', 'x'): 1"),
    (["a1"], _AB, {5: 1}, "bad cost entry 5: 1"),
    (["a1"], {**_AB, "a1": None}, {}, "bad preference list for 'a1'"),
    (["a1"], {**_AB, "b1": 5}, {}, "bad preference list for 'b1'"),
    (["a1"], {**_AB, "a1": (["b1"],)}, {}, "bad preference list for 'a1'"),
    (["a1", 5], _AB, {}, "node identifiers must be strings"),
    (["a1"], [], {}, "preferences must map nodes to lists"),
    (["a1"], None, {}, "preferences must map nodes to lists"),
    (["a1"], _AB, [(("a1", "b1"), 1)], "costs must map edges to integers"),
    (["a1"], {**_AB, 5: (), "zz": ()}, {}, "preference list for unknown node 'zz'"),
])
def test_instance_rejects_values_of_the_wrong_type(side_a, prefs, costs, message):
    """A bad Python value is a ValidationError, not a bare TypeError or ValueError."""
    assert _rejection(side_a, ["b1"], prefs, costs) == message


def test_instance_cost_checks():
    prefs = {"a1": ("b1",), "a2": (), "b1": ("a1",)}
    for e in (("b1", "a1"), ("a2", "b1"), ("a1", "a2")):
        assert _rejection(["a1", "a2"], ["b1"], prefs, {e: 1}) == f"cost on non-edge {e!r}"


def test_matching_rejects_non_edges(i1):
    with pytest.raises(ValidationError):
        mk(i1, ("a1", "b2"))


def test_matching_rejects_overlap(i1):
    with pytest.raises(ValidationError):
        mk(i1, ("a1", "b1"), ("a2", "b1"))


def test_matching_file_roundtrip(i1):
    m = mk(i1, ("a1", "b1"), ("a2", "b2"))
    assert parse_matching(i1, serialize_matching(m)).pairs == m.pairs
    assert parse_matching(i1, '{"pairs": [["a1","b1"],["a2","b2"]], "cost": 0}').pairs == m.pairs


def test_wt_blocking_edge(i1):
    m = mk(i1, ("a1", "b1"), ("a2", "b2"))
    assert wt_edge(i1, m, ("a2", "b1")) == 2


def test_wt_matching_edges_zero(i1, i2):
    m = mk(i1, ("a1", "b1"), ("a2", "b2"))
    for e in m.pairs:
        assert wt_edge(i1, m, e) == 0


def test_wt_one_sided_preference_is_zero(i2):
    m = mk(i2, ("a1", "b1"), ("a2", "b2"))
    assert wt_edge(i2, m, ("a1", "b2")) == 0


def test_wt_values_in_range(i2):
    for m_pairs in ([("a1", "b1")], [("a1", "b2"), ("a2", "b1")]):
        m = mk(i2, *m_pairs)
        for e in i2.edges:
            assert wt_edge(i2, m, e) in (-2, 0, 2)


def test_weights_and_blocking_read_by_position_agree_with_wt_edge():
    """`_weights` and `_blocking` read the lists by position; `wt_edge` reads
    the rank maps. They agree on every edge under every matching, matched,
    partial and empty, of seeded small instances."""
    from popmax.core import _blocking, _weights
    from popmax.oracle import enum_matchings

    for _, inst in random_cases(40, 4, 6100):
        for m in enum_matchings(inst, 30):
            expected = [(a, b, wt_edge(inst, m, (a, b))) for a, b in inst.edges]
            assert list(_weights(inst, m)) == expected
            assert list(_blocking(inst, m)) == [(a, b) for a, b, w in expected if w == 2]


def test_compare_self_is_zero(i1):
    m = mk(i1, ("a1", "b1"), ("a2", "b2"))
    assert compare(i1, m, m) == (0, 0, 0)


def test_compare_i1_fixture(i1):
    m = mk(i1, ("a1", "b1"), ("a2", "b2"))
    n = mk(i1, ("a2", "b1"))
    assert compare(i1, m, n) == (2, 2, 0)


def test_compare_i5_unanimous(i5):
    m = mk(i5, ("a1", "b1"), ("a2", "b2"))
    n = mk(i5, ("a1", "b2"), ("a2", "b1"))
    assert compare(i5, m, n) == (0, 4, -4)


def test_compare_antisymmetric_delta():
    for _seed, inst in random_cases(25, 4, 7200):
        from popmax.oracle import enum_matchings

        ms = enum_matchings(inst, bound=30)
        for m in ms[:10]:
            for n in ms[:10]:
                assert compare(inst, m, n).delta == -compare(inst, n, m).delta


def test_is_maximum_perfect(i0):
    assert is_maximum(i0, mk(i0, ("a", "b"))) == (True, None)


def test_is_maximum_witness(i1):
    ok, path = is_maximum(i1, mk(i1, ("a2", "b1")))
    assert not ok
    assert path == ["a1", "b1", "a2", "b2"]


def test_is_maximum_i3(i3):
    ok, _ = is_maximum(i3, mk(i3, ("a2", "b1")))
    assert ok


def test_is_maximum_agrees_with_oracle():
    from popmax.oracle import enum_matchings

    for _seed, inst in random_cases(30, 5, 7300):
        best = max((len(m) for m in enum_matchings(inst, bound=30)), default=0)
        for m in enum_matchings(inst, bound=30):
            got, path = is_maximum(inst, m)
            assert got == (len(m) == best)
            if not got:
                assert len(path) % 2 == 0 and len(path) >= 2
                assert not m.is_matched(path[0]) and not m.is_matched(path[-1])
                steps = list(zip(path, path[1:]))
                assert all(inst.has_edge(u, v) for u, v in steps)
                assert all(m.partner_of(u) == v for u, v in steps[1::2])


def test_is_maximum_one_search_for_all_starts(monkeypatch):
    """295 unmatched A-nodes share one search, so each B-node's partner
    is looked up at most once."""
    from collections import Counter

    from popmax import Matching, popular_max_matching

    inst = random_instance(300, 5, 1.0, 7)
    m = popular_max_matching(inst)
    assert len(inst.side_a) - len(m) == 295
    lookups = Counter()
    partner_of = Matching.partner_of

    def counted(self, u):
        lookups[u] += 1
        return partner_of(self, u)

    monkeypatch.setattr(Matching, "partner_of", counted)
    assert is_maximum(inst, m) == (True, None)
    assert set(lookups) <= set(inst.side_b) and max(lookups.values()) == 1


def test_matching_cost(i2c):
    assert matching_cost(i2c, mk(i2c)) == 0
    assert matching_cost(i2c, mk(i2c, ("a1", "b1"), ("a2", "b2"))) == 2
    assert matching_cost(i2c, mk(i2c, ("a1", "b2"), ("a2", "b1"))) == 0


def test_random_instance_mutual_and_deterministic():
    a = random_instance(4, 5, 0.6, 42, (0, 9))
    b = random_instance(4, 5, 0.6, 42, (0, 9))
    assert a == b
    assert a == parse_instance(serialize_instance(a))


def test_random_instance_takes_the_ends_of_its_ranges():
    """Density 0 and 1 and a one-value cost range are valid arguments, and an
    empty cost range is named low end first."""
    assert random_instance(3, 4, 0.0, 5).edges == ()
    assert len(random_instance(3, 4, 1.0, 5).edges) == 12
    assert set(random_instance(3, 4, 1.0, 5, (4, 4)).costs.values()) == {4}
    with pytest.raises(ValidationError) as err:
        random_instance(3, 4, 1.0, 5, (5, 3))
    assert str(err.value) == "empty cost range 5..3"


# ---------------------------------------------------------------------------
# Value types: read-only fields, equality, hashing, construction


def test_value_type_fields_are_read_only(i1):
    from popmax import CnfFormula, Witness, verify_popular_max

    m = mk(i1, ("a1", "b1"), ("a2", "b2"))
    formula = CnfFormula(2, [[1, -2]])
    records = [verify_popular_max(i1, m), Witness("path", ("a1",), (), 2)]
    for value in (i1, m, formula, *records):
        names = getattr(type(value), "_fields", None) or type(value).__slots__
        for name in names:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
    with pytest.raises(AttributeError):
        del m.partner
    assert formula.clauses == ((1, -2),)


def test_equal_matchings_hash_equal_and_instances_are_unhashable(i1):
    from popmax import Matching

    m, n = mk(i1, ("a1", "b1"), ("a2", "b2")), Matching([("a2", "b2"), ("a1", "b1")])
    assert m == n and hash(m) == hash(n) and len({m, n, mk(i1)}) == 2
    assert m != mk(i1) and m != m.pairs
    with pytest.raises(TypeError):
        hash(i1)
    with pytest.raises(TypeError):
        {i1}  # noqa: B018


def test_value_types_copy_and_pickle(i2c):
    import copy
    import pickle

    m = mk(i2c, ("a1", "b1"), ("a2", "b2"))
    for value in (i2c, m):
        for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert clone == value and clone is not value
    assert pickle.loads(pickle.dumps(m)).partner == m.partner


def test_instance_keyword_construction_and_costs_default():
    inst = Instance(side_a=["a"], side_b=["b"], prefs={"a": ["b"], "b": ["a"]})
    assert inst.costs == {} and inst.edges == (("a", "b"),)
    assert inst == Instance(("a",), ("b",), {"a": ("b",), "b": ("a",)}, costs={("a", "b"): 0})
    assert repr(inst) == ("Instance(side_a=('a',), side_b=('b',), "
                          "prefs={'a': ('b',), 'b': ('a',)}, costs={})")


def test_replaced_post_init_is_seen_by_the_next_construction(monkeypatch, i1):
    """A tracer times construction by wrapping `__post_init__` on the class."""
    from popmax import Matching

    seen = []
    for cls in (Instance, Matching):
        original = cls.__post_init__

        def wrapped(self, original=original):
            seen.append(type(self).__name__)
            original(self)

        monkeypatch.setattr(cls, "__post_init__", wrapped)
    inst = parse_instance(I1_TEXT)
    m = parse_matching(inst, "a2 b1\n")
    assert seen == ["Instance", "Matching"] and m.partner == {"a2": "b1", "b1": "a2"}
