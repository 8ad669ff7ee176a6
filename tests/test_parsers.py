"""Property tests of the text parsers: any input either parses or raises a
PopmaxError, never another exception."""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from popmax import (
    ParseError,
    PopmaxError,
    parse_certificate,
    parse_instance,
    parse_matching,
    popular_max_matching,
    serialize_instance,
    serialize_matching,
)
from popmax.hardness import parse_dimacs

from conftest import I2_TEXT

INSTANCE = parse_instance(I2_TEXT)

# tokens of every input grammar, so that generated lines often get past the
# first keyword check and reach the deeper branches
TOKENS = ["side", "A", "B", "pref", "a1:", "b1:", "a1", "a2", "b1", "b2", "cost", "alpha",
          "p", "cnf", "c", "#", "0", "1", "-1", "2", "-2", "x", ":", "{", "}", "é",
          "99999999999999999999"]
grammar_lines = st.lists(st.sampled_from(TOKENS), max_size=6).map(" ".join)
texts = st.one_of(
    st.text(max_size=200),
    st.lists(st.one_of(grammar_lines, st.text(max_size=20)), max_size=8).map("\n".join),
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.sampled_from(["a1", "a2", "b1", "b2", "zz"]) | st.text(max_size=5),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=12,
)

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def parses_or_popmax_error(parse, text):
    try:
        parse(text)
    except PopmaxError:
        pass


@SETTINGS
@given(texts)
def test_parse_instance_total(text):
    parses_or_popmax_error(parse_instance, text)


@SETTINGS
@given(texts)
def test_parse_matching_total(text):
    parses_or_popmax_error(lambda t: parse_matching(INSTANCE, t), text)


@SETTINGS
@given(json_values)
def test_parse_matching_json_pairs_total(pairs):
    parses_or_popmax_error(lambda t: parse_matching(INSTANCE, t), json.dumps({"pairs": pairs}))


@SETTINGS
@given(texts)
def test_parse_certificate_total(text):
    parses_or_popmax_error(parse_certificate, text)


@SETTINGS
@given(texts)
def test_parse_dimacs_total(text):
    parses_or_popmax_error(parse_dimacs, text)


# ids over an alphabet with '#' in it, at the start of an id or inside it
node_ids = st.text(alphabet="ab1#", min_size=1, max_size=3)


@st.composite
def instance_texts(draw):
    """An instance text with mutual preference lists over drawn ids."""
    side_a = draw(st.lists(node_ids, min_size=1, max_size=4, unique=True))
    side_b = draw(st.lists(node_ids.filter(lambda u: u not in side_a), max_size=4, unique=True))
    edges = draw(st.sets(st.tuples(st.sampled_from(side_a), st.sampled_from(side_b)))
                 if side_b else st.just(set()))
    lines = [f"side A {' '.join(side_a)}", f"side B {' '.join(side_b)}"]
    for u in side_a + side_b:
        nbrs = sorted(v for e in edges if u in e for v in e if v != u)
        lines.append(f"pref {u}: {' '.join(draw(st.permutations(nbrs)))}")
    return "\n".join(lines) + "\n"


@SETTINGS
@given(instance_texts())
@example("side A #a a2\nside B b1 b2\npref #a: b1\npref a2: b1 b2\npref b1: #a a2\npref b2: a2\n")
def test_accepted_instances_and_their_matchings_read_back(text):
    """What `parse_instance` accepts, and the matching `solve` finds on it,
    each read back from its serialization as itself."""
    try:
        inst = parse_instance(text)
    except PopmaxError:
        return
    assert parse_instance(serialize_instance(inst)) == inst
    m = popular_max_matching(inst)
    assert parse_matching(inst, serialize_matching(m)) == m


# the characters `str.splitlines` ends a line at and text mode does not
NOT_LINE_ENDS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize("char", NOT_LINE_ENDS, ids=[f"U+{ord(c):04X}" for c in NOT_LINE_ENDS])
def test_lines_end_only_where_text_mode_ends_them(char):
    """Inside a line each of these characters reads as a space, in every
    parser, and an error on a later line names the line that LF ends."""
    cases = [
        (parse_instance, "side A a1\nside B b1 b2\npref a1: b1{}b2\npref b1: a1\npref b2: a1\n",
         "x\n", "line 6, column 1: unknown directive 'x'"),
        (lambda text: parse_matching(INSTANCE, text), "a1{}b1\na2 b2\n",
         "b1\n", "line 3, column 1: expected `<idA> <idB>`"),
        (parse_dimacs, "p cnf 3 2\n1{}2 3 0\n-1 -2 0\n",
         "x 0\n", "line 4, column 1: bad literal 'x'"),
        (parse_certificate, "alpha a1{}2\nalpha b1 2\n",
         "alpha\n", "line 3, column 1: expected `alpha <node> <even-integer>`"),
    ]
    for parse, text, later, message in cases:
        assert parse(text.format(char)) == parse(text.format(" "))
        with pytest.raises(ParseError) as err:
            parse(text.format(char) + later)
        assert str(err.value) == message
