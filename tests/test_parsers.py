"""Property tests of the text parsers: any input either parses or raises a
PopmaxError, never another exception."""

from __future__ import annotations

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from popmax import PopmaxError, parse_certificate, parse_instance, parse_matching
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
