"""Property tests: every parser either succeeds or raises its documented error."""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from monvar import (
    LatticeError,
    Presentation,
    WordSyntaxError,
    lattice_from_json,
    parse_certificate,
    parse_variety,
    parse_word,
)

# Few examples keep the suite fast; no example database is written.
FUZZ = settings(max_examples=100, deadline=None, database=None)

# Text drawn from each grammar's own alphabet reaches far more branches than
# arbitrary unicode alone.
WORD_TEXT = st.one_of(st.text(), st.text(alphabet="xyzt1209^ "))
CERT_LINE = st.one_of(
    st.text(alphabet="xy^23 =,:"),
    st.builds("start: {}".format, WORD_TEXT),
    st.builds(
        "step: prefix={} identity={} direction={} subst={} suffix={}".format,
        WORD_TEXT,
        st.text(alphabet="0123456789", min_size=1),
        st.sampled_from(["forward", "backward", "sideways"]),
        st.text(alphabet="xy=,^21"),
        WORD_TEXT,
    ),
)
SYSTEM_LINE = st.one_of(st.text(alphabet="xy^2=1# "), st.builds("{} = {}".format, WORD_TEXT, WORD_TEXT))
SYSTEM_TEXT = st.one_of(st.text(), st.lists(SYSTEM_LINE, max_size=4).map("\n".join))
# Handle expressions without '@', which would read files; the repeated
# combiner reaches past the nesting cap.
VARIETY_TOKEN = st.sampled_from(["meet(", "join(", "SL", "C", "LRB", "MON", "T", "RRB", "XY", ",", ")", " "])
VARIETY_TEXT = st.one_of(
    st.text().filter(lambda s: "@" not in s),
    st.lists(VARIETY_TOKEN, max_size=12).map("".join),
    st.builds(lambda k, tail: "meet(" * k + tail, st.integers(0, 3000), st.sampled_from(["", "SL", "SL)"])),
)
JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(alphabet="abc01", max_size=2),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(["elements", "covers", "x"]), inner),
    max_leaves=12,
)


@FUZZ
@given(WORD_TEXT)
def test_parse_word_raises_only_word_syntax_errors(text):
    try:
        parse_word(text)
    except WordSyntaxError:
        pass


@FUZZ
@given(st.one_of(st.text(), st.lists(CERT_LINE, max_size=4).map("\n".join)))
def test_parse_certificate_raises_only_value_errors(text):
    try:
        parse_certificate(text)
    except ValueError:
        pass


@FUZZ
@given(st.one_of(st.text(), JSON_VALUE.map(json.dumps)))
def test_lattice_from_json_raises_only_lattice_errors(text):
    try:
        lattice_from_json(text)
    except LatticeError:
        pass


@FUZZ
@given(SYSTEM_TEXT)
def test_presentation_parse_raises_only_value_errors(text):
    try:
        Presentation.parse(text)
    except ValueError:  # WordSyntaxError is one
        pass


@FUZZ
@given(VARIETY_TEXT)
@example("meet(" * 3000)
def test_parse_variety_raises_only_value_errors(text):
    try:
        parse_variety(text)
    except ValueError:
        pass
