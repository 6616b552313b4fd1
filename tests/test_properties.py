"""Property tests on the concrete syntax: printing then parsing a random plant
gives it back, and the parser answers any token sequence with diagnostics
and nothing else."""

import random

from hypothesis import given, settings, strategies as st

import gen
from cpd.errors import SpecError
from cpd.parser import KEYWORDS, parse, print_spec

# fixed examples, no example database: the suite gives the same verdict on
# every run
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None)

SYMBOLS = ("||", ":=", "..", "->", "=>", "/\\", "\\/", "<=", ">=", "!=", ";",
           ",", ":", "=", "(", ")", "{", "}", "[", "]", "+", "-", "*", ".",
           "<", ">", "!", "?")
TOKENS = (sorted(KEYWORDS) + list(SYMBOLS)
          + ["c", "u", "x", "m", "P", "S", "on", "off", "0", "1", "2", "7",
             "_0", "_2"])
HEADER = ("controllable c; uncontrollable u; var x : 1..3 = 1; "
          "var m : {off, on} = off; process P = ")


@PROPERTY
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_print_then_parse_is_identity(seed):
    spec = gen.random_plant_spec(random.Random(seed))
    assert parse(print_spec(spec), "t.cpd") == spec


@PROPERTY
@given(st.sampled_from(["", HEADER]),
       st.lists(st.sampled_from(TOKENS), max_size=60))
def test_token_soup_raises_only_spec_errors(header, soup):
    text = header + " ".join(soup)
    try:
        parse(text, "soup.cpd")
    except SpecError:
        pass
