"""The tokenizer against ``tokenize_oracle``, which counted line and column
lexeme by lexeme: every token's kind, text and derived position must match,
and so must the diagnostic of an unexpected character.  Also the cost of
many diagnostics in one file, where each position is found from the offset."""

import pytest

from cpd.errors import SpecError
from cpd.models import model_names, model_text
from cpd.parser import _line_column, _line_starts, parse, tokenize
from cpd.ppf import ppf_text

from oracles import tokenize_oracle
from test_parser_corpus import MUTANTS

EDGE_CASES = {
    "crlf": "controllable a;\r\nprocess P = a?.1;\r\n\r\nplant P;\r\n",
    "tabs": "\tcontrollable\ta ;\n\t\tprocess P =\ta?.1;\nplant\tP;",
    "final comment": "controllable a;\nprocess P = a?.1;\nplant P; # no newline",
    "subscripts": "_12 _12a x_1 c!_2?_3 _1_2 _ __3 _7\n_8;",
    "bad at 0": "$controllable a;",
    "bad after newline": "controllable a;\n$",
    "bad after comment": "controllable a; # note\n# more\n\t@",
    "bad after crlf": "controllable a;\r\n\r\n  `x",
    "empty": "",
}


def positioned(text: str):
    starts = _line_starts(text)
    return [(tok.kind, tok.text, *_line_column(starts, tok.offset)) for tok in tokenize(text, "t.cpd")]


def assert_matches_oracle(text: str) -> None:
    try:
        expected = [tuple(tok) for tok in tokenize_oracle(text, "t.cpd")]
    except SpecError as oracle_error:
        with pytest.raises(SpecError) as caught:
            tokenize(text, "t.cpd")
        assert caught.value.diagnostics == oracle_error.diagnostics
        return
    assert positioned(text) == expected


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_cases(name):
    assert_matches_oracle(EDGE_CASES[name])


def test_edge_cases_cover_subscripts_and_each_outcome():
    kinds = {tok.text: tok.kind for tok in tokenize(EDGE_CASES["subscripts"])}
    assert kinds["_12"] == kinds["_2"] == kinds["_3"] == kinds["_8"] == "sub"
    assert kinds["_12a"] == kinds["x_1"] == kinds["_1_2"] == kinds["_"] == kinds["__3"] == "name"
    for name in ("bad at 0", "bad after newline", "bad after comment", "bad after crlf"):
        with pytest.raises(SpecError):
            tokenize(EDGE_CASES[name])


def test_bundled_models():
    for name in model_names():
        assert_matches_oracle(model_text(name))


@pytest.mark.parametrize("counters, ops", [(1, [1]), (2, [2, 1]), (3, [1, 1, 1])])
def test_ppf_shapes(counters, ops):
    assert_matches_oracle(ppf_text(counters, ops))


def test_parser_corpus_mutants():
    for text in MUTANTS.values():
        assert_matches_oracle(text)


def test_many_diagnostics_each_at_its_line():
    text = "uncontrollable u;\n" + "plant ;\n" * 20000 + "process P = u!.1;\nplant P;\n"
    with pytest.raises(SpecError) as caught:
        parse(text, "many.cpd")
    got = [(d.line, d.column, d.message) for d in caught.value.diagnostics]
    assert got == [(line, 7, "expected process name") for line in range(2, 20002)]
