"""The parser's outcome on a seeded corpus of mutated specifications: each
mutant's ``print_spec`` text, or its diagnostics, must hash to the digest
recorded in ``parser_corpus.json``.

The mutants are token edits (``gen.mutated_spec_text``) of the bundled
models and ``perfbench/inputs/ppf_1_2.cpd``; many fail to parse, so the
digests pin which diagnostic each failure reports and where.  Regenerate
the file with

    PYTHONPATH=src python tests/test_parser_corpus.py

only when a parser output change is intended.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from cpd.errors import SpecError
from cpd.models import model_names, model_text
from cpd.parser import parse, print_spec

from gen import mutated_spec_text

ROOT = Path(__file__).resolve().parent.parent
CORPUS = Path(__file__).resolve().parent / "parser_corpus.json"
MUTANTS_PER_SOURCE = 150


def sources() -> dict[str, str]:
    out = {name: model_text(name) for name in model_names()}
    out["ppf_1_2"] = (ROOT / "perfbench/inputs/ppf_1_2.cpd").read_text(encoding="utf-8")
    return out


def mutants() -> dict[str, str]:
    """Mutant name -> text; the name is the source and the draw number."""
    out = {}
    for seed, (name, text) in enumerate(sorted(sources().items())):
        rng = random.Random(seed)
        for k in range(MUTANTS_PER_SOURCE):
            out[f"{name} {k}"] = mutated_spec_text(rng, text)
    return out


def outcome(text: str) -> str:
    """``ok:`` or ``diagnostics:``, then the digest of the printed spec or
    of the diagnostics."""
    try:
        kind, out = "ok", print_spec(parse(text, "mutant.cpd"))
    except SpecError as exc:
        kind, out = "diagnostics", "\n".join(str(d) for d in exc.diagnostics)
    return f"{kind}:{hashlib.sha256(out.encode()).hexdigest()}"


MUTANTS = mutants()


@pytest.fixture(scope="module")
def corpus() -> dict[str, str]:
    return json.loads(CORPUS.read_text())


def test_corpus_covers_every_mutant_and_both_outcomes(corpus):
    assert sorted(corpus) == sorted(MUTANTS)
    kinds = {digest.split(":")[0] for digest in corpus.values()}
    assert kinds == {"ok", "diagnostics"}


def test_parser_outcomes_match_corpus(corpus):
    changed = [name for name, text in MUTANTS.items() if outcome(text) != corpus[name]]
    assert not changed


if __name__ == "__main__":
    CORPUS.write_text(json.dumps({name: outcome(text) for name, text in sorted(MUTANTS.items())},
                                 indent=1) + "\n")
    print(f"wrote {len(MUTANTS)} digests to {CORPUS}", file=sys.stderr)
