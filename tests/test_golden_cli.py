"""Byte-identity of CLI output: each run's (exit code, stdout, stderr) must
hash to the digest recorded in ``golden_cli.json``.

The runs are the five models (the three bundled ones and the two
``perfbench/inputs`` files) under ``explore`` in each format, plain,
``--unsupervised`` and ``--rho-in-identity``, plus ``synth`` and
``check all`` in text and JSON, plus ``check ppf_1_1 pbis`` against
``ppf_1_1_tampered`` under each ``--bisim-actions`` value in text and JSON
(each of those ends in a counterexample).  Regenerate the file with

    PYTHONPATH=src python tests/test_golden_cli.py

only when an output change is intended.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from cpd.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
MODELS = {
    "agv": ROOT / "src/cpd/models/agv.cpd",
    "ppf_1_1": ROOT / "src/cpd/models/ppf_1_1.cpd",
    "ppf_1_1_tampered": ROOT / "src/cpd/models/ppf_1_1_tampered.cpd",
    "ppf_1_2": ROOT / "perfbench/inputs/ppf_1_2.cpd",
    "ppf_1_3": ROOT / "perfbench/inputs/ppf_1_3.cpd",
}


def runs() -> dict[str, list[str]]:
    """Run name -> argv, with the model file named by its key."""
    out: dict[str, list[str]] = {}
    for model in MODELS:
        for fmt in ("text", "json", "dot"):
            for flag in ("", "--unsupervised", "--rho-in-identity"):
                name = " ".join(filter(None, ["explore", model, fmt, flag]))
                out[name] = ["explore", model, "--format", fmt] + ([flag] if flag else [])
        for fmt in ("text", "json"):
            out[f"synth {model} {fmt}"] = ["synth", model, "--format", fmt]
            out[f"check {model} all {fmt}"] = ["check", model, "all", "--format", fmt]
    for actions in ("all", "none", "uncontrollable"):
        for fmt in ("text", "json"):
            out[f"check ppf_1_1 pbis {actions} {fmt}"] = [
                "check", "ppf_1_1", "pbis", "--against", "ppf_1_1_tampered",
                "--bisim-actions", actions, "--format", fmt]
    return out


def digest(argv: list[str]) -> str:
    argv = [str(MODELS.get(arg, arg)) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


RUNS = runs()


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_run(golden):
    assert sorted(golden) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_output_matches_golden(name, golden):
    assert digest(RUNS[name]) == golden[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: digest(argv) for name, argv in sorted(RUNS.items())},
                                 indent=1) + "\n")
    print(f"wrote {len(RUNS)} digests to {GOLDEN}", file=sys.stderr)
