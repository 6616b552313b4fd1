"""The runtime is pure standard library: every module under ``src/cpd``
imports only ``cpd`` itself, relative modules and standard modules."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cpd"


def imported_top_levels(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_runtime_imports_only_the_standard_library():
    files = sorted(SRC.rglob("*.py"))
    assert SRC / "cli.py" in files
    outside = {
        (str(path.relative_to(SRC)), name)
        for path in files
        for name in imported_top_levels(path)
        if name != "cpd" and name not in sys.stdlib_module_names
    }
    assert outside == set()
