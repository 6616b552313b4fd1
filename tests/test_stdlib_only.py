"""The runtime is pure standard library: every module under ``src/cpd``
imports only ``cpd`` itself, relative modules and standard modules."""

import ast
import os
import subprocess
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


def test_cli_import_leaves_heavy_modules_out():
    # without site, nothing but cpd decides what is imported; these modules
    # cost start-up time that each command-line call pays
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = ("import sys, cpd.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
