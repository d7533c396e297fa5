"""vbrsim declares no dependencies: every module it imports is in the standard library."""

import ast
import sys
from pathlib import Path

import vbrsim

SOURCES = sorted(Path(vbrsim.__file__).parent.glob("*.py"))


def _absolute_imports(path):
    """Top-level module name of each absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_src_imports_only_the_standard_library():
    assert SOURCES
    for path in SOURCES:
        outside = set(_absolute_imports(path)) - sys.stdlib_module_names
        assert not outside, f"{path.name} imports {sorted(outside)}"


# statistics imports fractions, decimal and numbers, a few ms of every start-up
EXACT_ARITHMETIC = {"statistics", "fractions", "decimal"}


def test_src_imports_no_exact_arithmetic_module():
    for path in SOURCES:
        heavy = set(_absolute_imports(path)) & EXACT_ARITHMETIC
        assert not heavy, f"{path.name} imports {sorted(heavy)}"
