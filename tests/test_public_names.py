"""Every public top-level function and class in vbrsim has a reader outside the tests."""

import ast
from pathlib import Path

from tests_support import load_tracer

import vbrsim

SOURCES = sorted(Path(vbrsim.__file__).parent.glob("*.py"))


def _traced():
    """(module, top-level name) of each function the benchmark's tracer patches."""
    return {tuple(name.split(".")[:2]) for name in load_tracer().FUNCTIONS}


def test_every_public_name_is_read_exported_or_traced():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    kept = read | set(vbrsim.__all__)
    traced = _traced()
    unread = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in kept
        and (module, node.name) not in traced
    ]
    assert not unread, f"nothing in vbrsim reads {unread}"
