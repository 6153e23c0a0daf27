"""Every module-level import of a fracshape module is read somewhere in it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fracshape"


def _annotation_strings(tree):
    """String annotations, which `ast` keeps as constants."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            notes = [a.annotation for a in (args.posonlyargs + args.args + args.kwonlyargs
                                             + [args.vararg, args.kwarg]) if a]
            notes.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        else:
            continue
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                yield ast.parse(note.value, mode="eval")


def unused_imports(source: str) -> list:
    """Names bound by the module-level imports of `source` that it never
    reads; a name read in an annotation, string or not, counts as read."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    read = {n.id for t in (tree, *_annotation_strings(tree)) for n in ast.walk(t)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(bound - read)


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "__init__.py"))
def test_module_reads_every_import(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_unused_import_negative_control():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import sys\n"
              "from typing import Any, List\n\n"
              "def f(x: List) -> 'Any':\n"
              "    return sys.argv\n")
    assert unused_imports(source) == ["os"]
