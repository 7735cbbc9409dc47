"""Every imported name is read somewhere in its file: an AST scan of the
package, the tests and the scripts (the benchmark harness is not
scanned)."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(path for folder in ("src/stackemu", "tests", "scripts")
               for path in (ROOT / folder).glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """`name (line N)` for each name an import binds and the file never
    reads. A name inside a string annotation counts as read; `__future__`
    imports bind nothing."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    annotations = [getattr(node, attr) for node in ast.walk(tree)
                   for attr in ("annotation", "returns")
                   if getattr(node, attr, None) is not None]
    strings = [ast.parse(leaf.value, mode="eval")
               for annotation in annotations for leaf in ast.walk(annotation)
               if isinstance(leaf, ast.Constant)
               and isinstance(leaf.value, str)]
    read = {node.id for root in [tree, *strings] for node in ast.walk(root)
            if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in read]


def test_scan_reads_string_annotations_and_skips_future():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from typing import TYPE_CHECKING\n"
              "if TYPE_CHECKING:\n"
              "    from .stack import TsvFarmSpec, VoxelGrid\n"
              "def f(farm: 'TsvFarmSpec') -> 'list[np.ndarray]':\n"
              "    return []\n")
    assert unused_imports(source) == ["os (line 2)", "VoxelGrid (line 6)"]


@pytest.mark.parametrize("path", FILES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
