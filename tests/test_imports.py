"""Every imported name is read somewhere in its file: an AST scan of the
package, the tests and the scripts (the benchmark harness is not
scanned). No package module imports scipy at module level: only the
matrix oracles import it, when they are built. No package function
imports anything, so no run pays for an import midway; the CLI and
`lattice_matrix` are the exceptions."""

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


def module_level_imports(source: str) -> list[str]:
    """Sorted top-level names of the absolute imports outside any function
    or class body."""
    names, todo = [], [ast.parse(source)]
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append(node.module.split(".")[0])
        todo.extend(ast.iter_child_nodes(node))
    return sorted(names)


def test_module_level_scan_skips_function_bodies():
    source = ("import numpy as np\n"
              "from scipy import linalg\n"
              "if True:\n"
              "    import scipy.sparse\n"
              "from .solver import solve_cg\n"
              "def oracle():\n"
              "    import scipy.sparse as sp\n"
              "class Lazy:\n"
              "    def build(self):\n"
              "        from scipy import fft\n")
    assert module_level_imports(source) == ["numpy", "scipy", "scipy"]


@pytest.mark.parametrize("path", sorted((ROOT / "src/stackemu").glob("*.py")),
                         ids=lambda p: p.name)
def test_package_imports_no_scipy_at_module_level(path):
    assert "scipy" not in module_level_imports(path.read_text())


def function_imports(source: str) -> list[str]:
    """`function (line N)` of each import inside a function body, under the
    name of the outermost function that holds it."""
    found, todo = [], [(None, ast.parse(source))]
    while todo:
        outer, node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            outer = outer or node.name
        elif outer and isinstance(node, (ast.Import, ast.ImportFrom)):
            found.append(f"{outer} (line {node.lineno})")
        todo.extend((outer, child) for child in ast.iter_child_nodes(node))
    return sorted(found)


def test_function_import_scan_finds_nested_and_method_imports():
    source = ("import numpy as np\n"
              "def plain():\n"
              "    return np\n"
              "def outer():\n"
              "    def inner():\n"
              "        import csv\n"
              "class Writer:\n"
              "    def write(self):\n"
              "        from .fields_io import field_to_csv\n")
    assert function_imports(source) == ["outer (line 6)", "write (line 9)"]


@pytest.mark.parametrize("path", [
    path for path in sorted((ROOT / "src/stackemu").glob("*.py"))
    if path.name != "cli.py"], ids=lambda p: p.name)
def test_package_functions_import_nothing(path):
    """The CLI, not scanned, imports the package only after the BLAS
    thread cap is applied; lattice_matrix imports scipy for the oracle."""
    assert [f for f in function_imports(path.read_text())
            if not f.startswith("lattice_matrix ")] == []
