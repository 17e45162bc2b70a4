"""Import hygiene and dead code: every name a package module imports is
used in it, and every name it defines at module level is used somewhere in
the package.

Deleting code tends to leave its imports behind, and code that only tests
call stays behind after its last caller goes; nothing else fails on
either. The scans are syntactic: a name counts as used when it appears as
a loaded name, annotations included, or as an attribute.
"""

import ast
from pathlib import Path

import pytest

import lino

SOURCES = sorted(Path(lino.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by the imports of `source` that it never loads, in
    import order; `from __future__` imports are exempt."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in used]


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"cli.py", "model.py", "tensor.py", "train.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, numpy as np\n"
              "from typing import Optional, Sequence\n"
              "def f(x: Optional[int]) -> int:\n"
              "    return np.abs(x)\n")
    assert unused_imports(source) == ["os", "Sequence"]


def module_level_definitions(tree: ast.Module) -> list:
    """(name, node) of each function, class and constant a module defines
    at its top level; dunder names such as `__version__` are metadata that
    tools read, and are exempt."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(t.id, node) for t in targets if isinstance(t, ast.Name)]
    return [(name, node) for name, node in out if not name.startswith("__")]


def unused_definitions(sources: dict) -> list:
    """`module.name` of each module-level definition in `sources` (module
    name -> source text) that no code outside the definition itself loads
    by name or as an attribute, in module and definition order."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    loads = []
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads.append((node.id, node))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads.append((node.attr, node))
    unused = []
    for module, tree in trees.items():
        for name, definition in module_level_definitions(tree):
            inside = {id(node) for node in ast.walk(definition)}
            if not any(used == name and id(node) not in inside for used, node in loads):
                unused.append(f"{module}.{name}")
    return unused


def test_every_module_level_name_is_used():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert unused_definitions(sources) == []


def test_scan_finds_an_unused_definition():
    sources = {
        "a": ("LIMIT = 3\n"
              "_SPARE = 4\n"
              "__version__ = '1'\n"
              "def helper(n):\n"
              "    return helper(n - 1) if n else LIMIT\n"
              "def used():\n"
              "    return 1\n"),
        "b": ("from . import a\n"
              "class Runner:\n"
              "    def go(self):\n"
              "        return a.used()\n"
              "Runner().go()\n"),
    }
    assert unused_definitions(sources) == ["a._SPARE", "a.helper"]
