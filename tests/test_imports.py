"""Import hygiene: every name a package module imports is used in it.

Deleting code tends to leave its imports behind, and nothing else fails on
them. The scan is syntactic: a name counts as used when it appears as a
loaded name anywhere in the module, annotations included.
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
