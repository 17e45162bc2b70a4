"""Import hygiene and dead code: every name a package module imports is
used in it, every name it defines at module level is used somewhere in
the package, every parameter of a function is read in its body, and
importing the commands loads no process-pool machinery.

Deleting code tends to leave its imports and parameters behind, and code
that only tests call stays behind after its last caller goes; nothing
else fails on any of these. The scans are syntactic: a name counts as
used when it appears as a loaded name, annotations included, or as an
attribute.
"""

import ast
import os
import subprocess
import sys
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


def unused_parameters(source: str) -> list:
    """`function.parameter` of each parameter in `source` that its
    function (or lambda) never loads in its body, in walk order. Dunder
    methods are exempt: a protocol fixes their parameters."""
    unused = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(node, "name", "<lambda>")
        if name.startswith("__") and name.endswith("__"):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [
            a for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        loaded = {n.id for stmt in body for n in ast.walk(stmt)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unused += [f"{name}.{p.arg}" for p in params if p.arg not in loaded]
    return unused


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unused_parameters(path.read_text(encoding="utf-8")) == []


def test_scan_finds_an_unused_parameter():
    source = ("def block(r, p, mode, rng=None, *args, **kw):\n"
              "    def inner():\n"
              "        return p\n"
              "    return r + inner() + len(args)\n"
              "class Ctx:\n"
              "    def __exit__(self, exc_type, exc, tb):\n"
              "        return None\n"
              "    def close(self, force):\n"
              "        return self\n"
              "KEY = lambda row, spare: row[0]\n")
    assert unused_parameters(source) == ["block.mode", "block.rng", "block.kw",
                                         "close.force", "<lambda>.spare"]


# loaded only when a fan-out starts a pool: at module level they add about
# 27 ms and 2 MB to the start of every command
POOL_MODULES = ("multiprocessing", "concurrent.futures")


def test_commands_import_no_process_pool():
    src = str(Path(lino.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, lino.cli, lino.evaluate\n"
            f"print([m for m in {POOL_MODULES!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert proc.stdout == "[]\n"
