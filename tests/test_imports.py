"""Import hygiene and dead code: every name a package module imports is
used in it, every name it defines at module level is used somewhere in
the package, every parameter of a function is read in its body and takes
more than one value across its call sites, importing the commands
loads no process-pool machinery, and only the lane's and the fan-out's
modules import thread machinery.

Deleting code tends to leave its imports and parameters behind, code
that only tests call stays behind after its last caller goes, and a
parameter every caller passes the same literal is a constant in
disguise; nothing else fails on any of these. The scans are syntactic: a name counts as
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


def _literal(node):
    """(type name, repr) of the literal `node` spells, or None."""
    try:
        value = ast.literal_eval(node)
    except (ValueError, TypeError):
        return None
    return type(value).__name__, repr(value)


def constant_parameters(definitions: dict, callers: dict) -> list:
    """`function.parameter` of each parameter of a function defined in
    `definitions` (module name -> source text) that every call in
    `callers` (name -> source text) gives one and the same literal, passed
    or as its default, in definition order.

    Calls are matched by name, so a function is skipped when its name is
    defined twice, when it is never called, when a caller loads it other
    than by calling it (it may be called out of sight), and when a call
    unpacks `*args` or `**kwargs`. Dunder methods are exempt, and a
    method's first parameter is `self` or `cls` unless it is static."""
    functions, defined = {}, {}
    for text in definitions.values():
        tree = ast.parse(text)
        methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for node in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    or node.name.startswith("__"):
                continue
            defined[node.name] = defined.get(node.name, 0) + 1
            args = node.args
            positional = args.posonlyargs + args.args
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            if id(node) in methods and not static:
                positional = positional[1:]
            defaults = dict(zip([p.arg for p in positional[::-1]], args.defaults[::-1]))
            defaults.update({p.arg: d for p, d in zip(args.kwonlyargs, args.kw_defaults)
                             if d is not None})
            functions[node.name] = ([p.arg for p in positional],
                                    [p.arg for p in positional + args.kwonlyargs], defaults)
    calls, escaped = {}, set()
    for text in callers.values():
        tree = ast.parse(text)
        called = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                called.add(id(node.func))
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
        escaped |= {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(tree)
                    if isinstance(node, (ast.Name, ast.Attribute))
                    and isinstance(node.ctx, ast.Load) and id(node) not in called}
    constant = []
    for name, (positional, params, defaults) in functions.items():
        sites = calls.get(name, [])
        if defined[name] > 1 or name in escaped or not sites or any(
                isinstance(a, ast.Starred) for call in sites for a in call.args) or any(
                k.arg is None for call in sites for k in call.keywords):
            continue
        for param in params:
            values = []
            for call in sites:
                given = dict(zip(positional, call.args))
                given.update({k.arg: k.value for k in call.keywords})
                node = given.get(param, defaults.get(param))
                values.append(None if node is None else _literal(node))
            if values[0] is not None and values.count(values[0]) == len(values):
                constant.append(f"{name}.{param}")
    return constant


# every caller of the package: itself, its tests and its benchmark
CALLERS = SOURCES + [path for directory in ("tests", "perfbench")
                     for path in sorted((Path(__file__).parents[1] / directory).glob("*.py"))]


def test_no_parameter_is_a_constant_in_disguise():
    definitions = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    callers = {str(p): p.read_text(encoding="utf-8") for p in CALLERS}
    assert constant_parameters(definitions, callers) == []


def test_scan_finds_a_constant_parameter():
    """`wrapped` may be called through `wrap`, `twice` is two functions,
    and `**opts` may pass `spread`'s `b`: none of them is judged."""
    definitions = {"a": ("def ar(rng, n, scale, lag=1, *, burn=100):\n"
                         "    return rng, n, scale, lag, burn\n"
                         "def wrapped(x):\n"
                         "    return x\n"
                         "def twice(x):\n"
                         "    return x\n"
                         "class Model:\n"
                         "    def fit(self, epochs):\n"
                         "        return epochs\n"
                         "    def twice(self, x):\n"
                         "        return x\n"
                         "def spread(a, b=2):\n"
                         "    return a + b\n")}
    callers = {"b": ("ar(g, 10, 0.25)\n"
                     "ar(g, 20, scale=0.25, burn=100)\n"
                     "m.fit(-3)\n"
                     "Model().fit(epochs=-3)\n"
                     "wrapped(1)\n"
                     "timed = wrap(wrapped)\n"
                     "twice(1)\n"
                     "twice(1)\n"
                     "spread(1)\n"
                     "spread(1, **opts)\n"),
               "c": "ar(h, 30, 0.25, lag=1)\n"}
    assert constant_parameters(definitions, callers) == [
        "ar.scale", "ar.lag", "ar.burn", "fit.epochs"]


# the program owns its threads: the lane in `tensor` and the process pool
# in `fanout` are the only places that start one
THREAD_MODULES = ("threading", "_thread", "concurrent.futures")
THREAD_OWNERS = ("tensor.py", "fanout.py")


def thread_imports(source: str) -> list:
    """Each module in `THREAD_MODULES`, or a submodule of one, that
    `source` imports, at any depth, in walk order."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names += [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
    return [name for name in names
            if any(name == m or name.startswith(m + ".") for m in THREAD_MODULES)]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name not in THREAD_OWNERS],
                         ids=lambda p: p.name)
def test_only_the_lane_and_the_fan_out_import_threads(path):
    assert thread_imports(path.read_text(encoding="utf-8")) == []


def test_scan_finds_a_thread_import():
    source = ("import os, threading as th\n"
              "def f():\n"
              "    from concurrent.futures import ThreadPoolExecutor\n"
              "    import _thread, concurrent\n"
              "    from . import threading\n")
    assert thread_imports(source) == ["threading", "concurrent.futures",
                                      "concurrent.futures.ThreadPoolExecutor", "_thread"]


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
