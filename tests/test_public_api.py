"""The package's public surface: ``tkd.__all__`` is exactly what ``tkd/__init__.py``
imports, so a deleted function cannot leave a stale export behind, every
name the benchmark in ``perfbench/`` calls or traces still exists, no
module keeps an import it no longer uses, only ``linops`` marks arrays
read-only or subclasses ``np.ndarray``, and the README's quick start prints
what its comments say."""

from __future__ import annotations

import ast
import functools
import importlib
import importlib.util
import inspect
import math
import re
from pathlib import Path

import numpy as np

import tkd

PERFBENCH = Path(__file__).parents[1] / "perfbench"
README = Path(__file__).parents[1] / "README.md"


def _imported_public_names() -> list[str]:
    tree = ast.parse(inspect.getsource(tkd))
    return [alias.asname or alias.name
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
            if not (alias.asname or alias.name).startswith("_")]


def test_all_resolves_without_repeats():
    assert len(tkd.__all__) == len(set(tkd.__all__))
    missing = [name for name in tkd.__all__ if not hasattr(tkd, name)]
    assert missing == []


def test_all_equals_imported_names():
    imported = _imported_public_names()
    assert len(imported) == len(set(imported))
    assert sorted(tkd.__all__) == sorted(imported)


def test_benchmark_entry_points_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_layertrace", PERFBENCH / "layertrace.py")
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    traced = [(f"tkd.{mod}", attr) for targets in layertrace.LAYERS.values() for mod, attr in targets]

    called = set()
    for node in ast.walk(ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "tkd":
            called.add(("tkd", node.attr))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute) \
                and isinstance(node.value.value, ast.Name) and node.value.value.id == "tkd" \
                and node.value.attr == "cli":
            called.add(("tkd.cli", node.attr))
    assert ("tkd.cli", "run_command") in called and ("tkd", "char_fn") in called

    def resolves(module: str, dotted: str) -> bool:
        try:
            functools.reduce(getattr, dotted.split("."), importlib.import_module(module))
        except AttributeError:
            return False
        return True

    assert [name for name in traced + sorted(called) if not resolves(*name)] == []


def _unused_imports(source: str) -> list[str]:
    """Names a module binds by import but never reads (``import a.b`` binds ``a``)."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    return sorted(bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)})


def test_modules_use_every_name_they_import():
    assert _unused_imports("import os.path\nfrom typing import Any as A, Sequence\nx: Sequence\n") \
        == ["A", "os"]
    modules = sorted(Path(tkd.__file__).parent.rglob("*.py"))
    unused = {path.name: _unused_imports(path.read_text(encoding="utf-8"))
              for path in modules if path.name != "__init__.py"}
    assert unused and {name: names for name, names in unused.items() if names} == {}


def _ownership_sites(source: str) -> list[str]:
    """The ``setflags`` calls and ``np.ndarray`` subclasses a module holds, as source lines."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "setflags":
            found.append(ast.unparse(node))
        elif isinstance(node, ast.ClassDef) \
                and any(ast.unparse(b) in ("np.ndarray", "numpy.ndarray", "ndarray") for b in node.bases):
            found.append(f"class {node.name}")
    return found


def test_only_linops_decides_who_may_write_an_array():
    # which array a container may hold without a copy is one rule, kept in one module
    assert _ownership_sites("class A(np.ndarray): pass\nb.setflags(write=False)\n") \
        == ["class A", "b.setflags(write=False)"]
    modules = sorted(Path(tkd.__file__).parent.rglob("*.py"))
    sites = {path.name: _ownership_sites(path.read_text(encoding="utf-8")) for path in modules}
    assert sites["linops.py"] and {name: s for name, s in sites.items() if s and name != "linops.py"} == {}


def _commented_value(comment: str):
    """The value a quick-start comment states: the expression before its first
    ' = ' or ', ', with numpy's space-separated array rows read as lists."""
    text = re.split(r" = |, ", comment)[0]
    return eval(re.sub(r"(?<=[j\]])\s+(?=[\[\d-])", ", ", text), {"sqrt": math.sqrt})


def test_readme_quick_start_prints_its_commented_values():
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    comments, continued = [], False  # one comment per print call, continuation lines joined
    for line in code.splitlines():
        stmt, _, comment = (part.strip() for part in line.partition("#"))
        if stmt.startswith("print("):
            comments.append(comment)
        elif continued and not stmt and comment:
            comments[-1] += " " + comment
        continued = stmt.startswith("print(") or (continued and not stmt and bool(comment))
    printed = []
    exec(code, {"print": printed.append})
    assert len(printed) == len(comments) == 3
    for value, comment in zip(printed, comments):
        assert np.max(np.abs(np.asarray(value) - np.asarray(_commented_value(comment)))) <= 1e-12, comment
