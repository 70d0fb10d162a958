"""The package's public surface: ``tkd.__all__`` is exactly what ``tkd/__init__.py``
imports, so a deleted function cannot leave a stale export behind, every
name the benchmark in ``perfbench/`` calls or traces still exists, and no
module keeps an import it no longer uses."""

from __future__ import annotations

import ast
import functools
import importlib
import importlib.util
import inspect
from pathlib import Path

import tkd

PERFBENCH = Path(__file__).parents[1] / "perfbench"


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
