"""The package's public surface: ``tkd.__all__`` is exactly what ``tkd/__init__.py``
imports, so a deleted function cannot leave a stale export behind."""

from __future__ import annotations

import ast
import inspect

import tkd


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
