"""Package-integrity checks: every module imports, every export resolves.

Broken ``__init__`` re-exports and circular imports surface here rather
than in whichever downstream test happens to import the module first.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import pkgutil

import pytest

import repro


def _walk_modules() -> list[str]:
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        names.append(info.name)
    return sorted(names)


ALL_MODULES = _walk_modules()


class TestImports:
    @pytest.mark.parametrize("name", ALL_MODULES)
    def test_module_imports(self, name):
        module = importlib.import_module(name)
        assert module is not None

    @pytest.mark.parametrize("name", ALL_MODULES)
    def test_declared_exports_resolve(self, name):
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol!r}"

    def test_expected_subpackages_present(self):
        subpackages = {name.split(".")[1] for name in ALL_MODULES if "." in name}
        assert {"graphs", "stats", "kronecker", "privacy", "core",
                "evaluation", "utils", "runtime", "native",
                "scenarios"} <= subpackages


def _imported_modules(name: str) -> set[str]:
    """Absolute names of every module ``name``'s source imports."""
    module = importlib.import_module(name)
    package = name if hasattr(module, "__path__") else name.rpartition(".")[0]
    with open(module.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            relative = "." * node.level + (node.module or "")
            imported.add(importlib.util.resolve_name(relative, package))
    return imported


STATS_MODULES = [name for name in ALL_MODULES if name.startswith("repro.stats")]
PRIVACY_MODULES = [
    name for name in ALL_MODULES
    if name.startswith("repro.privacy") and name != "repro.privacy.mechanisms"
]


class TestLayering:
    @pytest.mark.parametrize("name", STATS_MODULES)
    def test_stats_does_not_import_runtime(self, name):
        # The A² pass runs serially in-process; statistics need no pool.
        offending = {
            imported for imported in _imported_modules(name)
            if imported == "repro.runtime" or imported.startswith("repro.runtime.")
        }
        assert not offending, f"{name} imports {sorted(offending)}"

    @pytest.mark.parametrize("name", PRIVACY_MODULES)
    def test_privacy_draws_laplace_noise_in_one_place(self, name):
        # Every Laplace draw of a release goes through
        # repro.privacy.mechanisms, so one function owns the noise path.
        module = importlib.import_module(name)
        with open(module.__file__, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        calls = [
            node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "laplace"
        ]
        assert not calls, f"{name} calls .laplace( at lines {calls}"

    @pytest.mark.parametrize("name", ALL_MODULES)
    def test_rejections_raise_validation_error(self, name):
        # A bad argument raises the structured ValidationError (itself a
        # ValueError), never a bare ValueError.
        module = importlib.import_module(name)
        with open(module.__file__, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        bare = [
            node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Raise) and node.exc is not None
            and isinstance(node.exc, ast.Call)
            and isinstance(node.exc.func, ast.Name) and node.exc.func.id == "ValueError"
        ]
        assert not bare, f"{name} raises ValueError at lines {bare}"


class TestDocumentation:
    @pytest.mark.parametrize("name", ALL_MODULES)
    def test_every_module_has_docstring(self, name):
        module = importlib.import_module(name)
        assert module.__doc__ and module.__doc__.strip(), f"{name} lacks a docstring"

    def test_public_callables_documented(self):
        # Spot-check the top-level API surface: everything a user reaches
        # through `repro.<name>` must carry a docstring.
        for symbol in repro.__all__:
            obj = getattr(repro, symbol)
            if callable(obj):
                assert obj.__doc__, f"repro.{symbol} lacks a docstring"
