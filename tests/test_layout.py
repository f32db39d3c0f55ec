"""Package layout: every export resolves, and the verifier's import base."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import kbarrier
import kbarrier.verifier

MODULES = ["kbarrier"] + [f"kbarrier.{m.name}" for m in pkgutil.iter_modules(kbarrier.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_exports_are_checked():
    with_all = [m for m in MODULES if hasattr(importlib.import_module(m), "__all__")]
    assert {"kbarrier.expr", "kbarrier.learner", "kbarrier.verifier"} <= set(with_all)


def test_specs_are_exported_from_the_verifier():
    assert not hasattr(kbarrier, "Interval") and not hasattr(kbarrier.expr, "Interval")
    assert kbarrier.KBCSpec is kbarrier.verifier.KBCSpec
    assert kbarrier.SafetySpec is kbarrier.verifier.SafetySpec


def test_verifier_imports_only_expr_from_the_package():
    tree = ast.parse(Path(kbarrier.verifier.__file__).read_text())
    relative = [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0]
    absolute = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    absolute += [node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0]
    assert relative == ["expr"]
    assert not [m for m in absolute if m.split(".")[0] == "kbarrier"]
