"""The package's public surface: every exported name resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import tailcluster

MODULES = sorted(m.name for m in pkgutil.iter_modules(tailcluster.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    # tailcluster.hill is the re-exported function, so import the module by path
    module = importlib.import_module(f"tailcluster.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_exports_the_hill_pass():
    for attr in ("hill_gammas", "group_means", "estimate_group_indices"):
        assert callable(getattr(tailcluster, attr))


def test_no_module_imports_another_modules_private_name():
    bad = []
    for path in sorted(Path(tailcluster.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("tailcluster")
            ):
                bad += [
                    f"{path.name}: {node.module}.{alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and not alias.name.startswith("__")
                ]
    assert bad == []
