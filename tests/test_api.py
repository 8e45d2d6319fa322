"""The package's public surface: every exported name resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import tailcluster

MODULES = sorted(m.name for m in pkgutil.iter_modules(tailcluster.__path__))
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"tailcluster.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_exports_the_hill_pass():
    for attr in ("hill_gammas", "hill_bands", "group_means", "estimate_group_indices"):
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


def _perfbench_names(tree: ast.AST) -> set[tuple[str, str]]:
    # (module, attribute) for `from tailcluster[.x] import name`, for
    # `_tc().name` / `_tc("x").name`, and for `tc.name` after `tc = _tc(...)`
    def tc_module(call) -> str | None:
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_tc":
            return ".".join(["tailcluster", *(arg.value for arg in call.args)])
        return None

    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and tc_module(node.value):
            for target in node.targets:
                aliases[target.id] = tc_module(node.value)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tailcluster":
            names |= {(node.module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Attribute):
            owner = tc_module(node.value) or aliases.get(getattr(node.value, "id", None))
            if owner:
                names.add((owner, node.attr))
    return names


def test_benchmark_entry_points_resolve():
    # the benchmark harness calls the package by name; a removed name would
    # surface there only as a failed run, so check every one here
    used = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        used |= _perfbench_names(ast.parse(path.read_text(encoding="utf-8")))
    assert ("tailcluster", "cluster_unknown_g") in used
    missing = sorted(
        f"{module}.{attr}" for module, attr in used
        if not hasattr(importlib.import_module(module), attr)
    )
    assert missing == []
