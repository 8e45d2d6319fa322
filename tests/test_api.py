"""The package's public surface: every exported name resolves."""

import importlib
import pkgutil

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
