"""The public names: each module's ``__all__`` and what ``opnorm`` re-exports."""

import ast
import importlib
import inspect

import pytest

import opnorm

_MODULES = ("cli", "core", "estimator", "exact", "interp", "matio", "structured")


@pytest.mark.parametrize("name", _MODULES)
def test_every_name_in_all_exists(name):
    mod = importlib.import_module(f"opnorm.{name}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def test_package_reexports_only_listed_names():
    tree = ast.parse(inspect.getsource(opnorm))
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names if not alias.name.startswith("_")]
    assert imported
    unlisted = [(mod, n) for mod, n in imported
                if n not in importlib.import_module(f"opnorm.{mod}").__all__]
    assert unlisted == []
