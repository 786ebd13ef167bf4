"""The public names: each module's ``__all__``, what ``opnorm`` re-exports, and
the names each module imports."""

import ast
import importlib
import inspect
from pathlib import Path

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


def test_no_module_imports_an_unused_name():
    # an annotation is parsed to Name nodes like any other expression, so a
    # name that only annotates (such as interp's TYPE_CHECKING import) counts
    unused = []
    for path in sorted(Path(opnorm.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []
