"""The public names: each module's ``__all__``, what ``opnorm`` re-exports, the
names each module imports, and that every private module-level name is read."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import opnorm
from opnorm import estimator

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


def _stored_names(target):
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _stored_names(elt)


def test_no_private_name_is_unused():
    # a module-level _name (function, class or constant) must be read, as a
    # name or an attribute, somewhere in the package; the import that brings
    # it into another module is no read
    defined, read = [], set()
    for path in sorted(Path(opnorm.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [n for t in node.targets for n in _stored_names(t)]
            elif isinstance(node, ast.AnnAssign):
                names = list(_stored_names(node.target))
            else:
                continue
            defined += [f"{path.name}:{node.lineno} {n}" for n in names
                        if n.startswith("_") and not n.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert defined
    assert [d for d in defined if d.split()[-1] not in read] == []


def test_estimator_builds_every_interval_in_one_combine_step():
    # the rules propose candidates, and one step in Analysis.bounds picks
    # them, checks them against each other and builds the interval
    def called(node, name):
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name

    tree = ast.parse(inspect.getsource(estimator))
    builds = [n for n in ast.walk(tree) if called(n, "NormBound")]
    raises = [n for n in ast.walk(tree)
              if isinstance(n, ast.Raise) and called(n.exc, "RuntimeError")]
    assert (len(builds), len(raises)) == (1, 1)
