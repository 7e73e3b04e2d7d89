"""Every module of the package is importable, exports only names it
defines, and is used: the package or another module imports it,
except the console-script entry point."""

import ast
import importlib
import pathlib

import pytest

import h2vec

PACKAGE = pathlib.Path(h2vec.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"h2vec.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_every_module_but_the_entry_point_is_imported():
    imported = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    imported.add(node.module.split(".")[0])
                else:
                    imported.update(alias.name for alias in node.names)
    assert set(MODULES) - imported == {"cli"}


@pytest.mark.parametrize("name", MODULES)
def test_the_package_binds_each_module_under_its_name(name):
    # so `import h2vec.<name> as m` binds the module, and a patch set
    # on m reaches the code that reads it
    module = importlib.import_module(f"h2vec.{name}")
    assert getattr(h2vec, name) is module
    namespace = {}
    exec(f"import h2vec.{name} as bound", namespace)
    assert namespace["bound"] is module


def test_the_convert_function_is_imported_from_its_module():
    from h2vec.convert import convert

    assert callable(convert) and convert.__module__ == "h2vec.convert"
