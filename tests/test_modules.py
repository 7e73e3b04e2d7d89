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
