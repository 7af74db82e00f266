import ast
import importlib
import inspect
import pkgutil

import pytest

import replimeta

MODULES = [importlib.import_module(f"replimeta.{info.name}")
           for info in pkgutil.iter_modules(replimeta.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert hasattr(module, "__all__")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_name_imported_from_a_sibling_is_exported(module):
    unexported = []
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            sibling = importlib.import_module(f"replimeta.{node.module}")
            unexported += [f"{node.module}.{alias.name}" for alias in node.names
                           if alias.name not in sibling.__all__]
    assert unexported == []
