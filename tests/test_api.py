import ast
import dataclasses
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


def _hand_initialised_dataclasses():
    return [cls for module in MODULES for cls in vars(module).values()
            if isinstance(cls, type) and cls.__module__ == module.__name__
            and dataclasses.is_dataclass(cls) and not cls.__dataclass_params__.init]


def test_hand_written_inits_exist():
    names = {cls.__name__ for cls in _hand_initialised_dataclasses()}
    assert {"SummaryRow", "EffectSize"} <= names


@pytest.mark.parametrize("cls", _hand_initialised_dataclasses(), ids=lambda c: c.__name__)
def test_hand_written_init_matches_fields(cls):
    # a field added to the class but not to __init__ (or the reverse) fails here
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    assert [(p.name, p.kind, p.default) for p in params] == [
        (f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
         inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default)
        for f in dataclasses.fields(cls)]
    assert cls.__dataclass_params__.frozen
