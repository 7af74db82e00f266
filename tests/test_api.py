import ast
import copy
import dataclasses
import importlib
import inspect
import pickle
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


RECORDS = {
    "Observation": ("data", ("E1", "p1", "control", 1.5), {"treatment": "banana"}),
    "CovariateRow": ("data", ("E1", "p1", "student", (3, 2, 2, 1)), {"values": (3, 2, 2, 5)}),
    "SummaryRow": ("data", ("E1", 5, 5, 1.5, 1.25, 2.5, 1.75, 0.5, "within"), {"corr": 1.5}),
    "EffectSize": ("effects", ("E1", 0.4, 0.1, 20, False, "A", 2.0), {"variance": -0.1}),
}


def test_hand_written_inits_exist():
    names = {cls.__name__ for cls in _hand_initialised_dataclasses()}
    assert set(RECORDS) <= names


@pytest.mark.parametrize("name", RECORDS)
def test_slot_records_keep_the_dataclass_contract(name):
    module, args, invalid = RECORDS[name]
    cls = getattr(importlib.import_module(f"replimeta.{module}"), name)
    record = cls(*args)
    field = dataclasses.fields(cls)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, field, "E2")
    with pytest.raises(ValueError):  # replace builds through the validating __init__
        dataclasses.replace(record, **invalid)
    moved = dataclasses.replace(record, **{field: "E2"})
    assert getattr(moved, field) == "E2" and moved != record
    twin = cls(*args)
    assert twin == record and hash(twin) == hash(record) and twin is not record
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.deepcopy(record) == record
    assert not hasattr(record, "__dict__")
    assert repr(record).startswith(f"{name}(")


@pytest.mark.parametrize("cls", _hand_initialised_dataclasses(), ids=lambda c: c.__name__)
def test_hand_written_init_matches_fields(cls):
    # a field added to the class but not to __init__ (or the reverse) fails here
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    assert [(p.name, p.kind, p.default) for p in params] == [
        (f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
         inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default)
        for f in dataclasses.fields(cls)]
    assert cls.__dataclass_params__.frozen
