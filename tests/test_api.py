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


def test_every_private_module_name_is_used_in_the_package():
    # a private helper that only tests call is dead code: each module-level private name
    # must be read somewhere in the package outside its own definition
    trees = [ast.parse(inspect.getsource(module)) for module in MODULES]
    reads = {}  # name -> the nodes that read it
    for node in (n for tree in trees for n in ast.walk(tree)):
        name = (node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias) else None)
        reads.setdefault(name, []).append(node)
    unused = []
    for module, tree in zip(MODULES, trees):
        for definition in tree.body:
            if isinstance(definition, (ast.FunctionDef, ast.ClassDef)):
                names = [definition.name]
            elif isinstance(definition, (ast.Assign, ast.AnnAssign)):
                targets = definition.targets if isinstance(definition, ast.Assign) else [definition.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            own = set(map(id, ast.walk(definition)))
            unused += [f"{module.__name__}.{name}" for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and all(id(n) in own for n in reads.get(name, ()))]
    assert unused == []


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
    # only the records an analysis builds by the thousand fill self as a draft; Observation
    # and CovariateRow use the generated __init__ and check in __post_init__
    names = {cls.__name__ for cls in _hand_initialised_dataclasses()}
    assert names == {"SummaryRow", "EffectSize"}


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
