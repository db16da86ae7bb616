"""Every frozen ``uclab`` dataclass that holds an array states its equality.

The ``==`` a frozen dataclass generates compares its fields as tuples, which
raises ``ValueError`` for an ``np.ndarray`` field, and its generated hash
raises ``TypeError``.  So such a type either declares ``eq=False``, and two
instances are equal only when they are one object, or defines its own
``__eq__`` and ``__hash__`` and compares by value, as a placement does.

A frozen value is set only by its own ``__post_init__``: no module calls
``object.__setattr__`` on anything but ``self``.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import typing
from pathlib import Path

import numpy as np

import uclab


def frozen_array_dataclasses():
    for info in pkgutil.iter_modules(uclab.__path__):
        module = importlib.import_module(f"uclab.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if (cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls)
                    and cls.__dataclass_params__.frozen and holds_array(cls)):
                yield cls


def holds_array(cls) -> bool:
    """Whether a field's annotation names ``ndarray``: read as written, since
    the ``uclab`` modules keep their annotations as strings."""
    return any("ndarray" in str(f.type) for f in dataclasses.fields(cls))


def own_method(cls, name) -> bool:
    """Whether the class body defines ``name``, not the dataclass decorator
    (whose generated methods are compiled from a string)."""
    code = getattr(vars(cls).get(name), "__code__", None)
    return code is not None and code.co_filename == inspect.getfile(cls)


def states_equality(cls) -> bool:
    if own_method(cls, "__eq__") or own_method(cls, "__hash__"):
        return own_method(cls, "__eq__") and own_method(cls, "__hash__")
    return not cls.__dataclass_params__.eq


def test_frozen_array_dataclasses_state_their_equality():
    found = {cls.__name__: cls for cls in frozen_array_dataclasses()}
    assert {"CoefficientField", "DiscreteOperator", "SpectrumSlice", "WeightFunction",
            "SiteDecomposition", "RunTable", "EquidistributedSequence"} <= set(found)
    assert [name for name, cls in found.items() if not states_equality(cls)] == []


def test_scan_flags_a_generated_equality():
    @dataclasses.dataclass(frozen=True)
    class Generated:
        values: np.ndarray

    @dataclasses.dataclass(frozen=True, eq=False)
    class EqualOnly:
        values: np.ndarray

        def __eq__(self, other):
            return self is other

    @dataclasses.dataclass(frozen=True, eq=False)
    class Identity:
        values: typing.Optional[np.ndarray] = None

    assert holds_array(Generated) and holds_array(Identity)
    assert not states_equality(Generated) and not states_equality(EqualOnly)
    assert states_equality(Identity)


def patched_frozen_values(source: str) -> list[int]:
    """Lines of ``source`` that call ``object.__setattr__`` on an argument
    other than ``self``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__"
            and not (node.args and ast.unparse(node.args[0]) == "self")]


def test_no_frozen_value_is_patched_from_outside():
    found = {path.name: lines for path in sorted(Path(uclab.__file__).parent.glob("*.py"))
             if (lines := patched_frozen_values(path.read_text()))}
    assert found == {}


def test_scan_flags_a_patched_value():
    source = """
def build():
    cut = Cut()
    object.__setattr__(cut, "M", 1.0)
    return cut

class Cut:
    def __post_init__(self):
        object.__setattr__(self, "M", 0.0)
"""
    assert patched_frozen_values(source) == [4]
