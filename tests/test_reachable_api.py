"""Public functions and methods are reached: none exists for its tests alone.

Every function in `__all__` of `mdhv.analysis`, `mdhv.quantum` and
`mdhv.models.base`, and every public method and property of the classes in
`__all__` of those modules and of `mdhv.channel` and of the classes in
`MODEL_REGISTRY`, is referenced somewhere in `src/mdhv` outside its own
`def`, its `__all__` string and import lines, or is a call that perfbench
makes: one of the calls perfbench/workloads.py makes directly (the
`UNTRACED_CALLS` of tests/test_perfbench_names.py) or a model or channel
method that perfbench/tracing.py traces (`MODEL_METHODS`, `CHANNEL_METHODS`).
A reference, not only a call, counts: `json_form` is passed as `default=`.
A reference is counted by name, so a method shares it with any same-named
function, method or variable in `src/mdhv`.
"""

import ast
import importlib
import inspect
from collections import Counter
from pathlib import Path

import pytest

from mdhv import channel
from mdhv.models import MODEL_REGISTRY
from test_perfbench_names import UNTRACED_CALLS, tracing

SRC = Path(__file__).resolve().parents[1] / "src" / "mdhv"
MODULES = ("mdhv.analysis", "mdhv.quantum", "mdhv.models.base")
CLASS_MODULES = MODULES + ("mdhv.channel",)


class References(ast.NodeVisitor):
    """Counts names read and attributes taken, except inside a function's own def."""

    def __init__(self):
        self.counts = Counter()
        self.defs = []

    def visit_FunctionDef(self, node):
        self.defs.append(node.name)
        self.generic_visit(node)
        self.defs.pop()

    def visit_Name(self, node):
        if node.id not in self.defs:
            self.counts[node.id] += 1

    def visit_Attribute(self, node):
        if node.attr not in self.defs:
            self.counts[node.attr] += 1
        self.generic_visit(node)


def src_references() -> Counter:
    refs = References()
    for path in sorted(SRC.rglob("*.py")):
        refs.visit(ast.parse(path.read_text(), filename=str(path)))
    return refs.counts


REFERENCES = src_references()
PERFBENCH_CALLS = {fn for fn, _, _ in UNTRACED_CALLS.values()}
# traced methods, as the objects the classes hold (an inherited method is its base's)
PERFBENCH_METHODS = {
    inspect.getattr_static(cls, method)
    for cls in MODEL_REGISTRY.values()
    for method in tracing.MODEL_METHODS
} | {inspect.getattr_static(getattr(channel, cls), method) for cls, method in tracing.CHANNEL_METHODS}


def public_functions():
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        for name in module.__all__:
            fn = getattr(module, name)
            if inspect.isfunction(fn):
                yield f"{module_name}.{name}", fn


PUBLIC_FUNCTIONS = dict(public_functions())


@pytest.mark.parametrize("qualname", sorted(PUBLIC_FUNCTIONS))
def test_public_function_is_reached(qualname):
    fn = PUBLIC_FUNCTIONS[qualname]
    assert REFERENCES[fn.__name__] > 0 or fn in PERFBENCH_CALLS, (
        f"{qualname} is referenced by no code in src/mdhv and by no perfbench call"
    )


def public_classes():
    for module_name in CLASS_MODULES:
        module = importlib.import_module(module_name)
        for name in module.__all__:
            cls = getattr(module, name)
            if inspect.isclass(cls) and cls.__module__ == module_name:
                yield cls
    yield from MODEL_REGISTRY.values()


def public_methods():
    for cls in public_classes():
        for name, member in vars(cls).items():
            if not name.startswith("_") and (
                inspect.isfunction(member) or isinstance(member, (classmethod, staticmethod, property))
            ):
                yield f"{cls.__module__}.{cls.__qualname__}.{name}", (name, member)


PUBLIC_METHODS = dict(public_methods())


@pytest.mark.parametrize("qualname", sorted(PUBLIC_METHODS))
def test_public_method_is_reached(qualname):
    name, member = PUBLIC_METHODS[qualname]
    assert REFERENCES[name] > 0 or member in PERFBENCH_METHODS, (
        f"{qualname} is referenced by no code in src/mdhv and by no perfbench call"
    )
