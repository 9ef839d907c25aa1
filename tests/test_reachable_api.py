"""Public functions are reached: no library function exists for its tests alone.

Every function in `__all__` of `mdhv.analysis`, `mdhv.quantum` and
`mdhv.models.base` is referenced somewhere in `src/mdhv` outside its own
`def`, its `__all__` string and import lines, or is one of the calls that
perfbench/workloads.py makes directly (the `UNTRACED_CALLS` of
tests/test_perfbench_names.py).  A reference, not only a call, counts:
`json_form` is passed as `default=`.
"""

import ast
import importlib
import inspect
from collections import Counter
from pathlib import Path

import pytest

from test_perfbench_names import UNTRACED_CALLS

SRC = Path(__file__).resolve().parents[1] / "src" / "mdhv"
MODULES = ("mdhv.analysis", "mdhv.quantum", "mdhv.models.base")


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
