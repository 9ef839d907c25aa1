"""perfbench traces mdhv functions by name; every traced name must resolve.

A traced function, model method or channel method that is renamed or
deleted reads NaN in perfbench and fails its run.  These tests catch the
rename here instead.  perfbench/tracing.py imports only the standard
library, so it is loaded by file path, and nothing under perfbench/ is
changed.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path
from types import SimpleNamespace

import pytest

from mdhv import channel
from mdhv.models import MODEL_REGISTRY

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


def run_extractor(extract, fn):
    """Run `extract` on a mapping of `fn`'s own parameter names, each to a stand-in value."""
    arguments = {name: SimpleNamespace(name=name) for name in inspect.signature(fn).parameters}
    extract(arguments)


@pytest.mark.parametrize(
    "module_name, fn_name, extract",
    [(m, f, e) for m, f, _, e in tracing.FUNCTIONS],
    ids=[span for _, _, span, _ in tracing.FUNCTIONS],
)
def test_traced_function_resolves(module_name, fn_name, extract):
    fn = getattr(importlib.import_module(module_name), fn_name, None)
    assert callable(fn), f"{module_name}.{fn_name} is missing"
    if extract is not None:
        run_extractor(extract, fn)


@pytest.mark.parametrize("model_name", sorted(MODEL_REGISTRY))
@pytest.mark.parametrize("method", sorted(tracing.MODEL_METHODS))
def test_traced_model_method_resolves(model_name, method):
    fn = getattr(MODEL_REGISTRY[model_name], method, None)
    assert callable(fn), f"model {model_name} has no method {method}"
    extract = tracing.MODEL_METHODS[method]
    if extract is not None:
        run_extractor(extract, fn)


@pytest.mark.parametrize("cls_name, method", tracing.CHANNEL_METHODS)
def test_traced_channel_method_resolves(cls_name, method):
    assert callable(getattr(getattr(channel, cls_name, None), method, None))
