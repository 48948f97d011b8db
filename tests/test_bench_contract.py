"""bench/layers.py wraps convlab functions by name; every name it lists
must resolve, or `bench/run.py --trace 1` breaks when a function moves."""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_layers = load_layers()


@pytest.mark.parametrize("module, function", sorted({*_layers.SPANS, *_layers.COUNTS}))
def test_wrapped_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"convlab.{module}"), function))
