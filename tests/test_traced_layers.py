"""The traced benchmark (``perfbench/tracer.py``) wraps layer functions by
module and name.  A function that is renamed or moved would silently drop out
of the per-layer numbers, so every traced name must resolve here."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_functions():
    # tracer.py imports only the standard library
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYER_FUNCTIONS


@pytest.mark.parametrize("name", _traced_functions())
def test_traced_function_exists(name):
    module_name, function_name = name.split(".")
    module = importlib.import_module(f"minkact.{module_name}")
    assert callable(getattr(module, function_name, None)), f"minkact.{name} is gone"
