"""The benchmark's tracer wraps tribelief functions by name; each must still exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, names in _layers().items() for name in names]
)
def test_every_traced_function_exists(module, name):
    # Tracer.install reads each of these with getattr, so a missing one crashes a traced run
    assert callable(getattr(importlib.import_module(f"tribelief.{module}"), name, None))
