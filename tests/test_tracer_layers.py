"""The benchmark reads tribelief functions by name: each function its tracer wraps
must still exist, and each cache its worker counts must still have cache_info."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


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


def _lru_caches():
    """The worker's lru_caches(), with the perfbench modules it imports by bare name dropped again."""
    before = set(sys.modules)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
        worker = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(worker)
        return worker.lru_caches()
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in {path.stem for path in PERFBENCH.glob("*.py")} - before:
            sys.modules.pop(name, None)


_CACHES = _lru_caches()


@pytest.mark.parametrize("name", list(_CACHES))
def test_every_counted_cache_has_cache_info(name):
    # the worker reads cache_info() of each before its first op, so a plain function there crashes every run
    cached = _CACHES[name]
    module, _, function = name.rpartition(".")
    assert cached is getattr(importlib.import_module(f"tribelief.{module}"), function)
    assert isinstance(cached.cache_info().hits, int)
