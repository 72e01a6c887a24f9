"""The benchmark's tracer names package functions by string; a rename or
deletion in the package would only show as a crash of the benchmark run.
These tests read those names without changing the benchmark's files."""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hooks():
    tracer = _tracer()
    return [(module, fn) for module, fn, *_ in tracer.TARGETS] + [tracer.COUNTED]


@pytest.mark.parametrize("module,fn", _hooks(), ids=lambda x: x)
def test_every_traced_name_is_a_package_function(module, fn):
    target = getattr(importlib.import_module(f"charzero.{module}"), fn, None)
    assert callable(target), f"charzero.{module}.{fn} is traced by the benchmark but missing"
