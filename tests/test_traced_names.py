"""The benchmark's tracer wraps library functions by name; every name it
lists must resolve, so a rename fails here and not only under tracing."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


@pytest.mark.parametrize("module,attr", traced_names())
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(f"codedunlearn.{module}")
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    # the tracer reads methods from the class __dict__, functions by getattr
    target = owner.__dict__[name] if classes else getattr(owner, name)
    assert callable(target)
