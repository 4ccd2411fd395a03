"""The benchmark's tracer wraps library functions by name; every name it
lists must resolve, so a rename fails here and not only under tracing.  It
keeps one span stack per process, so every traced call must run on the
calling thread, never in a worker block."""

import functools
import importlib
import importlib.util
import threading
import types
from pathlib import Path

import numpy as np
import pytest

from codedunlearn import Dataset, ensemble, numerics

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def traced_names():
    return tracer_module().TRACED


@pytest.mark.parametrize("module,attr", traced_names())
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(f"codedunlearn.{module}")
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    # the tracer reads methods from the class __dict__, functions by getattr
    target = owner.__dict__[name] if classes else getattr(owner, name)
    assert callable(target)


@pytest.mark.parametrize("cpus", [2, 3, 4], ids=lambda c: f"{c}cpus")
def test_traced_functions_run_on_the_calling_thread(monkeypatch, cpus):
    # the tracer's own install, with each wrapper recording the thread
    # that calls it in place of a span
    tracer = tracer_module().Tracer()
    calls = []

    def wrap(name, fn, hook=None):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            calls.append((name, threading.current_thread()))
            return fn(*args, **kwargs)
        return recorded

    monkeypatch.setattr(tracer, "wrap", wrap)
    started = []

    class CountedThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(numerics, "threading",
                        types.SimpleNamespace(Thread=CountedThread))
    # every learner stack split into one block per CPU, one learner a chunk
    monkeypatch.setattr(numerics, "_available_cpus", lambda: cpus)
    monkeypatch.setattr(numerics, "LEARNER_WORK_PER_WORKER", 1)
    monkeypatch.setattr(numerics, "LEARNER_CHUNK_VALUES", 1)
    rng = np.random.default_rng(cpus)
    ds = Dataset(rng.normal(size=(600, 5)), rng.normal(size=600),
                 np.arange(600))
    with tracer.installed():
        model, store, _ = ensemble.learn(ds, 12, 6, 0.5, 1e-3, seed=1)
        ensemble.unlearn(model, store, [4, 300])
        report = ensemble.verify_perfect_unlearning(model, store)
    assert report.max_discrepancy == 0.0
    assert len(started) == cpus - 1     # verify's blocks; learn starts none
    assert {"ensemble.learn", "numerics.ridge_solve",
            "coding.rebuild_coded_row",
            "ensemble.verify_perfect_unlearning"} <= {n for n, _ in calls}
    assert all(thread is threading.current_thread() for _, thread in calls)
