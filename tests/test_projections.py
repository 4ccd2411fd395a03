import math
import os
import threading
import time
import types
import warnings

import numpy as np
import pytest

from codedunlearn import (DimensionMismatch, make_projection, numerics,
                          project, projections)
from codedunlearn.projections import load_projection, save_projection


def test_deterministic_under_seed():
    a = make_projection(4, 10, 7)
    b = make_projection(4, 10, 7)
    assert (a.directions == b.directions).all()
    assert (a.offsets == b.offsets).all()


def test_direction_variance_matches_target():
    d = 10
    pmap = make_projection(d, 100_000, 0)
    var = pmap.directions.var()
    assert abs(var - 1.0 / (2 * d)) < 0.05 / (2 * d)


def test_offsets_within_support():
    pmap = make_projection(3, 5000, 1)
    assert ((pmap.offsets > -np.pi) & (pmap.offsets < np.pi)).all()


def test_output_range():
    pmap = make_projection(3, 20, 2)
    X = np.random.default_rng(0).normal(size=(50, 3)) * 100
    out = project(pmap, X)
    assert ((out >= -1) & (out <= 1)).all()


def test_zero_row_gives_cos_offsets():
    pmap = make_projection(3, 8, 4)
    out = project(pmap, np.zeros((1, 3)))
    np.testing.assert_array_equal(out[0], np.cos(pmap.offsets))


def test_single_row_vs_scalar_loop():
    pmap = make_projection(4, 6, 5)
    x = np.random.default_rng(1).normal(size=4)
    out = project(pmap, x[None, :])[0]
    for i in range(6):
        acc = 0.0
        for k in range(4):
            acc += x[k] * pmap.directions[k, i]
        assert out[i] == pytest.approx(math.cos(acc + pmap.offsets[i]),
                                       abs=1e-12)


def test_row_separable():
    pmap = make_projection(3, 7, 6)
    X = np.random.default_rng(2).normal(size=(9, 3))
    batch = project(pmap, X)
    rows = np.vstack([project(pmap, X[i:i + 1]) for i in range(9)])
    np.testing.assert_allclose(batch, rows, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n,d,D", [(1, 1, 1), (9, 3, 7), (50, 4, 100),
                                   (300, 10, 20)])
def test_bitwise_equal_to_unfused_expression(n, d, D):
    pmap = make_projection(d, D, n)
    X = np.random.default_rng(D).normal(size=(n, d)) * 3
    expected = np.cos(X @ pmap.directions + pmap.offsets)
    assert project(pmap, X).tobytes() == expected.tobytes()


def test_dimension_check():
    pmap = make_projection(3, 4, 0)
    with pytest.raises(DimensionMismatch):
        project(pmap, np.zeros((2, 5)))


def test_serialization_round_trip(tmp_path):
    pmap = make_projection(5, 12, 99)
    path = tmp_path / "projection.bin"
    save_projection(pmap, path)
    back = load_projection(path)
    assert back.input_dim == 5 and back.output_dim == 12 and back.seed == 99
    assert (back.directions == pmap.directions).all()
    assert (back.offsets == pmap.offsets).all()


def test_serialized_bytes_depend_only_on_the_map(tmp_path, monkeypatch):
    # sessions name the file by its hash, so an unchanged map must give
    # unchanged bytes, whatever the clock says
    import time

    paths = []
    for clock in (0.0, 1.7e9):
        monkeypatch.setattr(time, "time", lambda: clock)
        paths.append(tmp_path / f"{clock}.bin")
        save_projection(make_projection(4, 6, 1), paths[-1])
    assert paths[0].read_bytes() == paths[1].read_bytes()


# Threaded cosine: `project` splits np.cos into row blocks once Z holds
# 2 * _VALUES_PER_WORKER values.  The CPU count is patched so that every
# machine takes the threaded path with more workers than rows divide by.
PER_WORKER = projections._VALUES_PER_WORKER


@pytest.fixture(params=[2, 3, 4], ids=lambda c: f"{c}cpus")
def cpus(request, monkeypatch):
    monkeypatch.setattr(numerics, "_available_cpus", lambda: request.param)
    return request.param


@pytest.fixture
def started(monkeypatch):
    """The worker threads project starts; each waits 20 ms before its
    block, so a call that returned before joining them would find them
    alive.  Only the module's own name is patched, so threads started
    elsewhere meanwhile are neither slowed nor counted."""
    threads = []

    class SlowWorker(threading.Thread):
        def start(self):
            threads.append(self)
            super().start()

        def run(self):
            time.sleep(0.02)
            super().run()

    monkeypatch.setattr(numerics, "threading",
                        types.SimpleNamespace(Thread=SlowWorker))
    return threads


def threaded_input(n, d, D, seed=0):
    pmap = make_projection(d, D, seed)
    return pmap, np.random.default_rng(seed).normal(size=(n, d)) * 5


def test_available_cpus_is_the_affinity_set():
    expected = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else os.cpu_count())
    assert numerics._available_cpus() == expected


@pytest.mark.parametrize("n,d,D", [
    (-(-2 * PER_WORKER // 100), 10, 100),      # just above the threshold
    (-(-3 * PER_WORKER // 100) + 2, 10, 100),  # rows not divisible by 3
    (-(-4 * PER_WORKER // 100) + 3, 10, 100),  # nor by 2 or 4
    (3 * PER_WORKER + 1, 3, 1),                # tall, D = 1
    (2 * PER_WORKER - 1, 3, 1),                # one value short: serial
])
def test_threaded_bitwise_equal_to_one_call(cpus, started, n, d, D):
    pmap, X = threaded_input(n, d, D)
    expected = np.cos(X @ pmap.directions + pmap.offsets)
    before = threading.active_count()
    out = project(pmap, X)
    assert threading.active_count() == before
    assert out.flags.c_contiguous and out.shape == (n, D)
    assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n,D,workers", [
    (2 * PER_WORKER - 1, 1, 1),
    (2 * PER_WORKER, 1, 2),
    (5 * PER_WORKER, 1, 5),
    (1, 8 * PER_WORKER, 1),        # one row cannot be split
])
def test_worker_count(monkeypatch, started, n, D, workers):
    # min(available CPUs, values // _VALUES_PER_WORKER, rows), the caller
    # being one of them
    monkeypatch.setattr(numerics, "_available_cpus", lambda: 4)
    pmap = make_projection(1, D, 0)
    project(pmap, np.ones((n, 1)))
    assert len(started) == min(4, workers) - 1


@pytest.mark.parametrize("row", [0, -1], ids=["caller-block", "last-block"])
def test_errstate_raise_holds_in_every_block(cpus, started, row):
    pmap, X = threaded_input(-(-cpus * PER_WORKER // 100) + 1, 10, 100)
    X[row, 0] = np.inf
    before = threading.active_count()
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        project(pmap, X)
    assert threading.active_count() == before
    assert len(started) == cpus - 1


@pytest.mark.parametrize("row", [0, -1], ids=["caller-block", "last-block"])
def test_errstate_ignore_holds_in_every_block(cpus, started, row):
    pmap, X = threaded_input(-(-cpus * PER_WORKER // 100) + 1, 10, 100)
    X[row, 0] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(invalid="ignore"):
            out = project(pmap, X)
    assert np.isnan(out[row]).all()
    assert len(started) == cpus - 1


@pytest.mark.parametrize("row", [0, -1], ids=["caller-block", "last-block"])
def test_invalid_value_warns_from_every_block(cpus, started, row):
    pmap, X = threaded_input(-(-cpus * PER_WORKER // 100) + 1, 10, 100)
    X[row, 0] = np.inf
    before = threading.active_count()
    with pytest.warns(RuntimeWarning, match="invalid value"):
        out = project(pmap, X)
    assert np.isnan(out[row]).all() and not np.isnan(out[1:-1]).any()
    with warnings.catch_warnings():
        # a warning an error filter turns into an exception reaches the caller
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="invalid value"):
            project(pmap, X)
    assert threading.active_count() == before
    assert len(started) == 2 * (cpus - 1)
