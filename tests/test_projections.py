import json
import math
import os
import subprocess
import sys
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
    with open(path, "wb") as fh:
        save_projection(pmap, fh)
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
        with open(paths[-1], "wb") as fh:
            save_projection(make_projection(4, 6, 1), fh)
    assert paths[0].read_bytes() == paths[1].read_bytes()


# Threaded chunks: `project` spreads its row chunks over workers, one per
# available CPU but no more than one per chunk.  The CPU count is patched so
# that every machine takes the threaded path with more workers than rows
# divide by.


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


def threaded_input(n, d, D, seed=0, order="C"):
    pmap = make_projection(d, D, seed)
    X = np.random.default_rng(seed).normal(size=(n, d)) * 5
    return pmap, np.asarray(X, order=order)


def threshold_rows(workers, D=100):
    # the fewest rows of an (n, 10) X that give each of `workers` workers a
    # chunk: as many whole chunks as workers
    return workers * projections._chunk_rows(10, D)


def every_cpu_rows(cpus, D=100):
    return threshold_rows(cpus, D) + 1


def expected_workers(n, d, D, cpus):
    chunks = len(projections._chunk_bounds(n, d, D)) - 1
    return max(1, min(cpus, chunks))


def test_available_cpus_is_the_affinity_set():
    expected = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else os.cpu_count())
    assert numerics._available_cpus() == expected


@pytest.mark.parametrize("n,d,D", [
    (1311, 10, 100),                           # one or two chunks
    (1969, 10, 100),                           # (1152-row chunks at
    (2625, 10, 100),                           # 10 -> 100)
    (threshold_rows(2), 10, 100),              # just at the threshold
    (threshold_rows(3) + 2, 10, 100),          # rows not divisible by 3
    (threshold_rows(4) + 3, 10, 100),          # nor by 2 or 4
    (3 * 2**16 + 1, 3, 1),                     # tall, D = 1: 5 chunks
    (2**17 - 1, 3, 1),                         # 3 chunks
])
def test_threaded_bitwise_equal_to_one_call(cpus, started, n, d, D):
    pmap, X = threaded_input(n, d, D)
    expected = np.cos(X @ pmap.directions + pmap.offsets)
    before = threading.active_count()
    out = project(pmap, X)
    assert threading.active_count() == before
    assert len(started) == expected_workers(n, d, D, cpus) - 1
    assert out.flags.c_contiguous and out.shape == (n, D)
    assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n,D,workers", [
    (2**17 - 1, 1, 3),             # 3 chunks of at least 32832 rows
    (2**17, 1, 3),
    (5 * 2**16, 1, 9),             # 9 chunks
    (1, 2**19, 1),                 # one row cannot be split
])
def test_worker_count(monkeypatch, started, n, D, workers):
    # min(available CPUs, chunks), the caller being one of them
    monkeypatch.setattr(numerics, "_available_cpus", lambda: 4)
    pmap = make_projection(1, D, 0)
    project(pmap, np.ones((n, 1)))
    assert len(started) == min(4, workers) - 1


@pytest.mark.parametrize("row", [0, -1], ids=["caller-block", "last-block"])
def test_errstate_raise_holds_in_every_block(cpus, started, row):
    pmap, X = threaded_input(every_cpu_rows(cpus), 10, 100)
    X[row, 0] = np.inf
    before = threading.active_count()
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        project(pmap, X)
    assert threading.active_count() == before
    assert len(started) == cpus - 1


@pytest.mark.parametrize("row", [0, -1], ids=["caller-block", "last-block"])
def test_errstate_ignore_holds_in_every_block(cpus, started, row):
    pmap, X = threaded_input(every_cpu_rows(cpus), 10, 100)
    X[row, 0] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(invalid="ignore"):
            out = project(pmap, X)
    assert np.isnan(out[row]).all()
    assert len(started) == cpus - 1


@pytest.mark.parametrize("row", [0, -1], ids=["caller-block", "last-block"])
def test_errstate_call_runs_in_the_block_that_erred(cpus, started, row):
    # the caller's error callback runs in the thread whose chunk held the
    # inf row: the calling thread for the first row, the last started
    # worker for the last row (a worker without the caller's errstate
    # would warn instead)
    pmap, X = threaded_input(every_cpu_rows(cpus), 10, 100)
    X[row, 0] = np.inf
    callers = []
    with np.errstate(invalid="call", call=lambda *_: callers.append(
            threading.current_thread())):
        out = project(pmap, X)
    assert np.isnan(out[row]).all()
    assert len(started) == cpus - 1
    assert callers == ([threading.current_thread()] if row == 0
                       else [started[-1]])


@pytest.mark.parametrize("row", [0, -1], ids=["caller-block", "last-block"])
def test_invalid_value_warns_from_every_block(cpus, started, row):
    pmap, X = threaded_input(every_cpu_rows(cpus), 10, 100)
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


# Fused chunks: each chunk's matmul, offset add and cosine.  The shapes are
# ones where a product split into row blocks of other lengths differs from
# the whole product in the last bits on some BLAS builds: d >= 16 (a
# separate small-matrix gemm kernel), D = 257 or 500 (a partial column
# tile) and D = 1 (gemv); (10, 100) is the benchmark sweep's shape.
CHUNKED_SHAPES = [(10, 100), (16, 100), (32, 17), (3, 7), (10, 257),
                  (5, 500), (10, 1)]
# A threaded BLAS splits the whole product by its own rule, which no fixed
# chunking follows (with OpenBLAS on two threads the last three shapes
# differ in the last bits), so the shapes are checked in a child with BLAS
# on one thread, whatever this process was started with.
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}


def chunked_rows(d, D):
    L = projections._chunk_rows(d, D)
    return [0, 1, 2, 3, L - 1, L, L + 1, 2 * L + 1, 7 * L + 5]


def chunked_mismatches(d, D, ncpus):
    """(n, order) of every input in chunked_rows whose projection on ncpus
    CPUs is not bitwise np.cos(X @ directions + offsets)."""
    available = numerics._available_cpus
    numerics._available_cpus = lambda: ncpus
    try:
        found = []
        for n in chunked_rows(d, D):
            for order in "CF":
                pmap, X = threaded_input(n, d, D, seed=n, order=order)
                expected = np.cos(X @ pmap.directions + pmap.offsets)
                out = project(pmap, X)
                assert out.shape == (n, D) and out.flags.c_contiguous
                if out.tobytes() != expected.tobytes():
                    found.append([n, order])
        return found
    finally:
        numerics._available_cpus = available


def test_chunked_bitwise_equal_with_one_blas_thread():
    script = (
        "import importlib.util, json, sys\n"
        "spec = importlib.util.spec_from_file_location('t', sys.argv[1])\n"
        "t = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(t)\n"
        "print(json.dumps({f'{d}x{D}/{c}cpus': t.chunked_mismatches(d, D, c)"
        " for d, D in t.CHUNKED_SHAPES for c in (1, 2, 3, 4)}))\n")
    proc = subprocess.run([sys.executable, "-c", script, __file__],
                          env={**os.environ, **ONE_BLAS_THREAD},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    found = json.loads(proc.stdout.splitlines()[-1])
    assert len(found) == 4 * len(CHUNKED_SHAPES)
    assert {k: v for k, v in found.items() if v} == {}


def test_strided_input_bitwise_equal(cpus):
    _, X = threaded_input(every_cpu_rows(cpus) * 2, 20, 100)
    X = X[::2, ::2]          # neither C nor Fortran ordered
    pmap = make_projection(10, 100, 1)
    expected = np.cos(X @ pmap.directions + pmap.offsets)
    assert project(pmap, X).tobytes() == expected.tobytes()


@pytest.mark.parametrize("d,D", CHUNKED_SHAPES, ids=str)
def test_chunk_bounds(d, D):
    L = projections._chunk_rows(d, D)
    # a multiple of 192 rows, and above 100**3 multiply-adds for gemm
    assert L % 192 == 0 and (D == 1 or L * d * D > 100**3)
    for n in chunked_rows(d, D) + [5 * L - 1, 11 * L + 191]:
        bounds = projections._chunk_bounds(n, d, D)
        assert bounds[0] == 0 and bounds[-1] == n
        lengths = np.diff(bounds)
        assert len(lengths) == max(1, n // L)
        assert (lengths[:-1] % 192 == 0).all()
        if n >= L:
            assert lengths.min() >= L and np.ptp(lengths) < 2 * 192


def test_the_output_is_the_one_allocation(cpus):
    # numpy reports its array buffers to tracemalloc: besides Z, only
    # buffers well under a chunk's size (its ufunc buffers) are allocated
    import tracemalloc

    pmap, X = threaded_input(20_000, 10, 100)
    chunk_bytes = projections._chunk_rows(10, 100) * 100 * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = project(pmap, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < out.nbytes + chunk_bytes // 2


def test_every_chunk_is_written_under_contention(monkeypatch):
    # more workers than cores, 40 chunks and a switch interval of 1 us: a
    # chunk that no block wrote would keep what np.empty left in it, and
    # each input differs, so stale memory cannot pass for the output
    monkeypatch.setattr(numerics, "_available_cpus", lambda: 8)
    chunk = projections._chunk_rows(16, 100)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(4):
            pmap, X = threaded_input(40 * chunk + 7, 16, 100, seed=seed)
            expected = np.cos(X @ pmap.directions + pmap.offsets)
            assert project(pmap, X).tobytes() == expected.tobytes()
    finally:
        sys.setswitchinterval(interval)
