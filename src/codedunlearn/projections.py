"""Data-independent random cosine feature map approximating kernel regression.

Directions are N(0, 1/(2d)) i.i.d. and offsets uniform(-pi, pi); the map is
frozen after creation and must be reused verbatim for training, prediction,
and unlearning.  No output scaling is applied: scale is absorbed by the
learned regression weights.

`project` takes its one matmul on the calling thread and then the cosine
over contiguous row blocks, one per available CPU but no more than one
per _VALUES_PER_WORKER values (fewer than twice that is one call).  The
cosine is elementwise, so the blocks give the same bits as one np.cos call.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch


@dataclass(frozen=True)
class ProjectionMap:
    input_dim: int
    output_dim: int
    directions: np.ndarray  # (input_dim, output_dim)
    offsets: np.ndarray     # (output_dim,)
    seed: int | None = None

    def __post_init__(self):
        if self.directions.shape != (self.input_dim, self.output_dim):
            raise DimensionMismatch("directions shape mismatch")
        if self.offsets.shape != (self.output_dim,):
            raise DimensionMismatch("offsets shape mismatch")


def make_projection(input_dim: int, output_dim: int, seed=None) -> ProjectionMap:
    """Sample a frozen cosine feature map; deterministic under seed."""
    if input_dim < 1 or output_dim < 1:
        raise ValueError("input_dim and output_dim must be positive")
    rng = np.random.default_rng(seed)
    directions = rng.normal(0.0, np.sqrt(1.0 / (2 * input_dim)),
                            (input_dim, output_dim))
    offsets = rng.uniform(-np.pi, np.pi, output_dim)
    return ProjectionMap(input_dim, output_dim, directions, offsets, seed=seed)


def project(pmap: ProjectionMap, X) -> np.ndarray:
    """Entry (k, i) = cos(x_k . direction_i + offset_i); row-separable."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != pmap.input_dim:
        raise DimensionMismatch(
            f"project: X has shape {X.shape}, map expects {pmap.input_dim} columns"
        )
    # one full-size array, cosine taken in place: the same bits as
    # np.cos(X @ directions + offsets), which allocates three
    Z = X @ pmap.directions
    Z += pmap.offsets
    _cos_in_row_blocks(Z)
    return Z


# a conservative bound, one no benchmark workload binds: on a 2-vCPU VM
# (numpy 2.4) two blocks first beat one np.cos call at about 2**14 values
# in all, while this asks for 2**17 before it starts a second worker
_VALUES_PER_WORKER = 1 << 16


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _cos_in_row_blocks(Z: np.ndarray) -> None:
    """np.cos(Z, out=Z) on a C-contiguous Z, over contiguous row blocks: the
    calling thread takes the first, one thread each the rest.

    Every block runs under the caller's floating-point error handling
    (np.geterr, np.geterrcall), so its np.errstate holds in each thread,
    whether numpy keeps that state per thread (1.x) or per context (2.x).
    Every thread is joined, even when one fails, and the exception of the
    first block that failed is raised here.
    """
    workers = max(1, min(_available_cpus(), Z.size // _VALUES_PER_WORKER,
                         len(Z)))
    bounds = [len(Z) * k // workers for k in range(workers + 1)]
    errors: list[BaseException | None] = [None] * workers
    errstate = dict(np.geterr(), call=np.geterrcall())

    def run(k):
        try:
            block = Z[bounds[k]:bounds[k + 1]]
            with np.errstate(**errstate):
                np.cos(block, out=block)
        except BaseException as exc:    # re-raised by the caller below
            errors[k] = exc

    started = []
    try:
        for k in range(1, workers):
            thread = threading.Thread(target=run, args=(k,))
            thread.start()
            started.append(thread)
        run(0)
    finally:
        for thread in started:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def save_projection(pmap: ProjectionMap, file) -> None:
    """Persist the full map (seed included) so later sessions reload it
    exactly.  `file` is a path or a writable binary file; the bytes written
    depend only on the map."""
    if not hasattr(file, "write"):
        with open(file, "wb") as fh:   # np.savez would append ".npz"
            save_projection(pmap, fh)
        return
    np.savez(
        file,
        input_dim=pmap.input_dim,
        output_dim=pmap.output_dim,
        directions=pmap.directions,
        offsets=pmap.offsets,
        seed=-1 if pmap.seed is None else pmap.seed,
    )


def load_projection(file) -> ProjectionMap:
    """Inverse of save_projection; `file` is a path or a binary file."""
    with np.load(file, allow_pickle=False) as data:
        seed = int(data["seed"])
        return ProjectionMap(
            int(data["input_dim"]),
            int(data["output_dim"]),
            data["directions"],
            data["offsets"],
            seed=None if seed == -1 else seed,
        )
