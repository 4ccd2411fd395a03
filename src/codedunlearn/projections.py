"""Data-independent random cosine feature map approximating kernel regression.

Directions are N(0, 1/(2d)) i.i.d. and offsets uniform(-pi, pi); the map is
frozen after creation and must be reused verbatim for training, prediction,
and unlearning.  No output scaling is applied: scale is absorbed by the
learned regression weights.

`project` is one fused pass over row chunks: it allocates its output once
and gives each chunk its matmul, offset add and cosine in place, so a
chunk's rows stay in cache across the three.  numerics.run_in_blocks (the
thread blocks verify's ridge solves use too) runs the chunks, a contiguous
run of them per worker: one per available CPU but no more than one per
chunk (a chunk holds at least _CHUNK_VALUES values unless it is the only
one).  The add and the cosine are elementwise, but a row block's matmul
is those rows of the whole product only when BLAS runs the same code on it,
and measured on OpenBLAS, blocks of 2 or more rows can differ in the last
bits.  So every chunk but the last holds a multiple of 192 rows and, for a
map of more than one column, more than 100**3 multiply-adds
(_CHUNK_ROW_ALIGN gives the measurements); the last runs to the end of X.
The chunks do not depend on the workers, and with BLAS on one thread per
call the result is bitwise np.cos(X @ directions + offsets).  A threaded
BLAS splits the whole product by a rule of its own, which the chunks do not
follow, and its threads compete with the workers for the cores: importing
codedunlearn before numpy pins it to one thread (the package docstring).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .numerics import run_in_blocks


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
    """Entry (k, i) = cos(x_k . direction_i + offset_i); row-separable.
    Each row chunk of _chunk_bounds is one fused task of
    numerics.run_in_blocks: its matmul, offset add and cosine."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != pmap.input_dim:
        raise DimensionMismatch(
            f"project: X has shape {X.shape}, map expects {pmap.input_dim} columns"
        )
    # one full-size array, each chunk's rows written in place: the same bits
    # as np.cos(X @ directions + offsets), which allocates three
    Z = np.empty((len(X), pmap.output_dim))
    bounds = _chunk_bounds(len(X), pmap.input_dim, pmap.output_dim)

    def fused(a, b):
        chunk = Z[a:b]
        np.matmul(X[a:b], pmap.directions, out=chunk)
        chunk += pmap.offsets
        np.cos(chunk, out=chunk)

    run_in_blocks(fused, bounds, len(bounds) - 1)
    return Z


def _chunk_bounds(n: int, d: int, D: int) -> list[int]:
    """Row bounds of the chunks of an (n, d) X projected to D columns: as
    many chunks as _chunk_rows(d, D) rows fit in n (at least one), cut at
    the multiple of _CHUNK_ROW_ALIGN at or below an even split, so that no
    chunk is shorter than _chunk_rows and their lengths differ by less than
    two alignments; the last runs to n.  n = 0 is one empty chunk."""
    chunks = max(1, n // _chunk_rows(d, D))
    align = _CHUNK_ROW_ALIGN
    return [n * k // chunks // align * align for k in range(chunks)] + [n]


def _chunk_rows(d: int, D: int) -> int:
    rows = _CHUNK_VALUES // D
    if D > 1:
        rows = max(rows, _GEMM_SMALL_WORK // (d * D) + 1)
    return -(-rows // _CHUNK_ROW_ALIGN) * _CHUNK_ROW_ALIGN


# Values of Z per chunk, where the rules below allow it: a chunk's 256 KB
# of Z stays in cache across its matmul, add and cosine.  Medians of 61
# interleaved in-process calls on a 2-vCPU VM (numpy 2.4, one BLAS thread),
# 2**13 / 2**14 / 2**15 / 2**16 / 2**17 values, against the unfused matmul
# and threaded cosine: 200k x 10 -> 1 took 4.46 / 4.30 / 4.50 / 5.48 / 8.03
# ms (6.79 unfused), 20k x 64 -> 100 35.0 / 35.1 / 33.9 / 34.4 / 34.2 ms
# (41.6).  At the sweep's 20k x 10 -> 100 the gemm bound below sets the
# chunks (1152 or 1344 rows): 29.3 ms against 33.5.
_CHUNK_VALUES = 1 << 15
# A row block of X @ directions is not in general bitwise those rows of the
# whole product: BLAS may run other code on it.  Measured with numpy 2.4
# and OpenBLAS 0.3.31 (its AVX-512 kernels, one thread):
# - gemv (D = 1) and gemm compute the last rows mod 4 of a product apart;
# - gemm with a partial column tile (D = 257, 500) matches only in blocks of
#   a multiple of 192 rows;
# - gemm of at most 100**3 multiply-adds takes a small-matrix kernel whose
#   bits differ from the large one's from d = 16 on (d = 16, D = 100: most
#   rows of every block of up to 607 rows differ).
# So every chunk starts at a multiple of _CHUNK_ROW_ALIGN rows, every one
# but the last is a multiple of it long, and for gemm (D > 1; numpy takes
# gemv for one column) each holds more than _GEMM_SMALL_WORK multiply-adds;
# the last runs to the end of X, as the whole product does.  Chunked that
# way, 8036 products (d up to 200, D up to 2000, C and Fortran order, equal
# and balanced chunk lengths) matched the whole product bitwise, and the
# tests guard shapes that break each rule.  The gemm bound costs small
# maps their threads: 20k x 3 -> 7 is one chunk.
_CHUNK_ROW_ALIGN = 192
_GEMM_SMALL_WORK = 100**3


def recorded_seed(seed) -> int | None:
    """The seed a session file records for `seed`: an integer, Python or
    numpy but not a bool, from 0 to the int64 maximum, as a Python int;
    None for any other seed (a Generator, a SeedSequence, a bool or an
    integer out of that range), which the files do not hold."""
    if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool) \
            and 0 <= seed <= np.iinfo(np.int64).max:
        return int(seed)
    return None


def save_projection(pmap: ProjectionMap, file) -> None:
    """Persist the full map so later sessions reload it exactly, with its
    seed as recorded_seed records it.  `file` is a writable binary file,
    not a path; the bytes written depend only on the map."""
    seed = recorded_seed(pmap.seed)
    np.savez(
        file,
        input_dim=pmap.input_dim,
        output_dim=pmap.output_dim,
        directions=pmap.directions,
        offsets=pmap.offsets,
        seed=-1 if seed is None else seed,
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
