"""Data-independent random cosine feature map approximating kernel regression.

Directions are N(0, 1/(2d)) i.i.d. and offsets uniform(-pi, pi); the map is
frozen after creation and must be reused verbatim for training, prediction,
and unlearning.  No output scaling is applied: scale is absorbed by the
learned regression weights.
"""

from __future__ import annotations

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
    return np.cos(Z, out=Z)


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
