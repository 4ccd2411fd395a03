"""Random binary generator matrices and linear encoding of training shards.

A generator matrix maps s uncoded shards onto r coded shards (r <= s).  Every
accepted matrix has binary entries, no all-zero row, and exact integer rank r.
Coded shard j is the entrywise sum, from +0.0 over ascending uncoded shards
i, of g[i, j] * shard_i; the order is fixed so the reconstruction invariant
is bitwise checkable despite floating-point non-associativity.  No row is
masked: a CodedStore keeps its unlearned rows at +0.0, which adds nothing.
The r coded shards are stacked into one (r, nbar, D) feature array and one
(r, nbar) response array.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DensityOutOfRange,
    DimensionMismatch,
    NonTermination,
    RankDeficient,
    TooFewSamples,
    UnknownSample,
)
from .numerics import binary_rank

RESAMPLE_GUARD = 10**6

MINIMAL = "minimal"


@dataclass(frozen=True)
class GeneratorMatrix:
    """s x r binary code matrix with structural invariants enforced."""

    uncoded_shards: int          # s
    coded_shards: int            # r
    entries: np.ndarray          # (s, r) of 0/1
    density: float               # target density rho
    seed: int | None = None

    def __post_init__(self):
        s, r = self.uncoded_shards, self.coded_shards
        if not 1 <= r <= s:
            raise ValueError(f"need 1 <= r <= s, got s={s}, r={r}")
        E = np.asarray(self.entries)
        if E.shape != (s, r):
            raise DimensionMismatch(f"entries shape {E.shape}, expected {(s, r)}")
        # checked before the cast, which would truncate e.g. 1.7 to 1
        if not ((E == 0) | (E == 1)).all():
            raise ValueError("entries must be 0 or 1")
        G = np.asarray(E, dtype=np.int64)
        object.__setattr__(self, "entries", G)
        if (G.sum(axis=1) == 0).any():
            raise ValueError("generator matrix has an all-zero row")
        if binary_rank(G) != r:
            raise RankDeficient("generator matrix is not full column rank")


def rand_matrix(s: int, r: int, rho: float, seed=None) -> GeneratorMatrix:
    """i.i.d. Bernoulli(rho) draws, whole-matrix resampled until no row is
    all-zero and the rank is exactly r.

    A draw with an all-zero row is rejected before its rank is computed;
    GeneratorMatrix itself is the one rank check.  Densities below 1/r are
    refused since the no-zero-row condition then fails in expectation, and
    rho = 1 with r >= 2 since every draw is then the all-ones matrix, of
    rank 1: the valid range is [1/r, 1), or rho = 1 when r = 1.
    """
    if not 1 <= r <= s:
        raise ValueError(f"need 1 <= r <= s, got s={s}, r={r}")
    if not 1.0 / r <= rho < 1.0 and not rho == r == 1:
        raise DensityOutOfRange(f"rho={rho} outside [1/{r}, 1)" if r > 1
                                else f"rho={rho} must be 1 for r=1")
    rng = np.random.default_rng(seed)
    for _ in range(RESAMPLE_GUARD):
        G = (rng.random((s, r)) < rho).astype(np.int64)
        if not (G.sum(axis=1) == 0).any():
            with suppress(RankDeficient):   # redraw
                return GeneratorMatrix(s, r, G, rho, seed)
    raise NonTermination(
        f"no valid {s}x{r} matrix with rho={rho} after {RESAMPLE_GUARD} "
        "draws")


def rand_matrix_minimal(s: int, r: int, seed=None) -> GeneratorMatrix:
    """Minimal-density generator: exactly one 1 per row with every column
    used (which for one-hot rows is equivalent to full column rank).

    Coverage is built in rather than rejection-sampled -- tight shapes such
    as 62x57 make whole-matrix rejection a coupon-collector dead end -- by
    planting a random permutation of the columns on r random rows and
    assigning the rest uniformly.  Density 1/r in expectation; each sample
    lands in exactly one coded shard, giving the cheapest unlearning at the
    chosen rate."""
    if not 1 <= r <= s:
        raise ValueError(f"need 1 <= r <= s, got s={s}, r={r}")
    rng = np.random.default_rng(seed)
    cols = rng.integers(0, r, s)
    planted = rng.choice(s, size=r, replace=False)
    cols[planted] = rng.permutation(r)
    G = np.zeros((s, r), dtype=np.int64)
    G[np.arange(s), cols] = 1
    return GeneratorMatrix(s, r, G, 1.0 / r, seed)


def _encode(features: np.ndarray, response: np.ndarray,
            G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coded shards for the k columns of G (s, k), as one (k, nbar, D) and
    one (k, nbar) array.  features and response are in shard order; shard j
    is the sum, from +0.0 over ascending i with G[i, j] = 1, of uncoded
    shard i (G.nonzero() is row-major, so i ascends in each column).  No row
    is masked: the accumulator never holds -0.0, so adding a CodedStore's
    zeroed unlearned row leaves it bitwise as it was.

    The sums are not zero-filled first: each column's first term (a full
    rank G has one in every column) is written as X[i] + 0.0, which IEEE
    addition makes bitwise 0.0 + X[i], -0.0 included."""
    s, k = G.shape
    X, y = (a.reshape(s, -1, *a.shape[1:]) for a in (features, response))
    coded_X = np.empty((k, *X.shape[1:]))
    coded_y = np.empty((k, y.shape[1]))
    first = G.argmax(axis=0)    # each column's smallest i with G[i, j] = 1
    for i, j in zip(*G.nonzero()):
        if i == first[j]:
            np.add(X[i], 0.0, out=coded_X[j])
            np.add(y[i], 0.0, out=coded_y[j])
        else:
            np.add(coded_X[j], X[i], out=coded_X[j])
            np.add(coded_y[j], y[i], out=coded_y[j])
    return coded_X, coded_y


@dataclass
class CodedStore:
    """The r coded shards plus the bookkeeping needed to unlearn by id.

    coded_features (r, nbar, D) and coded_response (r, nbar) stack the coded
    shards; nbar is shard_size.  base_features/base_response hold the
    encoded-input rows (projected features when a projection is in use) of
    every non-dropped training sample and ids their sample ids, in shard
    order: position p is row p % shard_size of uncoded shard p // shard_size.
    The base rows fill the s uncoded shards exactly and are kept, not
    copied.  Unlearning ids[p] sets alive[p] False and zeroes base row p;
    locate finds p through a sorted index of ids that is never persisted.
    Ids are unique: construction refuses a repeated one with ValueError.
    An unlearned base row is +0.0: construction zeroes, in place, every row
    alive marks unlearned, whatever it held, and unlearn zeroes a row before
    it rebuilds anything.  So encoding and rebuilds never read alive; it
    serves locate's AlreadyUnlearned check, the unlearned ids a session
    stores, and construction's zeroing.  The coded shards are derived
    state: shard j always equals the ascending-order sum of g[i, j] times
    uncoded shard i, so construction encodes them, and unlearn rebuilds
    their rows, from the base rows and G alone.

    slice_stack is the per-slice X'X and X'y of every coded shard, one
    (r, k, D, D) and one (r, k, D) array (numerics.slice_products), so
    that an unlearn recomputes only the slices it changed, in one batched
    pass, and solves its learners from them.  It is derived state, never
    persisted, and complete or absent: None on construction, set for all
    r learners by ensemble.learn to the products its solve formed
    (numerics.ridge_solve), then updated in place by every unlearn, which
    re-derives its touched slices from the restored rows if it fails
    (ensemble.unlearn).  It stays None for a store learn did not build
    (one from encode or a loaded session), and for shards solved in dual
    form (numerics.dual_form: lam > 0 and fewer rows than columns); those
    are solved from the coded shards alone.

    Concurrent reads are safe; unlearning mutation requires exclusive access.
    """

    generator: GeneratorMatrix
    base_features: np.ndarray
    base_response: np.ndarray
    ids: np.ndarray
    dropped_ids: list[int]
    alive: np.ndarray
    shard_size: int = field(init=False)
    coded_features: np.ndarray = field(init=False, repr=False)
    coded_response: np.ndarray = field(init=False, repr=False)
    slice_stack: tuple[np.ndarray, np.ndarray] | None = field(
        init=False, repr=False, default=None)
    _order: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._order = np.argsort(self.ids)
        ordered = self.ids.take(self._order)
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError("sample ids must be unique")
        self.shard_size = len(self.ids) // self.generator.uncoded_shards
        dead = ~self.alive
        self.base_features[dead] = 0.0
        self.base_response[dead] = 0.0
        self.coded_features, self.coded_response = _encode(
            self.base_features, self.base_response, self.generator.entries)

    def locate(self, ids) -> np.ndarray:
        """Base-row positions of the given sample ids; UnknownSample names
        the first id the store does not hold."""
        keys = np.asarray(ids)
        pos = self._order.take(
            np.searchsorted(self.ids, keys, sorter=self._order), mode="clip")
        missing = self.ids[pos] != keys
        if missing.any():
            raise UnknownSample(f"sample {keys[missing.argmax()]} is not in "
                                "the learned training set")
        return pos

    def surviving_shard(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Uncoded shard i with the rows alive marks unlearned zeroed out,
        whatever the base rows hold."""
        rows = slice(i * self.shard_size, (i + 1) * self.shard_size)
        keep = self.alive[rows]
        return (np.where(keep[:, None], self.base_features[rows], 0.0),
                np.where(keep, self.base_response[rows], 0.0))

    def rebuild_coded_shards(self, lo: int, hi: int,
                             ) -> tuple[np.ndarray, np.ndarray]:
        """Recompute coded shards lo, ..., hi - 1 from the base rows as
        construction does, unmasked, as one (hi - lo, nbar, D) and one
        (hi - lo, nbar) array: a store whose unlearned rows still hold
        values rebuilds to other shards, and verify reports it."""
        return _encode(self.base_features, self.base_response,
                       self.generator.entries[:, lo:hi])

    def rebuild_coded_shard(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Coded shard j alone, as rebuild_coded_shards gives it."""
        X, y = self.rebuild_coded_shards(j, j + 1)
        return X[0], y[0]

    def rebuild_coded_row(self, j: int, rows):
        """Rows `rows` (an int or an array) of coded shard j, summed as the
        encoder does (from +0.0, ascending, unmasked) by one gather and one
        np.add.accumulate; np.add.reduce would sum 8 or more pairwise."""
        used = self.generator.entries[:, j].nonzero()[0]
        at = np.add.outer(used * self.shard_size, rows)
        X, y = self.base_features.take(at, axis=0), self.base_response.take(at)
        X[0] += 0.0     # the +0.0 start: turns a leading -0.0 into +0.0
        y[0] += 0.0
        return (np.add.accumulate(X, axis=0, out=X)[-1],
                np.add.accumulate(y, axis=0, out=y)[-1])


def encode(features, response, ids, G: GeneratorMatrix) -> CodedStore:
    """Partition the first floor(n/s)*s rows into s contiguous equal shards
    and linearly combine them into r coded shards per the generator matrix.

    Trailing rows that do not fill a shard are dropped (recorded in
    dropped_ids) rather than padded.
    """
    features = np.asarray(features, dtype=float)
    response = np.asarray(response, dtype=float)
    ids = np.asarray(ids, dtype=int)
    if features.ndim != 2 or features.shape[0] != response.shape[0] \
            or ids.shape[0] != features.shape[0]:
        raise DimensionMismatch("features, response, and ids must align")
    s = G.uncoded_shards
    n = features.shape[0]
    if n < s:
        raise TooFewSamples(f"{n} samples cannot fill {s} shards")
    used = n // s * s
    return CodedStore(G, features[:used].copy(), response[:used].copy(),
                      ids[:used].copy(), ids[used:].tolist(),
                      np.ones(used, dtype=bool))
