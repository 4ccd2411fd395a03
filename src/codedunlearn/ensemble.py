"""Master-node protocol: coded learning, prediction, unlearning, and the
retrain-from-scratch equivalence check.

Weak learners are closed-form ridge solutions on coded shards; the aggregate
model is the arithmetic mean of their weight vectors.  Unlearning removes a
sample's contribution from every coded row it touches and retrains exactly
the affected learners from scratch, which reproduces the model that would
have been trained without the sample (the ridge solution is unique, so no
initialization state matters).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import coding
from .coding import MINIMAL, CodedStore, GeneratorMatrix, encode
from .dataset import Dataset
from .errors import (
    AlreadyUnlearned,
    DimensionMismatch,
    SingularSystem,
    UnknownSample,
)
from .numerics import in_learner_blocks, refit, ridge_solve, solve_stack
from .projections import ProjectionMap, project

DEFAULT_TOLERANCE = 1e-8


@dataclass
class EnsembleModel:
    """Per-learner weight columns, with the artifacts (generator matrix,
    optional projection map) needed to reproduce them."""

    weights: np.ndarray                 # (D', r)
    lam: float
    generator: GeneratorMatrix
    projection: ProjectionMap | None = None

    @property
    def agg(self) -> np.ndarray:
        """The served model, (D',): the mean of the learners' weights,
        derived on every read so it cannot drift from them."""
        return self.weights.mean(axis=1)

    def encode_input(self, X_raw) -> np.ndarray:
        X_raw = np.asarray(X_raw, dtype=float)
        if self.projection is not None:
            return project(self.projection, X_raw)
        return X_raw


@dataclass
class AffectedReport:
    """Which learners an unlearn request touched and what it cost:
    retrain_seconds times each learner's solve, total_seconds the whole
    unlearn call (validation, row rebuilds, solves and commit)."""

    unlearned_ids: list[int]
    affected_learners: list[int]
    retrain_seconds: dict[int, float]
    total_seconds: float

    @property
    def num_affected(self) -> int:
        return len(self.affected_learners)


@dataclass
class VerificationReport:
    """Relative weight discrepancies between the live model and a full
    retrain on the surviving samples with the same code and feature map."""

    per_learner: np.ndarray
    agg_discrepancy: float
    tolerance: float

    @property
    def max_discrepancy(self) -> float:
        return float(np.max(np.append(self.per_learner, self.agg_discrepancy)))

    @property
    def passed(self) -> bool:
        return self.max_discrepancy <= self.tolerance


def _make_generator(s: int, r: int, rho, seed) -> GeneratorMatrix:
    if s == 1:
        if r != 1:
            raise ValueError("s == 1 requires r == 1")
        return GeneratorMatrix(1, 1, np.array([[1]]), 1.0, seed)
    if rho == MINIMAL:
        return coding.rand_matrix_minimal(s, r, seed)
    return coding.rand_matrix(s, r, float(rho), seed)


def learn(train: Dataset, s: int, r: int, rho, lam: float,
          projection: ProjectionMap | None = None, seed=None,
          generator: GeneratorMatrix | None = None,
          ) -> tuple[EnsembleModel, CodedStore, GeneratorMatrix]:
    """Train the coded ensemble.

    rho is a Bernoulli density in [1/r, 1] or the string "minimal" for
    one-hot rows.  With s == 1 the code degenerates to G = [[1]] and the
    model equals a single learner on the full training set.  A pre-built
    generator may be supplied to reuse an existing code.  The r learners
    are solved as one stack (numerics.ridge_solve, in learner blocks on
    the available CPUs), bitwise as r single solves would be.
    """
    feats = project(projection, train.features) if projection is not None \
        else train.features
    if generator is None:
        generator = _make_generator(s, r, rho, seed)
    store = encode(feats, train.response, train.ids, generator)
    weights = np.ascontiguousarray(
        ridge_solve(store.coded_features, store.coded_response, lam).T)
    model = EnsembleModel(weights, lam, generator, projection)
    return model, store, generator


def predict(model: EnsembleModel, X_raw) -> np.ndarray:
    """Predict through the aggregate weights, bypassing per-learner outputs."""
    feats = model.encode_input(X_raw)
    agg = model.agg
    if feats.shape[1] != agg.shape[0]:
        raise DimensionMismatch(
            f"predict: {feats.shape[1]} features vs {agg.shape[0]} weights")
    return feats @ agg


def unlearn(model: EnsembleModel, store: CodedStore, ids,
            ) -> tuple[EnsembleModel, CodedStore, AffectedReport]:
    """Remove the listed samples and retrain only the affected learners.

    For every sample: locate its base row through the store's id index,
    find the nonzero generator-row columns of its uncoded shard, and remove
    its contribution from the matching coded row of each of those shards:
    its base row is zeroed first, then each touched row is re-summed from
    all its contributors by CodedStore.rebuild_coded_row in the encoder's
    order, so the reconstruction invariant stays bitwise exact.  One retrain
    per unique affected learner, regardless of batch size.

    Each affected learner is re-solved by one numerics.refit call on its
    live coded shard.  With lam > 0 that reuses the learner's cached
    per-slice Gram products (CodedStore.slice_grams) and recomputes only the
    slices holding touched rows; the cache is filled on a learner's first
    retrain and stays empty at lam = 0.  The sums are the ones a retrain
    from scratch forms, so the weights equal ridge_solve on the live coded
    shard bitwise.

    An id that is not an integer (a float, a bool, a string) is refused
    with UnknownSample before anything changes.

    Zero first, re-derive on failure: weights and cache entries change only
    once every solve has succeeded; if a step raises, the forgotten rows
    (the one copy kept) and alive are put back and the same coded rows are
    rebuilt, bitwise as they were, before the error propagates.
    """
    t_start = time.perf_counter()
    ids = list(ids)
    for u in ids:   # bool is an int subclass; int(1.5) would truncate
        if isinstance(u, bool) or not isinstance(u, (int, np.integer)):
            raise UnknownSample(f"sample id {u!r} is not an integer")
    ids = [int(u) for u in ids]
    pos = store.locate(ids)
    live = store.alive[pos]
    if not live.all():
        raise AlreadyUnlearned(
            f"sample {ids[live.argmin()]} was already unlearned")
    if len(set(ids)) != len(ids):
        raise AlreadyUnlearned("duplicate ids in one unlearn request")

    G = store.generator.entries
    touched = sorted({(int(j), p % store.shard_size)   # (coded shard, row)
                      for p in pos.tolist()
                      for j in G[p // store.shard_size].nonzero()[0]})
    rows_of: dict[int, list[int]] = {}   # affected learner -> its rows
    for j, row in touched:
        rows_of.setdefault(j, []).append(row)
    affected = list(rows_of)             # ascending, as touched is sorted

    def rebuild():
        for j, row in touched:
            store.coded_features[j, row], store.coded_response[j, row] = \
                store.rebuild_coded_row(j, row)

    retrain_seconds: dict[int, float] = {}
    fresh: dict[int, np.ndarray] = {}
    grams: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    held = store.base_features[pos], store.base_response[pos]   # copies
    store.alive[pos] = False
    store.base_features[pos] = 0.0
    store.base_response[pos] = 0.0
    try:
        rebuild()
        for j in affected:
            t0 = time.perf_counter()
            fresh[j], grams[j] = refit(
                store.coded_features[j], store.coded_response[j], model.lam,
                store.slice_grams.get(j), rows_of[j])
            retrain_seconds[j] = time.perf_counter() - t0
    except BaseException:
        store.alive[pos] = True
        store.base_features[pos], store.base_response[pos] = held
        rebuild()
        raise
    store.slice_grams.update(
        {j: g for j, g in grams.items() if g is not None})
    for j, w in fresh.items():
        model.weights[:, j] = w
    report = AffectedReport(
        unlearned_ids=ids,
        affected_learners=affected,
        retrain_seconds=retrain_seconds,
        total_seconds=time.perf_counter() - t_start,
    )
    return model, store, report


def _rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.linalg.norm(b)
    diff = float(np.linalg.norm(a - b))
    if diff == 0.0:
        return 0.0
    return diff / max(denom, np.finfo(float).tiny)


def _reference_weights(X: np.ndarray, y: np.ndarray,
                       lam: float) -> np.ndarray:
    """solve_stack on the (k, nbar, D) stack X, with NaN weights for a
    learner that cannot be solved: a stack that fails is solved again one
    learner at a time, so only the learners that fail alone get NaN."""
    try:
        return solve_stack(X, y, lam)
    except (ValueError, np.linalg.LinAlgError, SingularSystem):
        if len(X) == 1:
            return np.full((1, X.shape[2]), np.nan)
        return np.concatenate([_reference_weights(X[j:j + 1], y[j:j + 1], lam)
                               for j in range(len(X))])


def verify_perfect_unlearning(model: EnsembleModel, store: CodedStore,
                              tolerance: float = DEFAULT_TOLERANCE,
                              ) -> VerificationReport:
    """Rebuild every coded shard from the stored base rows, retrain all
    learners, and compare weights against the live model.

    The rebuild adds every base row unmasked, as the encoder does, so it
    counts on the unlearned rows being zero (the CodedStore invariant): a
    store that still holds a forgotten sample's values rebuilds to other
    shards and fails, since it has not been perfectly unlearned.

    The learners are rebuilt and solved in learner blocks
    (numerics.in_learner_blocks), a chunk of coded shards at a time, with
    the solves learn makes, so the weights are bitwise those of a retrain.

    Report-only: passes iff the worst relative discrepancy (per learner and
    for the aggregate) is within tolerance; a NaN discrepancy fails.  A
    reference solve that raises gives its learner a NaN discrepancy rather
    than an error, and leaves the other learners' solves as they are.  With
    no unlearned samples the rebuild reproduces the encode-time sums bitwise
    and the discrepancy is exactly zero.  A tolerance that is NaN or
    negative is refused with ValueError.
    """
    if not tolerance >= 0:      # NaN fails the comparison
        raise ValueError(f"tolerance must be nonnegative, got {tolerance}")
    r = store.generator.coded_shards
    width = store.base_features.shape[1]
    solved = np.empty((r, width))

    def solve(lo, hi):
        X, y = store.rebuild_coded_shards(lo, hi)
        solved[lo:hi] = _reference_weights(X, y, model.lam)

    in_learner_blocks(solve, r, store.shard_size, width)
    fresh = np.empty_like(model.weights)    # model.agg's layout and sum
    fresh[...] = solved.T
    per_learner = np.array([
        _rel_diff(model.weights[:, j], fresh[:, j]) for j in range(r)
    ])
    return VerificationReport(
        per_learner=per_learner,
        agg_discrepancy=_rel_diff(model.agg, fresh.mean(axis=1)),
        tolerance=tolerance,
    )
