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
from .numerics import (in_learner_blocks, ridge_solve, solve_normal,
                       solve_stack, update_products)
from .projections import ProjectionMap, project

DEFAULT_TOLERANCE = 1e-8

# The phases of an unlearn call that AffectedReport times, in call order.
PHASES = ("validate", "rebuild_rows", "slice_products", "solve")


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


@dataclass
class AffectedReport:
    """Which learners an unlearn request touched and what it cost:
    phase_seconds times each phase of the call by name (PHASES), and
    total_seconds the whole call, those phases and the commit.  Learners
    solved without a slice cache (CodedStore.slice_stack) spend about
    nothing in "slice_products"."""

    unlearned_ids: list[int]
    affected_learners: list[int]
    phase_seconds: dict[str, float]
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
        return GeneratorMatrix(1, r, np.ones((1, r), dtype=int), 1.0, seed)
    if rho == MINIMAL:
        return coding.rand_matrix_minimal(s, r, seed)
    return coding.rand_matrix(s, r, float(rho), seed)


def learn(train: Dataset, s: int, r: int, rho, lam: float,
          projection: ProjectionMap | None = None, seed=None,
          ) -> tuple[EnsembleModel, CodedStore, GeneratorMatrix]:
    """Train the coded ensemble.

    rho is a Bernoulli density in [1/r, 1) (1 when r = 1) or "minimal" for
    one-hot rows, and the generator is drawn from seed.  With s == 1 the
    code degenerates to G = [[1]] and the model equals a single learner on
    the full training set.  The r learners are solved as one stack
    (numerics.ridge_solve), bitwise as r single solves would be, and the
    slice products they were solved from become the store's slice cache
    (CodedStore.slice_stack): None when numerics picks the dual form.
    Learner j minimizes sum_i (y_ji - x_ji.w)^2 + nbar*lam * w.w over the
    nbar rows of its coded shard: the ridge alpha nbar*lam is fixed here
    and every later unlearn keeps it (see unlearn).
    """
    feats = project(projection, train.features) if projection is not None \
        else train.features
    generator = _make_generator(s, r, rho, seed)
    store = encode(feats, train.response, train.ids, generator)
    X, y = store.coded_features, store.coded_response
    weights, store.slice_stack = ridge_solve(X, y, lam)
    model = EnsembleModel(weights.T.copy(), lam, generator, projection)
    return model, store, generator


def predict(model: EnsembleModel, X_raw) -> np.ndarray:
    """Predict the (m, d) raw features through the aggregate weights."""
    feats = np.asarray(X_raw, dtype=float) if model.projection is None \
        else project(model.projection, X_raw)
    agg = model.agg
    if feats.ndim != 2 or feats.shape[1] != agg.shape[0]:
        raise DimensionMismatch(
            f"predict: features {feats.shape} vs {agg.shape[0]} weights")
    return feats @ agg


def unlearn(model: EnsembleModel, store: CodedStore, ids,
            ) -> tuple[EnsembleModel, CodedStore, AffectedReport]:
    """Remove the listed samples and retrain only the affected learners.

    For every sample: locate its base row through the store's id index,
    find the nonzero generator-row columns of its uncoded shard, and remove
    its contribution from the matching coded row of each of those shards:
    its base row is zeroed first, then one CodedStore.rebuild_coded_row
    call per affected learner re-sums all its touched rows in the encoder's
    order, so the reconstruction invariant stays bitwise exact.

    The affected learners are then retrained together.  When the store
    holds a slice cache (CodedStore.slice_stack, formed by learn), the
    slices holding touched rows are recomputed in place by one batched
    pass (numerics.update_products), and one numerics.solve_normal solves
    every affected learner on a view of the stack (a copy when the learners
    are not adjacent).  Otherwise (a store learn did not build, or shards
    solved in dual form) numerics.solve_stack solves the affected
    learners' coded shards as learn does, and no cache is formed.  Either
    way the sums are the ones a retrain from scratch forms, so the weights
    equal ridge_solve on the live coded shards bitwise.

    The objective a forget preserves is learn's, with each forgotten
    sample kept as a +0.0 row of its shard: per learner,
    sum_i (y_ji - x_ji.w)^2 + nbar*lam * w.w, nbar the coded shard's rows
    at learn, forgotten ones included.  So the weights are a retrain
    without the samples at the fixed ridge alpha nbar*lam; at lam = 0 they
    are the least-squares fit of the rows left.  A retrain that averages
    the error over the rows left only (ridge_solve on them) puts fewer
    rows in the alpha and differs when lam > 0.

    An id that is not an integer (a float, a bool, a string) is refused
    with UnknownSample before anything changes.

    Zero first, re-derive on failure: weights change only once every
    solve has succeeded.  If a step raises, the forgotten rows (the one
    copy kept) and alive are put back, and the same coded rows and, by the
    same batched pass, the touched slices of the cache are re-derived from
    them, bitwise as they were, before the error propagates.
    """
    marks = [time.perf_counter()]   # the start and the end of each phase
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

    shard, row = np.divmod(pos, store.shard_size)
    hits = store.generator.entries.take(shard, axis=0)   # G's row of each id
    affected = hits.any(axis=0).nonzero()[0].tolist()
    rows_of = {j: row.compress(hits[:, j]) for j in affected}  # may repeat
    at, learner = hits.nonzero()    # one (id, learner) pair per coded row
    touched = learner, row[at]
    X, y = store.coded_features, store.coded_response
    cache = store.slice_stack
    lo = affected[0] if affected else 0     # adjacent learners: a view
    stack = (slice(lo, lo + len(affected))
             if affected == list(range(lo, lo + len(affected))) else affected)
    marks.append(time.perf_counter())

    def rebuild():
        for j in affected:
            X[j, rows_of[j]], y[j, rows_of[j]] = \
                store.rebuild_coded_row(j, rows_of[j])

    held = store.base_features[pos], store.base_response[pos]   # copies
    store.alive[pos] = False
    store.base_features[pos] = 0.0
    store.base_response[pos] = 0.0
    try:
        rebuild()
        marks.append(time.perf_counter())
        if cache is not None:
            update_products(X, y, *cache, *touched)
            marks.append(time.perf_counter())
            fresh = solve_normal(cache[0][stack], cache[1][stack],
                                 store.shard_size, model.lam)
        else:
            marks.append(time.perf_counter())
            fresh, _ = solve_stack(X[stack], y[stack], model.lam)
        marks.append(time.perf_counter())
    except BaseException:
        store.alive[pos] = True
        store.base_features[pos], store.base_response[pos] = held
        rebuild()
        if cache is not None:
            update_products(X, y, *cache, *touched)
        raise
    model.weights[:, stack] = fresh.T
    report = AffectedReport(
        unlearned_ids=ids,
        affected_learners=affected,
        phase_seconds={phase: b - a for phase, a, b
                       in zip(PHASES, marks, marks[1:])},
        total_seconds=time.perf_counter() - marks[0],
    )
    return model, store, report


def _reference_weights(X: np.ndarray, y: np.ndarray,
                       lam: float) -> np.ndarray:
    """solve_stack on the (k, nbar, D) stack X, with NaN weights for a
    learner that cannot be solved: a stack that fails is solved again one
    learner at a time, so only the learners that fail alone get NaN."""
    try:
        return solve_stack(X, y, lam)[0]
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
    # ||live - ref|| / ||ref|| of each learner's column and the aggregate:
    # equal columns give 0.0 over any positive norm, a NaN reference NaN
    live = np.column_stack((model.weights, model.agg))
    ref = np.column_stack((fresh, fresh.mean(axis=1)))
    with np.errstate(over="ignore", invalid="ignore"):
        rel = np.linalg.norm(live - ref, axis=0) / np.maximum(
            np.linalg.norm(ref, axis=0), np.finfo(float).tiny)
    return VerificationReport(per_learner=rel[:-1],
                              agg_discrepancy=float(rel[-1]),
                              tolerance=tolerance)
