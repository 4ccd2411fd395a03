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
from .numerics import (empty_products, in_learner_blocks, ridge_solve,
                       solve_normal, solve_stack, update_products)
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
    total_seconds the whole call, those phases and the commit."""

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
        if r != 1:
            raise ValueError("s == 1 requires r == 1")
        return GeneratorMatrix(1, 1, np.array([[1]]), 1.0, seed)
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
    (numerics.ridge_solve, in learner blocks on the available CPUs),
    bitwise as r single solves would be.
    """
    feats = project(projection, train.features) if projection is not None \
        else train.features
    generator = _make_generator(s, r, rho, seed)
    store = encode(feats, train.response, train.ids, generator)
    weights = np.ascontiguousarray(
        ridge_solve(store.coded_features, store.coded_response, lam).T)
    model = EnsembleModel(weights, lam, generator, projection)
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

    The affected learners are then retrained together.  With lam > 0 their
    per-slice Gram products live in the store's stacked cache
    (CodedStore.slice_grams): a learner not yet cached gets every slice's
    products from a view of its coded shard, and the slices holding touched
    rows of all the cached learners are recomputed in place by one batched
    pass (numerics.update_products).  One numerics.solve_normal then solves
    every affected learner on a view of the stack (a copy when the learners
    are not adjacent).  The sums are the ones a retrain from scratch forms,
    so the weights equal ridge_solve on the live coded shards bitwise.  With
    lam = 0 each learner is solved by least squares (numerics.solve_stack)
    and nothing is cached.

    An id that is not an integer (a float, a bool, a string) is refused
    with UnknownSample before anything changes.

    Zero first, re-derive on failure: weights change, and learners not yet
    cached enter the cache, only once every solve has succeeded.  If a step
    raises, the forgotten rows (the one copy kept) and alive are put back,
    and the same coded rows and, by the same batched pass, the cached
    learners' touched slices are re-derived from them, bitwise as they
    were, before the error propagates.
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
    cold = [j for j in affected if j not in store.slice_grams]
    at, learner = hits.nonzero()    # one (id, learner) pair per coded row
    touched = learner, row[at]
    X, y = store.coded_features, store.coded_response
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
    products = None
    try:
        rebuild()
        marks.append(time.perf_counter())
        if model.lam > 0:
            if store.slice_stack is None:
                store.slice_stack = empty_products(*X.shape)
            products = store.slice_stack
            update_products(X, y, *products, cold, *touched)
            marks.append(time.perf_counter())
            fresh = solve_normal(products[0][stack], products[1][stack],
                                 store.shard_size, model.lam)
        else:
            marks.append(time.perf_counter())
            fresh = solve_stack(X[stack], y[stack], 0.0)
        marks.append(time.perf_counter())
    except BaseException:
        store.alive[pos] = True
        store.base_features[pos], store.base_response[pos] = held
        rebuild()
        if products is not None:
            update_products(X, y, *products, cold, *touched)
        raise
    if products is not None:
        grams, rhs = products
        store.slice_grams.update({j: (grams[j], rhs[j]) for j in cold})
    model.weights[:, stack] = fresh.T
    report = AffectedReport(
        unlearned_ids=ids,
        affected_learners=affected,
        phase_seconds={phase: b - a for phase, a, b
                       in zip(PHASES, marks, marks[1:])},
        total_seconds=time.perf_counter() - marks[0],
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
