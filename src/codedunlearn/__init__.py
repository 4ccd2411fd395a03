"""Coded machine unlearning for regression.

Training data is split into s uncoded shards, linearly combined into r
coded shards by a random binary generator matrix, and each coded shard
trains an independent closed-form ridge learner whose weights are averaged
into the served model.  Unlearning a sample removes its contribution from
the coded rows it touches and retrains only the affected learners, which
is exactly equivalent to retraining from scratch without the sample.

The package spreads its ridge solves and projections over the CPUs itself
(numerics.run_in_blocks), so it wants BLAS on one thread: a threaded BLAS
competes with those threads for the cores, and projections.project is
bitwise the whole product only with BLAS on one thread per call.  BLAS reads
its thread count when numpy loads, so when numpy is not loaded yet and none
of OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS is set, the
import sets all three to 1.  The CLI always imports the package first; a
program that imports numpy first, or sets one of them, keeps its own BLAS
threads.
"""

import os as _os
import sys as _sys

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")
if "numpy" not in _sys.modules and not any(
        var in _os.environ for var in _BLAS_THREAD_VARS):
    _os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))

from .bench import (
    InfluenceRecord,
    SweepSpec,
    TradeoffRecord,
    emit_results,
    run_influence,
    run_tradeoff,
)
from .coding import (
    CodedStore,
    GeneratorMatrix,
    encode,
    rand_matrix,
    rand_matrix_minimal,
)
from .dataset import (
    Dataset,
    NormalizationRecord,
    SyntheticSpec,
    gen_synthetic,
    load_csv,
    normalize,
    poly_expand,
    remove_by_percentile,
    split,
    write_csv,
)
from .ensemble import (
    AffectedReport,
    EnsembleModel,
    VerificationReport,
    learn,
    predict,
    unlearn,
    verify_perfect_unlearning,
)
from .errors import (
    AlreadyUnlearned,
    BadSplitSize,
    CodedUnlearnError,
    DensityOutOfRange,
    DimensionMismatch,
    EmptyResult,
    InvalidSpec,
    MissingColumn,
    NonTermination,
    ParseError,
    RankDeficient,
    SessionError,
    SingularSystem,
    TooFewSamples,
    UnknownSample,
)
from .numerics import binary_rank, ridge_solve
from .projections import ProjectionMap, make_projection, project

__version__ = "0.1.0"
