"""Coded machine unlearning for regression.

Training data is split into s uncoded shards, linearly combined into r
coded shards by a random binary generator matrix, and each coded shard
trains an independent closed-form ridge learner whose weights are averaged
into the served model.  Unlearning a sample removes its contribution from
the coded rows it touches and retrains only the affected learners, which
is exactly equivalent to retraining from scratch without the sample.
"""

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
