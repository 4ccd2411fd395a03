"""Dataset loading, normalization, splitting, synthesis, and percentile filters."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BadSplitSize,
    EmptyResult,
    InvalidSpec,
    MissingColumn,
    ParseError,
)

SYNTHETIC_KINDS = ("lognormal-poly", "chisquare-poly", "mlp", "gaussian-linear")


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus response vector with stable per-sample ids."""

    features: np.ndarray
    response: np.ndarray
    ids: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=float))
        object.__setattr__(self, "response", np.asarray(self.response, dtype=float))
        object.__setattr__(self, "ids", np.asarray(self.ids, dtype=int))
        if self.features.ndim != 2 or self.response.ndim != 1:
            raise ValueError("features must be 2-d and response 1-d")
        n = self.features.shape[0]
        if self.response.shape[0] != n or self.ids.shape[0] != n:
            raise ValueError("features, response, and ids must have equal length")
        ordered = np.sort(self.ids)
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError("ids must be unique")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    def subset(self, index) -> "Dataset":
        """Row subset (boolean mask or integer index array), ids preserved.
        The rows are gathered with take, a mask through its indices."""
        index = np.asarray(index)
        if index.dtype == bool:
            if index.shape != self.ids.shape:
                raise IndexError(f"boolean mask of shape {index.shape} for "
                                 f"{self.n} rows")
            index = np.flatnonzero(index)
        elif not index.size:    # asarray makes [] float; numpy indexes by it
            index = index.astype(np.intp)
        return Dataset(self.features.take(index, axis=0),
                       self.response.take(index), self.ids.take(index))


@dataclass(frozen=True)
class NormalizationRecord:
    """Per-column train-split min/max used for the [0, 1] affine maps."""

    feature_min: np.ndarray
    feature_max: np.ndarray
    response_min: float
    response_max: float

    def apply(self, ds: Dataset) -> Dataset:
        """ds mapped through the train split's affine maps, a constant
        column to 0, in one new features array and one new response."""
        span = self.feature_max - self.feature_min
        feats = ds.features - self.feature_min
        feats /= np.where(span > 0, span, 1.0)
        feats[:, ~(span > 0)] = 0.0
        yspan = self.response_max - self.response_min
        if yspan > 0:
            resp = ds.response - self.response_min
            resp /= yspan
        else:
            resp = np.zeros_like(ds.response)
        return Dataset(feats, resp, ds.ids)


# the lines a file read with newline="" yields for an empty line
_BLANK_LINES = frozenset(("\n", "\r", "\r\n"))


def read_numeric_csv(path) -> tuple[list[str], np.ndarray]:
    """Header and data rows of an all-numeric CSV with one header row.

    The header is parsed by the csv module, so its names may be quoted.
    The body is parsed by numpy's C reader, which gives the same bits as
    float() per cell.  Its result is taken only when every body line became
    one row of len(header) values; any other input (a blank line, which
    that reader skips, a quoted or empty cell, a '#' line, a ragged row)
    goes through the csv module cell by cell, which accepts what float()
    accepts and otherwise raises the ParseError naming the first bad row.
    What the csv module refuses (a cell over its field limit) is a
    ParseError too.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        except csv.Error as exc:
            raise ParseError(f"{path}: row 1: {exc}") from None
        lines = list(fh)
    if lines and _BLANK_LINES.isdisjoint(lines):
        try:
            data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2,
                              dtype=float)
        except ValueError:
            pass
        else:
            if data.shape == (len(lines), len(header)):
                return header, data
    return header, _parse_cells(path, header, csv.reader(lines))


def _parse_cells(path, header: list[str], reader) -> np.ndarray:
    """The body rows of a CSV, float() cell by cell, or the ParseError for
    the first row that is not len(header) numeric cells or that the csv
    module cannot read."""
    rows = []
    lineno = 1
    try:
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(f"{path}: row {lineno} has {len(row)} "
                                 f"cells, expected {len(header)}")
            parsed = []
            for col, cell in zip(header, row):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise ParseError(
                        f"{path}: row {lineno}, column {col!r}: "
                        f"non-numeric cell {cell!r}"
                    ) from None
            rows.append(parsed)
    except csv.Error as exc:
        raise ParseError(f"{path}: row {lineno + 1}: {exc}") from None
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return np.array(rows, dtype=float)


def load_csv(path, response_column) -> Dataset:
    """Read an all-numeric CSV with one header row.

    response_column selects the response by header name or zero-based index;
    remaining columns become features in file order.
    """
    header, data = read_numeric_csv(path)
    if isinstance(response_column, int):
        if not 0 <= response_column < len(header):
            raise MissingColumn(
                f"{path}: column index {response_column} out of range"
            )
        resp_idx = response_column
    else:
        try:
            resp_idx = header.index(str(response_column))
        except ValueError:
            raise MissingColumn(
                f"{path}: no column named {response_column!r}"
            ) from None
    response = data[:, resp_idx]
    features = np.delete(data, resp_idx, axis=1)
    return Dataset(features, response, np.arange(len(data)))


_WRITE_CHUNK = 256   # rows held as Python floats and text at a time


def write_csv(ds: Dataset, path) -> None:
    """Write a Dataset as CSV: the feature columns, then the response.

    The header is always x0, ..., x{d-1}, y.  Each cell is the repr of a
    Python float, the shortest text that reads back to the same bits, so
    load_csv round-trips bit-exactly; the bytes are the ones csv.writer
    would write.  Rows are formatted a chunk at a time, so no copy of the
    whole dataset is held.
    """
    path = Path(path)
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerow([f"x{j}" for j in range(ds.num_features)]
                                + ["y"])
        for start in range(0, ds.n, _WRITE_CHUNK):
            stop = start + _WRITE_CHUNK
            rows = np.column_stack((ds.features[start:stop],
                                    ds.response[start:stop])).tolist()
            fh.write("".join([",".join(map(repr, row)) + "\r\n"
                              for row in rows]))


def normalize(train: Dataset, test: Dataset):
    """Min-max map each train column (features and response) onto [0, 1] and
    apply the same affine maps to the test split.

    Test values may fall outside [0, 1]; constant train columns map to 0.
    """
    record = NormalizationRecord(
        feature_min=train.features.min(axis=0),
        feature_max=train.features.max(axis=0),
        response_min=float(train.response.min()),
        response_max=float(train.response.max()),
    )
    return record.apply(train), record.apply(test), record


def split(ds: Dataset, n_train: int, seed) -> tuple[Dataset, Dataset]:
    """Deterministic shuffle under seed; first n_train rows become train."""
    if not 0 < n_train < ds.n:
        raise BadSplitSize(f"n_train={n_train} must be in (0, {ds.n})")
    perm = np.random.default_rng(seed).permutation(ds.n)
    return ds.subset(perm[:n_train]), ds.subset(perm[n_train:])


def poly_expand(X: np.ndarray, degree: int) -> np.ndarray:
    """[X, X^2, ..., X^degree] with element-wise powers, no interaction terms."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    return np.hstack([X**c for c in range(1, degree + 1)])


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic regression dataset.

    kinds:
      lognormal-poly : lognormal(mu, sigma2) features, response from a
                       degree-`degree` element-wise polynomial with standard
                       normal coefficients and noise
      chisquare-poly : chi-square(dof) features, same polynomial response
      mlp            : lognormal features passed through a random
                       sigmoid MLP (layer_widths) with a linear output node
      gaussian-linear: standard normal features, linear response
    """

    kind: str
    n: int
    d: int
    mu: float = 1.0
    sigma2: float = 4.0
    dof: int = 1
    degree: int | None = None
    layer_widths: tuple[int, ...] = (50, 25, 50)
    seed: int = 0
    expose_expanded: bool = False

    def resolved_degree(self) -> int:
        if self.degree is not None:
            return self.degree
        return {"lognormal-poly": 3, "chisquare-poly": 4}.get(self.kind, 1)


def gen_synthetic(spec: SyntheticSpec) -> Dataset:
    """Deterministic synthesis: identical specs (seed included) yield
    identical datasets.

    The returned features are the original draws X; the polynomial expansion
    or MLP is used only to produce the response, unless expose_expanded is
    set, in which case the expanded polynomial features are returned.
    """
    if spec.kind not in SYNTHETIC_KINDS:
        raise InvalidSpec(f"unknown kind {spec.kind!r}")
    if spec.n < 1 or spec.d < 1:
        raise InvalidSpec("n and d must be positive")
    if spec.sigma2 < 0:
        raise InvalidSpec("sigma2 must be nonnegative")
    rng = np.random.default_rng(spec.seed)

    if spec.kind in ("lognormal-poly", "chisquare-poly"):
        degree = spec.resolved_degree()
        if degree < 1:
            raise InvalidSpec("degree must be >= 1")
        if spec.kind == "lognormal-poly":
            X = rng.lognormal(spec.mu, np.sqrt(spec.sigma2), (spec.n, spec.d))
        else:
            if spec.dof < 1:
                raise InvalidSpec("dof must be >= 1")
            X = rng.chisquare(spec.dof, (spec.n, spec.d))
        Xp = poly_expand(X, degree)
        w = rng.standard_normal(Xp.shape[1])
        eps = rng.standard_normal(spec.n)
        y = Xp @ w + eps
        feats = Xp if spec.expose_expanded else X
        return Dataset(feats, y, np.arange(spec.n))

    if spec.kind == "mlp":
        if not spec.layer_widths:
            raise InvalidSpec("mlp kind requires nonempty layer_widths")
        X = rng.lognormal(spec.mu, np.sqrt(spec.sigma2), (spec.n, spec.d))
        h = X
        for width in spec.layer_widths:
            W = rng.standard_normal((h.shape[1], width))
            b = rng.standard_normal(width)
            # logistic sigmoid; unlike 1 / (1 + exp(-z)) it cannot overflow
            h = 0.5 + 0.5 * np.tanh(0.5 * (h @ W + b))
        w_out = rng.standard_normal(h.shape[1])
        b_out = rng.standard_normal()
        y = h @ w_out + b_out + rng.standard_normal(spec.n)
        return Dataset(X, y, np.arange(spec.n))

    # gaussian-linear
    X = rng.standard_normal((spec.n, spec.d))
    w = rng.standard_normal(spec.d)
    y = X @ w + rng.standard_normal(spec.n)
    return Dataset(X, y, np.arange(spec.n))


def remove_by_percentile(ds: Dataset, p: float, mode: str,
                         columns=None) -> Dataset:
    """Drop samples relative to the per-column [p, 100-p] percentile band.

    outliers mode drops any sample with ANY banded feature outside the band;
    inliers mode drops any sample with ALL banded features inside it, so the
    two removal sets partition the dataset at matched p.  Percentiles use
    linear interpolation and are computed on ds itself.  `columns` restricts
    the band to a subset of feature columns (e.g. the original features of an
    expanded dataset).
    """
    if not 0 <= p < 50:
        raise ValueError("p must be in [0, 50)")
    if mode not in ("outliers", "inliers"):
        raise ValueError(f"mode must be 'outliers' or 'inliers', got {mode!r}")
    cols = ds.features if columns is None else ds.features[:, columns]
    lo = np.percentile(cols, p, axis=0)
    hi = np.percentile(cols, 100 - p, axis=0)
    inside = ((cols >= lo) & (cols <= hi)).all(axis=1)
    keep = inside if mode == "outliers" else ~inside
    if not keep.any():
        raise EmptyResult(f"remove_by_percentile(p={p}, mode={mode}) "
                          "removed every sample")
    return ds.subset(keep)
