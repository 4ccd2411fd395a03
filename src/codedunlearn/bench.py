"""Benchmark harness: shard-count sweeps at fixed rate and influence studies.

Per run the harness re-shuffles and re-splits the dataset, trains the coded
ensemble, unlearns one uniformly random training sample, and records test
MSE (pre and post unlearn), train MSE of the aggregate model on the uncoded
training split, retrain wall-times, and a machine-independent cost proxy.
With a projection_dim, each run projects each split once through one
frozen cosine map, before the learn timer starts.  The CSV columns are the
record fields in order, TradeoffRecord.lam written as lambda.

All non-timing outputs are bit-reproducible under a fixed master seed; every
sweep cell derives its own RNG streams so concurrency or cell order never
changes results.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .dataset import (
    Dataset,
    SyntheticSpec,
    gen_synthetic,
    normalize,
    remove_by_percentile,
    split,
)
from .ensemble import learn, predict, unlearn
from .errors import InvalidSpec
from .numerics import ridge_solve
from .projections import make_projection, project


@dataclass
class SweepSpec:
    """One trade-off sweep: shard counts per rate, at one or more lambdas."""

    dataset: Dataset | SyntheticSpec
    n_train: int
    lambdas: tuple[float, ...]
    rates: tuple[int, ...]
    shard_counts: tuple[int, ...]
    runs: int = 20
    seed: int = 0
    density: float | str = "minimal"
    projection_dim: int | None = None
    dataset_label: str = "dataset"

    def cells(self):
        idx = 0
        for lam in self.lambdas:
            for tau in self.rates:
                for s in self.shard_counts:
                    if s % tau:
                        raise InvalidSpec(
                            f"s={s} not divisible by rate tau={tau}"
                        )
                    yield idx, s, s // tau, tau, lam
                    idx += 1


@dataclass
class TradeoffRecord:
    """Mean metrics of one sweep cell over `runs` repetitions.

    learn_seconds_mean is learn's wall time divided by r: the r learners
    are solved concurrently, in learner blocks (numerics.ridge_solve), so
    it is not any one learner's solve time.  unlearn_seconds_mean is the
    whole unlearn call of one sample (AffectedReport.total_seconds)."""

    dataset: str
    s: int
    r: int
    tau: int
    rho_mode: str
    lam: float
    D: int | None
    n_train: int
    shard_size: int
    runs: int
    test_mse_mean: float
    test_mse_std: float
    train_mse_mean: float
    unlearn_seconds_mean: float
    learn_seconds_mean: float
    affected_learners_mean: float
    cost_proxy: float
    test_mse_pre_mean: float
    error: str | None = None

    def row(self) -> dict:
        d = asdict(self)
        d["lambda"] = d.pop("lam")
        return d


@dataclass
class InfluenceRecord:
    """Single-learner test MSE after one percentile-removal setting."""

    dataset: str
    mode: str
    percentile: float
    remaining_pct: float
    test_mse_mean: float
    test_mse_std: float
    runs: int
    error: str | None = None

    def row(self) -> dict:
        return asdict(self)


TRADEOFF_COLUMNS = ["lambda" if f.name == "lam" else f.name
                    for f in fields(TradeoffRecord)]
INFLUENCE_COLUMNS = [f.name for f in fields(InfluenceRecord)]

# what a failed sweep cell records for every measurement it could not take
_FAILED_CELL_METRICS = dict.fromkeys(
    ("test_mse_mean", "test_mse_std", "train_mse_mean",
     "unlearn_seconds_mean", "learn_seconds_mean", "affected_learners_mean",
     "cost_proxy", "test_mse_pre_mean"), float("nan"))


def mse(pred: np.ndarray, truth: np.ndarray) -> float:
    return float(np.mean((pred - truth) ** 2))


def _materialize(dataset) -> Dataset:
    return gen_synthetic(dataset) if isinstance(dataset, SyntheticSpec) else dataset


def _run_seed(master: int, run: int) -> np.random.SeedSequence:
    # shared across cells so coded/uncoded arms see identical splits per run
    return np.random.SeedSequence([master, run])


def _cell_seed(master: int, cell: int, run: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([master, cell, run])


def run_tradeoff(spec: SweepSpec) -> list[TradeoffRecord]:
    """One TradeoffRecord per (lambda, tau, s) cell.

    A failing cell is recorded with its error message instead of aborting
    the sweep.
    """
    ds = _materialize(spec.dataset)
    records = []
    rho_mode = spec.density if isinstance(spec.density, str) else f"bernoulli({spec.density})"
    for cell_idx, s, r, tau, lam in spec.cells():
        cell = dict(dataset=spec.dataset_label, s=s, r=r, tau=tau,
                    rho_mode=rho_mode, lam=lam, D=spec.projection_dim,
                    n_train=spec.n_train, runs=spec.runs)
        try:
            measured = _tradeoff_cell(spec, ds, cell_idx, s, r, lam)
        except Exception as exc:  # recorded, not raised: sweep must finish
            measured = dict(_FAILED_CELL_METRICS, shard_size=0,
                            error=f"{type(exc).__name__}: {exc}")
        records.append(TradeoffRecord(**cell, **measured))
    return records


def _tradeoff_cell(spec: SweepSpec, ds: Dataset, cell_idx: int, s: int,
                   r: int, lam: float) -> dict:
    """Shard size and mean metrics of one cell over spec.runs runs.  The
    model holds no map: predicting the projected rows gives the same bits
    as projecting inside learn and predict."""
    pre_mses, post_mses, train_mses = [], [], []
    unlearn_secs, learn_secs, affected = [], [], []
    nbar = spec.n_train // s
    width = None
    for run in range(spec.runs):
        split_seed, pick_seed = _run_seed(spec.seed, run).spawn(2)
        proj_seed, code_seed = _cell_seed(spec.seed, cell_idx, run).spawn(2)
        train, test = split(ds, spec.n_train, split_seed)
        train_n, test_n, _ = normalize(train, test)
        X_train, X_test = train_n.features, test_n.features
        if spec.projection_dim is not None:
            pmap = make_projection(ds.num_features, spec.projection_dim,
                                   proj_seed)
            X_train, X_test = project(pmap, X_train), project(pmap, X_test)
        t0 = time.perf_counter()
        model, store, _ = learn(replace(train_n, features=X_train), s, r,
                                spec.density, lam, seed=code_seed)
        learn_secs.append((time.perf_counter() - t0) / r)
        width = model.weights.shape[0]
        pre_mses.append(mse(predict(model, X_test), test_n.response))
        pick_rng = np.random.default_rng(pick_seed)
        victim = int(store.ids[pick_rng.integers(0, len(store.ids))])
        _, _, report = unlearn(model, store, [victim])
        unlearn_secs.append(report.total_seconds)
        affected.append(report.num_affected)
        post_mses.append(mse(predict(model, X_test), test_n.response))
        train_mses.append(mse(predict(model, X_train), train_n.response))
    return dict(
        shard_size=nbar,
        test_mse_mean=float(np.mean(post_mses)),
        test_mse_std=float(np.std(post_mses)),
        train_mse_mean=float(np.mean(train_mses)),
        unlearn_seconds_mean=float(np.mean(unlearn_secs)),
        learn_seconds_mean=float(np.mean(learn_secs)),
        affected_learners_mean=float(np.mean(affected)),
        cost_proxy=float(np.mean(affected)) * nbar * width**2,
        test_mse_pre_mean=float(np.mean(pre_mses)),
    )


def influence_band(p: float, mode: str) -> float | None:
    """Band half-parameter handed to remove_by_percentile for a sweep value p.

    Outlier removal uses the [p, 100-p] band directly.  Inlier removal drops
    the central band of half-width p, i.e. samples inside [50-p, 50+p], so
    that both curves start at the unfiltered baseline at p=0 and remove more
    mass as p grows.  Returns None when nothing is removed (p=0, inliers).
    """
    if mode == "outliers":
        return p
    return None if p == 0 else 50.0 - p


def run_influence(dataset, percentiles, runs: int, lam: float,
                  n_train: int, seed: int = 0,
                  projection_dim: int | None = None,
                  band_columns=None, dataset_label: str = "dataset",
                  ) -> list[InfluenceRecord]:
    """Single-learner test MSE after outlier / inlier removal at each
    percentile, averaged over seeded runs; the data behind the
    influence-of-removal curves."""
    for p in percentiles:
        if not 0 <= p < 50:
            raise ValueError(f"percentile {p} outside [0, 50)")
    ds = _materialize(dataset)
    keys = [(mode, p) for mode in ("outliers", "inliers") for p in percentiles]
    mses = {key: [] for key in keys}
    kept_pct = {key: [] for key in keys}
    errors = dict.fromkeys(keys)
    for run in range(runs):
        split_seed, proj_seed = _run_seed(seed, run).spawn(2)
        train, test = split(ds, n_train, split_seed)
        # normalize before filtering so MSE stays in one unit across the
        # sweep; percentile bands commute with the per-column affine maps,
        # so the removal sets are unchanged
        train_n, test_n, _ = normalize(train, test)
        X_test = test_n.features
        try:
            if projection_dim is not None:
                pmap = make_projection(ds.num_features, projection_dim,
                                       proj_seed)
                X_test = project(pmap, X_test)
        except Exception as exc:   # a map that cannot be built fails every key
            errors.update(dict.fromkeys(keys, f"{type(exc).__name__}: {exc}"))
            continue
        for mode, p in keys:
            try:
                band = influence_band(p, mode)
                kept = train_n if band is None else remove_by_percentile(
                    train_n, band, mode, columns=band_columns)
                X_kept = kept.features if projection_dim is None \
                    else project(pmap, kept.features)
                w = ridge_solve(X_kept, kept.response, lam)
                mses[mode, p].append(mse(X_test @ w, test_n.response))
                kept_pct[mode, p].append(100.0 * kept.n / train.n)
            except Exception as exc:
                errors[mode, p] = f"{type(exc).__name__}: {exc}"
    nan = float("nan")
    records = []
    for mode, p in keys:
        vals, kept = mses[mode, p], kept_pct[mode, p]
        records.append(InfluenceRecord(
            dataset=dataset_label, mode=mode, percentile=float(p),
            remaining_pct=float(np.mean(kept)) if kept else nan,
            test_mse_mean=float(np.mean(vals)) if vals else nan,
            test_mse_std=float(np.std(vals)) if vals else nan,
            runs=len(vals), error=errors[mode, p],
        ))
    return records


def emit_results(records, path, fmt: str = "csv", config=None) -> None:
    """Write records as CSV (stable column order; csv.writer writes floats
    with repr, so numeric fields round-trip exactly, and None as an empty
    field) or JSON (array of objects).  The
    resolved configuration is echoed for provenance: as a leading comment
    line in CSV, as a top-level field in JSON."""
    if not records:
        raise ValueError("no records to emit")
    columns = TRADEOFF_COLUMNS if isinstance(records[0], TradeoffRecord) \
        else INFLUENCE_COLUMNS
    rows = [rec.row() for rec in records]
    path = Path(path)
    if fmt == "csv":
        with path.open("w", newline="") as fh:
            if config is not None:
                fh.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
            writer = csv.writer(fh)
            writer.writerow(columns)
            writer.writerows([row[c] for c in columns] for row in rows)
    elif fmt == "json":
        payload = {"config": config, "records": rows}
        path.write_text(json.dumps(payload, indent=2) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")
