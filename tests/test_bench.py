import csv
import json

import numpy as np
import pytest

from codedunlearn import (
    InvalidSpec,
    SweepSpec,
    SyntheticSpec,
    emit_results,
    gen_synthetic,
    learn,
    make_projection,
    normalize,
    predict,
    project,
    remove_by_percentile,
    ridge_solve,
    run_influence,
    run_tradeoff,
    split,
    unlearn,
)
from codedunlearn import bench, ensemble
from codedunlearn.bench import influence_band, mse

TIMING_FIELDS = ("unlearn_seconds_mean", "learn_seconds_mean")


@pytest.fixture(scope="module")
def gaussian_spec():
    return SyntheticSpec("gaussian-linear", n=400, d=4, seed=5)


@pytest.fixture(scope="module")
def tradeoff_records(gaussian_spec):
    spec = SweepSpec(
        dataset=gaussian_spec,
        n_train=300,
        lambdas=(1e-3,),
        rates=(1, 2),
        shard_counts=(2, 4),
        runs=3,
        seed=7,
        density="minimal",
    )
    return run_tradeoff(spec)


class TestRunTradeoff:
    def test_one_record_per_cell(self, tradeoff_records):
        assert len(tradeoff_records) == 4  # 1 lambda x 2 rates x 2 shard counts
        assert all(r.error is None for r in tradeoff_records)

    def test_single_shard_baseline_cell(self, gaussian_spec):
        spec = SweepSpec(dataset=gaussian_spec, n_train=300, lambdas=(1e-3,),
                         rates=(1,), shard_counts=(1,), runs=2, seed=1)
        (rec,) = run_tradeoff(spec)
        assert rec.s == rec.r == 1
        assert rec.shard_size == 300

    def test_minimal_density_one_affected_learner(self, tradeoff_records):
        assert all(r.affected_learners_mean == 1.0 for r in tradeoff_records)

    def test_deterministic_modulo_timing(self, gaussian_spec):
        spec = SweepSpec(dataset=gaussian_spec, n_train=300, lambdas=(0.0,),
                         rates=(2,), shard_counts=(4,), runs=2, seed=3)
        a, b = run_tradeoff(spec), run_tradeoff(spec)
        for ra, rb in zip(a, b):
            assert ra.test_mse_mean == rb.test_mse_mean
            assert ra.train_mse_mean == rb.train_mse_mean
            assert ra.affected_learners_mean == rb.affected_learners_mean

    def test_cost_proxy_decreases_with_s(self, gaussian_spec):
        spec = SweepSpec(dataset=gaussian_spec, n_train=300, lambdas=(1e-3,),
                         rates=(2,), shard_counts=(2, 4, 6), runs=1, seed=2)
        recs = run_tradeoff(spec)
        proxies = [r.cost_proxy for r in recs]
        assert proxies == sorted(proxies, reverse=True)

    def test_failing_cell_recorded_not_raised(self, gaussian_spec):
        # s=300 shards of size 1 cannot support an unregularized 4-dim solve
        spec = SweepSpec(dataset=gaussian_spec, n_train=300, lambdas=(0.0,),
                         rates=(1,), shard_counts=(300,), runs=1, seed=2)
        (rec,) = run_tradeoff(spec)
        assert rec.error is not None

    def test_indivisible_rate_rejected(self, gaussian_spec):
        with pytest.raises(InvalidSpec):
            SweepSpec(dataset=gaussian_spec, n_train=300, lambdas=(0.0,),
                      rates=(2,), shard_counts=(3,), runs=1, seed=2)

    def test_indivisible_rate_rejected_before_any_cell_runs(
            self, gaussian_spec, monkeypatch):
        # s = 5 and s = 50 divide by tau = 5, s = 7 does not
        ran = []
        monkeypatch.setattr(bench, "_tradeoff_cell",
                            lambda *args: ran.append(args))
        with pytest.raises(InvalidSpec, match="s=7 not divisible"):
            run_tradeoff(SweepSpec(
                dataset=gaussian_spec, n_train=300, lambdas=(1e-3,),
                rates=(5,), shard_counts=(5, 50, 7), runs=1, seed=2))
        assert ran == []

    @pytest.mark.parametrize("runs", [0, -1])
    def test_runs_below_one_rejected(self, gaussian_spec, runs):
        with pytest.raises(InvalidSpec, match="runs must be at least 1"):
            SweepSpec(dataset=gaussian_spec, n_train=300, lambdas=(1e-3,),
                      rates=(1,), shard_counts=(3,), runs=runs, seed=2)

    @pytest.mark.parametrize("rates,shard_counts", [
        ((0,), (3,)), ((-1,), (3,)), ((1,), (0,)), ((1,), (3, -3))])
    def test_rate_or_shard_count_below_one_rejected(
            self, gaussian_spec, rates, shard_counts):
        with pytest.raises(InvalidSpec, match="must be at least 1"):
            SweepSpec(dataset=gaussian_spec, n_train=300, lambdas=(0.0,),
                      rates=rates, shard_counts=shard_counts, runs=1, seed=2)

    @pytest.mark.parametrize("dim", [0, -2])
    def test_projection_dim_below_one_rejected(self, gaussian_spec, dim):
        # once one record per cell, each with make_projection's error
        with pytest.raises(InvalidSpec,
                           match=f"projection_dim must be at least 1, got {dim}"):
            SweepSpec(dataset=gaussian_spec, n_train=300, lambdas=(1e-3,),
                      rates=(1,), shard_counts=(3,), runs=1, seed=2,
                      projection_dim=dim)

    def test_projects_each_split_once_with_unchanged_records(
            self, gaussian_spec, monkeypatch):
        spec = SweepSpec(dataset=gaussian_spec, n_train=300, lambdas=(1e-3,),
                         rates=(2,), shard_counts=(4,), runs=3, seed=9,
                         density=0.5, projection_dim=12)
        expected = tradeoff_reference(spec)
        calls = []

        def counting_project(pmap, X):
            calls.append(len(X))
            return project(pmap, X)

        monkeypatch.setattr(bench, "project", counting_project)
        monkeypatch.setattr(ensemble, "project", counting_project)
        (rec,) = run_tradeoff(spec)
        assert calls == [300, 100] * spec.runs   # train rows, test rows
        got = rec.row()
        for name in TIMING_FIELDS:
            del got[name]
        assert repr(got) == repr(expected)


def tradeoff_reference(spec):
    """Record of a one-cell projected sweep, timing fields left out, as the
    harness computed it before projecting each split once: learn projects
    the train rows itself, and every predict projects the raw rows."""
    ((cell_idx, s, r, tau, lam),) = spec.cells()
    ds = gen_synthetic(spec.dataset)
    pre, post, train_mses, affected = [], [], [], []
    for run in range(spec.runs):
        split_seed, pick_seed = np.random.SeedSequence(
            [spec.seed, run]).spawn(2)
        proj_seed, code_seed = np.random.SeedSequence(
            [spec.seed, cell_idx, run]).spawn(2)
        train, test = split(ds, spec.n_train, split_seed)
        train_n, test_n, _ = normalize(train, test)
        pmap = make_projection(ds.num_features, spec.projection_dim,
                               proj_seed)
        model, store, _ = learn(train_n, s, r, spec.density, lam,
                                projection=pmap, seed=code_seed)
        pre.append(mse(predict(model, test_n.features), test_n.response))
        pick = np.random.default_rng(pick_seed).integers(0, len(store.ids))
        _, _, report = unlearn(model, store, [int(store.ids[pick])])
        affected.append(report.num_affected)
        post.append(mse(predict(model, test_n.features), test_n.response))
        train_mses.append(mse(predict(model, train_n.features),
                              train_n.response))
    nbar = spec.n_train // s
    return {
        "dataset": spec.dataset_label, "s": s, "r": r, "tau": tau,
        "rho_mode": f"bernoulli({spec.density})", "lambda": lam,
        "D": spec.projection_dim,
        "n_train": spec.n_train, "shard_size": nbar, "runs": spec.runs,
        "test_mse_mean": float(np.mean(post)),
        "test_mse_std": float(np.std(post)),
        "train_mse_mean": float(np.mean(train_mses)),
        "affected_learners_mean": float(np.mean(affected)),
        "cost_proxy": float(np.mean(affected)) * nbar
        * spec.projection_dim**2,
        "test_mse_pre_mean": float(np.mean(pre)),
        "error": None,
    }


def influence_reference(dataset, percentiles, runs, lam, n_train, seed,
                        projection_dim):
    """Influence record rows computed one (mode, percentile) at a time,
    with a fresh map and freshly projected test rows for each."""
    ds = gen_synthetic(dataset)
    rows = []
    for mode in ("outliers", "inliers"):
        for p in percentiles:
            vals, kept_pct = [], []
            for run in range(runs):
                split_seed, proj_seed = np.random.SeedSequence(
                    [seed, run]).spawn(2)
                train, test = split(ds, n_train, split_seed)
                train_n, test_n, _ = normalize(train, test)
                band = influence_band(p, mode)
                kept = train_n if band is None else remove_by_percentile(
                    train_n, band, mode)
                pmap = make_projection(ds.num_features, projection_dim,
                                       proj_seed)
                w, _ = ridge_solve(project(pmap, kept.features), kept.response,
                                   lam)
                vals.append(mse(project(pmap, test_n.features) @ w,
                                test_n.response))
                kept_pct.append(100.0 * kept.n / train.n)
            rows.append({
                "dataset": "dataset", "mode": mode, "percentile": float(p),
                "remaining_pct": float(np.mean(kept_pct)),
                "test_mse_mean": float(np.mean(vals)),
                "test_mse_std": float(np.std(vals)),
                "runs": runs, "error": None,
            })
    return rows


class TestRunInfluence:
    def test_p_zero_matches_baseline_in_both_modes(self, gaussian_spec):
        recs = run_influence(gaussian_spec, [0, 10], runs=2, lam=1e-3,
                             n_train=300, seed=4)
        by_key = {(r.mode, r.percentile): r for r in recs}
        out0 = by_key[("outliers", 0.0)]
        in0 = by_key[("inliers", 0.0)]
        assert out0.remaining_pct == in0.remaining_pct == 100.0
        assert out0.test_mse_mean == in0.test_mse_mean

    def test_remaining_decreases_with_p(self, gaussian_spec):
        recs = run_influence(gaussian_spec, [0, 5, 15], runs=1, lam=1e-3,
                             n_train=300, seed=4)
        for mode in ("outliers", "inliers"):
            curve = [r.remaining_pct for r in recs if r.mode == mode]
            assert curve == sorted(curve, reverse=True)

    def test_record_count(self, gaussian_spec):
        recs = run_influence(gaussian_spec, [0, 5], runs=1, lam=0.0,
                             n_train=300)
        assert len(recs) == 4  # 2 modes x 2 percentiles

    def test_bad_percentile(self, gaussian_spec):
        with pytest.raises(ValueError):
            run_influence(gaussian_spec, [60], runs=1, lam=0.0, n_train=300)

    @pytest.mark.parametrize("runs", [0, -2])
    def test_runs_below_one_rejected(self, gaussian_spec, runs):
        # once NaN records with no error
        with pytest.raises(ValueError, match="runs must be at least 1"):
            run_influence(gaussian_spec, [0], runs=runs, lam=0.0,
                          n_train=300)

    def test_map_that_cannot_be_built_raises(self, gaussian_spec):
        # once four records, each with make_projection's error
        with pytest.raises(ValueError, match="must be positive"):
            run_influence(gaussian_spec, [0, 5], runs=2, lam=1e-3,
                          n_train=300, projection_dim=0)

    @pytest.mark.parametrize("columns,bad", [
        ([9], 9), ([4], 4), ([0, -5], -5)], ids=["9", "d", "below-minus-d"])
    def test_band_column_outside_the_features_rejected_before_any_run(
            self, gaussian_spec, monkeypatch, columns, bad):
        # once records with an IndexError for every banded key
        splits = []
        monkeypatch.setattr(bench, "split",
                            lambda *args: splits.append(args))
        with pytest.raises(ValueError, match=f"band column {bad} is outside "
                                             "the 4 features"):
            run_influence(gaussian_spec, [0, 5], runs=2, lam=1e-3,
                          n_train=300, band_columns=columns)
        assert splits == []

    def test_negative_band_columns_count_from_the_end(self, gaussian_spec):
        records = [
            [r.row() for r in run_influence(gaussian_spec, [5, 15], runs=2,
                                            lam=1e-3, n_train=300,
                                            band_columns=columns)]
            for columns in ([1, 3], [-3, -1])]
        assert repr(records[0]) == repr(records[1])
        assert all(row["error"] is None for row in records[0])

    def test_one_map_per_run_with_unchanged_records(self, gaussian_spec,
                                                    monkeypatch):
        percentiles, runs = [0, 5, 15], 3
        expected = influence_reference(gaussian_spec, percentiles, runs,
                                       lam=1e-3, n_train=300, seed=6,
                                       projection_dim=12)
        maps = []

        def counting_make_projection(*args):
            maps.append(args)
            return make_projection(*args)

        monkeypatch.setattr(bench, "make_projection", counting_make_projection)
        recs = run_influence(gaussian_spec, percentiles, runs=runs, lam=1e-3,
                             n_train=300, seed=6, projection_dim=12)
        assert len(maps) == runs
        assert repr([r.row() for r in recs]) == repr(expected)


class TestEmitResults:
    def test_csv_round_trip_exact(self, tmp_path, tradeoff_records):
        out = tmp_path / "results.csv"
        emit_results(tradeoff_records, out, "csv", config={"seed": 7})
        with out.open() as fh:
            comment = fh.readline()
            assert comment.startswith("# config:")
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(tradeoff_records)
        for row, rec in zip(rows, tradeoff_records):
            assert float(row["test_mse_mean"]) == rec.test_mse_mean
            assert float(row["lambda"]) == rec.lam
            assert int(row["s"]) == rec.s

    def test_csv_schema(self, tmp_path, tradeoff_records):
        out = tmp_path / "results.csv"
        emit_results(tradeoff_records, out, "csv")
        with out.open() as fh:
            header = list(csv.reader(fh))[0]
        assert header == [
            "dataset", "s", "r", "tau", "rho_mode", "lambda", "D", "n_train",
            "shard_size", "runs", "test_mse_mean", "test_mse_std",
            "train_mse_mean", "unlearn_seconds_mean", "learn_seconds_mean",
            "affected_learners_mean", "cost_proxy", "test_mse_pre_mean",
            "error",
        ]

    def test_influence_schema(self, tmp_path, gaussian_spec):
        recs = run_influence(gaussian_spec, [0], runs=1, lam=0.0, n_train=300)
        out = tmp_path / "influence.csv"
        emit_results(recs, out, "csv")
        with out.open() as fh:
            header = list(csv.reader(fh))[0]
        assert header == [
            "dataset", "mode", "percentile", "remaining_pct", "test_mse_mean",
            "test_mse_std", "runs", "error",
        ]

    def test_json_fields(self, tmp_path, tradeoff_records):
        out = tmp_path / "results.json"
        emit_results(tradeoff_records, out, "json", config={"seed": 7})
        payload = json.loads(out.read_text())
        assert payload["config"] == {"seed": 7}
        emit_results(tradeoff_records, tmp_path / "results.csv", "csv")
        with (tmp_path / "results.csv").open() as fh:
            header = next(csv.reader(fh))
        assert list(payload["records"][0]) == header

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_results([], tmp_path / "x.csv")

    def test_loads_in_generic_plotting_pipeline(self, tmp_path,
                                                tradeoff_records):
        out = tmp_path / "results.csv"
        emit_results(tradeoff_records, out, "csv")
        data = np.genfromtxt(out, delimiter=",", names=True, comments="#",
                             dtype=None, encoding=None)
        assert "test_mse_mean" in data.dtype.names
