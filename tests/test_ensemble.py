import time

import numpy as np
import pytest

from codedunlearn import (
    AlreadyUnlearned,
    Dataset,
    DimensionMismatch,
    EnsembleModel,
    GeneratorMatrix,
    SingularSystem,
    UnknownSample,
    encode,
    learn,
    make_projection,
    predict,
    ridge_solve,
    unlearn,
    verify_perfect_unlearning,
)
from codedunlearn import ensemble, numerics


def make_train(n, d, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(rng.normal(size=(n, d)), rng.normal(size=n), np.arange(n))


def force_learner_blocks(monkeypatch, cpus):
    """Split every learner stack into min(cpus, r) blocks of one-learner
    chunks, whatever its size."""
    monkeypatch.setattr(numerics, "_available_cpus", lambda: cpus)
    monkeypatch.setattr(numerics, "LEARNER_WORK_PER_WORKER", 1)
    monkeypatch.setattr(numerics, "LEARNER_CHUNK_VALUES", 1)


class TestLearn:
    def test_single_shard_equals_single_learner(self):
        ds = make_train(30, 4)
        model, _, G = learn(ds, 1, 1, "minimal", 1e-2)
        w = ridge_solve(ds.features, ds.response, 1e-2)
        assert (model.weights[:, 0] == w).all()
        assert (model.agg == w).all()
        assert G.entries.tolist() == [[1]]

    def test_permutation_code_equals_uncoded_shards_bitwise(self):
        ds = make_train(24, 3, seed=5)
        model, store, G = learn(ds, 4, 4, "minimal", 1e-3, seed=8)
        nbar = 6
        # map each coded shard back to its single contributing uncoded shard
        for j in range(4):
            i = int(np.flatnonzero(G.entries[:, j])[0])
            w = ridge_solve(ds.features[i * nbar:(i + 1) * nbar],
                            ds.response[i * nbar:(i + 1) * nbar], 1e-3)
            assert (model.weights[:, j] == w).all()

    def test_deterministic_end_to_end(self):
        ds = make_train(40, 3, seed=2)
        m1, _, _ = learn(ds, 5, 1, "minimal", 0.0, seed=3)
        m2, _, _ = learn(ds, 5, 1, "minimal", 0.0, seed=3)
        assert (m1.weights == m2.weights).all()
        assert (m1.agg == m2.agg).all()

    def test_aggregate_is_column_mean(self):
        ds = make_train(40, 3, seed=2)
        model, _, _ = learn(ds, 8, 4, 0.5, 1e-2, seed=1)
        np.testing.assert_array_equal(model.agg, model.weights.mean(axis=1))


    @pytest.mark.parametrize("n", [160, 1024, 1200], ids=[
        "one-partial-slice", "whole-slices", "partial-last-slice"])
    def test_weights_equal_ridge_solve_bitwise(self, n):
        # s=4 shards of nbar = n/4 rows against slices of 4*D = 128 rows
        ds = make_train(n, 32, seed=n)
        model, store, _ = learn(ds, 4, 2, 0.5, 1e-2, seed=3)
        for j in range(2):
            w = ridge_solve(store.coded_features[j], store.coded_response[j],
                            1e-2)
            assert model.weights[:, j].tobytes() == w.tobytes()

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4], ids=lambda c: f"{c}cpus")
    def test_learner_blocks_equal_refit_bitwise(self, monkeypatch, cpus):
        # every learner its own chunk, in min(cpus, r) threaded blocks
        force_learner_blocks(monkeypatch, cpus)
        ds = make_train(1200, 32, seed=9)
        model, store, _ = learn(ds, 12, 5, 0.5, 1e-3, seed=4)
        assert model.weights.flags.c_contiguous
        for j in range(5):
            w = ridge_solve(store.coded_features[j], store.coded_response[j],
                            1e-3)
            assert model.weights[:, j].tobytes() == w.tobytes()
        unlearn(model, store, [3, 700])
        assert verify_perfect_unlearning(model, store).max_discrepancy == 0.0

    def test_overflowing_feature_refused(self):
        ds = make_train(40, 3, seed=2)
        ds.features[5, 1] = 1e200
        with pytest.raises(ValueError, match="overflow"):
            learn(ds, 4, 2, "minimal", 1e-3, seed=1)


class TestPredict:
    def test_zero_weights(self):
        ds = make_train(20, 3)
        model, _, _ = learn(ds, 2, 1, "minimal", 1e-2, seed=0)
        model.weights[:] = 0.0
        assert (predict(model, ds.features) == 0).all()

    def test_serves_the_mean_of_the_current_weights(self):
        # the aggregate is derived, so editing a learner moves predict
        ds = make_train(30, 3, seed=3)
        model, _, _ = learn(ds, 6, 3, 0.5, 1e-2, seed=2)
        model.weights[:, 1] *= 3.0
        assert predict(model, ds.features).tobytes() \
            == (ds.features @ model.weights.mean(axis=1)).tobytes()
        with pytest.raises(AttributeError):
            model.agg = np.zeros(3)

    def test_single_learner_mean(self):
        ds = make_train(20, 3)
        model, _, _ = learn(ds, 2, 1, "minimal", 1e-2, seed=0)
        direct = ds.features @ model.weights[:, 0]
        np.testing.assert_array_equal(predict(model, ds.features), direct)

    def test_agg_equals_mean_of_learner_predictions(self):
        ds = make_train(36, 4, seed=7)
        model, _, _ = learn(ds, 6, 3, 0.5, 1e-2, seed=2)
        per_learner = ds.features @ model.weights
        np.testing.assert_allclose(predict(model, ds.features),
                                   per_learner.mean(axis=1), atol=1e-10)

    def test_projection_applied_internally(self):
        ds = make_train(30, 3, seed=1)
        pmap = make_projection(3, 8, 4)
        model, _, _ = learn(ds, 3, 3, "minimal", 1e-2, projection=pmap, seed=5)
        preds = predict(model, ds.features)
        assert preds.shape == (30,)

    @pytest.mark.parametrize("projected", [False, True],
                             ids=["raw", "projected"])
    def test_one_dimensional_features_refused(self, projected):
        ds = make_train(30, 4, seed=1)
        pmap = make_projection(4, 8, 4) if projected else None
        model, _, _ = learn(ds, 3, 3, "minimal", 1e-2, projection=pmap,
                            seed=5)
        with pytest.raises(DimensionMismatch):
            predict(model, [1.0, 2.0, 3.0, 4.0])


class TestUnlearn:
    def test_minimal_density_touches_one_learner(self):
        ds = make_train(40, 3, seed=3)
        model, store, _ = learn(ds, 8, 2, "minimal", 1e-3, seed=9)
        _, _, report = unlearn(model, store, [5])
        assert report.num_affected == 1

    def test_affected_equals_row_weight(self):
        ds = make_train(40, 3, seed=3)
        model, store, G = learn(ds, 8, 4, 0.6, 1e-3, seed=10)
        victim = 17
        shard = store.locate([victim])[0] // store.shard_size
        _, _, report = unlearn(model, store, [victim])
        assert report.num_affected == len(G.entries[shard].nonzero()[0])

    def test_matches_full_relearn_with_same_code(self):
        ds = make_train(60, 4, seed=6)
        model, store, G = learn(ds, 6, 3, 0.5, 1e-3, seed=11)
        victims = [2, 13, 44]
        unlearn(model, store, victims)
        # oracle: encode the surviving samples with the same G and shard
        # layout (unlearned rows zeroed) and retrain everything
        fresh = np.empty_like(model.weights)
        for j in range(3):
            X, y = store.rebuild_coded_shard(j)
            fresh[:, j] = ridge_solve(X, y, 1e-3)
        rel = np.linalg.norm(model.agg - fresh.mean(axis=1)) \
            / np.linalg.norm(fresh.mean(axis=1))
        assert rel <= 1e-8

    def test_unknown_sample(self):
        ds = make_train(20, 2)
        model, store, _ = learn(ds, 4, 2, "minimal", 1e-3, seed=1)
        with pytest.raises(UnknownSample):
            unlearn(model, store, [999])

    @pytest.mark.parametrize("ids", [
        [1.5], [True], [1, True], [np.float64(2)], ["3"], [np.bool_(True)]],
        ids=["float", "bool", "int-then-bool", "np-float", "str", "np-bool"])
    def test_non_integer_id_refused_before_anything_changes(self, ids):
        ds = make_train(20, 2)
        model, store, _ = learn(ds, 4, 2, "minimal", 1e-3, seed=1)
        unlearn(model, store, [5])   # fills the Gram cache of a learner

        def state():
            return [store.alive.copy(), store.base_features.copy(),
                    store.base_response.copy(), store.coded_features.copy(),
                    store.coded_response.copy(), model.weights.copy(),
                    *[a.copy() for g in store.slice_grams.values()
                      for a in g]]

        before = state()
        with pytest.raises(UnknownSample, match="not an integer"):
            unlearn(model, store, ids)
        for a, b in zip(state(), before, strict=True):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("u", [-1, 20, 2**70])
    def test_unknown_sample_in_batch_marks_nothing(self, u):
        # ids below, above and beyond the int64 range of the sorted index
        ds = make_train(20, 2)
        model, store, _ = learn(ds, 4, 2, "minimal", 1e-3, seed=1)
        with pytest.raises(UnknownSample, match=str(u)):
            unlearn(model, store, [3, u])
        assert store.alive.all()

    def test_already_unlearned(self):
        ds = make_train(20, 2)
        model, store, _ = learn(ds, 4, 2, "minimal", 1e-3, seed=1)
        unlearn(model, store, [3])
        with pytest.raises(AlreadyUnlearned):
            unlearn(model, store, [3])

    def test_dropped_sample_is_unknown(self):
        ds = make_train(10, 2)
        model, store, _ = learn(ds, 3, 2, "minimal", 1e-3, seed=1)
        assert store.dropped_ids == [9]
        with pytest.raises(UnknownSample):
            unlearn(model, store, [9])

    def test_unlearned_sample_has_no_influence(self):
        # perturbing the unlearned sample's stored values must not change
        # the live model, nor what a later unlearn in its shard computes;
        # verify rebuilds from the stored rows, so a store that still holds
        # a forgotten sample's values is not perfectly unlearned
        ds = make_train(30, 3, seed=8)
        model, store, _ = learn(ds, 5, 5, "minimal", 1e-3, seed=2)
        twin, twin_store, _ = learn(ds, 5, 5, "minimal", 1e-3, seed=2)
        for m, st in ((model, store), (twin, twin_store)):
            unlearn(m, st, [7])
        weights, preds = model.weights.copy(), predict(model, ds.features)
        before = verify_perfect_unlearning(model, store)
        row = store.locate([7])[0]
        store.base_features[row] = 1e9
        store.base_response[row] = -1e9
        assert model.weights.tobytes() == weights.tobytes()
        assert predict(model, ds.features).tobytes() == preds.tobytes()
        for m, st in ((model, store), (twin, twin_store)):
            unlearn(m, st, [8])   # same uncoded shard as 7
        assert model.weights.tobytes() == twin.weights.tobytes()
        assert before.passed and before.max_discrepancy == 0.0
        assert verify_perfect_unlearning(model, store).passed is False
        assert verify_perfect_unlearning(twin, twin_store).max_discrepancy \
            == 0.0

    def test_total_seconds_is_the_whole_call(self, monkeypatch):
        # the row rebuilds lie outside the solve phase, so slowing them
        # shows in total_seconds and not in the solve
        ds = make_train(60, 3, seed=3)
        model, store, _ = learn(ds, 6, 3, 0.5, 1e-3, seed=1)
        rebuild = store.rebuild_coded_row

        def slow_rebuild(j, row):
            time.sleep(0.002)
            return rebuild(j, row)

        monkeypatch.setattr(store, "rebuild_coded_row", slow_rebuild)
        _, _, report = unlearn(model, store, [4, 20, 41])
        solves = report.phase_seconds["solve"]
        assert list(report.phase_seconds) == list(ensemble.PHASES)
        assert report.num_affected > 0
        assert report.total_seconds >= sum(report.phase_seconds.values())
        assert report.total_seconds >= solves
        assert report.total_seconds >= solves + 0.002 * report.num_affected
        assert report.phase_seconds["rebuild_rows"] \
            >= 0.002 * report.num_affected

    def test_failed_unlearn_leaves_state_untouched(self):
        # lam=0 with an identity code: forgetting every row of shard 0
        # empties coded shard 0, so its solve raises SingularSystem
        ds = make_train(40, 3, seed=14)
        G = GeneratorMatrix(4, 4, np.eye(4, dtype=int), 0.25)
        store = encode(ds.features, ds.response, ds.ids, G)
        weights = np.ascontiguousarray(
            ridge_solve(store.coded_features, store.coded_response, 0.0).T)
        model = EnsembleModel(weights, 0.0, G)
        unlearn(model, store, [25])
        nbar = store.shard_size
        shard0_ids = store.ids[:nbar].tolist()

        def state():
            return [store.alive.copy(),
                    store.base_features.copy(), store.base_response.copy(),
                    *[c.copy() for c in store.coded_features],
                    *[c.copy() for c in store.coded_response],
                    model.weights.copy(), model.agg.copy()]

        before = state()
        with pytest.raises(SingularSystem):
            unlearn(model, store, shard0_ids)
        for a, b in zip(state(), before, strict=True):
            assert a.tobytes() == b.tobytes()
        assert verify_perfect_unlearning(model, store).max_discrepancy == 0.0
        other = int(store.ids[nbar:2 * nbar][store.alive[nbar:2 * nbar]][0])
        _, _, report = unlearn(model, store, [other])
        assert report.affected_learners == [1]
        assert verify_perfect_unlearning(model, store).max_discrepancy == 0.0

    @pytest.mark.parametrize("lam", [0.0, 1e-3])
    def test_forgotten_rows_are_zero_while_learners_are_solved(
            self, monkeypatch, lam):
        ds = make_train(60, 3, seed=3)
        model, store, _ = learn(ds, 6, 3, 0.5, lam, seed=1)
        victims = [4, 20, 41]
        pos = store.locate(victims)
        seen = []
        # the batched solve of every affected learner: their slice products
        # with lam > 0, their coded shards with lam = 0
        seam = "solve_normal" if lam else "solve_stack"
        solve = getattr(ensemble, seam)

        def recording_solve(stack, *args):
            seen.extend([(store.base_features[pos].tobytes(),
                          store.base_response[pos].tobytes(),
                          store.alive[pos].tolist())] * len(stack))
            return solve(stack, *args)

        monkeypatch.setattr(ensemble, seam, recording_solve)
        _, _, report = unlearn(model, store, victims)
        assert len(seen) == report.num_affected > 0
        # +0.0 exactly: tobytes tells -0.0 apart from it
        assert seen == [(bytes(8 * 3 * 3), bytes(8 * 3), [False] * 3)] \
            * len(seen)

    def test_failed_unlearn_restores_rows_bitwise(self, monkeypatch):
        # a forgotten row that held -0.0 comes back as -0.0, and the coded
        # rows rebuilt from it come back as they were
        ds = make_train(60, 3, seed=3)
        ds.features[20], ds.response[20] = -0.0, -0.0
        model, store, _ = learn(ds, 6, 3, 0.5, 1e-3, seed=1)
        unlearn(model, store, [7])   # fills a learner's Gram cache
        before = TestSliceCache.state(model, store)

        def failing_solve(*args):
            raise FloatingPointError("injected")

        monkeypatch.setattr(ensemble, "solve_normal", failing_solve)
        with pytest.raises(FloatingPointError):
            unlearn(model, store, [4, 20, 41])
        assert TestSliceCache.state(model, store) == before
        row = store.locate([20])[0]
        assert store.base_features[row].tobytes() \
            == np.full(3, -0.0).tobytes()
        assert store.base_response[row].tobytes() \
            == np.float64(-0.0).tobytes()


class TestVerify:
    def test_zero_discrepancy_without_unlearning(self):
        ds = make_train(40, 3, seed=4)
        model, store, _ = learn(ds, 4, 2, "minimal", 1e-2, seed=6)
        report = verify_perfect_unlearning(model, store)
        assert report.passed and report.max_discrepancy == 0.0

    @pytest.mark.parametrize("error", [ValueError, np.linalg.LinAlgError,
                                       SingularSystem])
    def test_failing_reference_solve_is_reported_not_raised(
            self, monkeypatch, error):
        # e.g. a forgotten row left at 1e9 can make a rebuilt shard's
        # normal equations singular; verify reports that learner as NaN,
        # which fails, rather than raising
        ds = make_train(40, 3, seed=4)
        model, store, _ = learn(ds, 4, 3, 0.6, 1e-3, seed=6)
        calls = []

        def failing_second_solve(X, y, lam):
            # verify solves a stack of learners, and a stack that fails is
            # solved again one learner at a time; the second learner's
            # solve fails, and so does every stack that holds it
            if len(X) > 1:
                raise error("reference solve failed")
            calls.append(lam)
            if len(calls) == 2:
                raise error("reference solve failed")
            return ridge_solve(X, y, lam)

        monkeypatch.setattr(ensemble, "solve_stack", failing_second_solve)
        report = verify_perfect_unlearning(model, store)
        assert len(calls) == 3
        assert report.passed is False
        assert report.per_learner[[0, 2]].tolist() == [0.0, 0.0]
        assert np.isnan(report.per_learner[1])
        assert np.isnan(report.agg_discrepancy)

    @pytest.mark.parametrize("cpus", [1, 2, 4], ids=lambda c: f"{c}cpus")
    def test_learner_with_overflowing_sums_alone_is_nan(self, monkeypatch,
                                                        cpus):
        force_learner_blocks(monkeypatch, cpus)
        ds = make_train(400, 3, seed=4)
        model, store, G = learn(ds, 8, 4, "minimal", 1e-3, seed=6)
        j = int(G.entries[2].argmax())     # the one learner shard 2 feeds
        store.base_features[2 * store.shard_size] = 1e200   # X'X overflows
        report = verify_perfect_unlearning(model, store)
        assert not report.passed
        assert np.isnan(report.per_learner[j])
        assert np.delete(report.per_learner, j).tolist() == [0.0] * 3

    @pytest.mark.parametrize("tolerance", [np.nan, -1e-300, -np.inf])
    def test_tolerance_outside_nonnegative_reals_refused(self, tolerance):
        ds = make_train(40, 3, seed=4)
        model, store, _ = learn(ds, 4, 2, "minimal", 1e-2, seed=6)
        with pytest.raises(ValueError, match="tolerance must be nonnegative"):
            verify_perfect_unlearning(model, store, tolerance)

    def test_nan_aggregate_fails(self):
        ds = make_train(40, 3, seed=4)
        model, store, _ = learn(ds, 4, 2, "minimal", 1e-2, seed=6)
        model.weights[0, 1] = np.nan
        report = verify_perfect_unlearning(model, store)
        assert not report.passed
        assert np.isnan(report.max_discrepancy)

    def test_passes_after_single_unlearn(self):
        ds = make_train(40, 3, seed=4)
        model, store, _ = learn(ds, 4, 2, 0.5, 1e-2, seed=6)
        unlearn(model, store, [11])
        assert verify_perfect_unlearning(model, store).passed

    def test_unlearning_entire_shard(self):
        ds = make_train(24, 3, seed=12)
        model, store, G = learn(ds, 4, 2, 0.75, 1e-2, seed=13)
        shard0_ids = store.ids[:store.shard_size].tolist()
        unlearn(model, store, shard0_ids)
        assert verify_perfect_unlearning(model, store).passed
        # affected coded rows now equal the sum of remaining contributors
        nbar = store.shard_size
        for j in range(2):
            if not G.entries[0, j]:
                continue
            expected = np.zeros((nbar, 3))
            for i in range(1, 4):
                expected = expected + G.entries[i, j] \
                    * ds.features[i * nbar:(i + 1) * nbar]
            np.testing.assert_allclose(store.coded_features[j], expected,
                                       atol=1e-12)

    def test_projection_map_untouched_by_unlearning(self):
        ds = make_train(30, 3, seed=1)
        pmap = make_projection(3, 10, 3)
        model, store, _ = learn(ds, 3, 3, "minimal", 1e-2,
                                projection=pmap, seed=5)
        directions = pmap.directions.copy()
        offsets = pmap.offsets.copy()
        unlearn(model, store, [4])
        assert model.projection is pmap
        assert (pmap.directions == directions).all()
        assert (pmap.offsets == offsets).all()
        assert verify_perfect_unlearning(model, store).passed


class TestSliceCache:
    @staticmethod
    def unlearned(rho, seed=21):
        # nbar = 300 rows against slices of 4*D = 128: the last is partial
        rng = np.random.default_rng(seed)
        n = 3605
        ds = Dataset(rng.normal(size=(n, 32)), rng.normal(size=n),
                     rng.permutation(n) * 2 + 1)
        model, store, _ = learn(ds, 12, 5, rho, 1e-3, seed=8)
        for k in range(10):
            batch = rng.choice(store.ids[store.alive], size=[1, 3, 17][k % 3],
                               replace=False)
            unlearn(model, store, batch.tolist())
        return model, store

    @staticmethod
    def state(model, store):
        cache = [a for j in sorted(store.slice_grams)
                 for a in store.slice_grams[j]]
        return [a.tobytes() for a in (
            model.weights, model.agg, store.coded_features,
            store.coded_response, store.alive, store.base_features,
            store.base_response, np.array(sorted(store.slice_grams)),
            *cache)]

    # at rho 0.9 every column has 10 or 11 contributing shards, so each
    # rebuilt row is a sum numpy's reduce would take pairwise
    @pytest.mark.parametrize("rho", ["minimal", 0.5, 0.9])
    def test_cache_equals_products_of_live_shards(self, rho):
        model, store = self.unlearned(rho)
        assert store.slice_grams
        for j, (grams, rhs) in store.slice_grams.items():
            X, y = store.coded_features[j], store.coded_response[j]
            fresh_grams, fresh_rhs = numerics._slice_products(X, y)
            assert grams.shape == (3, 32, 32)
            assert grams.tobytes() == fresh_grams.tobytes()
            assert rhs.tobytes() == fresh_rhs.tobytes()
            assert model.weights[:, j].tobytes() \
                == ridge_solve(X, y, 1e-3).tobytes()
        assert verify_perfect_unlearning(model, store).max_discrepancy == 0.0

    def test_mixed_request_equals_products_of_live_shards(self):
        # one request under a Bernoulli code that retrains cached and
        # uncached learners, touches a partial last slice and holds two
        # ids of one slice; two of its learners are cached, so their
        # touched slices are gathered, and its learners are not adjacent,
        # so the solve reads a copy of their stack
        rng = np.random.default_rng(4)
        ds = Dataset(rng.normal(size=(3600, 32)), rng.normal(size=3600),
                     np.arange(3600))
        model, store, G = learn(ds, 12, 5, 0.5, 1e-3, seed=8)
        cols = [set(row.nonzero()[0].tolist()) for row in G.entries]
        nbar = store.shard_size     # 300: slices of 128, 128 and 44 rows
        a, b = next((a, b) for a in range(12) for b in range(12)
                    if len(cols[b] & cols[a]) >= 2 and cols[b] - cols[a]
                    and max(cols[b]) - min(cols[b]) >= len(cols[b]))
        unlearn(model, store, [a * nbar])
        assert sorted(store.slice_grams) == sorted(cols[a])
        _, _, report = unlearn(model, store,
                               [b * nbar + 10, b * nbar + 20, b * nbar + 280])
        assert report.affected_learners == sorted(cols[b])
        assert sorted(store.slice_grams) == sorted(cols[a] | cols[b])
        for j in range(5):
            X, y = store.coded_features[j], store.coded_response[j]
            assert model.weights[:, j].tobytes() \
                == ridge_solve(X, y, 1e-3).tobytes()
            if j in store.slice_grams:
                fresh = numerics._slice_products(X, y)
                for cached, want in zip(store.slice_grams[j], fresh,
                                        strict=True):
                    assert cached.tobytes() == want.tobytes()
        assert verify_perfect_unlearning(model, store).max_discrepancy == 0.0

    def test_unregularized_unlearn_leaves_cache_empty(self):
        rng = np.random.default_rng(6)
        ds = Dataset(rng.normal(size=(600, 4)), rng.normal(size=600),
                     np.arange(600))
        model, store, _ = learn(ds, 6, 3, 0.5, 0.0, seed=2)
        _, _, report = unlearn(model, store, [7, 250, 590])
        assert report.affected_learners
        assert store.slice_grams == {}
        assert verify_perfect_unlearning(model, store).max_discrepancy == 0.0

    def test_failed_solve_leaves_model_store_and_cache_untouched(
            self, monkeypatch):
        rng = np.random.default_rng(4)
        ds = Dataset(rng.normal(size=(3600, 32)), rng.normal(size=3600),
                     np.arange(3600))
        model, store, G = learn(ds, 12, 5, 0.5, 1e-3, seed=8)
        cols = [set(row.nonzero()[0]) for row in G.entries]
        nbar = store.shard_size
        # warm the cache through shard a, then forget from shard b, which
        # feeds a cached learner and one that is not, so the failing
        # request mixes both paths
        a, b = next((a, b) for a in range(12) for b in range(12)
                    if cols[b] & cols[a] and cols[b] - cols[a])
        unlearn(model, store, [a * nbar])
        victim = int(store.ids[b * nbar + 150])   # slice 1 of 3
        before = self.state(model, store)
        calls = []

        def fail(*args):
            calls.append(1)
            raise FloatingPointError("injected")

        monkeypatch.setattr(ensemble, "solve_normal", fail)
        with pytest.raises(FloatingPointError):
            unlearn(model, store, [victim])
        assert len(calls) == 1
        assert self.state(model, store) == before
        monkeypatch.undo()
        _, _, report = unlearn(model, store, [victim])
        assert report.affected_learners == sorted(cols[b])
        assert verify_perfect_unlearning(model, store).max_discrepancy == 0.0
