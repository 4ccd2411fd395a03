import hashlib
from fractions import Fraction

import numpy as np
import pytest

from codedunlearn import (
    CodedUnlearnError,
    Dataset,
    DensityOutOfRange,
    NonTermination,
    RankDeficient,
    TooFewSamples,
    UnknownSample,
    binary_rank,
    encode,
    learn,
    rand_matrix,
    rand_matrix_minimal,
    unlearn,
)
from codedunlearn import coding
from codedunlearn.coding import CodedStore, GeneratorMatrix


def check_conditions(G):
    assert np.isin(G.entries, (0, 1)).all()
    assert not (G.entries.sum(axis=1) == 0).any()
    assert binary_rank(G.entries) == G.coded_shards


class TestRandMatrix:
    def test_one_by_one(self):
        G = rand_matrix(1, 1, 1.0, 0)
        assert G.entries.tolist() == [[1]]

    def test_conditions_hold(self):
        G = rand_matrix(4, 2, 0.5, 123)
        check_conditions(G)

    def test_deterministic(self):
        a = rand_matrix(6, 3, 0.5, 5)
        b = rand_matrix(6, 3, 0.5, 5)
        assert (a.entries == b.entries).all()

    def test_all_ones_density_is_refused(self):
        # rho=1 draws only the all-ones matrix, of rank 1, so for r >= 2 the
        # rank loop could only exhaust its guard: refused before any draw
        with pytest.raises(DensityOutOfRange, match=r"outside \[1/2, 1\)"):
            rand_matrix(4, 2, 1.0, 0)

    def test_all_ones_density_is_the_one_density_for_one_column(self):
        assert (rand_matrix(3, 1, 1.0, 0).entries == 1).all()
        with pytest.raises(DensityOutOfRange, match="must be 1 for r=1"):
            rand_matrix(3, 1, 0.5, 0)

    def test_guard_exhausted_raises_non_termination(self, monkeypatch):
        # a rank check that rejects every draw ends the loop at the guard
        calls = []

        def rank_zero(G):
            calls.append(G.shape)
            return 0

        monkeypatch.setattr(coding, "binary_rank", rank_zero)
        with pytest.raises(NonTermination, match="after 200 draws"):
            rand_matrix(4, 2, 0.9, 0, guard=200)
        assert 0 < len(calls) <= 200

    @pytest.mark.parametrize("seed", range(5))
    def test_one_rank_check_per_draw(self, monkeypatch, seed):
        # A draw with an all-zero row is rejected before any rank check,
        # and a 50x10 Bernoulli(0.5) draw without one is full rank, so the
        # accepted draw is the only one whose rank is computed.
        calls = []

        def counting_rank(G):
            calls.append(G.shape)
            return binary_rank(G)

        monkeypatch.setattr(coding, "binary_rank", counting_rank)
        G = rand_matrix(50, 10, 0.5, seed)
        assert calls == [(50, 10)]
        check_conditions(G)

    def test_density_below_minimum_rejected(self):
        with pytest.raises(DensityOutOfRange):
            rand_matrix(8, 4, 0.1, 0)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            rand_matrix(2, 3, 0.5, 0)


class TestRandMatrixMinimal:
    def test_square_is_permutation(self):
        G = rand_matrix_minimal(5, 5, 3)
        assert (G.entries.sum(axis=0) == 1).all()
        assert (G.entries.sum(axis=1) == 1).all()

    def test_row_weight_one_and_columns_covered(self):
        G = rand_matrix_minimal(4, 2, 11)
        assert (G.entries.sum(axis=1) == 1).all()
        assert (G.entries.sum(axis=0) >= 1).all()
        check_conditions(G)


class TestGeneratorMatrix:
    def test_rejects_zero_row(self):
        with pytest.raises(ValueError, match="all-zero row"):
            GeneratorMatrix(2, 2, np.array([[1, 1], [0, 0]]), 0.5)

    def test_rejects_rank_deficient(self):
        with pytest.raises(ValueError, match="full column rank"):
            GeneratorMatrix(3, 2, np.array([[1, 1], [1, 1], [1, 1]]), 1.0)

    def test_rank_deficient_is_a_package_error(self):
        # a caller catching the package's base class catches it too
        try:
            GeneratorMatrix(2, 2, [[1, 1], [1, 1]], 0.5)
        except CodedUnlearnError as exc:
            assert isinstance(exc, RankDeficient)
        else:
            pytest.fail("a rank-deficient generator was accepted")

    def test_rejects_nonbinary(self):
        with pytest.raises(ValueError):
            GeneratorMatrix(2, 2, np.array([[1, 0], [0, 2]]), 0.5)

    def test_rejects_fraction_before_int_cast(self):
        # cast first, 1.7 would be accepted as 1
        with pytest.raises(ValueError, match="0 or 1"):
            GeneratorMatrix(2, 2, [[1.7, 0], [0, 1]], 0.5)


class TestRate:
    # the rate s/r is the uncoded-to-coded shard (and sample) compression
    # factor
    def test_paper_rate(self):
        G = rand_matrix_minimal(10, 2, 0)
        assert Fraction(G.uncoded_shards, G.coded_shards) == 5

    def test_unit_rate(self):
        G = rand_matrix_minimal(4, 4, 0)
        assert Fraction(G.uncoded_shards, G.coded_shards) == 1

    def test_accounting_identity(self):
        # tau == n_used / m for the coded sample counts
        rng = np.random.default_rng(0)
        for _ in range(10):
            s = int(rng.integers(2, 12))
            r = int(rng.integers(1, s + 1))
            G = rand_matrix_minimal(s, r, int(rng.integers(1 << 30)))
            nbar = 7
            assert Fraction(G.uncoded_shards, G.coded_shards) \
                == Fraction(s * nbar, r * nbar)


def make_train(n, d, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(rng.normal(size=(n, d)), rng.normal(size=n), np.arange(n))


class TestEncode:
    def test_single_shard_identity(self):
        ds = make_train(6, 2)
        G = GeneratorMatrix(1, 1, np.array([[1]]), 1.0)
        store = encode(ds.features, ds.response, ds.ids, G)
        assert (store.coded_features[0] == ds.features).all()
        assert (store.coded_response[0] == ds.response).all()

    def test_two_shard_sum(self):
        ds = make_train(8, 3)
        G = GeneratorMatrix(2, 1, np.array([[1], [1]]), 1.0)
        store = encode(ds.features, ds.response, ds.ids, G)
        expected = ds.features[:4] + ds.features[4:]
        assert (store.coded_features[0] == expected).all()

    def test_matches_brute_force_sum(self):
        ds = make_train(12, 2, seed=4)
        G = rand_matrix(3, 2, 0.6, 7)
        store = encode(ds.features, ds.response, ds.ids, G)
        nbar = 4
        for j in range(2):
            expected = np.zeros((nbar, 2))
            for i in range(3):
                expected = expected + G.entries[i, j] * ds.features[i * nbar:(i + 1) * nbar]
            np.testing.assert_array_equal(store.coded_features[j], expected)

    def test_drops_remainder(self):
        ds = make_train(10, 2)
        G = rand_matrix_minimal(3, 2, 0)
        store = encode(ds.features, ds.response, ds.ids, G)
        assert store.shard_size == 3
        assert store.dropped_ids == [9]
        assert store.locate(range(9)).tolist() == list(range(9))
        with pytest.raises(UnknownSample):
            store.locate([9])

    def test_identity_generator_degenerates_to_uncoded(self):
        ds = make_train(9, 2)
        G = GeneratorMatrix(3, 3, np.eye(3, dtype=int), 1 / 3)
        store = encode(ds.features, ds.response, ds.ids, G)
        for j in range(3):
            assert (store.coded_features[j] == ds.features[j * 3:(j + 1) * 3]).all()

    def test_too_few_samples(self):
        ds = make_train(2, 2)
        G = rand_matrix_minimal(3, 2, 0)
        with pytest.raises(TooFewSamples):
            encode(ds.features, ds.response, ds.ids, G)

    def test_reconstruction_invariant_exact(self):
        ds = make_train(20, 3, seed=9)
        G = rand_matrix(4, 2, 0.7, 1)
        store = encode(ds.features, ds.response, ds.ids, G)
        for j in range(2):
            X, y = store.rebuild_coded_shard(j)
            assert (X == store.coded_features[j]).all()
            assert (y == store.coded_response[j]).all()


class TestStructuralProperties:
    def test_many_seeded_draws(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            s = int(rng.integers(1, 20))
            r = int(rng.integers(1, s + 1))
            seed = int(rng.integers(1 << 30))
            if rng.random() < 0.5:
                G = rand_matrix_minimal(s, r, seed)
                assert (G.entries.sum(axis=1) == 1).all()
            else:
                # moderate densities: rho near 1 makes square codes
                # near-singular and the rejection loop impractically slow
                rho = max(1.0 / r, float(rng.uniform(0.3, 0.75)))
                G = rand_matrix(s, r, rho, seed)
            check_conditions(G)


def surviving_shard_by_loop(store, i):
    """Row-by-row reference for CodedStore.surviving_shard."""
    lo = i * store.shard_size
    X = store.base_features[lo:lo + store.shard_size].copy()
    y = store.base_response[lo:lo + store.shard_size].copy()
    for row in range(store.shard_size):
        if not store.alive[lo + row]:
            X[row] = 0.0
            y[row] = 0.0
    return X, y


class TestSurvivingShard:
    @pytest.mark.parametrize("unlearned", [set(), {0}, {3, 4, 11, 19}])
    def test_matches_loop_reference_bitwise(self, unlearned):
        ds = make_train(21, 3, seed=4)
        store = encode(ds.features, ds.response, ds.ids,
                       rand_matrix(4, 2, 0.7, 1))
        # mark ids unlearned without zeroing their rows: the mask is alive
        store.alive[store.locate(sorted(unlearned))] = False
        for i in range(4):
            X, y = store.surviving_shard(i)
            X_ref, y_ref = surviving_shard_by_loop(store, i)
            assert X.tobytes() == X_ref.tobytes()
            assert y.tobytes() == y_ref.tobytes()


class TestEncoder:
    def test_from_base_masks_by_alive_not_by_zeroed_rows(self):
        ds = make_train(24, 3, seed=6)
        G = rand_matrix(4, 3, 0.6, 2)
        dead = [1, 8, 19]
        alive = np.ones(24, dtype=bool)
        alive[dead] = False
        # construction zeroes the rows it is given in place, so each store
        # gets its own copy and the twin is zeroed from the original values
        masked = CodedStore(G, ds.features.copy(), ds.response.copy(),
                            ds.ids, [], alive)
        X0, y0 = ds.features.copy(), ds.response.copy()
        X0[dead], y0[dead] = 0.0, 0.0
        zeroed = CodedStore(G, X0, y0, ds.ids, [], np.ones(24, dtype=bool))
        for j in range(3):
            assert masked.coded_features[j].tobytes() \
                == zeroed.coded_features[j].tobytes()
            assert masked.coded_response[j].tobytes() \
                == zeroed.coded_response[j].tobytes()
        assert masked.coded_features.shape == (3, 6, 3)
        assert masked.coded_response.shape == (3, 6)

    def test_construction_zeroes_unlearned_rows(self):
        ds = make_train(24, 3, seed=6)
        X, y = ds.features.copy(), ds.response.copy()
        dead = [1, 8, 19]
        X[1], y[1] = np.nan, np.nan
        X[8], y[8] = -0.0, -0.0
        alive = np.ones(24, dtype=bool)
        alive[dead] = False
        store = CodedStore(rand_matrix(4, 3, 0.6, 2), X, y, ds.ids, [],
                           alive)
        # +0.0 exactly: tobytes tells -0.0 and NaN apart from it
        assert store.base_features[dead].tobytes() == bytes(8 * 3 * 3)
        assert store.base_response[dead].tobytes() == bytes(8 * 3)
        assert store.base_features[alive].tobytes() \
            == ds.features[alive].tobytes()
        assert store.base_response[alive].tobytes() \
            == ds.response[alive].tobytes()
        assert np.isfinite(store.coded_features).all()
        assert np.isfinite(store.coded_response).all()

    @pytest.mark.parametrize("G", [rand_matrix(6, 3, 0.6, 2),
                                   rand_matrix_minimal(6, 4, 5),
                                   GeneratorMatrix(1, 1, np.ones((1, 1)), 1)],
                             ids=["bernoulli", "minimal", "single"])
    def test_mask_free_encoder_equals_masked_loop_bitwise(self, G):
        rng = np.random.default_rng(13)
        n = 36
        X, y = rng.normal(size=(n, 4)), rng.normal(size=n)
        alive = rng.random(n) < 0.7
        alive[:6] = False   # uncoded shard 0 wholly unlearned
        X_held, y_held = X.copy(), y.copy()
        dead = (~alive).nonzero()[0]
        X[dead[::3]], y[dead[::3]] = np.nan, np.nan
        X[dead[1::3]], y[dead[1::3]] = -0.0, -0.0
        store = CodedStore(G, X, y, np.arange(n), [], alive)
        s, r = G.entries.shape
        nbar = n // s
        ref_X, ref_y = np.zeros((r, nbar, 4)), np.zeros((r, nbar))
        for j in range(r):
            for i in range(s):
                if not G.entries[i, j]:
                    continue
                for row in range(nbar):
                    p = i * nbar + row
                    if alive[p]:
                        ref_X[j, row] += X_held[p]
                        ref_y[j, row] += y_held[p]
        assert store.coded_features.tobytes() == ref_X.tobytes()
        assert store.coded_response.tobytes() == ref_y.tobytes()
        for j in range(r):
            X_j, y_j = store.rebuild_coded_shard(j)
            assert X_j.tobytes() == ref_X[j].tobytes()
            assert y_j.tobytes() == ref_y[j].tobytes()
            for row in range(nbar):   # the one-row rebuild is unmasked too
                x, yv = store.rebuild_coded_row(j, row)
                assert x.tobytes() == ref_X[j, row].tobytes()
                assert np.float64(yv).tobytes() == ref_y[j, row].tobytes()

    @pytest.mark.parametrize("G", [
        rand_matrix(6, 3, 0.5, 4),
        rand_matrix_minimal(6, 3, 1),
        # column 2 has one contributor, shard 2, which is all -0.0 below
        GeneratorMatrix(6, 3, np.array([[1, 0, 0], [1, 1, 0], [0, 1, 1],
                                        [1, 0, 0], [0, 1, 0], [1, 1, 0]]),
                        0.5),
    ], ids=["bernoulli", "minimal", "one-contributor"])
    def test_encoder_equals_zeros_plus_ascending_adds_bitwise(self, G):
        s, r = G.entries.shape
        nbar, d = 5, 4
        rng = np.random.default_rng(9)
        X, y = rng.normal(size=(s * nbar, d)), rng.normal(size=s * nbar)
        X[0], y[0] = -0.0, -0.0                 # a first term's row
        X[2 * nbar:3 * nbar], y[2 * nbar:3 * nbar] = -0.0, -0.0
        ref_X, ref_y = np.zeros((r, nbar, d)), np.zeros((r, nbar))
        for i, j in zip(*G.entries.nonzero()):
            ref_X[j] = ref_X[j] + X[i * nbar:(i + 1) * nbar]
            ref_y[j] = ref_y[j] + y[i * nbar:(i + 1) * nbar]
        coded_X, coded_y = coding._encode(X, y, G.entries)
        assert coded_X.tobytes() == ref_X.tobytes()
        assert coded_y.tobytes() == ref_y.tobytes()
        for j in range(r):
            if G.entries[:, j].nonzero()[0].tolist() == [2]:
                assert coded_X[j].tobytes() == bytes(8 * nbar * d)   # +0.0
        store = CodedStore(G, X, y, np.arange(s * nbar), [],
                           np.ones(s * nbar, dtype=bool))
        for lo, hi in ((0, r), (1, r), (r - 1, r)):
            part_X, part_y = store.rebuild_coded_shards(lo, hi)
            assert part_X.tobytes() == ref_X[lo:hi].tobytes()
            assert part_y.tobytes() == ref_y[lo:hi].tobytes()

    def test_row_rebuild_of_many_contributors_is_the_encoders_sum(self):
        # 16 shards feed column 0, where np.add.reduce would sum each row
        # pairwise; magnitudes spread over 16 decades make most such sums
        # round differently from the encoder's ascending one
        s, nbar, d = 16, 40, 3
        entries = np.zeros((s, 2), dtype=int)
        entries[:, 0] = 1
        entries[::2, 1] = 1
        G = GeneratorMatrix(s, 2, entries, 0.75)
        rng = np.random.default_rng(3)
        n = s * nbar
        X = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-8, 8, (n, d))
        y = rng.normal(size=n) * 10.0 ** rng.uniform(-8, 8, n)
        X[0], y[0] = -0.0, -0.0            # the first contributor of row 0
        X[1::nbar], y[1::nbar] = -0.0, -0.0   # every contributor of row 1
        store = CodedStore(G, X, y, np.arange(n), [], np.ones(n, dtype=bool))
        ref_X, ref_y = store.rebuild_coded_shards(0, 2)
        assert ref_X[0, 1].tobytes() == bytes(8 * d)   # +0.0, as encoded
        for j in range(2):
            for row in range(nbar):
                x, yv = store.rebuild_coded_row(j, row)
                assert x.tobytes() == ref_X[j, row].tobytes()
                assert np.float64(yv).tobytes() == ref_y[j, row].tobytes()
            for rows in (np.array([1]), np.array([0, 1, 7, 39, 5])):
                xs, ys = store.rebuild_coded_row(j, rows)
                assert xs.tobytes() == ref_X[j, rows].tobytes()
                assert ys.tobytes() == ref_y[j, rows].tobytes()

    # sha256 of the coded shards, base rows and alive after a seeded learn
    # and 10 unlearn batches, recorded before the shards were stacked into
    # one array.  They are fixed-order elementwise sums, so the digest does
    # not depend on the BLAS; the weights, which do, are left out.
    @pytest.mark.parametrize("rho,digest", [
        ("minimal",
         "dceddb16e3a75cc112307743d36eff0cee96cb8588cb31ac44816623fac39537"),
        (0.5,
         "3b954b0754eb7f74d5c5f80376603ce2fb7c7ef5df9fa84ece98fe61e2da0601"),
    ])
    def test_store_digest_after_unlearn_batches(self, rho, digest):
        rng = np.random.default_rng(21)
        n = 605
        ds = Dataset(rng.normal(size=(n, 5)), rng.normal(size=n),
                     rng.permutation(n) * 2 + 1)
        model, store, _ = learn(ds, 12, 5, rho, 1e-3, seed=8)
        for k in range(10):
            batch = rng.choice(store.ids[store.alive], size=[1, 3, 17][k % 3],
                               replace=False)
            unlearn(model, store, batch.tolist())
        h = hashlib.sha256()
        for a in (np.stack(list(store.coded_features)),
                  np.stack(list(store.coded_response)),
                  store.base_features, store.base_response, store.alive):
            h.update(a.tobytes())
        assert h.hexdigest() == digest
