import hashlib
from fractions import Fraction

import numpy as np
import pytest

from codedunlearn import (
    Dataset,
    DensityOutOfRange,
    NonTermination,
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

    def test_all_ones_density_never_terminates(self):
        # rho=1 forces rank 1, so the rank loop can never succeed for r >= 2
        with pytest.raises(NonTermination):
            rand_matrix(4, 2, 1.0, 0, guard=200)

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
        masked = CodedStore(G, ds.features, ds.response, ds.ids, [], alive)
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
