import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedunlearn import (
    DimensionMismatch,
    SingularSystem,
    binary_rank,
    rand_matrix_minimal,
    ridge_solve,
)
from codedunlearn import numerics


def ridge_loss_grad(X, y, lam, w):
    n = X.shape[0]
    return (2.0 / n) * (X.T @ (X @ w - y)) + 2.0 * lam * w


def gradient_descent_oracle(X, y, lam, iters=200_000, tol=1e-13):
    """Plain gradient descent on the averaged ridge loss, step 1/L."""
    n, d = X.shape
    hessian = (2.0 / n) * (X.T @ X) + 2.0 * lam * np.eye(d)
    step = 1.0 / np.linalg.eigvalsh(hessian).max()
    w = np.zeros(d)
    for _ in range(iters):
        g = ridge_loss_grad(X, y, lam, w)
        if np.linalg.norm(g) < tol:
            break
        w = w - step * g
    return w


class TestRidgeSolve:
    def test_identity_design(self):
        w = ridge_solve(np.eye(3), np.array([1.0, 2.0, 3.0]), 0.0)
        np.testing.assert_allclose(w, [1, 2, 3], atol=1e-12)

    def test_zero_response(self):
        X = np.random.default_rng(0).normal(size=(5, 2))
        w = ridge_solve(X, np.zeros(5), 0.1)
        np.testing.assert_allclose(w, [0, 0], atol=1e-14)

    def test_matches_gradient_descent_oracle(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        y = np.array([1.0, 1.0, 2.0])
        w = ridge_solve(X, y, 0.5)
        w_gd = gradient_descent_oracle(X, y, 0.5)
        np.testing.assert_allclose(w, w_gd, atol=1e-6)

    @pytest.mark.parametrize("lam", [0.0, 1e-3, 0.5])
    def test_gradient_norm_at_solution(self, lam):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(40, 6))
        y = rng.normal(size=40)
        w = ridge_solve(X, y, lam)
        g = ridge_loss_grad(X, y, lam, w)
        assert np.linalg.norm(g) < 1e-8 * (1 + np.linalg.norm(y))

    def test_square_system_residual(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(8, 8))
        y = rng.normal(size=8)
        w = ridge_solve(X, y, 0.0)
        assert np.linalg.norm(X @ w - y) <= 1e-8 * np.linalg.norm(y)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 4))
        y = rng.normal(size=30)
        w1 = ridge_solve(X, y, 1e-2)
        w2 = ridge_solve(X, y, 1e-2)
        assert (w1 == w2).all()

    def test_shard_size_scaling_of_lambda(self):
        # the averaged loss implies w = (X'X + n*lam*I)^{-1} X'y
        rng = np.random.default_rng(11)
        X = rng.normal(size=(25, 3))
        y = rng.normal(size=25)
        lam = 0.05
        expected = np.linalg.solve(X.T @ X + 25 * lam * np.eye(3), X.T @ y)
        np.testing.assert_allclose(ridge_solve(X, y, lam), expected, atol=1e-10)

    def test_singular_raises(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(SingularSystem):
            ridge_solve(X, np.array([1.0, 2.0, 3.0]), 0.0)

    @pytest.mark.parametrize("X", [
        np.random.default_rng(2).normal(size=(3, 5)),   # fewer rows than columns
        np.diag([1.0, 1e-160]),   # cond(X'X) = 1e320 overflows when squared
    ], ids=["underdetermined", "cond-overflows-when-squared"])
    def test_unregularized_refusals(self, X):
        with pytest.raises(SingularSystem):
            ridge_solve(X, np.ones(X.shape[0]), 0.0)

    @pytest.mark.parametrize("cond,refused", [(1e11, False), (1e13, True)])
    def test_condition_limit_boundary(self, cond, refused):
        # X = U diag(sv) V' with cond(X'X) = (sv[0] / sv[-1])**2 = cond,
        # either side of COND_LIMIT = 1e12
        rng = np.random.default_rng(13)
        n, d = 40, 6
        U, _ = np.linalg.qr(rng.normal(size=(n, d)))
        V, _ = np.linalg.qr(rng.normal(size=(d, d)))
        sv = np.logspace(0, -0.5 * np.log10(cond), d)
        X = (U * sv) @ V.T
        y = rng.normal(size=n)
        if refused:
            with pytest.raises(SingularSystem):
                ridge_solve(X, y, 0.0)
        else:
            g = ridge_loss_grad(X, y, 0.0, ridge_solve(X, y, 0.0))
            assert np.linalg.norm(g) < 1e-8 * (1 + np.linalg.norm(y))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ridge_solve(np.eye(3), np.zeros(4), 0.0)

    def test_negative_lambda(self):
        with pytest.raises(ValueError):
            ridge_solve(np.eye(2), np.zeros(2), -1.0)

    def test_rejects_nan(self):
        X = np.eye(2)
        X[0, 0] = np.nan
        with pytest.raises(ValueError):
            ridge_solve(X, np.zeros(2), 0.0)

    def test_overflowing_gram_refused_without_warning(self):
        # finite X whose X'X overflows: once a silent [-0., 1.33]
        X = np.array([[1e200, 1.0], [1.0, 2.0], [3.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow"):
                ridge_solve(X, np.ones(3), 1e-3)

    @pytest.mark.parametrize("n", [100, 128, 256, 300])
    def test_regularized_gram_is_ascending_slice_sum(self, n):
        # slices of 4d = 128 rows at d = 32, the last one partial unless
        # 128 divides n
        d, lam = 32, 1e-2
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        A, b = np.zeros((d, d)), np.zeros(d)
        for start in range(0, n, 4 * d):
            Xb, yb = X[start:start + 4 * d], y[start:start + 4 * d]
            A, b = A + Xb.T @ Xb, b + Xb.T @ yb
        expected = np.linalg.solve(A + n * lam * np.eye(d), b)
        assert ridge_solve(X, y, lam).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("d,h", [(1, 2**17), (16, 512), (32, 128),
                                     (100, 400)])
    def test_slice_height(self, d, h):
        # 4d rows, but never less than 2**17 multiply-adds per slice
        assert numerics._slice_height(d) == h


class TestRefit:
    # n = 300 rows at d = 32: slices [0, 128), [128, 256) and a partial
    # [256, 300)
    @staticmethod
    def system(seed=0, n=300, d=32):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(n, d)), rng.normal(size=n)

    @pytest.mark.parametrize("rows", [[5], [130], [290], [140, 140],
                                      [0, 299]],
                             ids=["first-slice", "middle-slice",
                                  "partial-last-slice", "row-listed-twice",
                                  "two-slices"])
    def test_changed_rows_match_solve_from_scratch(self, rows):
        X, y = self.system()
        _, products = numerics.refit(X, y, 1e-3)
        kept = [a.copy() for a in products]
        X2, y2 = X.copy(), y.copy()
        rng = np.random.default_rng(1)
        X2[rows] = rng.normal(size=(len(rows), X.shape[1]))
        y2[rows] = rng.normal(size=len(rows))
        w, updated = numerics.refit(X2, y2, 1e-3, products, rows)
        w_fresh, fresh = numerics.refit(X2, y2, 1e-3)
        assert w.tobytes() == w_fresh.tobytes()
        assert w.tobytes() == ridge_solve(X2, y2, 1e-3).tobytes()
        for a, b in zip(updated, fresh):
            assert a.tobytes() == b.tobytes()
        for a, b in zip(products, kept):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf, -1e-300],
                             ids=["nan", "inf", "minus-inf", "tiny-negative"])
    def test_refuses_lam_outside_nonnegative_reals(self, lam):
        # NaN would otherwise take the unregularized path and inf give
        # all -0.0 weights
        X, y = self.system()
        with pytest.raises(ValueError, match="lam must be nonnegative"):
            numerics.refit(X, y, lam)

    def test_unregularized_has_no_products(self):
        X, y = self.system()
        w, products = numerics.refit(X, y, 0.0)
        assert products is None
        assert w.tobytes() == ridge_solve(X, y, 0.0).tobytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("where", ["X", "y"])
    def test_regularized_refuses_non_finite_without_warning(self, value,
                                                            where):
        X, y = self.system()
        (X if where == "X" else y)[200] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="NaN or Inf"):
                numerics.refit(X, y, 1e-3)


def rank_by_minor_enumeration(G):
    """Largest k with a nonsingular k x k submatrix; integer determinants."""
    from itertools import combinations

    G = np.asarray(G, dtype=float)
    m, n = G.shape
    for k in range(min(m, n), 0, -1):
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                det = round(np.linalg.det(G[np.ix_(rows, cols)]))
                if det != 0:
                    return k
    return 0


class TestBinaryRank:
    def test_single_entry(self):
        assert binary_rank([[1]]) == 1
        assert binary_rank([[0]]) == 0

    def test_small_example(self):
        assert binary_rank([[1, 1], [1, 1], [0, 1]]) == 2

    def test_against_minor_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            G = (rng.random((6, 3)) < 0.5).astype(int)
            assert binary_rank(G) == rank_by_minor_enumeration(G)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 10**6))
    def test_transpose_invariant(self, m, n, seed):
        G = (np.random.default_rng(seed).random((m, n)) < 0.5).astype(int)
        assert binary_rank(G) == binary_rank(G.T)

    def test_rejects_nonbinary(self):
        with pytest.raises(ValueError):
            binary_rank([[2, 0], [0, 1]])

    def test_fallback_exact_when_certificate_falls_short(self, monkeypatch):
        # det 2: rank 2 mod 2 but 3 over Q, so only the fallback gets it right
        monkeypatch.setattr(numerics, "_PRIME", 2)
        G = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        assert numerics._rank_mod_p(G) == 2
        assert binary_rank(G) == 3

    def test_matches_bareiss(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            m, n = rng.integers(1, 31, size=2)
            G = (rng.random((m, n)) < rng.uniform(0.05, 0.95)).astype(int)
            kind = rng.integers(4)
            if kind == 1 and m > 1:      # duplicated row
                G[rng.integers(1, m)] = G[0]
            elif kind == 2 and n > 1:    # duplicated column
                G[:, rng.integers(1, n)] = G[:, 0]
            elif kind == 3:
                G[:] = 0
            expected = numerics._bareiss_rank(G)
            assert binary_rank(G) == expected
            # seeded, so this cannot flake: p divides none of these minors
            assert numerics._rank_mod_p(G) == expected

    def test_full_rank_one_hot_skips_fallback(self, monkeypatch):
        def refuse(G):
            raise AssertionError("Bareiss fallback called")

        monkeypatch.setattr(numerics, "_bareiss_rank", refuse)
        G = rand_matrix_minimal(2000, 400, seed=3)
        assert binary_rank(G.entries) == 400
