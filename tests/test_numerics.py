import sys
import threading
import types
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
        w, _ = ridge_solve(np.eye(3), np.array([1.0, 2.0, 3.0]), 0.0)
        np.testing.assert_allclose(w, [1, 2, 3], atol=1e-12)

    def test_zero_response(self):
        X = np.random.default_rng(0).normal(size=(5, 2))
        w, _ = ridge_solve(X, np.zeros(5), 0.1)
        np.testing.assert_allclose(w, [0, 0], atol=1e-14)

    def test_matches_gradient_descent_oracle(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        y = np.array([1.0, 1.0, 2.0])
        w, _ = ridge_solve(X, y, 0.5)
        w_gd = gradient_descent_oracle(X, y, 0.5)
        np.testing.assert_allclose(w, w_gd, atol=1e-6)

    @pytest.mark.parametrize("lam", [0.0, 1e-3, 0.5])
    def test_gradient_norm_at_solution(self, lam):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(40, 6))
        y = rng.normal(size=40)
        w, _ = ridge_solve(X, y, lam)
        g = ridge_loss_grad(X, y, lam, w)
        assert np.linalg.norm(g) < 1e-8 * (1 + np.linalg.norm(y))

    def test_square_system_residual(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(8, 8))
        y = rng.normal(size=8)
        w, _ = ridge_solve(X, y, 0.0)
        assert np.linalg.norm(X @ w - y) <= 1e-8 * np.linalg.norm(y)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 4))
        y = rng.normal(size=30)
        w1, _ = ridge_solve(X, y, 1e-2)
        w2, _ = ridge_solve(X, y, 1e-2)
        assert (w1 == w2).all()

    def test_shard_size_scaling_of_lambda(self):
        # the averaged loss implies w = (X'X + n*lam*I)^{-1} X'y
        rng = np.random.default_rng(11)
        X = rng.normal(size=(25, 3))
        y = rng.normal(size=25)
        lam = 0.05
        expected = np.linalg.solve(X.T @ X + 25 * lam * np.eye(3), X.T @ y)
        np.testing.assert_allclose(ridge_solve(X, y, lam)[0], expected,
                                   atol=1e-10)

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
            g = ridge_loss_grad(X, y, 0.0, ridge_solve(X, y, 0.0)[0])
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
        for lam in (0.0, 1e-3):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="overflow"):
                    ridge_solve(X, np.ones(3), lam)

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
        assert ridge_solve(X, y, lam)[0].tobytes() == expected.tobytes()

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
    def test_changed_rows_match_solve_from_scratch(self, rows, n=300):
        X, y = self.system(n=n)
        products = numerics.slice_products(X, y)
        X2, y2 = X.copy(), y.copy()
        rng = np.random.default_rng(1)
        X2[rows] = rng.normal(size=(len(rows), X.shape[1]))
        y2[rows] = rng.normal(size=len(rows))
        # the products of a stack of one learner, updated in place
        grams, rhs = (a[None] for a in products)
        numerics.update_products(X2[None], y2[None], grams, rhs,
                                 [0] * len(rows), rows)
        w = numerics.solve_normal(grams, rhs, n, 1e-3)[0]
        w_fresh, _ = ridge_solve(X2, y2, 1e-3)
        fresh = numerics.slice_products(X2, y2)
        assert w.tobytes() == w_fresh.tobytes()
        assert w.tobytes() == numerics.solve_normal(*fresh, n, 1e-3).tobytes()
        assert grams.base is products[0] and rhs.base is products[1]
        for a, b in zip(products, fresh):
            assert a.tobytes() == b.tobytes()

    def test_changed_rows_in_slices_apart(self):
        # n = 600: full slices 0-3 and a partial one; rows in slices 0 and
        # 2 are gathered into one batch, not read from one view
        self.test_changed_rows_match_solve_from_scratch([5, 300, 590],
                                                        n=600)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf, -1e-300],
                             ids=["nan", "inf", "minus-inf", "tiny-negative"])
    def test_refuses_lam_outside_nonnegative_reals(self, lam):
        # NaN would otherwise take the unregularized path and inf give
        # all -0.0 weights
        X, y = self.system()
        with pytest.raises(ValueError, match="lam must be nonnegative"):
            ridge_solve(X, y, lam)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("where", ["X", "y"])
    def test_regularized_refuses_non_finite_without_warning(self, value,
                                                            where):
        X, y = self.system()
        (X if where == "X" else y)[200] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="NaN or Inf"):
                ridge_solve(X, y, 1e-3)


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

    def test_one_hot_rows_need_no_elimination(self, monkeypatch):
        # at most one 1 per row: the rank is the number of columns used,
        # with repeated columns, unused columns and zero rows alike
        eliminated = []
        rank_mod_p = numerics._rank_mod_p
        monkeypatch.setattr(numerics, "_rank_mod_p",
                            lambda G: eliminated.append(G) or rank_mod_p(G))
        rng = np.random.default_rng(5)
        for _ in range(200):
            m, n = (int(v) for v in rng.integers(1, 25, size=2))
            G = np.zeros((m, n), dtype=int)
            used = rng.random(m) < 0.8      # the other rows stay zero
            G[used, rng.integers(0, n // 2 + 1, used.sum())] = 1
            assert binary_rank(G) == numerics._bareiss_rank(G)
        assert eliminated == []
        # one two-hot row falls through to elimination
        G = np.array([[1, 1, 0], [0, 1, 0], [1, 0, 0], [0, 0, 0]])
        assert binary_rank(G) == numerics._bareiss_rank(G) == 2
        assert len(eliminated) == 1

    def test_full_rank_one_hot_skips_fallback(self, monkeypatch):
        def refuse(G):
            raise AssertionError("Bareiss fallback called")

        monkeypatch.setattr(numerics, "_bareiss_rank", refuse)
        G = rand_matrix_minimal(2000, 400, seed=3)
        assert binary_rank(G.entries) == 400


# (r, n, d) learner stacks: d = 1, one slice (k = 1, full or partial), a
# partial last slice, r = 1, and the shapes of the benchmark's workloads
STACKS = [
    (3, 50, 1),                # d = 1, one partial slice
    (2, 2**17 + 5, 1),         # d = 1, a full slice and a partial one
    (4, 128, 32),              # k = 1, a full slice
    (4, 100, 32),              # k = 1, a partial slice
    (3, 300, 32),              # a partial last slice
    (2, 1024, 32),             # whole slices
    (1, 1200, 32),             # r = 1
    (5, 7, 3),
    (20, 2000, 32),            # forget-lib: 200k x 32, s = 100, r = 20
    (10, 1000, 16),            # forget-cli: 10 learners of 1000 x 16
    (200, 20, 100),            # tradeoff-sweep, s = 1000
    (1, 4000, 100),            # tradeoff-sweep, s = 5
]
STACK_IDS = [f"r{r}-n{n}-d{d}" for r, n, d in STACKS]


def stack(r, n, d, seed=0):
    rng = np.random.default_rng([r, n, d, seed])
    return rng.normal(size=(r, n, d)), rng.normal(size=(r, n))


def slice_products_by_loop(X, y):
    """One X_b'X_b and X_b'y_b per slice of one (n, d) learner, each its
    own matmul: the products the batched calls must reproduce."""
    n, d = X.shape
    h = numerics._slice_height(d)
    starts = range(0, n, h)
    return (np.array([X[b:b + h].T @ X[b:b + h] for b in starts]),
            np.array([X[b:b + h].T @ y[b:b + h] for b in starts]))


class TestStackedSolve:
    @pytest.mark.parametrize("r,n,d", STACKS, ids=STACK_IDS)
    def test_stack_equals_refit_of_each_learner_bitwise(self, r, n, d):
        X, y = stack(r, n, d)
        grams, rhs = numerics.slice_products(X, y)
        W, _ = ridge_solve(X, y, 1e-3)
        assert W.shape == (r, d)
        assert W.tobytes() == numerics.solve_stack(X, y, 1e-3)[0].tobytes()
        for j in range(r):
            w, _ = ridge_solve(X[j], y[j], 1e-3)
            g, b = numerics.slice_products(X[j], y[j])
            assert W[j].tobytes() == w.tobytes()
            assert grams[j].tobytes() == g.tobytes()
            assert rhs[j].tobytes() == b.tobytes()
            loop_g, loop_b = slice_products_by_loop(X[j], y[j])
            assert g.tobytes() == loop_g.tobytes()
            assert b.tobytes() == loop_b.tobytes()

    @pytest.mark.parametrize("r,n,d", [(4, 300, 32), (7, 20, 10)])
    def test_unregularized_stack_equals_refit_of_each_learner(self, r, n, d):
        X, y = stack(r, n, d)
        W, _ = ridge_solve(X, y, 0.0)
        for j in range(r):
            assert W[j].tobytes() == ridge_solve(X[j], y[j], 0.0)[0].tobytes()

    @pytest.mark.parametrize("r,n,d", [(3, 40, 6), (2, 2000, 32),
                                       (2, 5000, 16)])
    def test_unregularized_stack_agrees_with_least_squares(self, r, n, d):
        # the normal equations square X's condition number, which on these
        # well-conditioned designs still leaves them within 1e-12 of lstsq
        X, y = stack(r, n, d)
        W, _ = ridge_solve(X, y, 0.0)
        for j in range(r):
            w = np.linalg.lstsq(X[j], y[j], rcond=None)[0]
            assert np.linalg.norm(W[j] - w) <= 1e-12 * np.linalg.norm(w)

    def test_one_learner_products_keep_their_shape(self):
        X, y = stack(1, 300, 32)
        grams, rhs = numerics.slice_products(X[0], y[0])
        assert grams.shape == (3, 32, 32) and rhs.shape == (3, 32)

    @pytest.mark.parametrize("n", [100, 128, 300],
                             ids=["partial-only", "one-full", "three"])
    def test_solve_leaves_the_products_untouched(self, n):
        # with one slice, a sum over it that aliased the cached products
        # would carry n*lam into them
        X, y = stack(1, n, 32)
        w, _ = ridge_solve(X[0], y[0], 1e-3)
        products = numerics.slice_products(X[0], y[0])
        kept = [a.copy() for a in products]
        grams, rhs = numerics.slice_products(X, y)
        again = numerics.solve_normal(grams, rhs, n, 1e-3)[0]
        numerics.update_products(X, y, grams, rhs, [0], [5])
        numerics.solve_normal(grams, rhs, n, 1e-3)
        numerics.solve_normal(*products, n, 1e-3)
        assert again.tobytes() == w.tobytes()
        for a, b in zip(products, kept):
            assert a.tobytes() == b.tobytes()
        for a, b in zip((grams[0], rhs[0]), kept):
            assert a.tobytes() == b.tobytes()
        fresh = numerics.slice_products(X[0], y[0])
        for a, b in zip(products, fresh):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("where", ["X", "y"])
    def test_one_non_finite_learner_fails_the_stack(self, where):
        X, y = stack(4, 300, 32)
        (X if where == "X" else y)[2, 10] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="NaN or Inf"):
                ridge_solve(X, y, 1e-3)

    @pytest.mark.parametrize("X,y", [
        (np.zeros((2, 5, 3)), np.zeros((2, 4))),
        (np.zeros((2, 5, 3)), np.zeros((3, 5))),
        (np.zeros((2, 5, 3)), np.zeros(5)),
    ], ids=["rows", "learners", "one-response"])
    def test_stack_shape_mismatch(self, X, y):
        with pytest.raises(DimensionMismatch):
            ridge_solve(X, y, 1e-3)
        with pytest.raises(DimensionMismatch):
            numerics.solve_stack(X, y, 1e-3)

    def test_solve_stack_refuses_one_learner(self):
        with pytest.raises(DimensionMismatch):
            numerics.solve_stack(np.eye(3), np.ones(3), 1e-3)


@pytest.fixture
def started(monkeypatch):
    """The worker threads run_in_blocks starts; only numerics' own name is
    patched, so threads started elsewhere are not counted."""
    threads = []

    class CountedThread(threading.Thread):
        def start(self):
            threads.append(self)
            super().start()

    monkeypatch.setattr(numerics, "threading",
                        types.SimpleNamespace(Thread=CountedThread))
    return threads


@pytest.fixture(params=[1, 2, 3, 4], ids=lambda c: f"{c}cpus")
def forced_blocks(request, monkeypatch, started):
    """Every stack split into min(CPUs, r) learner blocks of one-learner
    chunks, whatever its size; yields the CPU count and the threads
    started."""
    monkeypatch.setattr(numerics, "_available_cpus", lambda: request.param)
    monkeypatch.setattr(numerics, "LEARNER_WORK_PER_WORKER", 1)
    monkeypatch.setattr(numerics, "LEARNER_CHUNK_VALUES", 1)
    return request.param, started


def solve_in_blocks(X, y, lam):
    """The (r, d) weights of the stack, solve_stack run chunk by chunk in
    learner blocks, as verify_perfect_unlearning runs its retrain."""
    r, n, d = X.shape
    W = np.empty((r, d))

    def solve(lo, hi):
        W[lo:hi] = numerics.solve_stack(X[lo:hi], y[lo:hi], lam)[0]

    numerics.in_learner_blocks(solve, r, n, d)
    return W


class TestLearnerBlocks:
    @pytest.mark.parametrize("r,n,d", [(3, 300, 32), (5, 7, 3),
                                       (10, 1000, 16), (1, 1200, 32)],
                             ids=["r3", "r5", "forget-cli", "r1"])
    def test_threaded_stack_equals_refit_bitwise(self, forced_blocks, r, n,
                                                 d):
        cpus, started = forced_blocks
        X, y = stack(r, n, d)
        before = threading.active_count()
        W = solve_in_blocks(X, y, 1e-3)
        assert threading.active_count() == before
        assert len(started) == min(cpus, r) - 1
        for j in range(r):
            assert W[j].tobytes() == ridge_solve(X[j], y[j], 1e-3)[0].tobytes()

    def test_more_blocks_than_cores_with_rapid_switching(self, monkeypatch,
                                                          started):
        # 8 blocks write disjoint rows of one output; a thread switch every
        # microsecond must not lose or mix any of them
        monkeypatch.setattr(numerics, "_available_cpus", lambda: 8)
        monkeypatch.setattr(numerics, "LEARNER_WORK_PER_WORKER", 1)
        monkeypatch.setattr(numerics, "LEARNER_CHUNK_VALUES", 1)
        X, y = stack(24, 300, 32)
        expected = [ridge_solve(X[j], y[j], 1e-3)[0].tobytes()
                    for j in range(24)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = [solve_in_blocks(X, y, 1e-3) for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
        assert len(started) == 5 * 7
        assert all(not thread.is_alive() for thread in started)
        for W in results:
            assert [w.tobytes() for w in W] == expected

    def test_failing_block_raises_after_every_join(self, forced_blocks):
        cpus, started = forced_blocks
        X, y = stack(4, 300, 32)
        X[-1, 0] = np.nan           # in the last block
        before = threading.active_count()
        with pytest.raises(ValueError, match="NaN or Inf"):
            solve_in_blocks(X, y, 1e-3)
        assert threading.active_count() == before
        assert len(started) == min(cpus, 4) - 1

    @pytest.mark.parametrize("r,n,d,workers", [
        (10, 1000, 16, 1),     # forget-cli's verify: 2**21.3 of work
        (20, 2000, 32, 2),     # forget-lib's: 2**25.3
        (200, 20, 100, 1),     # the sweep's s = 1000 cell: 2**23.2
        (50, 80, 100, 3),      # and its s = 250 cell: 2**25.8
        (1, 4000, 100, 1),     # one learner cannot be split
    ])
    def test_worker_count(self, monkeypatch, started, r, n, d, workers):
        # min(available CPUs, r * m * m * (n + d) // 2**24, r), with
        # m = min(n, d), the caller being one of them
        monkeypatch.setattr(numerics, "_available_cpus", lambda: 4)
        chunks = []
        numerics.in_learner_blocks(lambda lo, hi: chunks.append((lo, hi)),
                                   r, n, d)
        assert len(started) == workers - 1
        assert sorted(chunks)[0][0] == 0
        assert all(a[1] == b[0] for a, b in zip(sorted(chunks),
                                               sorted(chunks)[1:]))
        assert sorted(chunks)[-1][1] == r

    @pytest.mark.parametrize("r,n,d,chunk", [
        (20, 2000, 32, 3),     # 64000 + (16 + 2) * 1024 values a learner
        (200, 20, 100, 81),    # 2000 + (1 + 2) * 400: m = n in dual form
        (2, 2**20, 1, 1),      # more than 2**18 values: one at a time
    ])
    def test_chunks_hold_about_2_mb(self, monkeypatch, r, n, d, chunk):
        monkeypatch.setattr(numerics, "_available_cpus", lambda: 1)
        blocks = []
        numerics.in_learner_blocks(lambda lo, hi: blocks.append((lo, hi)),
                                   r, n, d)
        assert blocks == [(lo, min(lo + chunk, r))
                          for lo in range(0, r, chunk)]


# (r, n, d) stacks of learners with fewer rows than columns
DUAL_STACKS = [(7, 3, 10), (200, 20, 100), (1, 1, 5), (3, 9, 10)]
DUAL_IDS = ["r7-n3-d10", "sweep-s1000", "one-row", "n-is-d-minus-1"]


class TestDualForm:
    @pytest.mark.parametrize("r,n,d", DUAL_STACKS, ids=DUAL_IDS)
    def test_matches_normal_equations(self, r, n, d):
        X, y = stack(r, n, d)
        lam = 1e-3
        assert numerics.dual_form(n, d, lam)
        W, _ = ridge_solve(X, y, lam)
        for j in range(r):
            want = np.linalg.solve(X[j].T @ X[j] + n * lam * np.eye(d),
                                   X[j].T @ y[j])
            np.testing.assert_allclose(W[j], want, rtol=1e-10,
                                       atol=1e-10 * np.abs(want).max())
            g = ridge_loss_grad(X[j], y[j], lam, W[j])
            assert np.linalg.norm(g) < 1e-8 * (1 + np.linalg.norm(y[j]))

    @pytest.mark.parametrize("r,n,d", DUAL_STACKS, ids=DUAL_IDS)
    def test_stack_rows_are_each_learner_alone_bitwise(self, r, n, d):
        X, y = stack(r, n, d)
        W, _ = ridge_solve(X, y, 1e-3)
        assert W.tobytes() == numerics.solve_stack(X, y, 1e-3)[0].tobytes()
        for j in range(r):
            assert W[j].tobytes() == ridge_solve(X[j], y[j], 1e-3)[0].tobytes()

    @pytest.mark.parametrize("r,n,d", [(7, 3, 10), (12, 20, 100)],
                             ids=["r7-n3-d10", "r12-n20-d100"])
    def test_learner_blocks_are_each_learner_alone_bitwise(
            self, forced_blocks, r, n, d):
        cpus, started = forced_blocks
        X, y = stack(r, n, d)
        expected = [numerics.solve_stack(X[j:j + 1], y[j:j + 1], 1e-3)[0]
                    .tobytes() for j in range(r)]
        W = solve_in_blocks(X, y, 1e-3)
        assert len(started) == min(cpus, r) - 1
        assert [w.tobytes() for w in W] == expected

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("where", ["X", "y"])
    def test_refuses_non_finite_without_warning(self, value, where):
        X, y = stack(4, 20, 100)
        (X if where == "X" else y)[2, 5] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="NaN or Inf"):
                ridge_solve(X, y, 1e-3)

    def test_overflowing_gram_refused_without_warning(self):
        X, y = stack(2, 3, 10)
        X[1, 0, 4] = 1e200      # finite, but its square in XX' is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow"):
                ridge_solve(X, y, 1e-3)

    def test_overflowing_weights_refused_without_warning(self):
        # XX' of about 1e-19 against n*lam = 3e-300: alpha = y / K
        # overflows, and so do the weights
        X, y = stack(1, 3, 10)
        X *= 1e-10
        y *= 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow"):
                ridge_solve(X, y, 1e-300)

    @pytest.mark.parametrize("n,d,lam,dual", [
        (20, 100, 1e-3, True), (99, 100, 1e-3, True),
        (100, 100, 1e-3, False), (101, 100, 1e-3, False),
        (20, 100, 0.0, False)])
    def test_rule(self, n, d, lam, dual):
        assert numerics.dual_form(n, d, lam) is dual

    def test_square_learners_take_the_slice_path(self):
        # n == d: the normal equations from slice products, bitwise
        X, y = stack(3, 10, 10)
        W, _ = ridge_solve(X, y, 1e-3)
        want = numerics.solve_normal(*numerics.slice_products(X, y), 10,
                                     1e-3)
        assert W.tobytes() == want.tobytes()
