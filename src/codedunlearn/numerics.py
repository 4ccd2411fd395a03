"""Dense numeric substrate: closed-form ridge solver, exact binary rank, and
the thread blocks that spread array work over the available CPUs.

Arrays are treated as immutable and never modified in place, except the
slice products update_products is given.  Only numpy is used.  An
unregularized ridge solve is refused when the exact condition number of
X'X exceeds COND_LIMIT.

Every ridge solve is a solve of a stack of learners: an (r, n, d) X and an
(r, n) y, one learner's (n, d) X and (n,) y being a stack of one.  With
lam > 0, each learner's X'X and X'y are the ascending-order sum of
per-slice products: slice b is rows [b*h, (b+1)*h) of its n x d X, the
last one possibly partial, with h = 4d rows (at least 2**17 / d**2, see
SLICE_MIN_WORK).  The products of all the full slices of the stack are
one batched np.matmul, those of the partial last slices another, and
solve_normal sums them and solves the stack's d x d systems with one
np.linalg.solve; each learner's bits are those of the same calls on it
alone.  update_products recomputes in place the slices of a stack's
products (empty_products) that changed rows touch, in any learners, with
one gather and one batched np.matmul each for X'X and X'y, plus one pair
for the partial last slices, on the same bits.  So a retrain from scratch
(ensemble.learn and verify) and an unlearn that reuses its cached
products (ensemble.unlearn) agree bitwise.

ridge_solve spreads a stack over contiguous learner blocks through
run_in_blocks: the calling thread takes the first block and one thread each
the rest, one per available CPU (the process's affinity set) but never more
than the work asks for.  A block holds whole learners, and every block runs
the numpy calls one block would on them, so the results are bitwise those
of one block.  projections.project puts its fused row chunks (each chunk's
matmul, offset add and cosine) in run_in_blocks too, a contiguous run of
whole chunks per block; the chunks are cut so that each chunk's product is
bitwise those rows of the whole one.  BLAS should be on one thread (the
package sets OPENBLAS_NUM_THREADS=1 and the like when it is imported before
numpy) when several CPUs are available, or the blocks' calls compete for
them (and project's chunks no longer follow the threaded BLAS's split of
the whole product).

The binary rank is exact over the rationals, with no floating-point
tolerance (binary_rank).
"""

from __future__ import annotations

import os
import threading

import numpy as np

from .errors import DimensionMismatch, SingularSystem

# Condition number of X'X above which an unregularized solve is refused.
COND_LIMIT = 1e12

# A Gram slice of an X with d columns has 4d rows, and at least enough rows
# for 2**17 multiply-adds (the two agree at d = 32).  Each slice costs one
# BLAS call of a few microseconds beyond its arithmetic: with d-row slices
# at d = 32 those calls ate the gain of recomputing fewer rows, and at small
# d a 4d-row slice is all call (d = 1, n = 200000: 254 ms against 0.5 ms
# for one unsliced product).
SLICE_ROWS_PER_COLUMN = 4
SLICE_MIN_WORK = 2**17

# A stack of r learners of n x d is r*d*d*(n + d) multiply-adds of work in
# round terms (its Gram products and its solves), and in_learner_blocks
# starts one worker per LEARNER_WORK_PER_WORKER of it.  Measured on a 2-vCPU
# VM (numpy 2.4, one BLAS thread, medians of 41 interleaved pairs), two
# blocks first beat one at 2**24.0 (n = 1000, d = 16 and n = 2000, d = 32),
# 2**24.2 (n = 20, d = 100) and 2**25.3 (n = 400, d = 100); below that a
# second thread costs 0.4-0.7 ms.  So two workers start from 2**25.
LEARNER_WORK_PER_WORKER = 1 << 24
# A block takes its learners in chunks of about this many float64 values
# (a learner's n*d rows, its k*d*d slice products, and d*d each for their
# sum and its LU copy), so its transient arrays stay near 2 MB: at
# 200k x 32, r = 20, verify took 11.8 ms in chunks of 2**18 values against
# 18.7 ms in one chunk, on one worker.
LEARNER_CHUNK_VALUES = 1 << 18


def ridge_solve(X, y, lam: float) -> np.ndarray:
    """Minimize (1/n) * sum_i (y_i - x_i.w)^2 + lam * w.w in closed form.

    An (r, n, d) X and (r, n) y are r learners, whose (r, d) weights
    solve_stack solves in learner blocks (in_learner_blocks); an (n, d) X
    and (n,) y are a stack of one, whose (d,) weights are returned.  The
    squared error is averaged over the n rows, so the regularized normal
    equations carry n*lam:  w = (X'X + n*lam*I)^{-1} X'y.

    With lam > 0, X'X and X'y are summed from every slice's products
    (module docstring); the d x d system is solved by LU (np.linalg.solve)
    and refused with ValueError when X or y holds NaN or Inf or X'X or X'y
    overflows.  With lam == 0 it is solved by least squares
    (np.linalg.lstsq) and refused (SingularSystem) unless X has d > 0
    nonzero singular values sv and the exact condition number of X'X,
    (max(sv) / min(sv))**2, is at most COND_LIMIT (tested unsquared, so it
    cannot overflow).  A learner that cannot be solved fails the stack.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    one = X.ndim == 2
    if one:
        X, y = X[None], y[None]
    _check_system(X, y, lam)
    r, n, d = X.shape
    weights = np.empty((r, d))

    def solve(lo, hi):
        weights[lo:hi] = solve_stack(X[lo:hi], y[lo:hi], lam)

    in_learner_blocks(solve, r, n, d)
    return weights[0] if one else weights


def solve_stack(X, y, lam: float) -> np.ndarray:
    """ridge_solve's (r, d) weights of the float (r, n, d) X and (r, n) y,
    on the calling thread, each learner's bits those of a stack of it
    alone; it raises as ridge_solve does."""
    _check_system(X, y, lam)
    r, n, d = X.shape
    if lam > 0:
        return solve_normal(*_slice_products(X, y), n, lam)
    return np.array([_lstsq(Xj, yj) for Xj, yj in zip(X, y)]).reshape(r, d)


def empty_products(r: int, n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Uninitialised (r, k, d, d) and (r, k, d) arrays for the slice
    products of r learners of n rows and d columns (k slices each), to be
    filled by update_products."""
    k = -(-n // _slice_height(d))
    return np.empty((r, k, d, d)), np.empty((r, k, d))


def update_products(X, y, grams: np.ndarray, rhs: np.ndarray, whole,
                    learners, rows) -> None:
    """Recompute in place slice products of the (r, n, d) X and (r, n) y,
    held in grams (r, k, d, d) and rhs (r, k, d) as _slice_products lays
    them out: every slice of each learner listed in whole, each learner's
    from a view of its rows, and, for every i whose learner is not in
    whole, the slice of learner learners[i] that holds row rows[i] (pairs
    may repeat).  The full slices of those pairs take one batched np.matmul
    for X'X and one for X'y, on a view of their rows when they are adjacent
    slices of one learner (one id of a minimal code), else on one fancy
    gather from X's (r, n // h, h, d) view; touched partial last slices
    take one more pair.  Every product has the bits _slice_products gives
    it."""
    r, n, d = X.shape
    h = _slice_height(d)
    full = n // h
    for j in whole:
        _slice_products(X[j], y[j], out=(grams[j], rhs[j]))
    done = set(whole)
    pairs = sorted({(j, b) for j, b in zip(
        np.asarray(learners).tolist(), (np.asarray(rows) // h).tolist())
        if j not in done})
    part = [j for j, b in pairs if b == full]   # partial last slices
    touched = [(j, b) for j, b in pairs if b < full]
    if touched:
        (j, a), (last, b) = touched[0], touched[-1]
        b += 1
        if last == j and b - a == len(touched):
            _block_products(X[j, a * h:b * h].reshape(b - a, h, d),
                            y[j, a * h:b * h].reshape(b - a, h, 1),
                            grams[j, a:b], rhs[j, a:b])
        else:
            at, slices = np.array(touched).T
            Xb = X[:, :full * h].reshape(r, full, h, d)[at, slices]
            yb = y[:, :full * h].reshape(r, full, h, 1)[at, slices]
            grams[at, slices], rhs[at, slices] = _block_products(Xb, yb)
    if part:
        grams[part, full], rhs[part, full] = \
            _block_products(X[part, full * h:], y[part, full * h:, None])


def _check_system(X: np.ndarray, y: np.ndarray, lam: float) -> None:
    """Refuse an X that is not a stack (r, n, d), a y that is not X without
    its column axis, and a lam outside 0 <= lam < inf."""
    if X.ndim != 3 or X.shape[:-1] != y.shape:
        raise DimensionMismatch(f"ridge_solve: X is {X.shape}, y is {y.shape}")
    if not 0 <= lam < np.inf:   # NaN fails both comparisons
        raise ValueError(f"lam must be nonnegative and finite, got {lam}")


def _lstsq(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The unregularized solve of one (n, d) learner (lam == 0)."""
    d = X.shape[1]
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("X or y contains NaN or Inf")
    w, _, _, sv = np.linalg.lstsq(X, y, rcond=None)
    if d == 0 or sv.size < d or sv[-1] == 0 or sv[0] > COND_LIMIT**0.5 * sv[-1]:
        raise SingularSystem(
            "X'X is numerically singular; use lam > 0 or a full-rank design"
        )
    return w


def _slice_height(d: int) -> int:
    d = max(d, 1)
    return max(SLICE_ROWS_PER_COLUMN * d, -(-SLICE_MIN_WORK // (d * d)))


def _slice_products(X: np.ndarray, y: np.ndarray,
                    out=None) -> tuple[np.ndarray, np.ndarray]:
    """X_b'X_b and X_b'y_b of every slice b of every learner of the
    (..., n, d) X and (..., n) y, as one (..., k, d, d) and one (..., k, d)
    array, written into out = (grams, rhs) when it is given.  The full
    slices take one batched matmul over a view of their rows and the
    partial last slice another, for the Grams and for X'y alike."""
    lead, (n, d) = X.shape[:-2], X.shape[-2:]
    h = _slice_height(d)
    full = n // h
    k = -(-n // h)
    grams, rhs = out if out is not None else (
        np.empty(lead + (k, d, d)), np.empty(lead + (k, d)))
    _block_products(X[..., :full * h, :].reshape(lead + (full, h, d)),
                    y[..., :full * h].reshape(lead + (full, h, 1)),
                    grams[..., :full, :, :], rhs[..., :full, :])
    if full < k:
        _block_products(X[..., full * h:, :], y[..., full * h:, None],
                        grams[..., full, :, :], rhs[..., full, :])
    return grams, rhs


def _block_products(Xb: np.ndarray, yb: np.ndarray, grams=None, rhs=None,
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Xb'Xb and Xb'yb of the stacked blocks Xb (..., m, d) and yb
    (..., m, 1), one batched np.matmul each, as one (..., d, d) and one
    (..., d) array: grams and rhs when given, else new ones laid out alike.
    Entries may overflow to Inf; solve_normal refuses them."""
    if grams is None:
        lead, d = Xb.shape[:-2], Xb.shape[-1]
        grams, rhs = np.empty(lead + (d, d)), np.empty(lead + (d,))
    Xt = Xb.swapaxes(-1, -2)
    with np.errstate(over="ignore", invalid="ignore"):
        np.matmul(Xt, Xb, out=grams)
        np.matmul(Xt, yb, out=rhs[..., None])
    return grams, rhs


def solve_normal(grams: np.ndarray, rhs: np.ndarray, n: int,
                 lam: float) -> np.ndarray:
    """Solve (X'X + n*lam*I) w = X'y by LU for every learner, with X'X and
    X'y the sums of all the slice products of its n-row X ((..., k, d, d)
    and (..., k, d), every slice in ascending order, as _slice_products
    and update_products lay them out); numpy reduces the slice axis one
    slice after another, into new arrays, so the products are left as they
    are.  An Inf or NaN anywhere in a learner's X or y makes its sums
    non-finite, so the O(d**2) check below is a regularized solve's one
    finiteness check; it also refuses finite input whose products overflow,
    and one such learner fails the whole stack."""
    with np.errstate(over="ignore", invalid="ignore"):
        A = grams.sum(axis=-3)
        b = rhs.sum(axis=-2)
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("X or y holds NaN or Inf, or X'X or X'y overflows; "
                         "rescale the features or the response")
    d = A.shape[-1]
    A.reshape(A.shape[:-2] + (d * d,))[..., ::d + 1] += n * lam
    return np.linalg.solve(A, b[..., None])[..., 0]


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def run_in_blocks(task, count: int, workers: int) -> None:
    """task(lo, hi) over contiguous blocks [lo, hi) that cover range(count),
    one block per worker: at most `workers`, one per available CPU and one
    per item, and at least one.  The calling thread takes the first block
    and one thread each the rest.

    Every block runs under the caller's floating-point error handling
    (np.geterr, np.geterrcall), so its np.errstate holds in each thread,
    whether numpy keeps that state per thread (1.x) or per context (2.x).
    Every thread is joined, even when one fails, and the exception of the
    first block that failed is raised here.  Blocks must write disjoint
    outputs and call nothing that keeps per-process state, such as a
    function perfbench's tracer wraps (it keeps one span stack per
    process).
    """
    workers = max(1, min(_available_cpus(), workers, count))
    bounds = [count * k // workers for k in range(workers + 1)]
    errors: list[BaseException | None] = [None] * workers
    errstate = dict(np.geterr(), call=np.geterrcall())

    def run(k):
        try:
            with np.errstate(**errstate):
                task(bounds[k], bounds[k + 1])
        except BaseException as exc:    # re-raised by the caller below
            errors[k] = exc

    started = []
    try:
        for k in range(1, workers):
            thread = threading.Thread(target=run, args=(k,))
            thread.start()
            started.append(thread)
        run(0)
    finally:
        for thread in started:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def in_learner_blocks(task, r: int, n: int, d: int) -> None:
    """task(lo, hi) over chunks [lo, hi) that cover learners range(r) of n
    rows and d columns: run_in_blocks over the learners, one block per
    LEARNER_WORK_PER_WORKER of their work, each block taking its learners
    in chunks of about LEARNER_CHUNK_VALUES values."""
    per_learner = n * d + (-(-n // _slice_height(d)) + 2) * d * d
    chunk = max(1, LEARNER_CHUNK_VALUES // max(per_learner, 1))

    def block(lo, hi):
        for start in range(lo, hi, chunk):
            task(start, min(start + chunk, hi))

    run_in_blocks(block, r, r * d * d * (n + d) // LEARNER_WORK_PER_WORKER)


# Modulus of the rank certificate: a prime below 2**31, so the product of two
# residues fits in int64.
_PRIME = 2**31 - 1


def binary_rank(G) -> int:
    """Rank of a 0/1 matrix over the rationals, computed exactly.

    A matrix whose rows each hold at most one 1 (a minimal-density code)
    has as rank the number of columns it uses: those columns have disjoint
    supports.  Otherwise the rank modulo the prime 2**31 - 1 never exceeds
    the rank over Q, which never exceeds min(m, n); when the rank mod p
    reaches min(m, n) it is returned.  Otherwise fraction-free (Bareiss)
    elimination on Python integers gives the exact rank.  No floating-point
    tolerance is involved, so the result is deterministic.
    """
    G = np.asarray(G)
    if G.ndim != 2:
        raise DimensionMismatch("binary_rank expects a 2-d matrix")
    if not ((G == 0) | (G == 1)).all():
        raise ValueError("entries must be 0 or 1")
    if (G.sum(axis=1) <= 1).all():
        return int(G.any(axis=0).sum())
    full = min(G.shape)
    if _rank_mod_p(G) == full:
        return full
    return _bareiss_rank(G)


def _rank_mod_p(G: np.ndarray) -> int:
    """Rank of an integer matrix over GF(_PRIME), by int64 elimination.

    Pivots run over the shorter side, and each pivot updates only the rows
    with a nonzero entry in its column, so sparse (one-hot) matrices stay
    sparse and cost one pass per pivot."""
    p = _PRIME
    A = np.array(G.T if G.shape[1] > G.shape[0] else G, dtype=np.int64) % p
    n = A.shape[1]
    rank = 0
    for col in range(n):
        nz = rank + np.flatnonzero(A[rank:, col])
        if nz.size == 0:
            continue
        if nz[0] != rank:
            A[[rank, nz[0]]] = A[[nz[0], rank]]
        # Rows above `rank` are never read again, so the scaled pivot row
        # need not be stored back.
        pivot = A[rank, col:] * pow(int(A[rank, col]), p - 2, p) % p
        rows = nz[1:]
        if rows.size:
            A[rows, col:] = (A[rows, col:] - A[rows, col, None] * pivot) % p
        rank += 1
        if rank == n:
            break
    return rank


def _bareiss_rank(G: np.ndarray) -> int:
    """Exact rank over Q by fraction-free (Bareiss) elimination on Python
    integers; the reference the mod-p certificate falls back to."""
    rows = [[int(v) for v in row] for row in G]
    m = len(rows)
    n = len(rows[0]) if m else 0
    rank = 0
    prev = 1
    for col in range(n):
        piv = next((i for i in range(rank, m) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank][col]
        rp = rows[rank]
        for i in range(rank + 1, m):
            ri = rows[i]
            f = ri[col]
            for j in range(col, n):
                ri[j] = (p * ri[j] - f * rp[j]) // prev
        prev = p
        rank += 1
        if rank == min(m, n):
            break
    return rank
