"""Dense numeric substrate: closed-form ridge solver, exact binary rank, and
the thread blocks that spread array work over the available CPUs.

Arrays are treated as immutable and never modified in place, except the
slice products update_products is given.  Only numpy is used.  An
unregularized ridge solve is refused when the condition number of the
summed X'X, the ratio of its largest eigenvalue to its smallest, exceeds
COND_LIMIT.

Every ridge solve is a solve of a stack of learners (solve_stack): an
(r, n, d) X and an (r, n) y, one learner's (n, d) X and (n,) y being a
stack of one.  With lam > 0 and fewer rows than columns (dual_form), the
stack is solved in dual form, w = X'(XX' + n*lam*I)^{-1} y, the same
minimizer from n x n systems: one batched np.matmul for the XX', one
np.linalg.solve and one more np.matmul, with no slice products.  Otherwise
(n >= d, or lam == 0), each learner's X'X and X'y are the ascending-order
sum of per-slice products: slice b is rows [b*h, (b+1)*h) of its n x d X,
the last one possibly partial, with h = 4d rows (at least 2**17 / d**2, see
SLICE_MIN_WORK).  The products of all the full slices of the stack are one
batched np.matmul, those of the partial last slices another
(slice_products), and solve_normal sums them and solves the stack's d x d
systems with one np.linalg.solve; each learner's bits are those of the same
calls on it alone.  The products are returned with the weights, and
ensemble.learn keeps them as its slice cache; update_products recomputes
in place the slices of them that changed rows touch, in any learners, with
one gather and one batched np.matmul each for X'X and X'y, plus one pair
for the partial last slices, on the same bits.  So a retrain from scratch
(ensemble.learn and verify) and an unlearn that reuses its cached
products (ensemble.unlearn) agree bitwise; an unlearn of dual-form
learners calls solve_stack on their coded shards, as learn does.

ridge_solve runs on the calling thread.  run_in_blocks runs the chunks its
caller cuts, a contiguous run of them per worker: the calling thread takes
the first run and one thread each the rest, one per available CPU (the
process's affinity set) but never more than the work asks for.  Verify's
retrain (in_learner_blocks) cuts chunks of whole learners, set by r, n and
d alone, and each chunk's solve is bitwise those learners solved alone.
projections.project cuts row chunks (each chunk's matmul, offset add and
cosine), each chunk's product bitwise those rows of the whole one.  BLAS
should be on one thread (the package sets OPENBLAS_NUM_THREADS=1 and the
like when it is imported before numpy) when several CPUs are available, or
the blocks' calls compete for them (and project's chunks no longer follow
the threaded BLAS's split of the whole product).

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

# A stack of r learners of n x d is r*m*m*(n + d) multiply-adds of work in
# round terms, m = min(n, d) (its Gram products or, in dual form, its XX',
# and its solves), and in_learner_blocks starts one worker per
# LEARNER_WORK_PER_WORKER of it.  Measured on a 2-vCPU VM (numpy 2.4, one
# BLAS thread, medians of 41 interleaved pairs), two blocks first beat one
# at 2**24.0 (n = 1000, d = 16 and n = 2000, d = 32), 2**24.2 (n = 20,
# d = 100 by the normal equations) and 2**25.3 (n = 400, d = 100); below
# that a second thread costs 0.4-0.7 ms.  So two workers start from 2**25.
LEARNER_WORK_PER_WORKER = 1 << 24
# Verify takes its learners in chunks of about this many float64 values
# (a learner's n*d rows, its k*m*m slice products or XX', and m*m each for
# their sum and its LU copy), so its transient arrays stay near 2 MB: at
# 200k x 32, r = 20, verify took 11.8 ms in chunks of 2**18 values against
# 18.7 ms in one chunk, on one worker.
LEARNER_CHUNK_VALUES = 1 << 18

_NON_FINITE = ("X or y holds NaN or Inf, or X'X or X'y overflows; "
               "rescale the features or the response")


def ridge_solve(X, y, lam: float):
    """Minimize (1/n) * sum_i (y_i - x_i.w)^2 + lam * w.w in closed form.

    An (r, n, d) X and (r, n) y are r learners, whose (r, d) weights and
    the slice products they were solved from, or None (solve_stack), are
    returned; an (n, d) X and (n,) y are a stack of one, whose (d,) weights
    and products row 0 are returned.  The squared error is averaged over
    the n rows, so the regularized normal equations carry n*lam:
    w = (X'X + n*lam*I)^{-1} X'y, the minimizer of
    sum_i (y_i - x_i.w)^2 + n*lam * w.w, a ridge alpha of n*lam.  All-zero
    rows count in n: they add nothing to X'X or X'y but raise the alpha.

    With lam > 0 and n < d (dual_form), the n x n system
    (XX' + n*lam*I) alpha = y is solved by LU and w = X'alpha, with no
    products; otherwise the d x d system is solved by LU from the summed
    slice products (solve_normal).  The two forms agree to rounding (about
    1e-12 relative at n = 20, d = 100).  Both refuse with ValueError an X
    or y holding NaN or Inf, and products or weights that overflow.  With
    lam == 0 the solve is refused (SingularSystem) unless d > 0 and the
    summed X'X has eigenvalues min > 0 and max <= COND_LIMIT * min; the
    normal equations then agree with least squares to about 1e-15 relative
    on well-conditioned X, and to about 1e-4 near COND_LIMIT.  A learner
    that cannot be solved fails the stack.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        return solve_stack(X, y, lam)
    weights, products = solve_stack(X[None], y[None], lam)
    return weights[0], products and (products[0][0], products[1][0])


def solve_stack(X, y, lam: float):
    """ridge_solve's (r, d) weights of the float (r, n, d) X and (r, n) y,
    on the calling thread, each learner's bits those of a stack of it
    alone, and the slice_products pair they were solved from; it raises as
    ridge_solve does.  Learners that dual_form picks are solved in dual
    form, and their products are None."""
    _check_system(X, y, lam)
    n, d = X.shape[1:]
    if dual_form(n, d, lam):
        return _solve_dual(X, y, lam), None
    products = slice_products(X, y)
    return solve_normal(*products, n, lam), products


def dual_form(n: int, d: int, lam: float) -> bool:
    """Whether learners of n rows and d columns are solved in dual form:
    regularized, with fewer rows than columns.  Their n x n systems are
    smaller than the d x d normal equations, and no slice products are
    formed or cached for them."""
    return lam > 0 and n < d


def _solve_dual(X: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """w = X'(XX' + n*lam*I)^{-1} y for every learner of the (r, n, d) X
    and (r, n) y, the minimizer the normal equations give: K = XX' is one
    batched np.matmul, all the n x n systems one np.linalg.solve, and
    X'alpha one more batched np.matmul.  Every entry of X is squared into
    K's diagonal, so a finite K and y mean a finite input; a non-finite K
    (NaN or Inf in X, or XX' overflowing) or y, or weights that overflow,
    are refused with ValueError, and one such learner fails the stack."""
    n = X.shape[-2]
    Xt = X.swapaxes(-1, -2)
    with np.errstate(over="ignore", invalid="ignore"):
        K = np.matmul(X, Xt)
    if not (np.isfinite(K).all() and np.isfinite(y).all()):
        raise ValueError(_NON_FINITE)
    K.reshape(K.shape[:-2] + (n * n,))[..., ::n + 1] += n * lam
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.matmul(Xt, np.linalg.solve(K, y[..., None]))[..., 0]
    if not np.isfinite(w).all():
        raise ValueError(_NON_FINITE)
    return w


def update_products(X, y, grams: np.ndarray, rhs: np.ndarray,
                    learners, rows) -> None:
    """Recompute in place slice products of the (r, n, d) X and (r, n) y,
    held in grams (r, k, d, d) and rhs (r, k, d) as slice_products lays
    them out: for every i, the slice of learner learners[i] that holds row
    rows[i] (pairs may repeat).  The full slices of those pairs take one
    batched np.matmul for X'X and one for X'y, on a view of their rows
    when they are adjacent slices of one learner (one id of a minimal
    code), else on one fancy gather from X's (r, n // h, h, d) view;
    touched partial last slices take one more pair.  Every product has the
    bits slice_products gives it."""
    r, n, d = X.shape
    h = _slice_height(d)
    full = n // h
    pairs = sorted(set(zip(np.asarray(learners).tolist(),
                           (np.asarray(rows) // h).tolist())))
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


def _slice_height(d: int) -> int:
    d = max(d, 1)
    return max(SLICE_ROWS_PER_COLUMN * d, -(-SLICE_MIN_WORK // (d * d)))


def slice_products(X: np.ndarray,
                   y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X_b'X_b and X_b'y_b of every slice b of every learner of the
    (..., n, d) X and (..., n) y, as one new (..., k, d, d) and one new
    (..., k, d) array.  The full slices take one batched matmul over a
    view of their rows and the partial last slice another, for the Grams
    and for X'y alike."""
    lead, (n, d) = X.shape[:-2], X.shape[-2:]
    h = _slice_height(d)
    full = n // h
    k = -(-n // h)
    grams, rhs = np.empty(lead + (k, d, d)), np.empty(lead + (k, d))
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
    and (..., k, d), every slice in ascending order, as slice_products
    and update_products lay them out); numpy reduces the slice axis one
    slice after another, into new arrays, so the products are left as they
    are.  An Inf or NaN anywhere in a learner's X or y makes its sums
    non-finite, so the O(d**2) check below is the solve's one finiteness
    check; it also refuses finite input whose products overflow.  With
    lam == 0 the eigenvalues of every summed X'X (one batched eigvalsh)
    must be min > 0 and max <= COND_LIMIT * min, or SingularSystem is
    raised.  One learner that fails a check fails the whole stack."""
    with np.errstate(over="ignore", invalid="ignore"):
        A = grams.sum(axis=-3)
        b = rhs.sum(axis=-2)
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError(_NON_FINITE)
    d = A.shape[-1]
    if lam == 0:
        eig = np.linalg.eigvalsh(A).T if d else np.zeros(1)    # d = 0: refused
        with np.errstate(over="ignore"):
            if not ((eig[0] > 0) & (eig[-1] <= COND_LIMIT * eig[0])).all():
                raise SingularSystem("X'X is numerically singular; "
                                     "use lam > 0 or a full-rank design")
    A.reshape(A.shape[:-2] + (d * d,))[..., ::d + 1] += n * lam
    return np.linalg.solve(A, b[..., None])[..., 0]


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def run_in_blocks(task, bounds, workers: int) -> None:
    """task(a, b) once for each pair of consecutive `bounds`, the chunks
    [a, b), spread over contiguous runs of chunks, one run per worker: at
    most `workers`, one per available CPU and one per chunk, and at least
    one.  The calling thread takes the first run and one thread each the
    rest; each runs its chunks in order.

    Every run goes under the caller's floating-point error handling
    (np.geterr, np.geterrcall), so its np.errstate holds in each thread,
    whether numpy keeps that state per thread (1.x) or per context (2.x).
    Every thread is joined, even when one fails, and the exception of the
    first run that failed is raised here.  Chunks must write disjoint
    outputs and call nothing that keeps per-process state, such as a
    function perfbench's tracer wraps (it keeps one span stack per
    process).
    """
    chunks = len(bounds) - 1
    workers = max(1, min(_available_cpus(), workers, chunks))
    runs = [chunks * k // workers for k in range(workers + 1)]
    errors: list[BaseException | None] = [None] * workers
    errstate = dict(np.geterr(), call=np.geterrcall())

    def run(k):
        try:
            with np.errstate(**errstate):
                for i in range(runs[k], runs[k + 1]):
                    task(bounds[i], bounds[i + 1])
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
    rows and d columns, each of about LEARNER_CHUNK_VALUES values, so the
    chunks depend on r, n and d alone: run_in_blocks over them, one worker
    per LEARNER_WORK_PER_WORKER of the learners' work: verify's retrain."""
    m = min(n, d)   # the order of a dual-form learner's systems when n < d
    per_learner = n * d + (-(-n // _slice_height(d)) + 2) * m * m
    chunk = max(1, LEARNER_CHUNK_VALUES // max(per_learner, 1))
    run_in_blocks(task, [*range(0, r, chunk), r],
                  r * m * m * (n + d) // LEARNER_WORK_PER_WORKER)


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
