"""Dense numeric substrate: closed-form ridge solver and exact binary rank.

All operations are pure functions of their arguments; arrays are treated as
immutable and never modified in place.  Only numpy is used.  An
unregularized ridge solve is refused when the exact condition number of X'X
exceeds COND_LIMIT.

Every ridge solve goes through refit.  With lam > 0 it forms X'X and X'y
as the ascending-order sum of per-slice products: slice b is rows
[b*h, (b+1)*h) of the n x d X, the last one possibly partial, with h = 4d
rows (at least 2**17 / d**2, see SLICE_MIN_WORK).  Given the products of an
earlier X it recomputes only the slices holding the changed rows, so a
retrain from scratch (ensemble.learn and verify, through ridge_solve) and an
unlearn that reuses its cached products (ensemble.unlearn) agree bitwise.

The binary rank is exact over the rationals.  It is first certified by
vectorised elimination modulo the prime 2**31 - 1: a minor that is nonzero
mod p is nonzero over Q, so the rank mod p is a lower bound on the rank over
Q, which is at most min(m, n).  When the two bounds meet the rank is known;
otherwise fraction-free (Bareiss) elimination on Python integers decides it.
"""

from __future__ import annotations

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


def ridge_solve(X, y, lam: float) -> np.ndarray:
    """Minimize (1/n) * sum_i (y_i - x_i.w)^2 + lam * w.w in closed form:
    refit from scratch, keeping only the weights."""
    return refit(X, y, lam)[0]


def refit(X, y, lam: float, products=None, rows=(),
          ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray] | None]:
    """Ridge weights of the (n, d) X and (n,) y, and the per-slice products
    they were solved from, as (w, (grams, rhs)); (w, None) when lam == 0.

    The squared-error term is averaged over the n rows, so the regularized
    normal equations carry n*lam:  w = (X'X + n*lam*I)^{-1} X'y.

    With lam > 0, X'X and X'y are summed from per-slice products (module
    docstring): every slice, or, given the products of an X that differs
    from this one only in the listed rows, a copy of them with the slices
    holding those rows recomputed.  The d x d system is solved by LU
    (np.linalg.solve) and refused with ValueError when X or y holds NaN or
    Inf or X'X or X'y overflows.  With lam == 0 it is solved by least
    squares (np.linalg.lstsq) and refused (SingularSystem) unless X has
    d > 0 nonzero singular values sv and the exact condition number of
    X'X, (max(sv) / min(sv))**2, is at most COND_LIMIT (tested unsquared,
    so it cannot overflow).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise DimensionMismatch(f"ridge_solve: X is {X.shape}, y is {y.shape}")
    if not 0 <= lam < np.inf:   # NaN fails both comparisons
        raise ValueError(f"lam must be nonnegative and finite, got {lam}")
    n, d = X.shape
    if lam > 0:
        if products is None:
            products = _slice_products(X, y)
        else:
            grams, rhs = products[0].copy(), products[1].copy()
            slices = np.unique(np.asarray(rows, dtype=int) // _slice_height(d))
            grams[slices], rhs[slices] = _slice_products(X, y, slices)
            products = grams, rhs
        return _solve_normal(*products, n, lam), products
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("X or y contains NaN or Inf")
    w, _, _, sv = np.linalg.lstsq(X, y, rcond=None)
    if d == 0 or sv.size < d or sv[-1] == 0 or sv[0] > COND_LIMIT**0.5 * sv[-1]:
        raise SingularSystem(
            "X'X is numerically singular; use lam > 0 or a full-rank design"
        )
    return w, None


def _slice_height(d: int) -> int:
    d = max(d, 1)
    return max(SLICE_ROWS_PER_COLUMN * d, -(-SLICE_MIN_WORK // (d * d)))


def _slice_products(X: np.ndarray, y: np.ndarray,
                    slices=None) -> tuple[np.ndarray, np.ndarray]:
    """X_b'X_b and X_b'y_b of each listed slice b of the (n, d) X and (n,) y
    (every slice, ascending, when slices is None), as one (k, d, d) and one
    (k, d) array in the order listed.  Entries may overflow to Inf;
    _solve_normal refuses them."""
    n, d = X.shape
    h = _slice_height(d)
    if slices is None:
        slices = range(-(-n // h))
    grams = np.empty((len(slices), d, d))
    rhs = np.empty((len(slices), d))
    with np.errstate(over="ignore", invalid="ignore"):
        for k, b in enumerate(slices):
            Xb = X[b * h:(b + 1) * h]
            grams[k] = Xb.T @ Xb
            rhs[k] = Xb.T @ y[b * h:(b + 1) * h]
    return grams, rhs


def _solve_normal(grams: np.ndarray, rhs: np.ndarray, n: int,
                  lam: float) -> np.ndarray:
    """Solve (X'X + n*lam*I) w = X'y by LU, with X'X and X'y the sums of all
    the slice products of an n-row X (_slice_products, every slice in
    ascending order); numpy reduces a leading axis one slice after another.
    An Inf or NaN anywhere in X or y makes these sums non-finite, so the
    O(d**2) check below is a regularized solve's one finiteness check; it
    also refuses finite input whose products overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        A = grams.sum(axis=0)
        b = rhs.sum(axis=0)
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("X or y holds NaN or Inf, or X'X or X'y overflows; "
                         "rescale the features or the response")
    A.flat[::A.shape[0] + 1] += n * lam
    return np.linalg.solve(A, b)


# Modulus of the rank certificate: a prime below 2**31, so the product of two
# residues fits in int64.
_PRIME = 2**31 - 1


def binary_rank(G) -> int:
    """Rank of a 0/1 matrix over the rationals, computed exactly.

    The rank modulo the prime 2**31 - 1 never exceeds the rank over Q, which
    never exceeds min(m, n); when the rank mod p reaches min(m, n) it is
    returned.  Otherwise fraction-free (Bareiss) elimination on Python
    integers gives the exact rank.  No floating-point tolerance is involved,
    so the result is deterministic.
    """
    G = np.asarray(G)
    if G.ndim != 2:
        raise DimensionMismatch("binary_rank expects a 2-d matrix")
    if not ((G == 0) | (G == 1)).all():
        raise ValueError("entries must be 0 or 1")
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
