"""Dense numeric substrate: closed-form ridge solver and exact binary rank.

All operations are pure functions of their arguments; arrays are treated as
immutable and never modified in place.

The binary rank is exact over the rationals.  It is first certified by
vectorised elimination modulo the prime 2**31 - 1: a minor that is nonzero
mod p is nonzero over Q, so the rank mod p is a lower bound on the rank over
Q, which is at most min(m, n).  When the two bounds meet the rank is known;
otherwise fraction-free (Bareiss) elimination on Python integers decides it.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg as sla

from .errors import DimensionMismatch, SingularSystem

# Condition-number estimate above which an unregularized solve is refused.
COND_LIMIT = 1e12


def _check_finite(a: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains NaN or Inf")
    return a


def ridge_solve(X, y, lam: float) -> np.ndarray:
    """Minimize (1/n) * sum_i (y_i - x_i.w)^2 + lam * w.w in closed form.

    The squared-error term is averaged over the n rows, so the regularized
    normal equations carry n*lam:  w = (X'X + n*lam*I)^{-1} X'y.

    With lam == 0 the system is solved through a column-pivoted QR
    factorization of X and refused (SingularSystem) when the condition
    estimate of X'X exceeds COND_LIMIT.
    """
    X = _check_finite(X, "X")
    y = _check_finite(y, "y")
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise DimensionMismatch(
            f"ridge_solve: X is {X.shape}, y is {y.shape}"
        )
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    n, d = X.shape
    if lam > 0:
        a = X.T @ X + (n * lam) * np.eye(d)
        c, low = sla.cho_factor(a, lower=True)
        return sla.cho_solve((c, low), X.T @ y)
    q, r, piv = sla.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[-1] == 0 or (diag[0] / diag[-1]) ** 2 > COND_LIMIT:
        raise SingularSystem(
            "X'X is numerically singular; use lam > 0 or a full-rank design"
        )
    w_piv = sla.solve_triangular(r, q.T @ y, lower=False)
    w = np.empty(d)
    w[piv] = w_piv
    return w


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
