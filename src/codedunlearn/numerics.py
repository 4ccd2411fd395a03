"""Dense numeric substrate: closed-form ridge solver and exact binary rank.

All operations are pure functions of their arguments; arrays are treated as
immutable and never modified in place.
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


def binary_rank(G) -> int:
    """Rank of a 0/1 matrix over the rationals, computed exactly.

    Fraction-free (Bareiss) elimination on Python integers; no floating-point
    tolerance is involved, so the result is deterministic.
    """
    G = np.asarray(G)
    if G.ndim != 2:
        raise DimensionMismatch("binary_rank expects a 2-d matrix")
    if not np.isin(G, (0, 1)).all():
        raise ValueError("entries must be 0 or 1")
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
