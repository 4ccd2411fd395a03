"""A forget against a retrain that shares no code with the package.

The objective a forget preserves is, per learner j with coded shard
(X_j, y_j) of nbar rows,

    sum_i (y_ji - x_ji . w)^2 + nbar * lam * |w|^2,

with nbar fixed at learn and each forgotten sample kept as a +0.0 row in
its uncoded shard: a fixed ridge alpha of nbar * lam.  The oracle below
builds the coded shards from the raw rows with plain numpy and solves that
objective by least squares on the augmented system [X_j; sqrt(nbar*lam) I].
"""

import numpy as np
import pytest

from codedunlearn import Dataset, learn, unlearn, verify_perfect_unlearning

N, D = 400, 5


def oracle_weights(features, response, G, forgotten, lam):
    """(D, r) ridge weights of the coded shards of the rows left, in numpy
    alone: uncoded shard i is the i-th contiguous block of the first
    floor(n/s)*s rows, coded shard j the G[:, j]-weighted sum of them, and
    a forgotten row is zeroed in place."""
    s, r = G.shape
    nbar = len(features) // s
    X = features[:s * nbar].copy()
    y = response[:s * nbar].copy()
    X[forgotten] = 0.0
    y[forgotten] = 0.0
    coded_X = np.einsum("ij,ink->jnk", G, X.reshape(s, nbar, -1))
    coded_y = np.einsum("ij,in->jn", G, y.reshape(s, nbar))
    penalty = np.sqrt(nbar * lam) * np.eye(X.shape[1])
    zeros = np.zeros(X.shape[1])
    return np.column_stack([
        np.linalg.lstsq(np.vstack([coded_X[j], penalty]),
                        np.concatenate([coded_y[j], zeros]), rcond=None)[0]
        for j in range(r)])


def emptying_request(G, nbar, j=0):
    """The ids at row 0 of every uncoded shard that coded shard j sums, so
    that the forget leaves coded row 0 of learner j with no live row."""
    return [int(i) * nbar for i in np.flatnonzero(G[:, j])]


@pytest.mark.parametrize("s,r,rho", [(4, 4, "minimal"), (8, 4, "minimal"),
                                     (8, 4, 0.5)],
                         ids=["permutation", "minimal", "bernoulli"])
@pytest.mark.parametrize("lam", [0.0, 1e-3, 0.1])
@pytest.mark.parametrize("request_size", [1, 3, 17, "emptying"])
def test_forget_equals_the_oracle_retrain(s, r, rho, lam, request_size):
    rng = np.random.default_rng(11)
    features = rng.normal(size=(N, D))
    response = features @ rng.normal(size=D) + 0.1 * rng.normal(size=N)
    model, store, G = learn(Dataset(features, response, np.arange(N)),
                            s, r, rho, lam, seed=5)
    nbar = N // s
    if request_size == "emptying":
        ids = emptying_request(G.entries, nbar)
    else:
        ids = sorted(rng.choice(N, request_size, replace=False).tolist())
    model, store, _ = unlearn(model, store, ids)

    expected = oracle_weights(features, response, G.entries, ids, lam)
    gap = np.linalg.norm(model.weights - expected, axis=0) \
        / np.linalg.norm(expected, axis=0)
    assert gap.max() <= 1e-10
    assert verify_perfect_unlearning(model, store).max_discrepancy == 0.0
