"""Property test: random codes and random interleaved unlearn batches keep
perfect unlearning exact, in memory and through a session round trip, with
and without regularization."""

import tempfile

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from codedunlearn import (Dataset, SingularSystem, learn, unlearn,
                          verify_perfect_unlearning)
from codedunlearn.session import load_session, save_session


@st.composite
def coded_problems(draw):
    s = draw(st.integers(1, 6))
    r = draw(st.integers(1, s))
    if s == 1 or draw(st.booleans()):
        rho = "minimal"
    else:
        rho = max(1.0 / r, draw(st.sampled_from([0.4, 0.5, 0.6])))
    nbar = draw(st.integers(1, 5))
    n = s * nbar + draw(st.integers(0, 2))       # a few dropped samples
    d = draw(st.integers(1, 3))
    # unsorted, non-contiguous ids, so the sorted index is not the identity
    ids = np.array(draw(st.permutations(range(n)))) * 3 + 5
    seed = draw(st.integers(0, 2**16))
    lam = draw(st.sampled_from([0.0, 1e-3]))
    return s, r, rho, n, d, ids, seed, lam


def state(model, store):
    cache = () if store.slice_stack is None else store.slice_stack
    return [a.tobytes() for a in (
        model.weights, store.coded_features, store.coded_response,
        store.alive, store.base_features, store.base_response, *cache)]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(problem=coded_problems(), data=st.data())
def test_random_unlearn_batches_stay_exact(problem, data):
    s, r, rho, n, d, ids, seed, lam = problem
    rng = np.random.default_rng(seed)
    ds = Dataset(rng.normal(size=(n, d)), rng.normal(size=n), ids)
    try:
        model, store, _ = learn(ds, s, r, rho, lam, seed=seed)
    except SingularSystem:
        # lam = 0 with fewer independent rows than columns in some shard
        assume(False)
    with tempfile.TemporaryDirectory() as session:
        for _ in range(data.draw(st.integers(1, 4))):
            alive_ids = store.ids[store.alive].tolist()
            if not alive_ids:
                break
            batch = data.draw(st.lists(st.sampled_from(alive_ids), min_size=1,
                                       max_size=min(4, len(alive_ids)),
                                       unique=True))
            before = state(model, store)
            try:
                unlearn(model, store, batch)
            except SingularSystem:
                # lam = 0: the forget would leave a learner singular
                assert lam == 0
                assert state(model, store) == before
                assert verify_perfect_unlearning(model, store) \
                    .max_discrepancy == 0.0
                continue
            assert not store.alive[store.locate(batch)].any()
            assert verify_perfect_unlearning(model, store).max_discrepancy \
                == 0.0

            save_session(session, model, store, {})
            back, back_store, _ = load_session(session)
            assert back_store.alive.tobytes() == store.alive.tobytes()
            for j in range(r):
                assert back_store.coded_features[j].tobytes() \
                    == store.coded_features[j].tobytes()
                assert back_store.coded_response[j].tobytes() \
                    == store.coded_response[j].tobytes()
            assert verify_perfect_unlearning(back, back_store) \
                .max_discrepancy == 0.0
