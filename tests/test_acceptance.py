"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import numpy as np
import pytest

from codedunlearn import (
    SyntheticSpec,
    binary_rank,
    gen_synthetic,
    learn,
    make_projection,
    normalize,
    predict,
    rand_matrix,
    rand_matrix_minimal,
    remove_by_percentile,
    ridge_solve,
    split,
    unlearn,
    verify_perfect_unlearning,
)
from codedunlearn.bench import influence_band, mse


ACCEPTANCE_LINES: list[str] = []


def report(num: int, description: str, ok: bool):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {description}"
    # recorded for conftest's terminal summary (survives output capture)
    # and printed immediately for -s runs
    ACCEPTANCE_LINES.append(line)
    print("\n" + line)
    assert ok, f"criterion {num} failed: {description}"


# ---------------------------------------------------------------------------
# criteria 1 and 4: perfect unlearning + affected-learner accounting


def desk_instances():
    """50 randomized desk-scale configurations."""
    grid = []
    for lam in (0.0, 1e-3):
        for s in (5, 10, 25):
            for tau in (1, 5):
                for density in ("minimal", "bernoulli"):
                    for k in (1, 5, 25):
                        grid.append((lam, s, tau, density, k))
    return grid[:50]


@pytest.fixture(scope="module")
def desk_results():
    results = []
    ds = gen_synthetic(SyntheticSpec("gaussian-linear", n=500, d=8, seed=2718))
    for idx, (lam, s, tau, density, k) in enumerate(desk_instances()):
        r = s // tau
        rho = "minimal" if density == "minimal" else max(1.0 / r, 0.4)
        seed = 9000 + idx
        pmap = make_projection(8, 16, seed)
        model, store, G = learn(ds, s, r, rho, lam, projection=pmap, seed=seed)
        rng = np.random.default_rng(seed)
        victims = rng.choice(store.ids, size=k, replace=False).tolist()
        _, _, rep = unlearn(model, store, victims)
        verdict = verify_perfect_unlearning(model, store)
        results.append((lam, s, r, tau, rho, k, victims, store, G, rep,
                        verdict))
    return results


def test_criterion_1_perfect_unlearning(desk_results):
    worst = max(v.max_discrepancy for *_, v in desk_results)
    ok = len(desk_results) == 50 and worst <= 1e-8
    report(1, f"perfect unlearning on 50 desk-scale instances "
              f"(worst relative discrepancy {worst:.2e} <= 1e-8)", ok)


def test_criterion_4_affected_learner_accounting(desk_results):
    ok = True
    for lam, s, r, tau, rho, k, victims, store, G, rep, _ in desk_results:
        expected = set()
        shards = store.locate(victims) // store.shard_size
        for shard in shards:
            expected.update(int(j) for j in G.entries[shard].nonzero()[0])
        if set(rep.affected_learners) != expected:
            ok = False
        if rho == "minimal" and k == 1 and rep.num_affected != 1:
            ok = False
        if k == 1:
            if rep.num_affected != len(G.entries[shards[0]].nonzero()[0]):
                ok = False
    report(4, "retrain count equals generator-row support "
              "(exactly 1 at minimal density)", ok)


# ---------------------------------------------------------------------------
# criterion 2: encoder structural invariants


def test_criterion_2_generator_invariants():
    rng = np.random.default_rng(31337)
    ok = True
    for draw in range(1000):
        s = int(rng.integers(1, 65))
        r = int(rng.integers(1, s + 1))
        seed = int(rng.integers(1 << 30))
        if draw % 2:
            G = rand_matrix_minimal(s, r, seed)
            if not (G.entries.sum(axis=1) == 1).all():
                ok = False
            if not (G.entries.sum(axis=0) >= 1).all():
                ok = False
        else:
            # keep the no-zero-row rejection feasible: whole-matrix
            # resampling needs (1 - (1-rho)^r)^s to stay non-negligible
            floor = 1.0 - (0.005 / s) ** (1.0 / r)
            rho = min(1.0, max(1.0 / r, floor, float(rng.uniform(0.3, 0.7))))
            G = rand_matrix(s, r, rho, seed)
        if (G.entries.sum(axis=1) == 0).any():
            ok = False
        if not np.isin(G.entries, (0, 1)).all():
            ok = False
        if binary_rank(G.entries) != r:
            ok = False
    report(2, "1000 seeded generator draws satisfy zero-row, exact-rank, "
              "and binary invariants", ok)


# ---------------------------------------------------------------------------
# criterion 3: uncoded degeneracy, bitwise


def test_criterion_3_uncoded_degeneracy():
    ds = gen_synthetic(SyntheticSpec("gaussian-linear", n=500, d=8, seed=99))
    pmap = make_projection(8, 16, 7)
    ok = True
    for lam in (0.0, 1e-3):
        # s == 1: single learner on the full training set
        model, _, _ = learn(ds, 1, 1, "minimal", lam, projection=pmap)
        from codedunlearn.projections import project
        w, _ = ridge_solve(project(pmap, ds.features), ds.response, lam)
        if not (model.weights[:, 0] == w).all() or not (model.agg == w).all():
            ok = False
        # s == r permutation code: independently trained uncoded shards
        model, store, G = learn(ds, 10, 10, "minimal", lam, projection=pmap,
                                seed=4)
        feats = project(pmap, ds.features)
        nbar = store.shard_size
        for j in range(10):
            i = int(np.flatnonzero(G.entries[:, j])[0])
            w, _ = ridge_solve(feats[i * nbar:(i + 1) * nbar],
                               ds.response[i * nbar:(i + 1) * nbar], lam)
            if not (model.weights[:, j] == w).all():
                ok = False
    report(3, "permutation and single-shard codes reproduce uncoded "
              "learners bitwise", ok)


# ---------------------------------------------------------------------------
# criteria 5 and 6: trade-off sweeps


def sweep_runs(ds, n_train, s, r, lam, runs, master, arm):
    """Per-run post-unlearn test MSEs for one sweep arm; splits are shared
    across arms (seeded by run only) so comparisons pair up."""
    out = []
    for run in range(runs):
        split_seed, pick_seed = np.random.SeedSequence([master, run]).spawn(2)
        code_seed = np.random.SeedSequence([master, arm, run])
        train, test = split(ds, n_train, split_seed)
        train_n, test_n, _ = normalize(train, test)
        model, store, _ = learn(train_n, s, r, "minimal", lam, seed=code_seed)
        victim = int(store.ids[np.random.default_rng(pick_seed).integers(
            0, len(store.ids))])
        unlearn(model, store, [victim])
        out.append(mse(predict(model, test_n.features), test_n.response))
    return out


@pytest.fixture(scope="module")
def lognormal_expanded():
    return gen_synthetic(SyntheticSpec(
        "lognormal-poly", n=7000, d=20, mu=1.0, sigma2=0.7, degree=3,
        seed=424242, expose_expanded=True))


def test_criterion_5_heavy_tail_tradeoff(lognormal_expanded):
    ds = lognormal_expanded
    # 1e-4 keeps the smallest shards (75 rows x 60 features) out of the
    # near-interpolation regime where per-learner error explodes erratically
    lam, runs, master = 1e-4, 20, 5050
    shard_counts = (10, 20, 40, 80)
    coded, uncoded = {}, {}
    for s in shard_counts:
        coded[s] = sweep_runs(ds, 6000, s, s // 5, lam, runs, master, arm=1)
        uncoded[s] = sweep_runs(ds, 6000, s, s, lam, runs, master, arm=2)
    wins = sum(c <= u for s in shard_counts
               for c, u in zip(coded[s], uncoded[s]))
    total = len(shard_counts) * runs
    frac = wins / total
    uncoded_means = [float(np.mean(uncoded[s])) for s in shard_counts]
    monotone = all(a <= b for a, b in zip(uncoded_means, uncoded_means[1:]))
    proxies = [6000 // s for s in shard_counts]  # affected=1, fixed width
    proxy_decreasing = all(a > b for a, b in zip(proxies, proxies[1:]))
    ok = frac >= 0.8 and monotone and proxy_decreasing
    report(5, f"heavy-tail trade-off: coded beats uncoded in {frac:.0%} of "
              f"matched comparisons (>=80%), uncoded MSE degrades "
              f"monotonically {[f'{m:.2e}' for m in uncoded_means]}, "
              f"cost proxy strictly decreasing", ok)


def test_criterion_6_no_tail_null_result():
    ds = gen_synthetic(SyntheticSpec("gaussian-linear", n=7000, d=20,
                                     seed=515151))
    lam, runs, master = 0.0, 20, 6060
    shard_counts = (10, 20, 40)
    uncoded = {s: float(np.mean(sweep_runs(ds, 6000, s, s, lam, runs, master,
                                           arm=0)))
               for s in shard_counts}
    baseline = float(np.mean(sweep_runs(ds, 6000, 1, 1, lam, runs, master,
                                        arm=9)))
    ok = True
    details = []
    for tau_idx, tau in enumerate((2, 5)):
        for s in shard_counts:
            c = float(np.mean(sweep_runs(ds, 6000, s, s // tau, lam, runs,
                                         master, arm=10 + tau_idx)))
            rel = abs(c - uncoded[s]) / uncoded[s]
            details.append(rel)
            if rel > 0.05:
                ok = False
            if s == shard_counts[0] and abs(c - baseline) / baseline > 0.05:
                ok = False
    report(6, f"gaussian null result: coded within 5% of uncoded at every "
              f"matched shard size (worst gap {max(details):.1%}) and of the "
              f"single-learner baseline at the largest shard", ok)


# ---------------------------------------------------------------------------
# criterion 7: influence directionality


def influence_curve(train, test, mode, p_grid, lam, band_columns):
    """(remaining_pct, test MSE) points for one mode on one split.

    Normalization happens before filtering so MSEs stay in one unit
    across the sweep."""
    train_n, test_n, _ = normalize(train, test)
    pts = []
    for p in p_grid:
        band = influence_band(p, mode)
        kept = train_n if band is None else remove_by_percentile(
            train_n, band, mode, columns=band_columns)
        w, _ = ridge_solve(kept.features, kept.response, lam)
        pts.append((100.0 * kept.n / train_n.n,
                    mse(test_n.features @ w, test_n.response)))
    return pts


def mse_at_remaining(points, target):
    """Linear interpolation of MSE at a remaining-percentage level."""
    pts = sorted(points)
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    return float(np.interp(target, xs, ys))


OUTLIER_GRID = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0]
INLIER_GRID = [0.0, 40.0, 44.0, 46.0, 47.0, 48.0, 49.0, 49.5]


def removal_gap_at(train, test, lam, band_columns, target):
    out = influence_curve(train, test, "outliers", OUTLIER_GRID, lam,
                          band_columns)
    inl = influence_curve(train, test, "inliers", INLIER_GRID, lam,
                          band_columns)
    return mse_at_remaining(out, target) - mse_at_remaining(inl, target)


def test_criterion_7_influence_directionality():
    runs, lam, master = 20, 1e-6, 7070
    datasets = {
        sigma2: gen_synthetic(SyntheticSpec(
            "lognormal-poly", n=6000, d=20, mu=1.0, sigma2=sigma2, degree=3,
            seed=606060, expose_expanded=True))
        for sigma2 in (0.1, 0.7)
    }
    band_columns = list(range(20))  # original features of the expansion
    heavier_wins = 0
    for run in range(runs):
        split_seed = np.random.SeedSequence([master, run])
        gaps = {}
        for sigma2, ds in datasets.items():
            train, test = split(ds, 5000, split_seed)
            gaps[sigma2] = removal_gap_at(train, test, lam, band_columns, 60.0)
        if gaps[0.7] > gaps[0.1]:
            heavier_wins += 1

    # gaussian features: removal curves stay close down to 60% remaining
    gds = gen_synthetic(SyntheticSpec("gaussian-linear", n=6000, d=20,
                                      seed=616161))
    out_curves, inl_curves = [], []
    for run in range(runs):
        split_seed = np.random.SeedSequence([master, 999, run])
        train, test = split(gds, 5000, split_seed)
        out_curves.append(influence_curve(train, test, "outliers",
                                          OUTLIER_GRID, 0.0, None))
        inl_curves.append(influence_curve(train, test, "inliers",
                                          INLIER_GRID, 0.0, None))
    close = True
    for level in (90.0, 80.0, 70.0, 60.0):
        o = np.mean([mse_at_remaining(c, level) for c in out_curves])
        i = np.mean([mse_at_remaining(c, level) for c in inl_curves])
        if abs(o - i) / i > 0.10:
            close = False
    ok = heavier_wins >= 0.8 * runs and close
    report(7, f"outlier-vs-inlier gap larger for sigma2=0.7 in "
              f"{heavier_wins}/{runs} runs (>=16) and gaussian curves "
              f"within 10% down to 60% remaining", ok)


# ---------------------------------------------------------------------------
# criterion 8: projection correctness


def test_criterion_8_projection_moments_and_freezing():
    d = 10
    pmap = make_projection(d, 100_000, 1234)  # 10^6 direction entries
    var_ok = abs(pmap.directions.var() - 1 / (2 * d)) < 0.05 / (2 * d)
    support_ok = ((pmap.offsets > -np.pi) & (pmap.offsets < np.pi)).all()

    ds = gen_synthetic(SyntheticSpec("gaussian-linear", n=200, d=10, seed=3))
    small = make_projection(10, 16, 77)
    directions = small.directions.copy()
    offsets = small.offsets.copy()
    model, store, _ = learn(ds, 5, 5, "minimal", 1e-3, projection=small,
                            seed=8)
    unlearn(model, store, [11, 57])
    frozen = (model.projection is small
              and (small.directions == directions).all()
              and (small.offsets == offsets).all())
    ok = bool(var_ok and support_ok and frozen)
    report(8, "direction variance within 5% of 1/(2d) over 1e6 draws, "
              "offsets in (-pi, pi), map bit-identical after unlearning", ok)


# ---------------------------------------------------------------------------
# criterion 9: solver correctness


def gd_oracle(X, y, lam, tol=1e-12, max_iters=500_000):
    n, d = X.shape
    hessian = (2.0 / n) * (X.T @ X) + 2.0 * lam * np.eye(d)
    step = 1.0 / np.linalg.eigvalsh(hessian).max()
    w = np.zeros(d)
    for _ in range(max_iters):
        g = (2.0 / n) * (X.T @ (X @ w - y)) + 2.0 * lam * w
        if np.linalg.norm(g) < tol:
            break
        w = w - step * g
    return w


def test_criterion_9_solver_vs_iterative_oracle():
    rng = np.random.default_rng(8642)
    ok = True
    for _ in range(100):
        n = int(rng.integers(10, 40))
        d = int(rng.integers(2, 7))
        lam = float(rng.choice([0.0, 1e-3, 0.1]))
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        w, _ = ridge_solve(X, y, lam)
        w_gd = gd_oracle(X, y, lam)
        if np.linalg.norm(w - w_gd) / max(np.linalg.norm(w_gd), 1e-12) > 1e-6:
            ok = False
        grad = (2.0 / n) * (X.T @ (X @ w - y)) + 2.0 * lam * w
        if np.linalg.norm(grad) > 1e-8 * (1 + np.linalg.norm(y)):
            ok = False
    report(9, "closed form matches gradient-descent oracle within 1e-6 on "
              "100 systems; gradient vanishes at every solution", ok)
