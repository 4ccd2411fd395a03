import math

import numpy as np
import pytest

from codedunlearn import DimensionMismatch, make_projection, project
from codedunlearn.projections import load_projection, save_projection


def test_deterministic_under_seed():
    a = make_projection(4, 10, 7)
    b = make_projection(4, 10, 7)
    assert (a.directions == b.directions).all()
    assert (a.offsets == b.offsets).all()


def test_direction_variance_matches_target():
    d = 10
    pmap = make_projection(d, 100_000, 0)
    var = pmap.directions.var()
    assert abs(var - 1.0 / (2 * d)) < 0.05 / (2 * d)


def test_offsets_within_support():
    pmap = make_projection(3, 5000, 1)
    assert ((pmap.offsets > -np.pi) & (pmap.offsets < np.pi)).all()


def test_output_range():
    pmap = make_projection(3, 20, 2)
    X = np.random.default_rng(0).normal(size=(50, 3)) * 100
    out = project(pmap, X)
    assert ((out >= -1) & (out <= 1)).all()


def test_zero_row_gives_cos_offsets():
    pmap = make_projection(3, 8, 4)
    out = project(pmap, np.zeros((1, 3)))
    np.testing.assert_array_equal(out[0], np.cos(pmap.offsets))


def test_single_row_vs_scalar_loop():
    pmap = make_projection(4, 6, 5)
    x = np.random.default_rng(1).normal(size=4)
    out = project(pmap, x[None, :])[0]
    for i in range(6):
        acc = 0.0
        for k in range(4):
            acc += x[k] * pmap.directions[k, i]
        assert out[i] == pytest.approx(math.cos(acc + pmap.offsets[i]),
                                       abs=1e-12)


def test_row_separable():
    pmap = make_projection(3, 7, 6)
    X = np.random.default_rng(2).normal(size=(9, 3))
    batch = project(pmap, X)
    rows = np.vstack([project(pmap, X[i:i + 1]) for i in range(9)])
    np.testing.assert_allclose(batch, rows, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n,d,D", [(1, 1, 1), (9, 3, 7), (50, 4, 100),
                                   (300, 10, 20)])
def test_bitwise_equal_to_unfused_expression(n, d, D):
    pmap = make_projection(d, D, n)
    X = np.random.default_rng(D).normal(size=(n, d)) * 3
    expected = np.cos(X @ pmap.directions + pmap.offsets)
    assert project(pmap, X).tobytes() == expected.tobytes()


def test_dimension_check():
    pmap = make_projection(3, 4, 0)
    with pytest.raises(DimensionMismatch):
        project(pmap, np.zeros((2, 5)))


def test_serialization_round_trip(tmp_path):
    pmap = make_projection(5, 12, 99)
    path = tmp_path / "projection.bin"
    save_projection(pmap, path)
    back = load_projection(path)
    assert back.input_dim == 5 and back.output_dim == 12 and back.seed == 99
    assert (back.directions == pmap.directions).all()
    assert (back.offsets == pmap.offsets).all()


def test_serialized_bytes_depend_only_on_the_map(tmp_path, monkeypatch):
    # sessions name the file by its hash, so an unchanged map must give
    # unchanged bytes, whatever the clock says
    import time

    paths = []
    for clock in (0.0, 1.7e9):
        monkeypatch.setattr(time, "time", lambda: clock)
        paths.append(tmp_path / f"{clock}.bin")
        save_projection(make_projection(4, 6, 1), paths[-1])
    assert paths[0].read_bytes() == paths[1].read_bytes()
