import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedunlearn import (
    BadSplitSize,
    Dataset,
    EmptyResult,
    InvalidSpec,
    MissingColumn,
    ParseError,
    SyntheticSpec,
    gen_synthetic,
    load_csv,
    normalize,
    poly_expand,
    remove_by_percentile,
    split,
    write_csv,
)
from codedunlearn.dataset import _WRITE_CHUNK, _parse_cells, read_numeric_csv
from codedunlearn.numerics import ridge_solve


@pytest.fixture
def small_ds():
    rng = np.random.default_rng(0)
    return Dataset(rng.normal(size=(10, 3)), rng.normal(size=10), np.arange(10))


class TestUniqueIds:
    @pytest.mark.parametrize("ids", [
        [0, 1, 1, 2, 3],            # adjacent
        [7, 0, 1, 2, 7],            # far apart
        [-3, 5, -3, 0, 9],          # negative
        [4, 4, 4, 4, 4],
    ], ids=["adjacent", "far-apart", "negative", "all-equal"])
    def test_duplicate_ids_refused(self, ids):
        with pytest.raises(ValueError, match="ids must be unique"):
            Dataset(np.zeros((5, 2)), np.zeros(5), ids)

    def test_unique_negative_and_empty_ids_accepted(self):
        assert Dataset(np.zeros((3, 1)), np.zeros(3), [-2, 5, -1]).n == 3
        assert Dataset(np.zeros((0, 1)), np.zeros(0), []).n == 0

    def test_subset_with_repeated_index_refused(self, small_ds):
        with pytest.raises(ValueError, match="ids must be unique"):
            small_ds.subset(np.array([3, 0, 3]))


class TestCsv:
    def test_load_by_name(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b,y\n1,2,3\n4,5,6\n7,8,9\n")
        ds = load_csv(f, "y")
        assert ds.n == 3 and ds.num_features == 2
        np.testing.assert_array_equal(ds.response, [3, 6, 9])

    def test_load_by_index(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b,y\n1,2,3\n")
        ds = load_csv(f, 0)
        np.testing.assert_array_equal(ds.response, [1])
        np.testing.assert_array_equal(ds.features, [[2, 3]])

    def test_blank_cell_names_location(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b,y\n1,,3\n")
        with pytest.raises(ParseError, match="row 2.*'b'"):
            load_csv(f, "y")

    def test_ragged_row(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b,y\n1,2,3\n1,2\n")
        with pytest.raises(ParseError, match="row 3"):
            load_csv(f, "y")

    def test_missing_column(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b\n1,2\n")
        with pytest.raises(MissingColumn):
            load_csv(f, "z")

    def test_round_trip(self, tmp_path, small_ds):
        f = tmp_path / "d.csv"
        write_csv(small_ds, f)
        back = load_csv(f, "y")
        assert (back.features == small_ds.features).all()
        assert (back.response == small_ds.response).all()

    def test_bytes_equal_per_cell_repr(self, tmp_path):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 6)) * 10.0 ** rng.integers(-300, 300, (50, 6))
        X[0] = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e308]
        y = rng.normal(size=50)
        y[1] = -0.0
        f = tmp_path / "d.csv"
        write_csv(Dataset(X, y, np.arange(50)), f)
        reference = "x0,x1,x2,x3,x4,x5,y\r\n" + "".join(
            ",".join(repr(float(v)) for v in [*X[i], y[i]]) + "\r\n"
            for i in range(50))
        assert f.read_bytes() == reference.encode()


def reference_read(path):
    """The cell-by-cell reader alone: csv rows straight from the file."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        return header, _parse_cells(path, header, reader)


def outcome(read, path):
    try:
        header, data = read(path)
    except ParseError as exc:
        return "error", str(exc)
    return header, data.shape, data.tobytes()


class TestReaderParity:
    """read_numeric_csv against the cell-by-cell reference: bitwise equal
    arrays or the identical ParseError text, whichever path it took."""

    @pytest.mark.parametrize("text,by_cell", [
        ("a,b\n1,2\n3,4\n", False),
        ("a,b\r\n1,2\r\n3,4", False),
        ("a,b\r1,2\r3,4\r", False),
        ("a,b\r\n1,2\n3,4\r5,6\n", False),
        ("a,b\n 1.5 , 2 \n", False),
        ("a,b,c\nnan,inf,-Infinity\n-0.0,5e-324,1e999\n", False),
        ("y\n1\n2\n", False),
        ('"a,b",c\n1,2\n', False),
        ("a,b\n1,2\n\n3,4\n", True),
        ("a,b\n1,2\n\n", True),
        ("a,b\n\n", True),
        ("a,b\r\r1,2\r", True),
        ("a,b,c\n1,,3\n", True),
        ('a,b\n"1.5",2\n', True),
        ("a,b\n1_0,2\n", True),
        ("a,b\n# note\n1,2\n", True),
        ("a\n#1\n", True),
        ("a,b\n", True),
        ("a,b", True),
        ("", False),
        ("a,b\n1,2\n1\n", True),
        ("a,b\n1,2,3\n", True),
        ("a\n  \n", True),
    ], ids=["lf", "crlf", "cr-only", "mixed-ends", "spaces", "non-finite",
            "one-column", "quoted-header", "blank-mid", "blank-trailing",
            "blank-only", "blank-cr", "empty-cell", "quoted-number",
            "underscore", "hash-line", "hash-number", "header-only",
            "header-only-unterminated", "empty-file", "ragged-short",
            "ragged-long", "spaces-only"])
    def test_same_result_as_reference(self, tmp_path, monkeypatch, text,
                                      by_cell):
        f = tmp_path / "d.csv"
        f.write_bytes(text.encode())
        expected = outcome(reference_read, f)
        calls = []
        real = _parse_cells
        monkeypatch.setattr("codedunlearn.dataset._parse_cells",
                            lambda *a: calls.append(a) or real(*a))
        assert outcome(read_numeric_csv, f) == expected
        # only input numpy's reader cannot take reaches the cell-by-cell loop
        assert bool(calls) == by_cell


class TestWriter:
    VALUES = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16,
              9.999999999999999e15, 1e-5, 0.1]

    def test_bytes_equal_csv_writer_and_round_trip(self, tmp_path):
        # spans a chunk boundary of the writer
        n = _WRITE_CHUNK + 3
        X = np.resize(self.VALUES, (n, 2))
        y = np.resize(self.VALUES[::-1], n)
        names = ["x0", "x1"]
        f = tmp_path / "d.csv"
        write_csv(Dataset(X, y, np.arange(n)), f)
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(names + ["y"])
        writer.writerows(row + [v] for row, v in zip(X.tolist(), y.tolist()))
        assert f.read_bytes() == buf.getvalue().encode()
        back = load_csv(f, "y")
        assert back.features.tobytes() == X.tobytes()
        assert back.response.tobytes() == y.tobytes()

class TestNormalize:
    def test_column_maps_to_unit_interval(self):
        train = Dataset(np.array([[2.0], [4.0], [6.0]]), np.array([0.0, 1.0, 2.0]),
                        np.arange(3))
        train_n, _, _ = normalize(train, train)
        np.testing.assert_allclose(train_n.features[:, 0], [0, 0.5, 1])

    def test_constant_column_maps_to_zero(self):
        train = Dataset(np.full((3, 1), 5.0), np.array([1.0, 2.0, 3.0]),
                        np.arange(3))
        train_n, _, _ = normalize(train, train)
        assert (train_n.features == 0).all()

    def test_test_split_can_exceed_range(self):
        train = Dataset(np.array([[2.0], [6.0]]), np.array([0.0, 1.0]),
                        np.arange(2))
        test = Dataset(np.array([[8.0]]), np.array([0.5]), np.array([9]))
        _, test_n, _ = normalize(train, test)
        np.testing.assert_allclose(test_n.features[0, 0], 1.5)

    def test_round_trip_within_tolerance(self, small_ds):
        train_n, _, rec = normalize(small_ds, small_ds)
        span = rec.feature_max - rec.feature_min
        back = train_n.features * span + rec.feature_min
        np.testing.assert_allclose(back, small_ds.features, atol=1e-12)
        yspan = rec.response_max - rec.response_min
        yback = train_n.response * yspan + rec.response_min
        np.testing.assert_allclose(yback, small_ds.response, atol=1e-12)

    def test_equals_the_where_form_bitwise(self):
        # a constant column and a test split outside the train range
        rng = np.random.default_rng(4)
        train = Dataset(rng.lognormal(size=(50, 4)), rng.normal(size=50),
                        np.arange(50))
        train.features[:, 2] = 3.0
        test = Dataset(rng.lognormal(size=(20, 4)) * 3, rng.normal(size=20),
                       np.arange(50, 70))
        train_n, test_n, rec = normalize(train, test)
        span = rec.feature_max - rec.feature_min
        safe = np.where(span > 0, span, 1.0)
        yspan = rec.response_max - rec.response_min
        for ds, got in ((train, train_n), (test, test_n)):
            want = np.where(span > 0, (ds.features - rec.feature_min) / safe,
                            0.0)
            assert got.features.tobytes() == want.tobytes()
            assert got.response.tobytes() \
                == ((ds.response - rec.response_min) / yspan).tobytes()
        assert (train_n.features[:, 2] == 0.0).all()


class TestSubset:
    @pytest.mark.parametrize("index", [
        np.array([3, 0, 7, -1]), [9, 2], np.arange(10)[::-2],
        np.array([True, False] * 5), np.zeros(10, dtype=bool), []],
        ids=["ints", "list", "strided", "mask", "empty-mask", "empty-list"])
    def test_rows_equal_fancy_indexing(self, small_ds, index):
        got = small_ds.subset(index)
        for name in ("features", "response", "ids"):
            want = getattr(small_ds, name)[index]
            assert getattr(got, name).tobytes() == want.tobytes()
            assert getattr(got, name).shape == want.shape

    @pytest.mark.parametrize("index", [np.ones(9, dtype=bool), [10]],
                             ids=["short-mask", "out-of-range"])
    def test_bad_index_refused(self, small_ds, index):
        with pytest.raises(IndexError):
            small_ds.subset(index)


class TestSplit:
    def test_sizes(self, small_ds):
        train, test = split(small_ds, 7, 0)
        assert (train.n, test.n) == (7, 3)

    def test_deterministic(self, small_ds):
        a1, b1 = split(small_ds, 6, 42)
        a2, b2 = split(small_ds, 6, 42)
        assert (a1.ids == a2.ids).all() and (b1.ids == b2.ids).all()

    def test_partition_of_ids(self, small_ds):
        train, test = split(small_ds, 4, 3)
        ids = set(train.ids) | set(test.ids)
        assert ids == set(small_ds.ids)
        assert not set(train.ids) & set(test.ids)

    def test_bad_size(self, small_ds):
        with pytest.raises(BadSplitSize):
            split(small_ds, 10, 0)


class TestSynthetic:
    def test_reproducible(self):
        spec = SyntheticSpec("lognormal-poly", n=50, d=4, sigma2=0.5, seed=9)
        a, b = gen_synthetic(spec), gen_synthetic(spec)
        assert (a.features == b.features).all() and (a.response == b.response).all()

    def test_gaussian_linear_recovers_weights(self):
        # consistency at n=10,000: regression recovers the generating weights
        spec = SyntheticSpec("gaussian-linear", n=10_000, d=5, seed=123)
        ds = gen_synthetic(spec)
        # recover the generating weights by replaying the seeded draw order
        rng = np.random.default_rng(123)
        rng.standard_normal((10_000, 5))
        w_true = rng.standard_normal(5)
        w_hat, _ = ridge_solve(ds.features, ds.response, 0.0)
        assert np.linalg.norm(w_hat - w_true) / np.linalg.norm(w_true) < 0.1

    def test_degenerate_lognormal(self):
        spec = SyntheticSpec("lognormal-poly", n=20, d=3, mu=1.0, sigma2=0.0,
                             seed=0)
        ds = gen_synthetic(spec)
        np.testing.assert_allclose(ds.features, np.e, rtol=1e-12)

    def test_mlp_finite(self):
        spec = SyntheticSpec("mlp", n=200, d=50, mu=1.0, sigma2=4.0,
                             layer_widths=(50, 25, 50), seed=1)
        ds = gen_synthetic(spec)
        assert np.isfinite(ds.response).all()

    def test_chisquare_expansion_width(self):
        spec = SyntheticSpec("chisquare-poly", n=30, d=4, seed=2,
                             expose_expanded=True)
        assert gen_synthetic(spec).num_features == 16  # degree-4 expansion

    def test_expose_expanded_off_returns_original(self):
        spec = SyntheticSpec("lognormal-poly", n=30, d=4, sigma2=0.3, seed=2)
        assert gen_synthetic(spec).num_features == 4

    def test_invalid_kind(self):
        with pytest.raises(InvalidSpec):
            gen_synthetic(SyntheticSpec("bogus", n=1, d=1))

    def test_invalid_sizes(self):
        with pytest.raises(InvalidSpec):
            gen_synthetic(SyntheticSpec("gaussian-linear", n=0, d=1))

    def test_poly_expand_powers(self):
        X = np.array([[2.0, 3.0]])
        np.testing.assert_array_equal(poly_expand(X, 3),
                                      [[2, 3, 4, 9, 8, 27]])


class TestRemoveByPercentile:
    def test_p_zero_outliers_unchanged(self, small_ds):
        kept = remove_by_percentile(small_ds, 0, "outliers")
        assert kept.n == small_ds.n

    def test_band_against_direct_percentiles(self):
        vals = np.arange(1.0, 101.0)
        ds = Dataset(vals[:, None], np.zeros(100), np.arange(100))
        kept = remove_by_percentile(ds, 10, "outliers")
        lo, hi = np.percentile(vals, 10), np.percentile(vals, 90)
        expected = vals[(vals >= lo) & (vals <= hi)]
        np.testing.assert_array_equal(kept.features[:, 0], expected)

    def test_modes_partition(self, small_ds):
        out = remove_by_percentile(small_ds, 20, "outliers")
        inl = remove_by_percentile(small_ds, 20, "inliers")
        assert set(out.ids) | set(inl.ids) == set(small_ds.ids)
        assert not set(out.ids) & set(inl.ids)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_outlier_retention_monotone_in_p(self, seed):
        rng = np.random.default_rng(seed)
        ds = Dataset(rng.normal(size=(40, 2)), rng.normal(size=40),
                     np.arange(40))
        counts = []
        for p in [0, 5, 10, 20, 30, 40]:
            try:
                counts.append(remove_by_percentile(ds, p, "outliers").n)
            except EmptyResult:
                counts.append(0)
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_empty_result(self):
        ds = Dataset(np.arange(4.0)[:, None], np.zeros(4), np.arange(4))
        with pytest.raises(EmptyResult):
            remove_by_percentile(ds, 0, "inliers")

    def test_band_columns_subset(self):
        rng = np.random.default_rng(1)
        X = np.column_stack([np.arange(100.0), rng.normal(size=100) * 1e6])
        ds = Dataset(X, np.zeros(100), np.arange(100))
        kept = remove_by_percentile(ds, 10, "outliers", columns=[0])
        # only column 0 defines the band
        assert kept.n == remove_by_percentile(
            Dataset(X[:, :1], ds.response, ds.ids), 10, "outliers").n

    def test_bad_args(self, small_ds):
        with pytest.raises(ValueError):
            remove_by_percentile(small_ds, 50, "outliers")
        with pytest.raises(ValueError):
            remove_by_percentile(small_ds, 10, "middle")
