"""Session format through the library: bit-exact round trips, in-memory
erasure, incremental and crash-safe saves.  The CLI-level checks (erasure on
disk, tampering, other format versions) are in test_cli.py."""

import hashlib
import io
import json
import os

import numpy as np
import pytest

from codedunlearn import (
    Dataset,
    SessionError,
    learn,
    make_projection,
    predict,
    unlearn,
    verify_perfect_unlearning,
)
from codedunlearn.session import load_session, save_session


def make_train(n, d, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(rng.normal(size=(n, d)), rng.normal(size=n), np.arange(n))


def manifest_of(session):
    return json.loads((session / "manifest.json").read_text())


class TestRoundTrip:
    @pytest.mark.parametrize("rho,proj_dim", [("minimal", None), (0.6, None),
                                              (0.6, 9)])
    def test_rebuilt_shards_are_bitwise_the_live_ones(self, tmp_path, rho,
                                                      proj_dim):
        ds = make_train(203, 5, seed=1)
        pmap = make_projection(5, proj_dim, 2) if proj_dim else None
        model, store, _ = learn(ds, 8, 4, rho, 1e-3, projection=pmap, seed=3)
        unlearn(model, store, [3, 50, 77])
        unlearn(model, store, [100])
        save_session(tmp_path, model, store, {"seed": 3})
        back, back_store, config = load_session(tmp_path)
        assert config == {"seed": 3}
        for j in range(4):
            assert back_store.coded_features[j].tobytes() \
                == store.coded_features[j].tobytes()
            assert back_store.coded_response[j].tobytes() \
                == store.coded_response[j].tobytes()
        assert back.weights.tobytes() == model.weights.tobytes()
        assert back.agg.tobytes() == model.agg.tobytes()
        assert set(back_store.ids[~back_store.alive].tolist()) \
            == {3, 50, 77, 100}
        assert back_store.alive.tobytes() == store.alive.tobytes()
        assert back_store.ids.tobytes() == store.ids.tobytes()
        assert back_store.shard_size == store.shard_size
        assert back_store.dropped_ids == store.dropped_ids == [200, 201, 202]
        assert verify_perfect_unlearning(back, back_store).max_discrepancy \
            == 0.0

    def test_weights_stay_c_contiguous(self, tmp_path):
        # a Fortran-ordered weights array would change the summation order
        # of weights.mean(axis=1) and the .npy header
        def check(m):
            assert m.weights.flags.c_contiguous
            assert m.agg.tobytes() == m.weights.mean(axis=1).tobytes()

        model, store, _ = learn(make_train(120, 4, seed=2), 6, 3, 0.5, 1e-3,
                                seed=1)
        check(model)
        unlearn(model, store, [4, 90])
        check(model)
        save_session(tmp_path, model, store, {})
        check(load_session(tmp_path)[0])

    def test_unlearn_rewrites_only_what_changed(self, tmp_path):
        ds = make_train(80, 3)
        model, store, _ = learn(ds, 4, 2, "minimal", 1e-3, seed=1)
        save_session(tmp_path, model, store, {})
        before = manifest_of(tmp_path)["files"]
        ids_stat = os.stat(tmp_path / before["ids"]["name"])
        unlearn(model, store, [5])
        save_session(tmp_path, model, store, {})
        after = manifest_of(tmp_path)["files"]
        same = {role for role in after if after[role] == before[role]}
        assert same == {"ids", "generator"}
        now = os.stat(tmp_path / after["ids"]["name"])
        assert (now.st_ino, now.st_mtime_ns) \
            == (ids_stat.st_ino, ids_stat.st_mtime_ns)
        # the superseded files are gone
        names = {f["name"] for f in after.values()} | {"manifest.json"}
        assert {p.name for p in tmp_path.iterdir()} == names


def as_format_2(session, agg):
    """Turn a saved session into the version 2 layout, which also stores
    the aggregate weights, here with the given contents."""
    buf = io.BytesIO()
    np.save(buf, agg, allow_pickle=False)
    digest = hashlib.sha256(buf.getvalue()).hexdigest()
    name = f"agg-{digest[:12]}.npy"
    (session / name).write_bytes(buf.getvalue())
    manifest = manifest_of(session)
    manifest["format_version"] = 2
    manifest["files"]["agg"] = {"name": name, "sha256": digest}
    (session / "manifest.json").write_text(json.dumps(manifest))
    return session / name


class TestFormat2:
    def test_loads_predicts_and_saves_as_format_3(self, tmp_path):
        ds = make_train(90, 3, seed=6)
        model, store, _ = learn(ds, 6, 3, 0.5, 1e-3, seed=2)
        unlearn(model, store, [8, 40])
        save_session(tmp_path, model, store, {"seed": 2})
        assert manifest_of(tmp_path)["format_version"] == 3
        assert "agg" not in manifest_of(tmp_path)["files"]
        # the stored aggregate is hash-checked but not served
        as_format_2(tmp_path, np.zeros_like(model.agg))
        back, back_store, config = load_session(tmp_path)
        assert config == {"seed": 2}
        assert predict(back, ds.features).tobytes() \
            == predict(model, ds.features).tobytes()
        assert verify_perfect_unlearning(back, back_store).max_discrepancy \
            == 0.0
        unlearn(back, back_store, [11])
        save_session(tmp_path, back, back_store, {"seed": 2})
        manifest = manifest_of(tmp_path)
        assert manifest["format_version"] == 3
        assert not list(tmp_path.glob("agg-*"))
        names = {f["name"] for f in manifest["files"].values()}
        assert {p.name for p in tmp_path.iterdir()} == names | {"manifest.json"}

    def test_tampered_aggregate_is_stale(self, tmp_path):
        model, store, _ = learn(make_train(40, 3), 4, 2, "minimal", 1e-3,
                                seed=1)
        save_session(tmp_path, model, store, {})
        agg = as_format_2(tmp_path, model.agg)
        data = bytearray(agg.read_bytes())
        data[-1] ^= 1
        agg.write_bytes(bytes(data))
        with pytest.raises(SessionError, match="stale"):
            load_session(tmp_path)


class TestErasure:
    def test_unlearn_zeroes_the_base_row_in_memory(self):
        ds = make_train(40, 3, seed=5)
        model, store, _ = learn(ds, 4, 2, 0.5, 1e-3, seed=2)
        unlearn(model, store, [9, 33])
        for u in (9, 33):
            p = store.locate([u])[0]
            assert (store.base_features[p] == 0).all()
            assert store.base_response[p] == 0
        assert (ds.features[9] != 0).all()   # the caller's data is untouched


class TestCrashSafety:
    @pytest.mark.parametrize("fail_at", [1, 3, "manifest.json"])
    def test_interrupted_unlearn_save_keeps_previous_session(
            self, tmp_path, monkeypatch, fail_at):
        ds = make_train(90, 3, seed=2)
        model, store, _ = learn(ds, 6, 3, 0.5, 1e-3, seed=4)
        save_session(tmp_path, model, store, {"seed": 4})
        files_before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        weights_before = model.weights.copy()

        unlearn(model, store, [7, 30])
        real_replace = os.replace
        calls = []

        def crashing_replace(src, dst):
            calls.append(dst)
            if len(calls) == fail_at or os.path.basename(dst) == fail_at:
                raise OSError("simulated crash")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", crashing_replace)
        with pytest.raises(OSError, match="simulated crash"):
            save_session(tmp_path, model, store, {"seed": 4})
        monkeypatch.undo()

        for name, data in files_before.items():
            assert (tmp_path / name).read_bytes() == data
        back, back_store, _ = load_session(tmp_path)
        assert back.weights.tobytes() == weights_before.tobytes()
        assert back_store.alive.all()
        assert verify_perfect_unlearning(back, back_store).max_discrepancy \
            == 0.0

        # the next save completes and clears the interrupted one's leftovers
        save_session(tmp_path, model, store, {"seed": 4})
        names = {f["name"] for f in manifest_of(tmp_path)["files"].values()}
        assert {p.name for p in tmp_path.iterdir()} == names | {"manifest.json"}
        _, back_store, _ = load_session(tmp_path)
        assert set(back_store.ids[~back_store.alive].tolist()) == {7, 30}


class TestRefusal:
    def test_missing_manifest_entry_refused(self, tmp_path):
        ds = make_train(40, 3)
        model, store, _ = learn(ds, 4, 2, "minimal", 1e-3, seed=1)
        save_session(tmp_path, model, store, {})
        manifest = manifest_of(tmp_path)
        del manifest["files"]["weights"]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SessionError, match="weights"):
            load_session(tmp_path)


def replace_file(session, role, data: bytes):
    """Overwrite a session file and re-hash it in the manifest, so that
    only the content checks of load_session can refuse it."""
    manifest = manifest_of(session)
    entry = manifest["files"][role]
    (session / entry["name"]).write_bytes(data)
    entry["sha256"] = hashlib.sha256(data).hexdigest()
    (session / "manifest.json").write_text(json.dumps(manifest))


def npy(array) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=False)
    return buf.getvalue()


def json_file(obj) -> bytes:
    return json.dumps(obj).encode()


class TestMalformedPayload:
    """Files whose hashes match a rewritten manifest are still refused with
    SessionError when their content cannot belong to a session."""

    @pytest.fixture
    def session(self, tmp_path):
        model, store, _ = learn(make_train(40, 3), 4, 2, 0.5, 1e-3, seed=1)
        unlearn(model, store, [6])
        save_session(tmp_path, model, store, {})
        return tmp_path, model, store

    @pytest.mark.parametrize("role,content,match", [
        ("store", lambda m, st: {"dropped_ids": []}, "malformed store"),
        ("store", lambda m, st: [], "malformed store"),
        ("store", lambda m, st: {"dropped_ids": [], "unlearned_ids": ["6"],
                                 "lambda": 1e-3}, "malformed store"),
        ("store", lambda m, st: {"dropped_ids": [], "unlearned_ids": [6],
                                 "lambda": True}, "malformed store"),
        ("generator", lambda m, st: {"s": 4, "r": 2, "rho": 0.5,
                                     "seed": 1}, "malformed generator"),
        ("generator", lambda m, st: {
            "s": "4", "r": 2, "rho": 0.5, "seed": 1,
            "rows": m.generator.entries.tolist()}, "malformed generator"),
        ("generator", lambda m, st: {
            "s": 4, "r": 2, "rho": 0.5, "seed": 1,
            "rows": [[2, 0], [0, 1], [1, 0], [0, 1]]}, "malformed generator"),
        ("generator", lambda m, st: {
            "s": 3, "r": 2, "rho": 0.5, "seed": 1,
            "rows": m.generator.entries.tolist()}, "malformed generator"),
        ("weights", lambda m, st: np.zeros((3, 3)), "inconsistent"),
        ("weights", lambda m, st: np.zeros(3), "inconsistent"),
        ("base_features", lambda m, st: st.base_features[:-1],
         "inconsistent"),
        ("base_response", lambda m, st: st.base_response[:, None],
         "inconsistent"),
        ("ids", lambda m, st: st.ids.astype(float), "inconsistent"),
        ("ids", lambda m, st: st.ids[:-4], "inconsistent"),
        ("weights", lambda m, st: b"not an array", "unreadable"),
    ], ids=["store-without-unlearned-ids", "store-not-an-object",
            "string-id", "bool-lambda", "generator-without-rows",
            "string-s", "non-binary-rows", "rows-not-s-by-r",
            "weights-extra-column", "weights-1d", "base-row-missing",
            "response-2d", "float-ids", "ids-one-shard-short",
            "weights-not-npy"])
    def test_refused_with_session_error(self, session, role, content,
                                        match):
        directory, model, store = session
        value = content(model, store)
        data = (value if isinstance(value, bytes) else
                npy(value) if isinstance(value, np.ndarray)
                else json_file(value))
        replace_file(directory, role, data)
        with pytest.raises(SessionError, match=match):
            load_session(directory)
