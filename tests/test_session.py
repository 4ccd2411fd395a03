"""Session format through the library: bit-exact round trips, in-memory
erasure, incremental and crash-safe saves.  The CLI-level checks (erasure on
disk, tampering, other format versions) are in test_cli.py."""

import hashlib
import io
import json
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from codedunlearn import (
    Dataset,
    SessionError,
    learn,
    make_projection,
    predict,
    ridge_solve,
    unlearn,
    verify_perfect_unlearning,
)
import codedunlearn
from codedunlearn import session as session_mod
from codedunlearn.session import load_session, save_session, unlearn_session


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

    # a seed the files cannot hold as an integer is recorded as none: the
    # map's directions and the generator's rows are saved, not redrawn
    # (once, the first three wrote a projection file no load could read,
    # and the generator file held null for np.int64(7) and true for True)
    @pytest.mark.parametrize("seed,recorded", [
        (lambda: np.random.default_rng(4), None),
        (lambda: np.random.SeedSequence(4), None),
        (lambda: 2**70, None),
        (lambda: np.int64(7), 7),
        (lambda: True, None),
        (lambda: 7, 7),
        (lambda: None, None),
    ], ids=["generator", "seed-sequence", "2**70", "numpy-int", "bool",
            "int", "none"])
    def test_every_seed_round_trips(self, tmp_path, seed, recorded):
        pmap = make_projection(3, 6, seed())
        model, store, _ = learn(make_train(40, 3), 4, 2, "minimal", 1e-3,
                                projection=pmap, seed=seed())
        save_session(tmp_path, model, store, {})
        back, _, _ = load_session(tmp_path)
        for loaded in (back.projection.seed, back.generator.seed):
            assert loaded == recorded and type(loaded) is type(recorded)
        assert back.projection.directions.tobytes() \
            == pmap.directions.tobytes()
        assert back.generator.entries.tobytes() \
            == model.generator.entries.tobytes()
        assert back.weights.tobytes() == model.weights.tobytes()

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

    @pytest.mark.parametrize("rho", ["minimal", 0.6])
    def test_loaded_store_unlearns_without_a_cache(self, tmp_path, rho):
        # the Gram cache is learn's and never saved: every unlearn on a
        # loaded store solves its learners' coded shards
        model, store, _ = learn(make_train(400, 5, seed=4), 8, 4, rho, 1e-3,
                                seed=2)
        save_session(tmp_path, model, store, {})
        model, store, _ = load_session(tmp_path)
        rng = np.random.default_rng(9)
        for size in (1, 3, 17):
            batch = rng.choice(store.ids[store.alive], size=size,
                               replace=False)
            unlearn(model, store, batch.tolist())
            assert store.slice_stack is None
            for j in range(4):
                w, _ = ridge_solve(store.coded_features[j],
                                   store.coded_response[j], 1e-3)
                assert model.weights[:, j].tobytes() == w.tobytes()
            assert verify_perfect_unlearning(model, store).max_discrepancy \
                == 0.0

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


class TestArrayFiles:
    """Array files are the bytes np.save writes, although a save writes
    and a load reads them without its copies."""

    # the file names this session's np.save-written files had; the weights
    # are left out, since their bits depend on the BLAS
    NAMES = {"generator": "generator-73b6e801964d.json",
             "store": "store-119f290f0b03.json",
             "base_features": "base_features-bf99a795919c.npy",
             "base_response": "base_response-4db7d3e81097.npy",
             "ids": "ids-ed1113d120f6.npy"}

    @staticmethod
    def saved(directory):
        rng = np.random.default_rng(11)
        ds = Dataset(rng.normal(size=(203, 5)), rng.normal(size=203),
                     np.arange(203))
        model, store, _ = learn(ds, 8, 4, 0.6, 1e-3, seed=3)
        unlearn(model, store, [3, 50, 77])
        save_session(directory, model, store, {"seed": 3})
        return model, store, {"base_features": store.base_features,
                              "base_response": store.base_response,
                              "ids": store.ids, "weights": model.weights}

    def test_each_array_file_is_np_save_output(self, tmp_path):
        _, _, arrays = self.saved(tmp_path)
        files = manifest_of(tmp_path)["files"]
        for role, array in arrays.items():
            assert (tmp_path / files[role]["name"]).read_bytes() \
                == npy(array)
        names = {role: f["name"] for role, f in files.items()
                 if role != "weights"}
        assert names == self.NAMES

    def test_np_save_session_loads_and_verifies(self, tmp_path):
        model, store, arrays = self.saved(tmp_path)
        files = manifest_of(tmp_path)["files"]
        for role, array in arrays.items():
            np.save(tmp_path / files[role]["name"], array, allow_pickle=False)
        back, back_store, _ = load_session(tmp_path)
        assert back.weights.tobytes() == model.weights.tobytes()
        assert back_store.coded_features.tobytes() \
            == store.coded_features.tobytes()
        assert verify_perfect_unlearning(back, back_store).max_discrepancy \
            == 0.0
        # the loaded arrays are writable: unlearn zeroes a base row
        unlearn(back, back_store, [9])
        assert verify_perfect_unlearning(back, back_store).max_discrepancy \
            == 0.0

    def test_fortran_ordered_arrays_load(self, tmp_path):
        model, store, _ = self.saved(tmp_path)
        for role, array in (("base_features", store.base_features),
                            ("weights", model.weights)):
            data = npy(np.asfortranarray(array))
            assert b"'fortran_order': True" in data
            replace_file(tmp_path, role, data)
        back, back_store, _ = load_session(tmp_path)
        assert np.array_equal(back.weights, model.weights)
        assert np.array_equal(back_store.base_features, store.base_features)
        assert back_store.coded_features.tobytes() \
            == store.coded_features.tobytes()
        unlearn(back, back_store, [9])
        assert (back_store.base_features[back_store.locate([9])] == 0).all()


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


class TestConcurrentSave:
    """Readers take no lock, so a save may replace a generation while a
    load reads it."""

    @staticmethod
    def saved(tmp_path):
        model, store, _ = learn(make_train(90, 3, seed=2), 6, 3, 0.5, 1e-3,
                                seed=4)
        save_session(tmp_path, model, store, {"seed": 4})
        return model, store

    def test_save_between_manifest_and_file_reads_loads_new_generation(
            self, tmp_path, monkeypatch):
        model, store = self.saved(tmp_path)
        old = manifest_of(tmp_path)
        read = session_mod._read_checked
        calls = []

        def save_first(directory, entry):
            calls.append(entry["name"])
            if len(calls) == 1:   # the old manifest is read by now
                unlearn(model, store, [7, 30])
                save_session(tmp_path, model, store, {"seed": 4})
            return read(directory, entry)

        monkeypatch.setattr(session_mod, "_read_checked", save_first)
        back, back_store, config = load_session(tmp_path)
        assert manifest_of(tmp_path) != old
        assert old["files"]["store"]["name"] in calls   # it went missing
        assert config == {"seed": 4}
        assert back.weights.tobytes() == model.weights.tobytes()
        assert set(back_store.ids[~back_store.alive].tolist()) == {7, 30}
        assert verify_perfect_unlearning(back, back_store).max_discrepancy \
            == 0.0

    def test_flipped_bit_under_unchanged_manifest_refused_at_once(
            self, tmp_path, monkeypatch):
        self.saved(tmp_path)
        path = tmp_path / manifest_of(tmp_path)["files"]["weights"]["name"]
        data = bytearray(path.read_bytes())
        data[-1] ^= 1
        path.write_bytes(bytes(data))
        read = session_mod._read_manifest
        reads = []

        def counted(directory):
            reads.append(directory)
            return read(directory)

        monkeypatch.setattr(session_mod, "_read_manifest", counted)
        with pytest.raises(SessionError, match="stale session"):
            load_session(tmp_path)
        assert len(reads) == 2   # the load's and the one check after

    def test_loads_never_fail_while_a_writer_forgets(self, tmp_path):
        model, store = self.saved(tmp_path)
        victims = store.ids[:40].tolist()
        errors = []

        def writer():
            try:
                for u in victims:
                    unlearn(model, store, [u])
                    save_session(tmp_path, model, store, {"seed": 4})
                    time.sleep(0.002)
            except Exception as exc:   # reported by the reader below
                errors.append(exc)

        thread = threading.Thread(target=writer)
        thread.start()
        loads = 0
        try:
            while thread.is_alive():
                _, back_store, _ = load_session(tmp_path)
                assert back_store.alive.sum() >= len(store.ids) - 40
                loads += 1
        finally:
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert not errors
        assert loads > 0
        _, back_store, _ = load_session(tmp_path)
        assert set(back_store.ids[~back_store.alive].tolist()) == set(victims)


_FORGET_EACH = """
import sys
from codedunlearn.session import unlearn_session
print("ready", flush=True)
for u in sys.argv[2:]:
    unlearn_session(sys.argv[1], [int(u)])
"""


def test_loads_never_fail_while_another_process_forgets(tmp_path):
    # the writer is a second process, so it shares no interpreter state
    # (no GIL, no open files) with the reader
    _, store = TestConcurrentSave.saved(tmp_path)
    victims = store.ids[:20].tolist()
    src = str(os.path.dirname(os.path.dirname(codedunlearn.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.Popen(
        [sys.executable, "-c", _FORGET_EACH, str(tmp_path),
         *map(str, victims)], env=env, stdout=subprocess.PIPE, text=True)
    loads = 0
    try:
        assert child.stdout.readline() == "ready\n"
        while child.poll() is None:
            _, back_store, _ = load_session(tmp_path)
            assert back_store.alive.sum() >= len(store.ids) - len(victims)
            loads += 1
    finally:
        child.kill()
        child.communicate(timeout=60)
    assert child.returncode == 0
    assert loads > 0
    back, back_store, _ = load_session(tmp_path)
    assert set(back_store.ids[~back_store.alive].tolist()) == set(victims)
    assert verify_perfect_unlearning(back, back_store).max_discrepancy == 0.0


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

    @pytest.mark.parametrize("exists", [False, True],
                             ids=["missing", "empty"])
    def test_forget_without_a_session_creates_nothing(self, tmp_path,
                                                      exists):
        directory = tmp_path / "session"
        if exists:
            directory.mkdir()
        with pytest.raises(SessionError, match="no session at"):
            unlearn_session(directory, [1])
        assert list(tmp_path.rglob("*")) == ([directory] if exists else [])


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


def object_npy(n) -> bytes:
    """A .npy file of n Python objects, which only pickle could read."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buf, {"descr": "|O", "fortran_order": False, "shape": (n,)})
    return buf.getvalue() + bytes(8 * n)


def npy_2_0(array) -> bytes:
    """A .npy file of version 2.0, which np.save writes only for headers
    over 64 KiB."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_2_0(
        buf, np.lib.format.header_data_from_array_1_0(array))
    return buf.getvalue() + array.tobytes()


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
        ("store", lambda m, st: {"dropped_ids": [], "unlearned_ids": [6],
                                 "lambda": float("nan")}, "malformed store"),
        ("store", lambda m, st: {"dropped_ids": [], "unlearned_ids": [6],
                                 "lambda": float("inf")}, "malformed store"),
        ("store", lambda m, st: {"dropped_ids": [], "unlearned_ids": [6],
                                 "lambda": -1}, "malformed store"),
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
        ("base_features", lambda m, st: npy(st.base_features)[:-8],
         "unreadable"),
        ("weights", lambda m, st: npy(m.weights)[:-1], "unreadable"),
        ("ids", lambda m, st: object_npy(len(st.ids)), "unreadable"),
        ("ids", lambda m, st: npy_2_0(st.ids), "unsupported .npy format"),
        ("store", lambda m, st: {"dropped_ids": [], "unlearned_ids": [6, 6],
                                 "lambda": 1e-3}, "inconsistent"),
        ("store", lambda m, st: {"dropped_ids": [],
                                 "unlearned_ids": [6, 99999],
                                 "lambda": 1e-3}, "inconsistent"),
    ], ids=["store-without-unlearned-ids", "store-not-an-object",
            "string-id", "bool-lambda", "nan-lambda", "infinite-lambda",
            "negative-lambda", "generator-without-rows",
            "string-s", "non-binary-rows", "rows-not-s-by-r",
            "weights-extra-column", "weights-1d", "base-row-missing",
            "response-2d", "float-ids", "ids-one-shard-short",
            "weights-not-npy", "base-features-truncated",
            "weights-one-byte-short", "object-ids", "ids-npy-version-2",
            "unlearned-id-twice", "unlearned-id-not-held"])
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
