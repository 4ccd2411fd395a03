"""On-disk session directories for the CLI (format version 3).

Layout:
    manifest.json               format version, resolved config, and the
                                name and sha256 of every data file below
    generator-<h>.json          {s, r, rho, seed, rows}
    projection-<h>.bin          npz with the frozen feature map (when used)
    store-<h>.json              dropped ids, unlearned ids, lambda
    base_features-<h>.npy       encoded-input rows of the retained training
    base_response-<h>.npy       set, their responses and their sample ids,
    ids-<h>.npy                 in shard order
    weights-<h>.npy             weak-learner weight columns
    unlearn_log.jsonl           append-only audit of unlearn requests,
                                each line fsynced before the forget returns
    lock                        empty; writers hold an flock on it

<h> is the first 12 hex digits of the file's sha256, so a save never
overwrites a file the current manifest names.  It writes only the files
whose content is new (each through a temporary name and os.replace), then
swaps in manifest.json with os.replace, and only then deletes the data
files the new manifest does not name.  A save interrupted at any point
leaves the previous session loadable; load_session refuses any file whose
hash does not match the manifest.  Writers hold session_lock, which deletes
what an interrupted save left unnamed before they act, and a forget is one
transaction (unlearn_session).  Train only creates sessions: under the
lock it refuses a directory whose manifest reads (refuse_existing).
Readers take no lock and delete nothing: a load whose files a concurrent
save has replaced reads the new manifest and loads that generation, while
a file that mismatches an unchanged manifest is refused.

Version 2 sessions also load.  They name one more file, agg-<h>.npy, the
aggregate weights; it is hash-checked like every file the manifest names
and then ignored, since the aggregate is the mean of the weight columns
(EnsembleModel.agg).  The next save writes version 3 and deletes it.

Coded shards are not stored: load_session re-encodes them from the base
rows and the generator in the ascending order used at training time, so
the rebuilt shards are bitwise the ones the model was trained on.  Nor is
the store's per-slice Gram cache, which only ensemble.learn forms: a
loaded store keeps none, and its unlearns solve the affected learners'
coded shards.
Unlearning zeroes a sample's base row before rebuilding (ensemble.unlearn),
so its values never reach the disk, and CodedStore zeroes every unlearned
row again when it is built, so the encoder adds the rows unmasked.

Arrays are .npy files, byte for byte what np.save writes, but without its
copies: a save hashes and writes the version 1.0 header and then the
array's own memory, and a load reads each file once into a bytearray,
hashes it, parses the header with numpy's format functions and returns a
writable view of the data that follows.  Object dtypes (which would need
pickle) and files shorter than their header says are refused as
unreadable.  Arrays round-trip bit-exactly, so verify on a freshly loaded
session reports discrepancy zero.
"""

from __future__ import annotations

import fcntl
import hashlib
import io
import json
import math
import os
import re
import time
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np

from .coding import CodedStore, GeneratorMatrix
from .ensemble import AffectedReport, EnsembleModel, unlearn
from .errors import DimensionMismatch, SessionError
from .projections import load_projection, recorded_seed, save_projection

FORMAT_VERSION = 3
READABLE_VERSIONS = (2, 3)
# manifests a load reads through before it gives up on a session that
# concurrent saves keep replacing
LOAD_ATTEMPTS = 5

ARRAYS = ("base_features", "base_response", "ids", "weights")
ROLES = ("generator", "store", *ARRAYS)   # plus "projection" when used
_DATA_FILE = re.compile(   # agg: the aggregate file of version 2
    r"(generator|projection|store|agg|%s)-[0-9a-f]{12}\.(json|bin|npy)(\.tmp)?"
    % "|".join(ARRAYS))


@contextmanager
def session_lock(directory: Path):
    """Hold the lock of the session at `directory` for the `with` block:
    an flock on directory/lock, which the kernel releases when the holder
    exits, however it exits.  Once it holds the lock, it deletes the data
    and .tmp files that a readable manifest does not name, the leftovers
    of a save that stopped after its manifest swap, so the next locked
    command erases them; with no readable manifest it deletes nothing.
    The empty lock file stays in the directory."""
    fd = os.open(directory / "lock", os.O_CREAT | os.O_WRONLY)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise SessionError(f"session {directory} is locked by another "
                               "invocation") from None
        with suppress(SessionError):   # no readable manifest, no sweep
            _delete_unnamed(directory, _read_manifest(directory)["files"])
        yield
    finally:
        os.close(fd)


def refuse_existing(directory) -> None:
    """Refuse with SessionError a directory whose manifest reads: it holds
    a session, and train only creates sessions, since a retrain over one
    would bring back the samples it forgot under a log that says they are
    gone.  A directory whose manifest does not read stays trainable."""
    try:
        _read_manifest(Path(directory))
    except SessionError:
        return
    raise SessionError(f"session {directory} already exists; train only "
                       "creates sessions (unlearn changes one)")


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2) + "\n").encode()


def _npy_chunks(array: np.ndarray) -> tuple[bytes, memoryview]:
    """The .npy file of an array as np.save writes it (for a C-contiguous
    array): its version 1.0 header and a view of the array's memory."""
    array = np.asarray(array, order="C")
    head = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        head, np.lib.format.header_data_from_array_1_0(array))
    return head.getvalue(), memoryview(array)


# the header reader refuses a header over 10000 bytes, as np.load does, so
# the magic string, the header length and the header fit in this many bytes
_NPY_HEADER_MAX = 1 << 14


def _npy_array(data: bytearray) -> np.ndarray:
    """The array a .npy file of version 1.0, the one the package writes,
    holds, as a writable view of its bytes.  Raises ValueError for another
    version and for what np.load with allow_pickle=False refuses."""
    head = io.BytesIO(memoryview(data)[:_NPY_HEADER_MAX])
    version = np.lib.format.read_magic(head)
    if version != (1, 0):
        raise ValueError(f"unsupported .npy format version {version}")
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(head)
    if dtype.hasobject:
        raise ValueError("object arrays need pickle, which is not allowed")
    count, offset = math.prod(shape), head.tell()
    if len(data) - offset < count * dtype.itemsize:
        raise ValueError(f"{len(data) - offset} data bytes, expected "
                         f"{count * dtype.itemsize}")
    array = np.frombuffer(data, dtype, count, offset)
    if fortran_order:
        return array.reshape(shape[::-1]).transpose()
    return array.reshape(shape)


def _serialize(model: EnsembleModel, store: CodedStore,
               ) -> dict[str, tuple[str, tuple[bytes | memoryview, ...]]]:
    """role -> (file suffix, content as a few buffers) for every data file
    of a session."""
    G = model.generator
    files = {
        "generator": (".json", (_json_bytes({
            "s": G.uncoded_shards,
            "r": G.coded_shards,
            "rho": G.density,
            "seed": recorded_seed(G.seed),
            "rows": G.entries.tolist(),
        }),)),
        "store": (".json", (_json_bytes({
            "dropped_ids": store.dropped_ids,
            "unlearned_ids": np.sort(store.ids[~store.alive]).tolist(),
            "lambda": model.lam,
        }),)),
    }
    arrays = {
        "base_features": store.base_features,
        "base_response": store.base_response,
        "ids": store.ids,
        "weights": model.weights,
    }
    files.update((role, (".npy", _npy_chunks(a)))
                 for role, a in arrays.items())
    if model.projection is not None:
        buf = io.BytesIO()
        save_projection(model.projection, buf)
        files["projection"] = (".bin", (buf.getvalue(),))
    return files


def _write_durably(path: Path, chunks) -> None:
    """Write the buffers `chunks` to a temporary file, flush it to disk,
    rename it to `path`."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.writelines(chunks)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def save_session(directory, model: EnsembleModel, store: CodedStore,
                 config: dict) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    files = {}
    for role, (suffix, chunks) in _serialize(model, store).items():
        h = hashlib.sha256()
        for chunk in chunks:
            h.update(chunk)
        digest = h.hexdigest()
        name = f"{role}-{digest[:12]}{suffix}"
        if not (directory / name).exists():
            _write_durably(directory / name, chunks)
        files[role] = {"name": name, "sha256": digest}

    _write_durably(directory / "manifest.json", (_json_bytes({
        "format_version": FORMAT_VERSION,
        "config": config,
        "saved_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "files": files,
    }),))
    _fsync_directory(directory)   # make the rename itself durable
    _delete_unnamed(directory, files)


def _fsync_directory(directory: Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _delete_unnamed(directory: Path, files: dict) -> None:
    """Delete the data and .tmp files in `directory` that the manifest's
    `files` do not name, and make the deletions durable."""
    keep = {entry["name"] for entry in files.values()}
    doomed = [path for path in directory.iterdir()
              if _DATA_FILE.fullmatch(path.name) and path.name not in keep]
    for path in doomed:
        path.unlink()
    if doomed:
        _fsync_directory(directory)


def _read_manifest(directory: Path) -> dict:
    path = directory / "manifest.json"
    if not path.exists():
        raise SessionError(f"no session at {directory}")
    try:
        manifest = json.loads(path.read_text())
    except ValueError as exc:
        raise SessionError(f"unreadable manifest in {directory}: {exc}") \
            from None
    if not isinstance(manifest, dict):
        raise SessionError(f"manifest in {directory} is not a JSON object")
    version = manifest.get("format_version", 1)
    if version not in READABLE_VERSIONS:
        raise SessionError(
            f"session {directory} has format version {version}; this "
            "codedunlearn reads versions 2 and 3 only (train a new session "
            "to convert)")
    files = manifest.get("files", {})
    entries_ok = isinstance(files, dict) and all(
        isinstance(entry, dict) and isinstance(entry.get("name"), str)
        and isinstance(entry.get("sha256"), str) for entry in files.values())
    if not (entries_ok and isinstance(manifest.get("config"), dict)):
        raise SessionError(f"malformed manifest in {directory}: it needs a "
                           "config object and a string name and sha256 for "
                           "every file")
    missing = [role for role in ROLES if role not in files]
    if missing:
        raise SessionError(f"manifest in {directory} names no file for "
                           f"{', '.join(missing)}")
    return manifest


def _read_checked(directory: Path, entry: dict) -> bytearray:
    """The bytes of a file the manifest names, read once into a buffer that
    the arrays parsed from it can share, after checking their sha256."""
    try:
        with open(directory / entry["name"], "rb") as fh:
            data = bytearray(os.fstat(fh.fileno()).st_size)
            del data[fh.readinto(data):]
    except FileNotFoundError:
        data = None
    if data is None or hashlib.sha256(data).hexdigest() != entry["sha256"]:
        raise SessionError(
            f"stale session: {entry['name']} does not match manifest")
    return data


def is_int(v) -> bool:
    """Whether the JSON value v is an integer; a bool is not."""
    return type(v) is int


def is_number(v) -> bool:
    """Whether the JSON value v is an integer or a float; a bool is not."""
    return type(v) in (int, float)


def list_of(check):
    """A check of whether a JSON value is a list of items passing check."""
    return lambda v: type(v) is list and all(map(check, v))


def _is_lambda(v) -> bool:
    # the rule numerics.ridge_solve applies; NaN fails both comparisons
    return is_number(v) and 0 <= v < np.inf


# role -> (what the JSON object needs, a check per key)
_PAYLOADS = {
    "generator": ("integers s and r, a number rho, an integer or null seed "
                  "and a list of rows", {
                      "s": is_int, "r": is_int, "rho": is_number,
                      "seed": lambda v: v is None or is_int(v),
                      "rows": lambda v: isinstance(v, list)}),
    "store": ("integer lists dropped_ids and unlearned_ids and a "
              "nonnegative finite number lambda", {
                  "dropped_ids": list_of(is_int),
                  "unlearned_ids": list_of(is_int),
                  "lambda": _is_lambda}),
}


def _read_payload(directory: Path, role: str, data: bytes) -> dict:
    """The JSON object of a generator or store file, with its keys and
    their types checked as _read_manifest checks the manifest's."""
    needs, checks = _PAYLOADS[role]
    try:
        obj = json.loads(data)
    except ValueError:
        obj = None
    if not (isinstance(obj, dict)
            and all(key in obj and ok(obj[key]) for key, ok in checks.items())):
        raise SessionError(f"malformed {role} file in {directory}: it needs "
                           f"{needs}")
    return obj


def _read_generation(directory: Path) -> tuple[dict, dict[str, bytearray]]:
    """The manifest and the checked bytes of every file it names.  A file
    that is missing or fails its hash sends the reader back to the
    manifest: if a save has swapped in a new one meanwhile (and deleted the
    files of the old), that generation is read instead, up to
    LOAD_ATTEMPTS generations in all; under an unchanged manifest the file
    is stale and refused at once."""
    manifest = _read_manifest(directory)
    for attempt in range(1, LOAD_ATTEMPTS + 1):
        try:
            return manifest, {role: _read_checked(directory, entry)
                              for role, entry in manifest["files"].items()}
        except SessionError:
            current = _read_manifest(directory)
            if current == manifest or attempt == LOAD_ATTEMPTS:
                raise
            manifest = current


def load_session(directory) -> tuple[EnsembleModel, CodedStore, dict]:
    """The model, store and config of a session.  A load that races a save
    reads whichever generation it finds whole (_read_generation)."""
    directory = Path(directory)
    manifest, data = _read_generation(directory)
    try:
        X, y, ids, W = (_npy_array(data[role]) for role in ARRAYS)
        pmap = (load_projection(io.BytesIO(data["projection"]))
                if "projection" in data else None)
    except (ValueError, EOFError, KeyError, DimensionMismatch) as exc:
        raise SessionError(f"unreadable array file in {directory}: {exc}") \
            from None

    gen = _read_payload(directory, "generator", data["generator"])
    try:
        G = GeneratorMatrix(gen["s"], gen["r"], np.array(gen["rows"]),
                            gen["rho"], gen["seed"])
    except (ValueError, DimensionMismatch) as exc:
        raise SessionError(f"malformed generator file in {directory}: {exc}") \
            from None
    meta = _read_payload(directory, "store", data["store"])

    s, r = G.uncoded_shards, G.coded_shards
    n = len(ids) if ids.ndim == 1 else -1
    if not (n >= s and n % s == 0 and ids.dtype.kind in "iu"
            and all(a.dtype == np.float64 for a in (X, y, W))
            and X.ndim == 2 and X.shape[0] == n and y.shape == (n,)
            and W.shape == (X.shape[1], r)
            and (pmap is None or pmap.output_dim == X.shape[1])):
        shapes = ", ".join(f"{role} {a.dtype}{a.shape}"
                           for role, a in zip(ARRAYS, (X, y, ids, W)))
        raise SessionError(
            f"inconsistent session {directory}: it needs integer ids and "
            f"float base rows for s={s} equal shards, and a float weights "
            f"column per coded shard (r={r}) as long as a base row; got "
            f"{shapes}")
    unlearned = meta["unlearned_ids"]
    try:
        store = CodedStore(G, X, y, ids, list(meta["dropped_ids"]),
                           ~np.isin(ids, unlearned))
    except ValueError as exc:   # a repeated sample id
        raise SessionError(f"inconsistent session {directory}: {exc}") \
            from None
    if np.count_nonzero(~store.alive) != len(unlearned):
        raise SessionError(f"inconsistent session {directory}: unlearned_ids "
                           "lists an id twice or one it does not hold")
    model = EnsembleModel(W, float(meta["lambda"]), G, pmap)
    return model, store, manifest["config"]


def unlearn_session(directory, ids) -> AffectedReport:
    """Forget the samples `ids` from the session at `directory`, as one
    transaction: under the session lock, load it, unlearn, save, and then
    append the request to unlearn_log.jsonl and fsync the log (and the
    directory, when the append created the log).  A request unlearn refuses
    (an unknown or an already unlearned id) writes nothing, and a save
    interrupted before its manifest swap leaves the session as it was.  A
    directory that holds no session is refused before the lock is taken,
    so nothing is created in it."""
    directory = Path(directory)
    _read_manifest(directory)
    with session_lock(directory):
        model, store, config = load_session(directory)
        model, store, report = unlearn(model, store, ids)
        save_session(directory, model, store, config)
        log = directory / "unlearn_log.jsonl"
        created = not log.exists()
        with log.open("a") as fh:
            fh.write(json.dumps({
                "ids": report.unlearned_ids,
                "affected_learners": report.affected_learners,
                "total_seconds": report.total_seconds,
            }) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        if created:     # make the new log's directory entry durable too
            _fsync_directory(directory)
    return report
