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
    unlearn_log.jsonl           append-only audit of unlearn requests

<h> is the first 12 hex digits of the file's sha256, so a save never
overwrites a file the current manifest names.  It writes only the files
whose content is new (each through a temporary name and os.replace), then
swaps in manifest.json with os.replace, and only then deletes the data
files the new manifest does not name.  A save interrupted at any point
leaves the previous session loadable; load_session refuses any file whose
hash does not match the manifest.

Version 2 sessions also load.  They name one more file, agg-<h>.npy, the
aggregate weights; it is hash-checked like every file the manifest names
and then ignored, since the aggregate is the mean of the weight columns
(EnsembleModel.agg).  The next save writes version 3 and deletes it.

Coded shards are not stored: load_session re-encodes them from the base
rows, the generator and the unlearned mask in the ascending order used at
training time, so the rebuilt shards are bitwise the ones the model was
trained on.  Nor is the store's per-slice Gram cache: a loaded store starts
empty and each regularized unlearn fills it for the learners it retrains.
Unlearning also zeroes a sample's base row (ensemble.unlearn), so a
forgotten sample's values never reach the disk.  Arrays are .npy files
written and read with allow_pickle=False; they round-trip bit-exactly, so
verify on a freshly loaded session reports discrepancy zero.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .coding import CodedStore, GeneratorMatrix
from .ensemble import EnsembleModel
from .errors import SessionError
from .projections import load_projection, save_projection

FORMAT_VERSION = 3
READABLE_VERSIONS = (2, 3)

ARRAYS = ("base_features", "base_response", "ids", "weights")
ROLES = ("generator", "store", *ARRAYS)   # plus "projection" when used
_DATA_FILE = re.compile(   # agg: the aggregate file of version 2
    r"(generator|projection|store|agg|%s)-[0-9a-f]{12}\.(json|bin|npy)(\.tmp)?"
    % "|".join(ARRAYS))


@contextmanager
def session_lock(directory: Path):
    lock = directory / "lock"
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise SessionError(f"session {directory} is locked by another "
                           "invocation (remove 'lock' if stale)") from None
    try:
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        yield
    finally:
        lock.unlink(missing_ok=True)


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2) + "\n").encode()


def _npy_bytes(array: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=False)
    return buf.getvalue()


def _serialize(model: EnsembleModel,
               store: CodedStore) -> dict[str, tuple[str, bytes]]:
    """role -> (file suffix, content) for every data file of a session."""
    G = model.generator
    files = {
        "generator": (".json", _json_bytes({
            "s": G.uncoded_shards,
            "r": G.coded_shards,
            "rho": G.density,
            "seed": G.seed if isinstance(G.seed, int) else None,
            "rows": G.entries.tolist(),
        })),
        "store": (".json", _json_bytes({
            "dropped_ids": store.dropped_ids,
            "unlearned_ids": np.sort(store.ids[~store.alive]).tolist(),
            "lambda": model.lam,
        })),
    }
    arrays = {
        "base_features": store.base_features,
        "base_response": store.base_response,
        "ids": store.ids,
        "weights": model.weights,
    }
    files.update((role, (".npy", _npy_bytes(a))) for role, a in arrays.items())
    if model.projection is not None:
        buf = io.BytesIO()
        save_projection(model.projection, buf)
        files["projection"] = (".bin", buf.getvalue())
    return files


def _write_durably(path: Path, data: bytes) -> None:
    """Write `data` to a temporary file, flush it to disk, rename it to
    `path`."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def save_session(directory, model: EnsembleModel, store: CodedStore,
                 config: dict) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    files = {}
    for role, (suffix, data) in _serialize(model, store).items():
        digest = hashlib.sha256(data).hexdigest()
        name = f"{role}-{digest[:12]}{suffix}"
        if not (directory / name).exists():
            _write_durably(directory / name, data)
        files[role] = {"name": name, "sha256": digest}

    _write_durably(directory / "manifest.json", _json_bytes({
        "format_version": FORMAT_VERSION,
        "config": config,
        "saved_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "files": files,
    }))
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)   # make the rename itself durable
    finally:
        os.close(fd)

    keep = {f["name"] for f in files.values()}
    for path in directory.iterdir():
        if _DATA_FILE.fullmatch(path.name) and path.name not in keep:
            path.unlink()


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


def _read_checked(directory: Path, entry: dict) -> bytes:
    path = directory / entry["name"]
    data = path.read_bytes() if path.exists() else None
    if data is None or hashlib.sha256(data).hexdigest() != entry["sha256"]:
        raise SessionError(
            f"stale session: {entry['name']} does not match manifest")
    return data


def load_session(directory) -> tuple[EnsembleModel, CodedStore, dict]:
    directory = Path(directory)
    manifest = _read_manifest(directory)
    data = {role: _read_checked(directory, entry)
            for role, entry in manifest["files"].items()}
    arrays = {role: np.load(io.BytesIO(data[role]), allow_pickle=False)
              for role in ARRAYS}

    gen = json.loads(data["generator"])
    G = GeneratorMatrix(gen["s"], gen["r"], np.array(gen["rows"]),
                        gen["rho"], gen["seed"])
    meta = json.loads(data["store"])
    ids = arrays["ids"]
    store = CodedStore(G, arrays["base_features"], arrays["base_response"],
                       ids, list(meta["dropped_ids"]),
                       ~np.isin(ids, meta["unlearned_ids"]))
    pmap = (load_projection(io.BytesIO(data["projection"]))
            if "projection" in data else None)
    model = EnsembleModel(arrays["weights"], float(meta["lambda"]), G, pmap)
    return model, store, manifest["config"]


def append_unlearn_log(directory, entry: dict) -> None:
    with (Path(directory) / "unlearn_log.jsonl").open("a") as fh:
        fh.write(json.dumps(entry) + "\n")
