"""The three benchmark workloads, driven from outside the codedunlearn package.

Each workload is a closed loop with one client.  `setup()` builds the
workload's starting state and may be repeated; `requests()` then yields a
seed-determined stream of `(kind, op, check)` triples.  The caller times
`op()`, which runs one request, and then calls `check(output)`, which
returns `(ok, detail)`: whether the output passed the workload's
correctness gate, and why not.

`kinds` names the request kinds.  `roles` names the three latencies the
benchmark gates, each the sum of the per-request times of some kinds, and
`trace_requests` is the fixed number of requests of a traced run.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
from functools import partial
from itertools import count
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent

SCALES = {
    "full": {
        "forget-cli": dict(n=50_000, d=16, s=50, tau=5, lam=1e-3,
                           predict_rows=1000, batch=100),
        "forget-lib": dict(n=200_000, d=32, s=100, r=20, lam=1e-3,
                           batch=100, verify_every=50),
        "tradeoff-sweep": dict(n=30_000, d=10, n_train=20_000, proj_dim=100,
                               lam=1e-3, tau=5, minimal=(5, 50, 250, 1000),
                               bernoulli=(50, 250), rho=0.5, runs=1,
                               reference="tradeoff-full.json"),
    },
    "smoke": {
        "forget-cli": dict(n=2_000, d=8, s=10, tau=5, lam=1e-3,
                           predict_rows=100, batch=10),
        "forget-lib": dict(n=2_000, d=8, s=10, r=2, lam=1e-3,
                           batch=10, verify_every=10),
        "tradeoff-sweep": dict(n=2_000, d=8, n_train=1_500, proj_dim=20,
                               lam=1e-3, tau=5, minimal=(5, 25, 100),
                               bernoulli=(10, 25), rho=0.5, runs=1,
                               reference="tradeoff-smoke.json"),
    },
}

# Sweep outputs are checked against stored records, so the sweep's inputs
# come from one of REFERENCE_KEYS seeds: workload seeds k and k + 8 coincide.
REFERENCE_KEYS = 8
MSE_RTOL = 1e-6

BATCH_EVERY = 3


def _id_batches(cfg: dict, seed: int):
    """Ids to forget, drawn without replacement from the encoded rows: every
    BATCH_EVERY-th request is a batch of cfg["batch"] ids, the rest one id.
    Ends when the ids run out."""
    used = cfg["n"] // cfg["s"] * cfg["s"]
    order = np.random.default_rng(seed).permutation(used)
    taken = 0
    for i in count():
        size = cfg["batch"] if i % BATCH_EVERY == BATCH_EVERY - 1 else 1
        if taken + size > used:
            return
        yield [int(v) for v in order[taken:taken + size]]
        taken += size


def _seeds(seed: int, n: int) -> list[int]:
    """n independent integer seeds derived from the workload seed."""
    return [int(v) for v in
            np.random.SeedSequence(seed).generate_state(n, dtype=np.uint32)]


class ForgetCli:
    """`python -m codedunlearn.cli` processes against an on-disk session.

    Set-up writes the training CSV and a predict CSV, then runs `train`.
    The request stream copies that session and cycles unlearn / predict /
    verify processes; every third unlearn forgets a batch of ids.
    """

    name = "forget-cli"
    kinds = ("cli_unlearn", "cli_predict", "cli_verify")
    roles = tuple((kind, (kind,)) for kind in kinds)
    trace_requests = 9   # three unlearn/predict/verify cycles

    def __init__(self, cfg: dict, seed: int, root: Path, work: Path,
                 trace_dir: Path | None = None):
        self.cfg, self.work, self.trace_dir = cfg, work, trace_dir
        self.data_seed, self.code_seed, self.pick_seed, self.query_seed = \
            _seeds(seed, 4)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.children = 0
        self.child_peak_kb = 0
        self.dataset = None
        self.forgotten: list[int] = []

    # -- processes ---------------------------------------------------------
    def _run(self, args: list[str]) -> tuple[int, str, int]:
        """Run one CLI process to exit; (exit code, output, peak RSS in KB)."""
        env = self.env
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "codedunlearn.cli", *args]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "trace_boot.py"), *args]
            env = dict(env, PERFBENCH_SPAWN=repr(time.perf_counter()),
                       PERFBENCH_SPANS=str(
                           self.trace_dir / f"child-{self.children}.jsonl"))
        self.children += 1
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, env=env,
                                cwd=self.work)
        with proc.stdout:
            out = proc.stdout.read().decode(errors="replace")
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out, usage.ru_maxrss

    def _measured(self, args):
        code, out, rss_kb = self._run(args)
        self.child_peak_kb = max(self.child_peak_kb, rss_kb)
        return code, out

    # -- set-up ------------------------------------------------------------
    def setup(self) -> None:
        from codedunlearn import SyntheticSpec, gen_synthetic, write_csv

        c = self.cfg
        shutil.rmtree(self.work / "pristine", ignore_errors=True)
        self.dataset = gen_synthetic(SyntheticSpec(
            "gaussian-linear", n=c["n"], d=c["d"], seed=self.data_seed))
        write_csv(self.dataset, self.work / "train.csv")
        queries = np.random.default_rng(self.query_seed).standard_normal(
            (c["predict_rows"], c["d"]))
        np.savetxt(self.work / "queries.csv", queries, fmt="%.17g",
                   delimiter=",", comments="",
                   header=",".join(f"x{j}" for j in range(c["d"])))
        code, out, _ = self._run([
            "train", "--data", "train.csv", "--s", str(c["s"]),
            "--tau", str(c["tau"]), "--rho", "minimal",
            "--lam", repr(c["lam"]), "--seed", str(self.code_seed),
            "--session", "pristine"])
        if code != 0:
            raise RuntimeError(f"train failed with exit {code}: {out}")

    # -- requests ----------------------------------------------------------
    def requests(self):
        session = self.work / "session"
        shutil.rmtree(session, ignore_errors=True)
        shutil.copytree(self.work / "pristine", session)
        self.forgotten = []
        for ids in _id_batches(self.cfg, self.pick_seed):
            yield ("cli_unlearn", partial(self.unlearn, ids),
                   partial(self.check_unlearn, len(ids)))
            yield "cli_predict", self.predict, self.check_predict
            yield "cli_verify", self.verify, self.check_verify

    def unlearn(self, ids):
        self.forgotten.extend(ids)
        return self._measured(["unlearn", "--session", "session",
                               "--ids", ",".join(map(str, ids))])

    def predict(self):
        (self.work / "predictions.csv").unlink(missing_ok=True)
        return self._measured(["predict", "--session", "session", "--data",
                               "queries.csv", "--out", "predictions.csv"])

    def verify(self):
        return self._measured(["verify", "--session", "session"])

    @staticmethod
    def check_unlearn(n, out):
        return _cli_check(out, out[1].startswith(f"unlearned {n} sample(s)"))

    def check_predict(self, out):
        return _cli_check(out, check_predictions(
            self.work / "predictions.csv", self.cfg["predict_rows"]))

    @staticmethod
    def check_verify(out):
        return _cli_check(out, "max relative discrepancy: 0.000e+00" in out[1])

    # -- observed, not gated -----------------------------------------------
    def forgotten_rows_on_disk(self) -> int:
        """Forgotten ids whose raw feature row still appears in any file of
        the session, as text or as float64 values in .npy/.npz files."""
        if not self.forgotten:
            return 0
        found = [_file_values(p) for p in (self.work / "session").rglob("*")
                 if p.is_file()]
        values = np.unique(np.concatenate(found)) if found else np.empty(0)
        rows = self.dataset.features[self.forgotten]
        return int(np.isin(rows, values).all(axis=1).sum())


_NUMBER = re.compile(rb"-?(?:\d+\.\d*|\d*\.\d+|\d+)(?:[eE][-+]?\d+)?")


def _file_values(path: Path) -> np.ndarray:
    data = path.read_bytes()
    if data.startswith(b"PK"):
        with np.load(path, allow_pickle=False) as archive:
            arrays = [archive[k] for k in archive.files]
    elif data.startswith(b"\x93NUMPY"):
        arrays = [np.load(path, allow_pickle=False)]
    else:
        tokens = _NUMBER.findall(data)
        return np.array(tokens).astype(float) if tokens else np.empty(0)
    return np.concatenate([np.ravel(a) for a in arrays
                           if a.dtype.kind == "f"] or [np.empty(0)])


def _cli_check(out: tuple[int, str], ok: bool):
    code, text = out
    return code == 0 and ok, f"exit {code}: {text.strip()[-200:]}"


def check_predictions(path: Path, rows: int) -> bool:
    """One finite prediction per input row under a `prediction` header."""
    if not path.exists():
        return False
    lines = path.read_text().splitlines()
    if len(lines) != rows + 1 or lines[0] != "prediction":
        return False
    try:
        return all(math.isfinite(float(v)) for v in lines[1:])
    except ValueError:
        return False


class ForgetLib:
    """In-process `unlearn()` stream with a verify every `verify_every`
    unlearn requests; no session or CLI code runs."""

    name = "forget-lib"
    kinds = ("lib_unlearn1", "lib_unlearn100", "lib_verify")
    roles = tuple((kind, (kind,)) for kind in kinds)
    trace_requests = 102   # two verify periods

    def __init__(self, cfg: dict, seed: int, root: Path, work: Path,
                 trace_dir: Path | None = None):
        self.cfg = cfg
        self.data_seed, self.code_seed, self.pick_seed = _seeds(seed, 3)
        self.model = self.store = None
        self.children = self.child_peak_kb = 0

    def setup(self) -> None:
        from codedunlearn import SyntheticSpec, gen_synthetic, learn

        c = self.cfg
        self.model = self.store = None
        ds = gen_synthetic(SyntheticSpec("gaussian-linear", n=c["n"],
                                         d=c["d"], seed=self.data_seed))
        self.model, self.store, _ = learn(ds, c["s"], c["r"], "minimal",
                                          c["lam"], seed=self.code_seed)

    def requests(self):
        import codedunlearn

        for i, ids in enumerate(_id_batches(self.cfg, self.pick_seed), 1):
            kind = "lib_unlearn1" if len(ids) == 1 else "lib_unlearn100"
            yield (kind,
                   lambda ids=ids: codedunlearn.unlearn(self.model,
                                                        self.store, ids),
                   lambda out, ids=ids: self.check_unlearn(ids, out[2]))
            if i % self.cfg["verify_every"] == 0:
                yield ("lib_verify",
                       lambda: codedunlearn.verify_perfect_unlearning(
                           self.model, self.store),
                       self.check_verify)

    def check_unlearn(self, ids, report):
        """The report names the ids, and exactly the learners whose coded
        shards hold them (the generator-row columns of their shards)."""
        shard_size = self.cfg["n"] // self.cfg["s"]
        G = self.model.generator.entries
        expected = sorted({int(j) for u in ids
                           for j in np.flatnonzero(G[u // shard_size])})
        ok = report.unlearned_ids == ids and report.affected_learners == expected
        return ok, f"unlearn report {report.affected_learners} != {expected}"

    @staticmethod
    def check_verify(report):
        ok = report.max_discrepancy == 0.0
        return ok, f"verify discrepancy {report.max_discrepancy!r}"


class TradeoffSweep:
    """`bench.run_tradeoff`, one sweep cell per request: the minimal-code
    arm's cells, then the Bernoulli arm's, round and round.  Each cell's
    record is checked field by field against a stored reference record.

    A whole sweep is one request per cell; its time is the sum of the
    cells' times.  Cell-sized requests put many samples of every cell in a
    run, where whole sweeps gave three or four."""

    name = "tradeoff-sweep"

    def __init__(self, cfg: dict, seed: int, root: Path, work: Path,
                 trace_dir: Path | None = None):
        self.cfg = cfg
        self.key = seed % REFERENCE_KEYS
        self.dataset = None
        self.reference = None
        self.children = self.child_peak_kb = 0
        self.cells = [("minimal", s) for s in cfg["minimal"]] \
            + [(cfg["rho"], s) for s in cfg["bernoulli"]]
        self.kinds = tuple(
            f"cell_{'minimal' if d == 'minimal' else 'bernoulli'}_s{s}"
            for d, s in self.cells)
        minimal = len(cfg["minimal"])
        self.roles = (("sweep", self.kinds),
                      ("sweep_minimal", self.kinds[:minimal]),
                      ("sweep_bernoulli", self.kinds[minimal:]))
        self.trace_requests = len(self.cells)   # one whole sweep

    def setup(self) -> None:
        from codedunlearn import SyntheticSpec, gen_synthetic

        self.dataset = gen_synthetic(SyntheticSpec(
            "lognormal-poly", n=self.cfg["n"], d=self.cfg["d"],
            seed=1000 + self.key))
        path = BENCH_DIR / "reference" / self.cfg["reference"]
        if path.exists():
            self.reference = json.loads(path.read_text())[str(self.key)]

    def run_cell(self, i: int) -> list[dict]:
        from codedunlearn.bench import SweepSpec, run_tradeoff

        c = self.cfg
        density, s = self.cells[i]
        spec = SweepSpec(dataset=self.dataset, n_train=c["n_train"],
                         lambdas=(c["lam"],), rates=(c["tau"],),
                         shard_counts=(s,), runs=c["runs"], seed=self.key,
                         density=density, projection_dim=c["proj_dim"],
                         dataset_label="lognormal-poly")
        return [r.row() for r in run_tradeoff(spec)]

    def sweep(self) -> list[dict]:
        return [row for i in range(len(self.cells))
                for row in self.run_cell(i)]

    def requests(self):
        while True:
            for i, kind in enumerate(self.kinds):
                yield kind, partial(self.run_cell, i), partial(self.check, i)

    def check(self, i: int, rows: list[dict]):
        if self.reference is None:
            return False, "no reference records for this scale"
        problems = compare_records(rows, self.reference[i:i + 1])
        return not problems, "; ".join(problems[:3])


COUNT_FIELDS = ("dataset", "s", "r", "tau", "rho_mode", "lambda", "D",
                "n_train", "shard_size", "runs", "affected_learners_mean",
                "cost_proxy")
MSE_FIELDS = ("test_mse_mean", "test_mse_std", "train_mse_mean",
              "test_mse_pre_mean")


def compare_records(rows: list[dict], reference: list[dict]) -> list[str]:
    """Mismatches between sweep records and reference records: counts and
    cost_proxy exactly, MSEs to MSE_RTOL, and `error` must be empty."""
    if len(rows) != len(reference):
        return [f"{len(rows)} records, reference has {len(reference)}"]
    problems = []
    for got, want in zip(rows, reference):
        cell = f"{got['rho_mode']} s={got['s']}"
        if got["error"]:
            problems.append(f"{cell}: error {got['error']}")
        for f in COUNT_FIELDS:
            if got[f] != want[f]:
                problems.append(f"{cell}: {f} {got[f]!r} != {want[f]!r}")
        for f in MSE_FIELDS:
            if not math.isclose(got[f], want[f], rel_tol=MSE_RTOL):
                problems.append(f"{cell}: {f} {got[f]!r} != {want[f]!r}")
    return problems


def write_reference(scale: str) -> Path:
    """Record the sweep outputs of every reference key at `scale`."""
    cfg = SCALES[scale]["tradeoff-sweep"]
    out = {}
    for key in range(REFERENCE_KEYS):
        sweep = TradeoffSweep(cfg, key, None, None)
        sweep.setup()
        rows = sweep.sweep()
        for row in rows:
            for f in ("unlearn_seconds_mean", "learn_seconds_mean"):
                row.pop(f)
        out[str(key)] = rows
    path = BENCH_DIR / "reference" / cfg["reference"]
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(out, indent=1) + "\n")
    return path


WORKLOADS = {w.name: w for w in (ForgetCli, ForgetLib, TradeoffSweep)}
