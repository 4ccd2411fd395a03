import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import codedunlearn
from codedunlearn import SessionError, load_csv
from codedunlearn.cli import main
from codedunlearn.session import load_session


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def data_csv(tmp_path, runner):
    out = tmp_path / "data.csv"
    result = runner.invoke(main, [
        "gen-data", "--kind", "gaussian-linear", "--n", "120", "--d", "4",
        "--seed", "7", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    return out


def train_session(runner, tmp_path, data_csv, extra=()):
    session = tmp_path / "session"
    result = runner.invoke(main, [
        "train", "--data", str(data_csv), "--response-column", "y",
        "--s", "4", "--r", "2", "--rho", "minimal", "--lam", "0.001",
        "--seed", "3", "--session", str(session), *extra,
    ])
    assert result.exit_code == 0, result.output
    return session


class TestGenData:
    def test_row_count_and_sidecar(self, tmp_path, runner):
        out = tmp_path / "d.csv"
        result = runner.invoke(main, [
            "gen-data", "--kind", "gaussian-linear", "--n", "50", "--d", "3",
            "--seed", "1", "--out", str(out),
        ])
        assert result.exit_code == 0
        assert len(out.read_text().splitlines()) == 51
        sidecar = json.loads((tmp_path / "d.csv.spec.json").read_text())
        assert sidecar["kind"] == "gaussian-linear" and sidecar["seed"] == 1

    def test_identical_bytes_on_rerun(self, tmp_path, runner):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            runner.invoke(main, [
                "gen-data", "--kind", "lognormal-poly", "--n", "30",
                "--d", "2", "--sigma2", "0.5", "--seed", "9",
                "--out", str(out),
            ])
        assert a.read_bytes() == b.read_bytes()

    def test_sidecar_round_trips_spec(self, tmp_path, runner):
        from codedunlearn import SyntheticSpec

        out = tmp_path / "d.csv"
        runner.invoke(main, [
            "gen-data", "--kind", "chisquare-poly", "--n", "20", "--d", "2",
            "--seed", "4", "--out", str(out),
        ])
        raw = json.loads((tmp_path / "d.csv.spec.json").read_text())
        raw["layer_widths"] = tuple(raw["layer_widths"])
        assert SyntheticSpec(**raw) == SyntheticSpec(
            "chisquare-poly", n=20, d=2, seed=4)


class TestSessionWorkflow:
    def test_train_then_verify(self, tmp_path, runner, data_csv):
        session = train_session(runner, tmp_path, data_csv)
        manifest = json.loads((session / "manifest.json").read_text())
        assert manifest["format_version"] == 2
        assert all((session / f["name"]).exists()
                   for f in manifest["files"].values())
        result = runner.invoke(main, ["verify", "--session", str(session)])
        assert result.exit_code == 0, result.output
        assert "discrepancy: 0.000e+00" in result.output

    def test_train_unlearn_verify(self, tmp_path, runner, data_csv):
        session = train_session(runner, tmp_path, data_csv)
        result = runner.invoke(main, [
            "unlearn", "--session", str(session), "--ids", "5,17",
        ])
        assert result.exit_code == 0, result.output
        log = (session / "unlearn_log.jsonl").read_text().splitlines()
        assert json.loads(log[0])["ids"] == [5, 17]
        result = runner.invoke(main, ["verify", "--session", str(session)])
        assert result.exit_code == 0, result.output

    def test_unlearn_unknown_id_exits_nonzero(self, tmp_path, runner,
                                              data_csv):
        session = train_session(runner, tmp_path, data_csv)
        result = runner.invoke(main, [
            "unlearn", "--session", str(session), "--ids", "9999",
        ])
        assert result.exit_code == 3
        assert "not in the learned training set" in result.output

    def test_predict_writes_one_value_per_row(self, tmp_path, runner,
                                              data_csv):
        session = train_session(runner, tmp_path, data_csv)
        feats = tmp_path / "feats.csv"
        lines = data_csv.read_text().splitlines()
        feats.write_text("\n".join(
            ",".join(line.split(",")[:-1]) for line in lines[:6]) + "\n")
        out = tmp_path / "preds.csv"
        result = runner.invoke(main, [
            "predict", "--session", str(session), "--data", str(feats),
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert len(out.read_text().splitlines()) == 6  # header + 5 rows

    def test_stale_session_detected(self, tmp_path, runner, data_csv):
        session = train_session(runner, tmp_path, data_csv)
        manifest = json.loads((session / "manifest.json").read_text())
        weights = session / manifest["files"]["weights"]["name"]
        data = bytearray(weights.read_bytes())
        data[-1] ^= 1   # flip one bit of the last weight
        weights.write_bytes(bytes(data))
        result = runner.invoke(main, ["verify", "--session", str(session)])
        assert result.exit_code == 3
        assert "stale" in result.output

    def test_projection_session(self, tmp_path, runner, data_csv):
        session = train_session(runner, tmp_path, data_csv,
                                extra=["--proj-dim", "8"])
        manifest = json.loads((session / "manifest.json").read_text())
        assert (session / manifest["files"]["projection"]["name"]).exists()
        result = runner.invoke(main, [
            "unlearn", "--session", str(session), "--ids", "3",
        ])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["verify", "--session", str(session)])
        assert result.exit_code == 0, result.output

    def test_underdetermined_shards_refused(self, tmp_path, runner):
        # 40 rows in s = r = 10 minimal shards: 4-row shards, 6 features, and
        # the default lam 0 leave each learner's normal equations singular
        data = tmp_path / "wide.csv"
        result = runner.invoke(main, [
            "gen-data", "--kind", "gaussian-linear", "--n", "40", "--d", "6",
            "--out", str(data),
        ])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, [
            "train", "--data", str(data), "--s", "10", "--r", "10",
            "--session", str(tmp_path / "session"),
        ])
        assert result.exit_code == 3, result.output
        assert "numerically singular" in result.output

    @pytest.mark.parametrize("text,message", [
        ("", "empty file"),
        ("x0,x1,x2,x3\n", "no data rows"),
        ("x0,x1,x2,x3\n1,2,3,4\n1,2,3\n", "row 3 has 3 cells, expected 4"),
        ("x0,x1,x2,x3\n1,2,abc,4\n",
         "row 2, column 'x2': non-numeric cell 'abc'"),
    ], ids=["empty", "header-only", "ragged", "non-numeric"])
    def test_predict_rejects_malformed_csv(self, tmp_path, runner, data_csv,
                                           text, message):
        session = train_session(runner, tmp_path, data_csv)
        feats = tmp_path / "feats.csv"
        feats.write_text(text)
        result = runner.invoke(main, [
            "predict", "--session", str(session), "--data", str(feats),
        ])
        assert result.exit_code == 3, result.output
        assert f"error: {feats}: {message}" in result.output

    def test_config_file_with_flag_override(self, tmp_path, runner, data_csv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "data": str(data_csv), "response_column": "y", "s": 4, "tau": 2,
            "rho": "minimal", "lambda": 0.001, "seed": 1,
        }))
        session = tmp_path / "cfg-session"
        result = runner.invoke(main, [
            "train", "--config", str(cfg), "--seed", "2",
            "--session", str(session),
        ])
        assert result.exit_code == 0, result.output
        manifest = json.loads((session / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 2  # flag wins over config
        assert manifest["config"]["r"] == 2     # derived from tau

    def test_lock_blocks_concurrent_use(self, tmp_path, runner, data_csv):
        session = train_session(runner, tmp_path, data_csv)
        (session / "lock").write_text("123")
        result = runner.invoke(main, [
            "unlearn", "--session", str(session), "--ids", "1",
        ])
        assert result.exit_code == 3
        assert "locked" in result.output


_NUMBER = re.compile(rb"-?(?:\d+\.\d*|\d*\.\d+|\d+)(?:[eE][-+]?\d+)?")


def values_on_disk(session) -> np.ndarray:
    """Every float in the session: .npy/.npz arrays decoded, number tokens
    parsed from every other file."""
    found = [np.empty(0)]
    for path in session.rglob("*"):
        if not path.is_file():
            continue
        data = path.read_bytes()
        if data.startswith(b"\x93NUMPY"):
            found.append(np.load(path, allow_pickle=False).ravel())
        elif data.startswith(b"PK"):
            with np.load(path, allow_pickle=False) as archive:
                found.extend(archive[k].ravel() for k in archive.files)
        else:
            found.append(np.array(_NUMBER.findall(data)).astype(float))
    return np.concatenate([a.astype(float) for a in found])


class TestSessionFormat:
    @pytest.mark.parametrize("extra", [(), ("--proj-dim", "8")])
    def test_forgotten_sample_absent_from_every_file(self, tmp_path, runner,
                                                     data_csv, extra):
        session = train_session(runner, tmp_path, data_csv, extra)
        k = 17
        _, store, _ = load_session(session)
        base = store.locate([k])[0]
        stored = np.append(store.base_features[base], store.base_response[base])
        raw = load_csv(data_csv, "y").features[k]
        assert np.isin(stored, values_on_disk(session)).all()

        result = runner.invoke(main, ["unlearn", "--session", str(session),
                                      "--ids", str(k)])
        assert result.exit_code == 0, result.output
        on_disk = values_on_disk(session)
        assert not np.isin(raw, on_disk).any()
        assert not np.isin(stored, on_disk).any()
        result = runner.invoke(main, ["verify", "--session", str(session)])
        assert result.exit_code == 0, result.output

    def test_tampered_projection_is_stale(self, tmp_path, runner, data_csv):
        session = train_session(runner, tmp_path, data_csv,
                                extra=["--proj-dim", "8"])
        manifest = json.loads((session / "manifest.json").read_text())
        projection = session / manifest["files"]["projection"]["name"]
        data = bytearray(projection.read_bytes())
        data[-1] ^= 1
        projection.write_bytes(bytes(data))
        for cmd in (["verify"], ["predict", "--data", str(data_csv)]):
            result = runner.invoke(main, [*cmd, "--session", str(session)])
            assert result.exit_code == 3, result.output
            assert "stale" in result.output

    @pytest.mark.parametrize("manifest,version", [
        ({"config": {}, "saved_at": "2020-01-01T00:00:00",
          "hashes": {"model.csv": "0" * 64, "base.csv": "0" * 64}}, 1),
        ({"format_version": 3, "files": {}}, 3),
    ])
    def test_other_format_versions_refused(self, tmp_path, runner, manifest,
                                           version):
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        (tmp_path / "model.csv").write_text("w0,agg\n0.5,0.5\n")
        with pytest.raises(SessionError, match=f"format version {version}"):
            load_session(tmp_path)
        result = runner.invoke(main, ["verify", "--session", str(tmp_path)])
        assert result.exit_code == 3
        assert f"format version {version}" in result.output


class TestBenchCommands:
    def test_tradeoff_sweep(self, tmp_path, runner):
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({
            "dataset": {"kind": "gaussian-linear", "n": 200, "d": 3,
                        "seed": 2},
            "n_train": 150, "lambdas": [0.001], "rates": [1, 3],
            "shard_counts": [3], "runs": 2, "seed": 5,
        }))
        out = tmp_path / "records.csv"
        result = runner.invoke(main, [
            "bench-tradeoff", "--spec", str(spec), "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config:")
        assert len(lines) == 4  # comment + header + 2 cells

    def test_empty_sweep_is_usage_error(self, tmp_path, runner):
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({
            "dataset": {"kind": "gaussian-linear", "n": 100, "d": 2},
            "n_train": 50, "lambdas": [], "rates": [], "shard_counts": [],
        }))
        result = runner.invoke(main, [
            "bench-tradeoff", "--spec", str(spec), "--out",
            str(tmp_path / "x.csv"),
        ])
        assert result.exit_code == 2

    def test_influence_sweep_json(self, tmp_path, runner):
        spec = tmp_path / "inf.json"
        spec.write_text(json.dumps({
            "dataset": {"kind": "gaussian-linear", "n": 200, "d": 3,
                        "seed": 2},
            "n_train": 150, "percentiles": [0, 10], "runs": 2, "lambda": 0.0,
        }))
        out = tmp_path / "inf.json.out"
        result = runner.invoke(main, [
            "bench-influence", "--spec", str(spec), "--out", str(out),
            "--format", "json",
        ])
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert len(payload["records"]) == 4
        assert payload["config"]["percentiles"] == [0, 10]


_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None   # every import of scipy now raises ImportError
from click.testing import CliRunner
from codedunlearn.cli import main

def run(*args):
    result = CliRunner().invoke(main, list(args))
    assert result.exit_code == 0, (args, result.output, result.exception)
    return result.output

run("gen-data", "--kind", "mlp", "--n", "200", "--d", "3", "--sigma2", "0.25",
    "--seed", "5", "--out", "mlp.csv")
for lam in ("0", "0.001"):
    session = "session-" + lam
    run("train", "--data", "mlp.csv", "--s", "4", "--r", "2", "--lam", lam,
        "--session", session)
    run("unlearn", "--session", session, "--ids", "3,50,77,120")
    print(run("verify", "--session", session).splitlines()[0])
"""


def test_cli_runs_without_scipy(tmp_path):
    # the package needs numpy and click only: with scipy blocked, gen-data
    # --kind mlp, train with lam 0 and lam > 0, unlearn and verify all run,
    # and verify reports a discrepancy of exactly 0
    src = str(Path(codedunlearn.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "max relative discrepancy: 0.000e+00 (tolerance 1e-08)"] * 2
