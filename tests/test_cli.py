import hashlib
import json
import os
import re
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import codedunlearn
from codedunlearn import SessionError, load_csv
from codedunlearn import session as session_mod
from codedunlearn.cli import main
from codedunlearn.session import load_session, session_lock


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
        assert manifest["format_version"] == 3
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
        entry = json.loads(log[0])
        assert entry["ids"] == [5, 17]
        # keys name the AffectedReport fields they hold
        assert sorted(entry) == ["affected_learners", "ids", "total_seconds"]
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

    @pytest.mark.parametrize("ids", ["[1.5, 2.7]", "[true]"])
    def test_unlearn_refuses_non_integer_ids(self, tmp_path, runner,
                                             data_csv, ids):
        session = train_session(runner, tmp_path, data_csv)
        before = {p.name: p.read_bytes() for p in session.iterdir()}
        ids_file = tmp_path / "ids.json"
        ids_file.write_text(ids)
        result = runner.invoke(main, [
            "unlearn", "--session", str(session), "--ids-file", str(ids_file),
        ])
        assert result.exit_code == 3, result.output
        assert "is not an integer" in result.output
        assert {p.name: p.read_bytes() for p in session.iterdir()} == before

    @pytest.mark.parametrize("ids", ["a", "1.5", "3,1e2"])
    def test_unlearn_non_integer_ids_cell_is_a_usage_error(
            self, tmp_path, runner, data_csv, ids):
        # refused before the session lock is taken: a held lock would
        # otherwise turn it into exit 3
        session = train_session(runner, tmp_path, data_csv)
        before = {p.name: p.read_bytes() for p in session.iterdir()}
        with session_lock(session):
            result = runner.invoke(main, [
                "unlearn", "--session", str(session), "--ids", ids,
            ])
        assert result.exit_code == 2, result.output
        bad = ids.split(",")[-1]
        assert f"Invalid value for '--ids': '{bad}' is not an integer" \
            in result.output
        assert "locked" not in result.output
        assert {p.name: p.read_bytes() for p in session.iterdir()} == before

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

    def test_nan_aggregate_fails_verify(self, tmp_path, runner, data_csv):
        session = train_session(runner, tmp_path, data_csv)
        manifest_path = session / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        entry = manifest["files"]["weights"]
        weights = session / entry["name"]
        w = np.load(weights)
        w[0, 1] = np.nan
        np.save(weights, w)
        entry["sha256"] = hashlib.sha256(weights.read_bytes()).hexdigest()
        manifest_path.write_text(json.dumps(manifest))
        result = runner.invoke(main, ["verify", "--session", str(session)])
        assert result.exit_code == 4, result.output
        assert "verification FAILED" in result.output

    @pytest.mark.parametrize("proj_dim", ["0", "-3"])
    def test_non_positive_proj_dim_refused(self, tmp_path, runner, data_csv,
                                           proj_dim):
        # 0 once trained with no map and recorded "proj_dim": 0
        session = tmp_path / "session"
        result = runner.invoke(main, [
            "train", "--data", str(data_csv), "--s", "4", "--r", "2",
            "--lam", "0.001", "--proj-dim", proj_dim,
            "--session", str(session),
        ])
        assert result.exit_code == 3, result.output
        assert "must be positive" in result.output
        assert not session.exists()

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

    # a flag beats the config's value of the other key; r and tau from the
    # same place are a usage error (once, --r won over --tau and a config
    # r over a --tau flag)
    @pytest.mark.parametrize("config,flags,learners", [
        ({"r": 1}, ["--tau", "2"], 2),
        ({"tau": 4}, ["--r", "2"], 2),
        ({}, ["--r", "1", "--tau", "2"], None),
        ({"r": 1, "tau": 2}, [], None),
    ], ids=["flag-tau", "flag-r", "both-flags", "both-in-config"])
    def test_r_and_tau_from_one_source(self, tmp_path, runner, data_csv,
                                       config, flags, learners):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": str(data_csv), "s": 4, **config}))
        session = tmp_path / "cfg-session"
        result = runner.invoke(main, [
            "train", "--config", str(cfg), *flags, "--session", str(session),
        ])
        if learners is None:
            assert result.exit_code == 2, result.output
            assert "give --r or --tau, not both" in result.output
            assert not session.exists()
            return
        assert result.exit_code == 0, result.output
        assert f"trained {learners} learners" in result.output
        manifest = json.loads((session / "manifest.json").read_text())
        assert manifest["config"]["r"] == learners
        assert load_session(session)[0].weights.shape[1] == learners

    @pytest.mark.parametrize("key,text,value", [
        ("s", "4", 4), ("lambda", "1e-3", 0.001), ("proj_dim", "8", 8)])
    def test_config_values_take_the_option_types(self, tmp_path, runner,
                                                  data_csv, key, text, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": str(data_csv), "s": 4, "tau": 2,
                                   key: text}))
        session = tmp_path / "cfg-session"
        result = runner.invoke(main, [
            "train", "--config", str(cfg), "--session", str(session),
        ])
        assert result.exit_code == 0, result.output
        manifest = json.loads((session / "manifest.json").read_text())
        assert manifest["config"][key] == value

    def test_config_key_naming_no_option_refused(self, tmp_path, runner,
                                                 data_csv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": str(data_csv), "lamda": 0.5,
                                   "s": 4, "tau": 2}))
        session = tmp_path / "cfg-session"
        result = runner.invoke(main, [
            "train", "--config", str(cfg), "--session", str(session),
        ])
        assert result.exit_code == 2, result.output
        assert "'lamda'" in result.output
        assert not session.exists()

    # a null would stand in for the option's default and skip its type,
    # so only r, tau and proj_dim, whose default is None, may be null
    @pytest.mark.parametrize("key", ["data", "response_column", "s", "rho",
                                     "lambda", "seed", "session_dir"])
    def test_config_null_refused(self, tmp_path, runner, data_csv, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": str(data_csv), "s": 4, "tau": 2,
                                   key: None}))
        session = tmp_path / "cfg-session"
        result = runner.invoke(main, [
            "train", "--config", str(cfg), "--session", str(session),
        ])
        assert result.exit_code == 2, result.output
        assert f"{key!r}" in result.output
        assert not session.exists()

    def test_config_echo_trains_the_same_session(self, tmp_path, runner,
                                                 data_csv):
        # every key the manifest echoes names an option of train
        session = train_session(runner, tmp_path, data_csv,
                                ["--proj-dim", "6"])
        first = json.loads((session / "manifest.json").read_text())
        cfg = tmp_path / "echo.json"
        cfg.write_text(json.dumps(first["config"]))
        again = tmp_path / "again"
        result = runner.invoke(main, [
            "train", "--config", str(cfg), "--session", str(again),
        ])
        assert result.exit_code == 0, result.output
        second = json.loads((again / "manifest.json").read_text())
        assert second["config"] == first["config"]
        assert second["files"]["weights"] == first["files"]["weights"]

    def test_lock_blocks_concurrent_use(self, tmp_path, runner, data_csv):
        session = train_session(runner, tmp_path, data_csv)
        with lock_holder(session):
            result = runner.invoke(main, [
                "unlearn", "--session", str(session), "--ids", "1",
            ])
        assert result.exit_code == 3
        assert "locked" in result.output

    def test_lock_dies_with_its_holder(self, tmp_path, runner, data_csv):
        # a writer killed while it holds the lock leaves nothing to remove
        # by hand: the kernel drops its flock
        session = train_session(runner, tmp_path, data_csv)
        with lock_holder(session) as child:
            child.kill()   # SIGKILL
            child.wait(timeout=60)
        result = runner.invoke(main, [
            "unlearn", "--session", str(session), "--ids", "1",
        ])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["verify", "--session", str(session)])
        assert result.exit_code == 0, result.output
        assert "discrepancy: 0.000e+00" in result.output

    def test_train_over_an_unreadable_manifest(self, tmp_path, runner,
                                              data_csv):
        # the lock sweeps nothing without a readable manifest, so train can
        # still write a session over it; its save removes the leftovers
        session = train_session(runner, tmp_path, data_csv)
        (session / "manifest.json").write_text("{")
        (session / "weights-000000000000.npy.tmp").write_bytes(b"partial")
        session = train_session(runner, tmp_path, data_csv)
        assert not (session / "weights-000000000000.npy.tmp").exists()
        result = runner.invoke(main, ["verify", "--session", str(session)])
        assert result.exit_code == 0, result.output

    def test_refused_unlearn_leaves_the_lock_free(self, tmp_path, runner,
                                                  data_csv):
        session = train_session(runner, tmp_path, data_csv)
        result = runner.invoke(main, [
            "unlearn", "--session", str(session), "--ids", "9999",
        ])
        assert result.exit_code == 3, result.output
        with session_lock(session):   # raises SessionError if still held
            pass
        result = runner.invoke(main, [
            "unlearn", "--session", str(session), "--ids", "1",
        ])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("command", ["predict", "train"])
    @pytest.mark.parametrize("where", ["header", "body"])
    def test_cell_over_the_csv_field_limit(self, tmp_path, runner, data_csv,
                                           command, where):
        # a quoted cell is read by the csv module, which refuses cells
        # longer than its field limit (131072 characters)
        big = '"' + "1" * 200001 + '"'
        rows = [["x0", "x1", "x2", "y"], ["1", "2", "3", "4"]]
        rows[0 if where == "header" else 1][1] = big
        feats = tmp_path / "big.csv"
        feats.write_text("".join(",".join(r) + "\n" for r in rows))
        args = (["predict", "--session",
                 str(train_session(runner, tmp_path, data_csv))]
                if command == "predict" else
                ["train", "--s", "1", "--r", "1", "--session",
                 str(tmp_path / "new-session")])
        result = runner.invoke(main, [*args, "--data", str(feats)])
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        row = 1 if where == "header" else 2
        errors = [line for line in result.output.splitlines()
                  if line.startswith("error:")]
        assert errors == [f"error: {feats}: row {row}: field larger than "
                          "field limit (131072)"]


# forget requests that name no sample ids: a JSON scalar (which is not
# iterable, or, for a string, would be iterated character by character) or
# an empty list
REQUEST_FILES = {"ids_five": "5", "ids_null": "null", "ids_string": '"12"',
                 "ids_empty": "[]"}
REFUSED_REQUESTS = [["--ids-file", "{%s}" % name] for name in REQUEST_FILES] \
    + [["--ids", ","]]
REFUSED_REQUEST_NAMES = ["ids-file-number", "ids-file-null", "ids-file-string",
                         "ids-file-empty-list", "ids-empty"]


class TestErrorBoundary:
    # every data error a command raises is one "error:" line and exit 3,
    # and a malformed request is a usage error (exit 2); none is a traceback
    @pytest.mark.parametrize("args,code,message", [
        (["train", "--data", "{data}", "--s", "5", "--r", "10"], 3,
         "need 1 <= r <= s"),
        (["train", "--data", "{data}", "--s", "1", "--r", "2"], 3,
         "need 1 <= r <= s"),
        (["train", "--data", "{data}", "--s", "4", "--r", "2", "--lam", "-1"],
         3, "lam must be nonnegative"),
        (["train", "--data", "{data}", "--s", "4", "--r", "2", "--rho", "abc"],
         3, "could not convert string to float: 'abc'"),
        (["train", "--data", "{data}", "--s", "4", "--tau", "0"], 2,
         "tau=0 must be at least 1"),
        (["train", "--data", "{data}", "--s", "10", "--tau", "5", "--rho",
          "1"], 3, "rho=1.0 outside [1/2, 1)"),
        (["train", "--data", "{data}", "--config", "{config_s_x}"], 2,
         "'x' is not a valid integer"),
        (["train", "--config", "{config_no_data}"], 2, "does not exist"),
        (["train", "--data", "{data}", "--config", "{config_list}"], 2,
         "must hold a JSON object"),
        (["train", "--data", "{data}", "--s", "4", "--r", "2", "--lam",
          "nan"], 3, "lam must be nonnegative"),
        (["train", "--data", "{data}", "--s", "4", "--r", "2", "--lam",
          "inf"], 3, "lam must be nonnegative"),
        (["unlearn", "--session", "{session}", "--ids", "1,x"], 2,
         "'x' is not an integer"),
        (["unlearn", "--session", "{session}", "--ids-file", "{bad_json}"],
         3, "Expecting value"),
        *[(["unlearn", "--session", "{session}", *request], 2,
           "nonempty list of sample ids") for request in REFUSED_REQUESTS],
        (["bench-influence", "--spec", "{influence}", "--out", "{out}"], 3,
         "percentile 60 outside [0, 50)"),
        (["bench-tradeoff", "--spec", "{no_n_train}", "--out", "{out}"], 2,
         "missing or empty: n_train"),
        (["bench-influence", "--spec", "{no_kind}", "--out", "{out}"], 2,
         "spec dataset needs a path or a kind"),
        (["bench-tradeoff", "--spec", "{spec_list}", "--out", "{out}"], 2,
         "spec needs dataset, n_train and nonempty rates, shard_counts, "
         "lambdas; it is not a JSON object"),
        (["bench-influence", "--spec", "{dataset_5}", "--out", "{out}"], 2,
         "spec dataset must be a JSON object with a path or a kind"),
        (["bench-tradeoff", "--spec", "{n_string}", "--out", "{out}"], 2,
         "spec dataset n must be an integer, got '50'"),
        (["bench-influence", "--spec", "{widths_5}", "--out", "{out}"], 2,
         "spec dataset layer_widths must be a list of integers, got 5"),
        (["bench-tradeoff", "--spec", "{n_train_string}", "--out", "{out}"],
         2, "spec n_train must be an integer, got '150'"),
        (["bench-tradeoff", "--spec", "{rates_5}", "--out", "{out}"], 2,
         "spec rates must be a list of integers, got 5"),
        (["bench-influence", "--spec", "{percentiles_x}", "--out", "{out}"],
         2, "spec percentiles must be a list of numbers, got ['x']"),
        (["bench-influence", "--spec", "{runs_string}", "--out", "{out}"], 2,
         "spec runs must be an integer, got '1'"),
        (["bench-tradeoff", "--spec", "{lambdas_x}", "--out", "{out}"], 2,
         "spec lambdas must be a list of numbers, got ['x']"),
        (["bench-influence", "--spec", "{lambda_x}", "--out", "{out}"], 2,
         "spec lambda must be a number, got 'x'"),
        (["verify", "--session", "{session}", "--tolerance", "nan"], 2,
         "nan is not a nonnegative number"),
        (["verify", "--session", "{session}", "--tolerance", "-1"], 2,
         "-1.0 is not a nonnegative number"),
        (["verify", "--session", "{session}", "--tolerance", "-inf"], 2,
         "-inf is not a nonnegative number"),
    ], ids=["r-above-s", "r-above-one-shard", "negative-lam",
            "rho-not-a-number", "tau-zero", "rho-all-ones",
            "config-s-not-an-integer", "config-data-missing",
            "config-not-an-object", "nan-lam", "inf-lam",
            "id-not-an-integer", "ids-file-not-json",
            *REFUSED_REQUEST_NAMES, "percentile-too-large",
            "spec-without-n-train", "dataset-without-kind",
            "spec-not-an-object", "dataset-not-an-object",
            "dataset-n-a-string", "dataset-widths-not-a-list",
            "n-train-a-string", "rates-not-a-list", "percentile-a-string",
            "runs-a-string", "lambdas-holds-a-string", "lambda-a-string",
            "nan-tolerance", "negative-tolerance", "minus-inf-tolerance"])
    def test_exit_code_and_message(self, tmp_path, runner, data_csv, args,
                                   code, message):
        dataset = {"kind": "gaussian-linear", "n": 200, "d": 3, "seed": 2}
        sweep = {"dataset": dataset, "n_train": 150, "lambdas": [0.001],
                 "rates": [1], "shard_counts": [3], "runs": 1}
        influence = {"dataset": dataset, "n_train": 150,
                     "percentiles": [10], "runs": 1}
        files = {
            **REQUEST_FILES,
            "bad_json": "[1,",
            "config_s_x": json.dumps({"s": "x", "r": 2}),
            "config_no_data": json.dumps({"data": "missing.csv", "s": 4,
                                          "r": 2}),
            "config_list": "[4, 2]",
            "influence": json.dumps({"dataset": dataset, "n_train": 150,
                                     "percentiles": [60], "runs": 1}),
            "no_n_train": json.dumps({"dataset": dataset, "lambdas": [0.001],
                                      "rates": [1], "shard_counts": [3]}),
            "no_kind": json.dumps({"dataset": {"n": 200, "d": 3},
                                   "n_train": 150, "percentiles": [10]}),
            "spec_list": "[]",
            "dataset_5": json.dumps({"dataset": 5, "n_train": 150,
                                     "percentiles": [10]}),
            "n_string": json.dumps({"dataset": {**dataset, "n": "50"},
                                    "n_train": 150, "lambdas": [0.001],
                                    "rates": [1], "shard_counts": [3]}),
            "widths_5": json.dumps({"dataset": {**dataset, "kind": "mlp",
                                                "layer_widths": 5},
                                    "n_train": 150, "percentiles": [10]}),
            "n_train_string": json.dumps({**sweep, "n_train": "150"}),
            "rates_5": json.dumps({**sweep, "rates": 5}),
            "percentiles_x": json.dumps({**influence, "percentiles": ["x"]}),
            "runs_string": json.dumps({**influence, "runs": "1"}),
            "lambdas_x": json.dumps({**sweep, "lambdas": ["x"]}),
            "lambda_x": json.dumps({**influence, "lambda": "x"}),
        }
        paths = {"data": data_csv, "out": tmp_path / "out.csv",
                 "session": (train_session(runner, tmp_path, data_csv)
                             if args[0] in ("unlearn", "verify")
                             else tmp_path / "new-session")}
        for name, text in files.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(text)
        if args[0] == "train":
            args = [*args, "--session", "{session}"]
        result = runner.invoke(main, [a.format(**paths) for a in args])
        assert result.exit_code == code, result.output
        assert isinstance(result.exception, (SystemExit, type(None)))
        assert (f"error: {message}" if code == 3 else message) \
            in result.output

    @pytest.mark.parametrize("request_args", REFUSED_REQUESTS,
                             ids=REFUSED_REQUEST_NAMES)
    def test_refused_request_leaves_session_files_untouched(
            self, tmp_path, runner, data_csv, request_args):
        session = train_session(runner, tmp_path, data_csv)
        for name, text in REQUEST_FILES.items():
            (tmp_path / f"{name}.json").write_text(text)

        def files():
            return {p.name: p.read_bytes() for p in session.iterdir()}

        before = files()
        result = runner.invoke(main, [
            "unlearn", "--session", str(session),
            *[a.format(**{k: tmp_path / f"{k}.json" for k in REQUEST_FILES})
              for a in request_args]])
        assert result.exit_code == 2, result.output
        assert files() == before


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

    def test_crash_after_the_manifest_swap_is_swept_by_the_next_lock(
            self, tmp_path, runner, data_csv, monkeypatch):
        # the forget is committed, but the process dies at its first unlink
        # of an old data file, which still holds the sample's row
        session = train_session(runner, tmp_path, data_csv)
        k = 17
        _, store, _ = load_session(session)
        row = store.base_features[store.locate([k])[0]].tobytes()
        unlink = Path.unlink

        def crash(path, *args, **kwargs):
            if session_mod._DATA_FILE.fullmatch(path.name):
                raise SystemExit(9)
            return unlink(path, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", crash)
        result = runner.invoke(main, ["unlearn", "--session", str(session),
                                      "--ids", str(k)])
        monkeypatch.undo()
        assert result.exit_code == 9, result.output
        assert any(row in p.read_bytes() for p in session.iterdir())

        result = runner.invoke(main, ["unlearn", "--session", str(session),
                                      "--ids", str(k)])
        assert result.exit_code == 3, result.output
        assert "already unlearned" in result.output
        assert not any(row in p.read_bytes() for p in session.iterdir())
        result = runner.invoke(main, ["verify", "--session", str(session)])
        assert result.exit_code == 0, result.output
        assert "discrepancy: 0.000e+00" in result.output

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
        ({"format_version": 4, "files": {}}, 4),
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

    @pytest.mark.parametrize("tamper", [
        lambda m: [],
        lambda m: {k: v for k, v in m.items() if k != "config"},
        lambda m: {**m, "files": list(m["files"])},
        lambda m: {**m, "files": {**m["files"], "weights": {
            "name": m["files"]["weights"]["name"]}}},
        lambda m: {**m, "files": {**m["files"], "weights": {
            "name": 7, "sha256": m["files"]["weights"]["sha256"]}}},
    ], ids=["not-an-object", "without-config", "files-not-an-object",
            "entry-without-sha256",
            "entry-name-not-a-string"])
    def test_malformed_manifest_refused(self, tmp_path, runner, data_csv,
                                        tamper):
        session = train_session(runner, tmp_path, data_csv)
        path = session / "manifest.json"
        path.write_text(json.dumps(tamper(json.loads(path.read_text()))))
        with pytest.raises(SessionError, match="manifest"):
            load_session(session)
        result = runner.invoke(main, ["verify", "--session", str(session)])
        assert result.exit_code == 3, result.output
        assert "error:" in result.output and "manifest" in result.output

    def test_duplicated_id_refused(self, tmp_path, runner, data_csv):
        # ids file with one id repeated, under a manifest re-hashed to
        # match it: locate would otherwise pick one of the two copies
        session = train_session(runner, tmp_path, data_csv)
        path = session / "manifest.json"
        manifest = json.loads(path.read_text())
        entry = manifest["files"]["ids"]
        ids_file = session / entry["name"]
        ids = np.load(ids_file)
        ids[1] = ids[0]
        np.save(ids_file, ids)
        entry["sha256"] = hashlib.sha256(ids_file.read_bytes()).hexdigest()
        path.write_text(json.dumps(manifest))
        with pytest.raises(SessionError, match="ids must be unique"):
            load_session(session)
        for cmd in (["verify"], ["unlearn", "--ids", "3"],
                    ["predict", "--data", str(data_csv)]):
            result = runner.invoke(main, [*cmd, "--session", str(session)])
            assert result.exit_code == 3, result.output
            assert result.output.startswith("error: inconsistent session")
            assert result.output.count("\n") == 1

    @pytest.mark.parametrize("unlearned", [[99999, 5, 5], [99999], [5, 5]],
                             ids=["both", "not-held", "listed-twice"])
    def test_unlearned_ids_it_does_not_hold_refused(self, tmp_path, runner,
                                                    data_csv, unlearned):
        # a store file rewritten under a manifest re-hashed to match it: a
        # save would otherwise rewrite the list as the held ids, once each
        session = train_session(runner, tmp_path, data_csv)
        path = session / "manifest.json"
        manifest = json.loads(path.read_text())
        entry = manifest["files"]["store"]
        store_file = session / entry["name"]
        store = json.loads(store_file.read_text())
        store_file.write_text(json.dumps({**store,
                                          "unlearned_ids": unlearned}))
        entry["sha256"] = hashlib.sha256(store_file.read_bytes()).hexdigest()
        path.write_text(json.dumps(manifest))
        with pytest.raises(SessionError, match="unlearned_ids lists"):
            load_session(session)
        for cmd in (["verify"], ["unlearn", "--ids", "3"],
                    ["predict", "--data", str(data_csv)]):
            result = runner.invoke(main, [*cmd, "--session", str(session)])
            assert result.exit_code == 3, result.output
            assert result.output.startswith("error: inconsistent session")
            assert result.output.count("\n") == 1

    def test_malformed_store_payload_refused(self, tmp_path, runner,
                                             data_csv):
        # a store file swapped for one that lacks unlearned_ids, under a
        # manifest re-hashed to match it
        session = train_session(runner, tmp_path, data_csv)
        path = session / "manifest.json"
        manifest = json.loads(path.read_text())
        entry = manifest["files"]["store"]
        data = json.dumps({"dropped_ids": []}).encode()
        (session / entry["name"]).write_bytes(data)
        entry["sha256"] = hashlib.sha256(data).hexdigest()
        path.write_text(json.dumps(manifest))
        for cmd in (["verify"], ["unlearn", "--ids", "3"],
                    ["predict", "--data", str(data_csv)]):
            result = runner.invoke(main, [*cmd, "--session", str(session)])
            assert result.exit_code == 3, result.output
            assert result.output.startswith("error: malformed store file")
            assert result.output.count("\n") == 1


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

    @pytest.mark.parametrize("rates,shard_counts,bad", [
        ([0], [3], "rates must be at least 1, got 0"),
        ([1, -1], [3], "rates must be at least 1, got -1"),
        ([1], [0], "shard_counts must be at least 1, got 0"),
    ], ids=["rate-zero", "rate-negative", "shard-count-zero"])
    def test_rate_or_shard_count_below_one_is_one_error_line(
            self, tmp_path, runner, rates, shard_counts, bad):
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({
            "dataset": {"kind": "gaussian-linear", "n": 200, "d": 3,
                        "seed": 2},
            "n_train": 150, "lambdas": [0.001], "rates": rates,
            "shard_counts": shard_counts, "runs": 1,
        }))
        out = tmp_path / "records.csv"
        result = runner.invoke(main, [
            "bench-tradeoff", "--spec", str(spec), "--out", str(out),
        ])
        assert result.exit_code == 3, result.output
        assert result.output == f"error: {bad}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command,extra,bad", [
        ("bench-tradeoff", {"projection_dim": 0},
         "projection_dim must be at least 1, got 0"),
        ("bench-influence", {"projection_dim": 0},
         "input_dim and output_dim must be positive"),
        ("bench-influence", {"band_columns": [9]},
         "band column 9 is outside the 3 features"),
    ], ids=["tradeoff-projection-dim", "influence-projection-dim",
            "influence-band-column"])
    def test_spec_that_cannot_run_is_one_error_line(
            self, tmp_path, runner, command, extra, bad):
        # once exit 0 and a file of error records
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "dataset": {"kind": "gaussian-linear", "n": 200, "d": 3,
                        "seed": 2},
            "n_train": 150, "lambdas": [0.001], "rates": [1],
            "shard_counts": [3], "percentiles": [0, 10], "runs": 1, **extra,
        }))
        out = tmp_path / "records.csv"
        result = runner.invoke(main, [
            command, "--spec", str(spec), "--out", str(out),
        ])
        assert result.exit_code == 3, result.output
        assert result.output == f"error: {bad}\n"
        assert not out.exists()

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


def package_env(env=os.environ) -> dict:
    """env for a fresh interpreter that imports this codedunlearn."""
    src = str(Path(codedunlearn.__file__).resolve().parents[1])
    return {**env, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run_python(code, cwd, env=os.environ):
    """Run `code` in a fresh interpreter that imports this codedunlearn."""
    return subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=package_env(env),
        capture_output=True, text=True, timeout=120)


_HOLD_LOCK = """
import sys
from pathlib import Path
from codedunlearn.session import session_lock
with session_lock(Path(sys.argv[1])):
    print("held", flush=True)
    sys.stdin.read()
"""


@contextmanager
def lock_holder(session):
    """A live child process that holds the session lock until the block
    ends (or it is killed)."""
    child = subprocess.Popen(
        [sys.executable, "-c", _HOLD_LOCK, str(session)], env=package_env(),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        assert child.stdout.readline() == "held\n"
        yield child
    finally:
        child.kill()
        child.communicate(timeout=60)


def test_cli_runs_without_scipy(tmp_path):
    # the package needs numpy and click only: with scipy blocked, gen-data
    # --kind mlp, train with lam 0 and lam > 0, unlearn and verify all run,
    # and verify reports a discrepancy of exactly 0
    out = run_python(_WITHOUT_SCIPY, tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "max relative discrepancy: 0.000e+00 (tolerance 1e-08)"] * 2


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


@pytest.mark.parametrize("first,preset,expected", [
    ("", {}, ["1", "1", "1"]),
    ("", {"OMP_NUM_THREADS": "2"}, [None, "2", None]),
    ("import numpy; ", {}, [None, None, None]),
], ids=["unset", "one-set", "numpy-first"])
def test_import_pins_blas_before_numpy_loads(tmp_path, first, preset,
                                             expected):
    # BLAS reads its thread count when numpy loads: the package sets it to
    # one thread only when it loads numpy and no count was asked for
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    out = run_python(f"{first}import os, codedunlearn.cli; print([os.environ"
                     f".get(v) for v in {BLAS_THREAD_VARS}])", tmp_path,
                     {**env, **preset})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == str(expected)


def test_cli_import_leaves_out_concurrent_futures(tmp_path):
    # importing concurrent.futures (it pulls in logging) would add about
    # 11 ms to the start-up of every CLI process; the threaded cosine of
    # projections.project uses threading alone
    out = run_python("import sys, codedunlearn.cli; "
                     "print('concurrent.futures' in sys.modules)", tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
