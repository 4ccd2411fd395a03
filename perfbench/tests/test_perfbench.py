"""Tests of the benchmark itself, at smoke scale.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = list(workloads.WORKLOADS)

# The end-to-end metrics each workload must print, by the names users know.
PRINTED = {
    "forget-cli": ["cli_unlearn_s.p50", "cli_unlearn_s.tail",
                   "cli_predict_s.p50", "cli_verify_s.p50"],
    "forget-lib": ["lib_unlearn1_ms.p50", "lib_unlearn1_ms.tail",
                   "lib_unlearn100_ms.p50", "lib_verify_s.p50"],
    "tradeoff-sweep": ["sweep_s.p50"],
}
COMMON = ["setup_s", "peak_rss_mb", "failed_frac"]


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           *args], capture_output=True, text=True, cwd=cwd,
                          timeout=600)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_prints_every_metric_with_unit_and_count(workload):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                 "--scale", "smoke")
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in run.benchmark_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())
    lines = proc.stdout.splitlines()[:-1]
    for name in COMMON + PRINTED[workload]:
        row = next((ln for ln in lines if ln.split()[:1] == [name]), None)
        assert row is not None, f"{name} not printed"
        # name, value, unit, sample count
        assert re.match(rf"{re.escape(name)}\s+\S+\s+[A-Za-z%/]+\s+\d+", row)
    assert "failed_frac" in proc.stdout and "0 ratio" in proc.stdout
    assert "commit=" in lines[0] and "blas_threads=" in lines[0]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_repeat_for_the_same_seed(workload):
    a, b = (result_of(bench("--workload", workload, "--seed", "7",
                            "--trace", "1", "--scale", "smoke"))
            for _ in range(2))
    names = [name for name, _ in run.per_layer_spec()]
    assert list(a["metrics"]) == names
    counts = [k for k, v in a["metrics"].items()
              if v["unit"] in ("count", "bytes", "ratio")]
    assert [a["metrics"][k] for k in counts] == [b["metrics"][k]
                                                 for k in counts]
    m = a["metrics"]
    assert m["numerics.ridge_solve.calls"]["value"] > 0
    assert m["coding.rebuild_coded_row.calls"]["value"] > 0
    if workload == "forget-cli":
        assert m["cli.startup.calls"]["value"] == 10   # train + 9 requests
        assert m["session.load_session.calls"]["value"] > 0
        assert m["session.bytes_read"]["value"] > 0
    else:
        assert m["session.save_session.calls"]["value"] == 0
    if workload == "tradeoff-sweep":
        cfg = workloads.SCALES["smoke"]["tradeoff-sweep"]
        cells = len(cfg["minimal"]) + len(cfg["bernoulli"])
        assert m["bench.run_tradeoff.calls"]["value"] == cells
        assert m["coding.surviving_shard.calls"]["value"] == 0


def test_cli_verify_gate_trips_on_a_perturbed_weight_column(tmp_path):
    from codedunlearn.session import load_session, save_session

    cfg = workloads.SCALES["smoke"]["forget-cli"]
    wl = workloads.ForgetCli(cfg, 3, ROOT, tmp_path)
    wl.setup()
    stream = wl.requests()
    for _ in range(3):   # unlearn, predict, verify
        _, op, check = next(stream)
        assert check(op())[0]
    model, store, config = load_session(tmp_path / "session")
    model.weights[:, 0] *= 1 + 1e-12
    save_session(tmp_path / "session", model, store, config)
    ok, detail = wl.check_verify(wl.verify())
    assert not ok and "discrepancy" in detail


def test_lib_verify_gate_trips_on_a_perturbed_weight_column():
    cfg = workloads.SCALES["smoke"]["forget-lib"]
    wl = workloads.ForgetLib(cfg, 3, ROOT, None)
    wl.setup()
    _, op, check = next(r for r in wl.requests() if r[0] == "lib_verify")
    assert check(op())[0]
    wl.model.weights[:, 0] *= 1 + 1e-12
    assert not check(op())[0]


def test_sweep_gate_trips_on_any_field_mismatch():
    cfg = workloads.SCALES["smoke"]["tradeoff-sweep"]
    wl = workloads.TradeoffSweep(cfg, 2, ROOT, None)
    wl.setup()
    rows = wl.sweep()
    assert workloads.compare_records(rows, wl.reference) == []
    first = rows[0]
    for field, value in (("cost_proxy", first["cost_proxy"] + 1),
                         ("affected_learners_mean", 9.0),
                         ("test_mse_mean", first["test_mse_mean"] * 1.0001),
                         ("error", "boom")):
        wrong = [dict(first, **{field: value})] + rows[1:]
        assert workloads.compare_records(wrong, wl.reference), field


def test_sweep_requests_are_its_cells_in_order():
    cfg = workloads.SCALES["smoke"]["tradeoff-sweep"]
    wl = workloads.TradeoffSweep(cfg, 2, ROOT, None)
    wl.setup()
    stream = wl.requests()
    requests = [next(stream) for _ in range(2 * len(wl.kinds))]
    assert [kind for kind, _, _ in requests] == 2 * list(wl.kinds)
    assert all(check(op())[0] for _, op, check in requests[:len(wl.kinds)])
    roles = dict(wl.roles)
    assert roles["sweep"] == roles["sweep_minimal"] + roles["sweep_bernoulli"]


def test_speed_probe_scales_each_time_by_the_probes_around_it():
    probe = run.SpeedProbe()
    out = []
    probe.add(out, 1.0)
    probe.add(out, 2.0)
    assert out == []   # not until the next probe
    time.sleep(run.PROBE_GAP_S)
    probe.tick()
    first = probe.readings[-1]   # no probe before: the one after alone
    assert out == [pytest.approx(run.PROBE_REF_S / first),
                   pytest.approx(2 * run.PROBE_REF_S / first)]
    probe.add(out, 1.0)
    probe.tick()   # too soon after the last probe: skipped
    assert len(probe.readings) == 1 and len(out) == 2
    probe.tick(force=True)
    second = probe.readings[-1]
    assert len(probe.readings) == 2
    assert out[2] == pytest.approx(run.PROBE_REF_S / ((first + second) / 2))


def test_failed_requests_count_and_are_not_timed():
    tally = run.Tally()
    tally.run("a", lambda: 1, lambda out: (out == 1, ""))
    tally.run("a", lambda: 2, lambda out: (out == 1, "wrong answer"))
    tally.run("a", lambda: 1 / 0, lambda out: (True, ""))
    assert (tally.attempted, tally.failed) == (3, 2)
    assert len(tally.samples["a"]) == 1
    assert "ZeroDivisionError" in tally.problems[1]


@pytest.mark.parametrize("text, ok", [("prediction\n1.0\n2.0\n", True),
                                      ("prediction\n1.0\n", False),
                                      ("prediction\n1.0\nnan\n", False),
                                      ("1.0\n2.0\n", False)])
def test_prediction_check(tmp_path, text, ok):
    path = tmp_path / "p.csv"
    path.write_text(text)
    assert workloads.check_predictions(path, 2) == ok


def test_tracer_restores_every_binding():
    import codedunlearn
    from codedunlearn import coding, ensemble, numerics

    before = (ensemble.ridge_solve, coding.binary_rank,
              codedunlearn.binary_rank,
              coding.CodedStore.__dict__["rebuild_coded_row"])
    t = tracer.Tracer()
    t.install()
    try:
        assert ensemble.ridge_solve is not before[0]
        assert coding.binary_rank is not before[1]
        numerics.binary_rank([[1, 0], [0, 1]])
        ensemble.ridge_solve([[1.0], [2.0]], [1.0, 2.0], 0.1)
    finally:
        t.uninstall()
    after = (ensemble.ridge_solve, coding.binary_rank,
             codedunlearn.binary_rank,
             coding.CodedStore.__dict__["rebuild_coded_row"])
    assert after == before
    table = tracer.summarize([t.spans])
    assert table["numerics.binary_rank"]["calls"] == 1
    assert table["numerics.ridge_solve"]["calls"] == 1


def test_benchmark_json_is_current_and_within_the_contract():
    text = (ROOT / "BENCHMARK.json").read_text()
    spec = json.loads(text)
    assert spec == run.benchmark_json()
    assert len(text.encode()) <= 64 * 1024
    assert 1 <= spec["run_seconds"] <= 60
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names)
    assert 2 <= len(spec["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert 1 <= len(spec["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_exits_nonzero_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "forget-lib", "--seed", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_verdicts():
    parent = [100.0, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    assert compare.verdict(parent, parent, 0.1) == "no worse"
    faster = [v * 0.8 for v in parent]
    assert compare.verdict(parent, faster, 0.1) == "improved"
    assert compare.verdict(parent, faster, 0.1,
                           change_fails_more=True) == "no worse"
    assert compare.verdict(parent, [v * 1.3 for v in parent], 0.1) == "worse"
    noisy = [50.0, 150, 60, 140, 100, 70, 130, 90, 110, 100]
    assert compare.verdict(noisy, noisy, 0.1) == "unresolved"
    assert compare.verdict(parent, faster, 0.1, better="higher") == "worse"
