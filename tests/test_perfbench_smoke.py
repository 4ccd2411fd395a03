"""The benchmark's own gates at smoke scale: every workload's requests pass
their correctness checks (verify reads exactly 0.0, sweep records match the
stored references), so a change that breaks them fails here and not only
when the benchmark is run."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from codedunlearn.numerics import dual_form

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def result_lines(stdout: str) -> list[dict]:
    """The JSON result line each workload prints last."""
    return [json.loads(line) for line in stdout.splitlines()
            if line.startswith("{") and '"correct"' in line]


def test_smoke_benchmark_is_correct():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "all", "--scale", "smoke",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    # one result per workload (forget-cli, forget-lib, tradeoff-sweep):
    # the run exits 0 even when requests fail, so each is checked
    results = result_lines(proc.stdout)
    assert len(results) == 3, proc.stdout[-2000:]
    for result in results:
        assert result["failed"] == 0, proc.stdout[-4000:]
        assert result["correct"] and result["attempted"] > 0


def benchmark_scales() -> dict:
    """perfbench/workloads.py's SCALES, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", RUN.with_name("workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SCALES


@pytest.mark.parametrize("scale", ["smoke", "full"])
def test_sweep_has_a_dual_form_cell(scale):
    # the smoke run above and the sweep's reference records then cover
    # learners solved in dual form (shards shorter than the projection)
    cfg = benchmark_scales()[scale]["tradeoff-sweep"]
    sizes = [cfg["n_train"] // s for s in cfg["minimal"] + cfg["bernoulli"]]
    assert any(dual_form(n, cfg["proj_dim"], cfg["lam"]) for n in sizes)
