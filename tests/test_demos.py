"""Every demo script runs to completion against the package as it is.

The demos call run_tradeoff, run_influence and emit_results, so a change
to the harness that breaks them fails here.  Each runs in its own working
directory, where it may write its result files."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import codedunlearn

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    src = str(Path(codedunlearn.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
