"""Run one codedunlearn CLI command with the benchmark's tracer installed.

    PERFBENCH_SPANS=out.jsonl PERFBENCH_SPAWN=<t> python perfbench/trace_boot.py <cli args>

The package's ``src`` directory must be on PYTHONPATH.  PERFBENCH_SPAWN is
the parent's ``time.perf_counter()`` just before spawning this process (the
clock is system-wide on Linux), so the ``cli.startup`` span covers
interpreter start plus ``import codedunlearn.cli``.  Spans are written to
PERFBENCH_SPANS when the command exits, and the command's exit code is kept.
"""

import os
import sys
import time

import codedunlearn.cli

ready = time.perf_counter()

from tracer import Tracer  # noqa: E402  (after the timed import, on purpose)

tracer = Tracer()
tracer.span("cli.startup", float(os.environ["PERFBENCH_SPAWN"]), ready)
tracer.install()
main = tracer.wrap("cli.main", codedunlearn.cli.main)
try:
    main(args=sys.argv[1:], prog_name="codedunlearn")
    code = 0
except SystemExit as exc:
    code = exc.code
finally:
    tracer.uninstall()
    tracer.dump(os.environ["PERFBENCH_SPANS"])
sys.exit(code)
