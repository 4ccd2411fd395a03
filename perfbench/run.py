#!/usr/bin/env python3
"""codedunlearn benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload forget-cli --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --scale smoke --seconds 2
    python3 perfbench/run.py --write-benchmark-json
    python3 perfbench/run.py --write-reference full

With ``--trace 0`` a run sets up the workload at least SETUP_REPEATS times,
then runs its request stream for ``--seconds`` and reports the end-to-end
metrics, with times scaled to a reference machine speed by a probe kernel
timed after each request (see SpeedProbe).
With ``--trace 1`` it runs a fixed number of requests, each untraced and
then traced on a second copy of the workload (whose set-up is traced too),
and reports per-layer calls, times and counters plus the tracing overhead.  Every request's output passes a correctness
gate; a miss counts as a failed request.  Human-readable lines come first;
the last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A fuller record, with provenance, is written
under ``.perfbench_out/``.

``--root`` benchmarks the ``src/`` of another checkout with this benchmark
code (see compare.py).
"""

from __future__ import annotations

import os

# Pinned before numpy loads, in this process and every CLI child.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent

RUN_SECONDS = 30
# Set-up runs at least SETUP_REPEATS times, and again while the set-ups so
# far took under SETUP_MIN_S, up to SETUP_MAX_REPEATS: a set-up of a few
# milliseconds gets enough repeats for a steady median.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 25

WORKLOAD_WHY = {
    "forget-cli": "CLI processes users wait on: start-up and session "
                  "save/load dominate; unlearn writes the session while "
                  "predict and verify only read it",
    "forget-lib": "in-process unlearn and verify at 200k x 32: coded-row "
                  "rebuilds, ridge solves and verify's shard loop, with no "
                  "session or CLI code",
    "tradeoff-sweep": "the paper's cost/accuracy sweep: generator rank "
                      "checks, projection and learn dominate; few unlearns "
                      "and no sessions",
}

# op_a/op_b/op_c are the mean latencies of each workload's three roles, in
# the order of its `roles`: forget-cli unlearn/predict/verify processes,
# forget-lib unlearn(1 id)/unlearn(100 ids)/verify calls, tradeoff-sweep
# whole sweep/minimal-code arm/Bernoulli arm.  The mean (the inverse of
# requests completed per second) is gated rather than the median.  These
# and setup_s are scaled to reference machine speed (see SpeedProbe).
GATE_ROLES = ("op_a_norm_ms", "op_b_norm_ms", "op_c_norm_ms")
END_TO_END = (
    ("setup_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.15),
    *((role, "ms", 0.25) for role in GATE_ROLES),
)

# Printed names of the request kinds: (metric prefix, unit, seconds -> unit).
KIND_NAMES = {
    "cli_unlearn": ("cli_unlearn_s", "s", 1.0),
    "cli_predict": ("cli_predict_s", "s", 1.0),
    "cli_verify": ("cli_verify_s", "s", 1.0),
    "lib_unlearn1": ("lib_unlearn1_ms", "ms", 1e3),
    "lib_unlearn100": ("lib_unlearn100_ms", "ms", 1e3),
    "lib_verify": ("lib_verify_s", "s", 1.0),
    "sweep": ("sweep_s", "s", 1.0),
    "sweep_minimal": ("sweep_minimal_s", "s", 1.0),
    "sweep_bernoulli": ("sweep_bernoulli_s", "s", 1.0),
}

# Span times go into the JSON result only for the functions every workload
# runs, so no time there is a constant zero; the printed table has them all.
TIMED_SPANS = ("dataset.gen_synthetic", "numerics.ridge_solve",
               "numerics.binary_rank", "coding.encode",
               "coding.rand_matrix_minimal", "coding.rebuild_coded_row",
               "ensemble.learn", "ensemble.unlearn")
LAYER_COUNTERS = (
    ("ensemble.learners_retrained", "count"),
    ("coding.generator_accept_ratio", "ratio"),
    ("session.bytes_written", "bytes"),
    ("session.bytes_read", "bytes"),
    ("session.files_written", "count"),
    ("session.forgotten_rows_on_disk", "count"),
)


def per_layer_spec() -> list[tuple[str, str]]:
    from tracer import SPAN_NAMES

    spec = [(f"{name}.calls", "count") for name in SPAN_NAMES]
    for name in TIMED_SPANS:
        spec += [(f"{name}.total_s", "s"), (f"{name}.self_s", "s")]
    return spec + list(LAYER_COUNTERS) + [("trace.overhead_s", "s"),
                                          ("trace.overhead_pct", "%")]


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOAD_WHY.items()],
        "end_to_end": [{"name": n, "unit": u, "better": "lower", "bound": b}
                       for n, u, b in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": "higher"
                       if n == "coding.generator_accept_ratio" else "lower"}
                      for n, u in per_layer_spec()],
    }


# -- statistics ----------------------------------------------------------------
def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it; None below 20 samples, where that is under p50."""
    n = len(samples)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


# -- provenance ----------------------------------------------------------------
def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    head = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    dirty = subprocess.run(["git", "-C", str(root), "status", "--porcelain",
                            "--untracked-files=no", "--", "src"],
                           capture_output=True, text=True)
    return head.stdout.strip() + (" +uncommitted src" if dirty.stdout else "")


def provenance(root: Path, args) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "commit": git_commit(root), "workload": args.workload,
        "seed": args.seed, "scale": args.scale, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "openblas": openblas, "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
    }


# -- machine speed -------------------------------------------------------------
# The 2-vCPU VM this benchmark was tuned on is a share of a busy host.  Its
# speed swung by up to a third for seconds to minutes at a time, so that
# whole 30 s runs of the same code differed by 10-30 %, evenly across
# Python-bound and BLAS-bound requests.  A fixed probe kernel, which does
# not touch codedunlearn, therefore runs after requests and set-ups, at most
# once per PROBE_GAP_S.  Each request's time, and each set-up's, is scaled
# by PROBE_REF_S / the mean time of the probes just before and just after
# it: a time at the speed where the probe takes PROBE_REF_S, about its usual
# time on that VM.  Over ten runs of forget-cli this cut the run-to-run
# spread of the latencies to 0.4-0.75 of the raw spread, where the probe
# after alone left 0.5-1.2 of it.  The gate metrics are means and medians
# of scaled times; raw times are printed beside them.
PROBE_REF_S = 0.8e-3
PROBE_GAP_S = 0.05
_PROBE_X = None


def probe_kernel() -> float:
    """Seconds taken by a fixed mix of interpreter loop, small numpy calls
    and a BLAS product with a solve, like the requests' own mix."""
    import numpy as np

    global _PROBE_X
    if _PROBE_X is None:
        _PROBE_X = np.random.default_rng(0).standard_normal((512, 32))
    x = _PROBE_X
    start = time.perf_counter()
    acc = 0
    for i in range(8000):
        acc += i % 7
    for j in range(32):
        acc += float(x[:, j] @ x[:, (j + 1) % 32])
    np.linalg.solve(x.T @ x + np.eye(32), x[:32, 0])
    return time.perf_counter() - start


class SpeedProbe:
    """Scales times to reference speed by the probe_kernel() times around
    them."""

    def __init__(self):
        # warm-up, not recorded; the median is the kernel's warm time
        self.warm_s = statistics.median(probe_kernel() for _ in range(20))
        self.readings: list[float] = []
        self.pending: list[tuple[list[float], float, float | None]] = []
        self.last = time.perf_counter()

    def add(self, out: list[float], seconds: float) -> None:
        """Append seconds to out, scaled, once the next probe has run."""
        before = self.readings[-1] if self.readings else None
        self.pending.append((out, seconds, before))

    def tick(self, force: bool = False) -> None:
        """Probe, unless the last probe was under PROBE_GAP_S ago."""
        if not force and time.perf_counter() - self.last < PROBE_GAP_S:
            return
        # One run, on the caches the request left: that cold time tracked
        # the CLI children better than a warm one.  An interrupt can
        # stretch a run fivefold, so a run over twice the warm time is
        # taken again.
        reading = probe_kernel()
        if reading > 2 * self.warm_s:
            reading = probe_kernel()
        self.readings.append(reading)
        for out, seconds, before in self.pending:
            around = reading if before is None else (before + reading) / 2
            out.append(seconds * PROBE_REF_S / around)
        self.pending.clear()
        self.last = time.perf_counter()


# -- running -----------------------------------------------------------------
def _crashed(trace: str):
    return False, trace


class Tally:
    """Latency samples by request kind, and the failures.  With a probe,
    the machine's speed is probed after each request, and `scaled` holds
    the samples scaled to reference speed."""

    def __init__(self, probe: SpeedProbe | None = None):
        self.probe = probe
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.scaled: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0
        self.problems: list[str] = []
        self.seen: set[str] = set()   # kinds attempted

    def run(self, kind: str, op, check) -> None:
        """Time op(), then gate its output with check()."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            output = op()
        except Exception:  # a crashing request is a failed request
            output, check = traceback.format_exc(limit=3), _crashed
        elapsed = time.perf_counter() - start
        self.busy += elapsed
        try:
            ok, detail = check(output)
        except Exception:  # so is output the gate cannot read
            ok, detail = False, traceback.format_exc(limit=3)
        self.seen.add(kind)
        if ok:
            self.samples[kind].append(elapsed)
            if self.probe:
                self.probe.add(self.scaled[kind], elapsed)
        else:
            self.failed += 1
            self.problems.append(f"{kind}: {detail}")
        if self.probe:
            self.probe.tick()


def make_workload(args, work: Path, trace_dir: Path | None = None):
    from workloads import SCALES, WORKLOADS

    cls = WORKLOADS[args.workload]
    return cls(SCALES[args.scale][args.workload], args.seed, args.root,
               work, trace_dir)


def run_timed(args, work: Path):
    """Untraced run: set-ups, then the request stream for --seconds."""
    wl = make_workload(args, work)
    probe = SpeedProbe()
    setups, scaled_setups = [], []
    while len(setups) < SETUP_REPEATS or (sum(setups) < SETUP_MIN_S and
                                          len(setups) < SETUP_MAX_REPEATS):
        start = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - start)
        probe.add(scaled_setups, setups[-1])
        probe.tick(force=True)
    tally = Tally(probe)
    start = time.perf_counter()
    for request in wl.requests():
        # past the run length, go on only until every kind has a sample
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds and (tally.seen >= set(wl.kinds)
                                        or elapsed >= 2 * args.seconds):
            break
        tally.run(*request)
    probe.tick(force=True)   # scales the last requests
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \
        + wl.child_peak_kb
    return wl, (setups, scaled_setups), tally, peak_kb / 1024.0, probe


def run_traced(args, work: Path):
    """A fixed number of requests on two copies of the workload, each
    untraced request followed by its traced twin, so that drift in machine
    speed hits both sides alike.  The traced copy's set-up is traced too."""
    from tracer import Tracer, load_dump, summarize

    trace_dir = work / "spans"
    for path in (trace_dir, work / "plain", work / "traced"):
        path.mkdir()
    plain = make_workload(args, work / "plain")
    wl = make_workload(args, work / "traced", trace_dir)
    tracer = Tracer()
    plain.setup()
    with tracer.installed():
        wl.setup()
    untraced, traced = Tally(), Tally()
    plain_stream, traced_stream = plain.requests(), wl.requests()
    for i in range(wl.trace_requests):
        untraced.run(*next(plain_stream))
        tracer.request = i
        with tracer.installed():
            traced.run(*next(traced_stream))
    tracer.dump(trace_dir / "parent.jsonl")

    processes, counters = [], defaultdict(int)
    for path in sorted(trace_dir.glob("*.jsonl")):
        proc_counters, spans = load_dump(path)
        processes.append(spans)
        for key, value in proc_counters.items():
            counters[key] += value
    table = summarize(processes)
    ranks = table["numerics.binary_rank"]["calls"]
    counters["coding.generator_accept_ratio"] = \
        counters.pop("coding.generators_returned") / ranks if ranks else 0.0
    counters["session.forgotten_rows_on_disk"] = \
        wl.forgotten_rows_on_disk() if hasattr(wl, "forgotten_rows_on_disk") \
        else 0
    out = out_dir() / f"spans-{args.workload}-{args.scale}-seed{args.seed}.jsonl"
    with out.open("w") as fh:
        for k, spans in enumerate(processes):
            for span in spans:
                fh.write(json.dumps([k] + list(span or [])) + "\n")
    return untraced, traced, table, dict(counters)


def out_dir() -> Path:
    path = CHECKOUT / ".perfbench_out"
    path.mkdir(exist_ok=True)
    return path


# -- reporting -------------------------------------------------------------------
def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def timed_report(wl, setups, tally, peak_mb, probe):
    setups, scaled_setups = setups
    rows = [("setup_s", statistics.median(scaled_setups), "s", len(setups)),
            ("setup_s.raw", statistics.median(setups), "s", len(setups)),
            ("peak_rss_mb", peak_mb, "MB", wl.children + 1),
            ("failed_frac", tally.failed / max(tally.attempted, 1), "ratio",
             tally.attempted),
            ("probe_ms.p50", statistics.median(probe.readings) * 1e3, "ms",
             len(probe.readings))]
    metrics = {"setup_s": rows[0][1], "peak_rss_mb": peak_mb}
    for role_metric, (role, kinds) in zip(GATE_ROLES, wl.roles):
        name, unit, factor = KIND_NAMES[role]
        if not all(tally.samples[kind] for kind in kinds):
            raise SystemExit(f"no successful {role} request; no result")
        samples = [[v * factor for v in tally.samples[kind]]
                   for kind in kinds]
        count = min(len(v) for v in samples)
        mean = sum(statistics.fmean(v) for v in samples)
        rows.append((f"{name}.p50", sum(statistics.median(v)
                                         for v in samples), unit, count))
        rows.append((f"{name}.mean", mean, unit, count))
        found = tail(samples[0]) if len(kinds) == 1 else None
        rows.append((f"{name}.tail", found[1] if found else "n/a", unit,
                     f"{count} (p{found[0]:.1f})" if found
                     else f"{count} (needs 20)" if len(kinds) == 1
                     else f"{count} (a sum of {len(kinds)} kinds)"))
        metrics[role_metric] = 1e3 * sum(
            statistics.fmean(tally.scaled[kind]) for kind in kinds)
        rows.append((role_metric, metrics[role_metric], "ms", count))
    for kind in wl.kinds:
        if kind not in KIND_NAMES:   # the parts of a summed role
            rows.append((f"{kind}_s.p50", statistics.median(
                tally.samples[kind]), "s", len(tally.samples[kind])))
    lines = [f"{'metric':<28} {'value':>14} {'unit':<6} n"]
    lines += [f"{n:<28} {_fmt(v):>14} {u:<6} {c}" for n, v, u, c in rows]
    units = {n: u for n, u, _ in END_TO_END}
    lines.append("gate metrics: setup_s and " + ", ".join(
        f"{role_metric}={KIND_NAMES[role][0]}.mean"
        for role_metric, (role, _) in zip(GATE_ROLES, wl.roles))
        + f", each time scaled by {PROBE_REF_S * 1e3:g} ms / the next probe")
    return lines, {k: {"value": v, "unit": units[k]}
                   for k, v in metrics.items()}


def traced_report(untraced, traced, table, counters):
    overhead = traced.busy - untraced.busy
    metrics = {}
    for name, row in table.items():
        metrics[f"{name}.calls"] = row["calls"]
    for name in TIMED_SPANS:
        metrics[f"{name}.total_s"] = table[name]["total_s"]
        metrics[f"{name}.self_s"] = table[name]["self_s"]
    metrics.update(counters)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_pct"] = 100.0 * overhead / untraced.busy

    lines = [f"{'span':<38} {'calls':>7} {'total_s':>10} {'self_s':>10}"]
    for name, row in sorted(table.items()):
        if row["calls"]:
            lines.append(f"{name:<38} {row['calls']:>7} "
                         f"{row['total_s']:>10.4f} {row['self_s']:>10.4f}")
    layers = defaultdict(float)
    for name, row in table.items():
        layers[name.split(".")[0]] += row["self_s"]
    lines.append(f"{'layer':<38} {'self_s':>10}")
    lines += [f"{layer:<38} {seconds:>10.4f}"
              for layer, seconds in sorted(layers.items())]
    startup = table["cli.startup"]
    if startup["calls"]:
        lines.append(f"cli.startup_s (mean of {startup['calls']}) "
                     f"{startup['total_s'] / startup['calls']:.4f} s")
    lines += [f"{name:<38} {_fmt(counters[name])} {unit}"
              for name, unit in LAYER_COUNTERS]
    lines.append(f"tracing overhead: {overhead:.4f} s on {untraced.busy:.4f} s "
                 f"untraced ({metrics['trace.overhead_pct']:.2f} %), "
                 f"{untraced.attempted} requests")
    units = dict(per_layer_spec())
    return lines, {k: {"value": metrics[k], "unit": u}
                   for k, u in units.items()}


def run_one(args) -> int:
    work = CHECKOUT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    prov = provenance(args.root, args)
    print("# perfbench " + " ".join(f"{k}={v}" for k, v in prov.items()))
    try:
        if args.trace:
            untraced, traced, table, counters = run_traced(args, work)
            lines, metrics = traced_report(untraced, traced, table, counters)
            tallies = (untraced, traced)
            detail = {"table": lines}
        else:
            wl, setups, tally, peak_mb, probe = run_timed(args, work)
            lines, metrics = timed_report(wl, setups, tally, peak_mb, probe)
            tallies = (tally,)
            detail = {"table": lines, "samples": tally.samples,
                      "setups": setups[0], "probe_ms": probe.readings}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):   # only if no other run uses it
            work.parent.rmdir()
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    for line in lines:
        print(line)
    for problem in [p for t in tallies for p in t.problems][:20]:
        print(f"FAILED {problem}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = out_dir() / (f"{args.workload}-{args.scale}-seed{args.seed}"
                          f"-trace{args.trace}.json")
    record.write_text(json.dumps({"provenance": prov, "detail": detail,
                                  "result": result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def parse_args(argv=None):
    from workloads import SCALES, WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=sorted(SCALES), default="full")
    p.add_argument("--root", type=Path, default=CHECKOUT,
                   help="checkout whose src/ is benchmarked")
    p.add_argument("--write-benchmark-json", action="store_true")
    p.add_argument("--write-reference", choices=sorted(SCALES))
    args = p.parse_args(argv)
    args.root = args.root.resolve()
    if not (args.write_benchmark_json or args.write_reference
            or args.workload):
        p.error("give --workload, --write-benchmark-json or --write-reference")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (args.root / "src" / "codedunlearn" / "__init__.py").exists():
        print(f"error: no codedunlearn sources under {args.root / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(args.root / "src"))
    if args.write_benchmark_json:
        (CHECKOUT / "BENCHMARK.json").write_text(
            json.dumps(benchmark_json(), indent=2) + "\n")
    if args.write_reference:
        from workloads import write_reference

        print(f"wrote {write_reference(args.write_reference)}")
    if args.workload == "all":
        from workloads import WORKLOADS

        # one process per workload, so peak RSS is each workload's own
        codes = [subprocess.run([sys.executable, __file__, *sys.argv[1:],
                                 "--workload", name]).returncode
                 for name in WORKLOADS]
        return max(codes)
    if args.workload:
        return run_one(args)
    return 0


if __name__ == "__main__":
    # String hashes are salted afresh in every interpreter unless
    # PYTHONHASHSEED is set, and the salt changes the order of some
    # allocations: the same sweep run's peak RSS moved by 13 MB from one
    # process to the next.  Start again with the salt fixed; CLI children
    # inherit it.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
