#!/usr/bin/env python3
"""Parent-vs-change comparison with identical benchmark code.

    python3 perfbench/compare.py --parent ../parent --change . --pairs 10

Each pair runs ``run.py --root <side>`` once per side on the same seed,
alternating which side goes first.  For every workload and end-to-end
metric it prints each side's median and quartiles, the spread (quartile
distance over the median), the share of pairs the change wins (ties count
for neither side) and a verdict against the bounds in BENCHMARK.json:

* improved   -- the change wins at least 9 of 10 pairs, its median is
                better by more than the parent's quartile distance, and no
                more requests fail than at the parent;
* no worse   -- the change's median is within the bound of the parent's,
                and the parent's spread is within the bound;
* worse      -- the change's median is beyond the bound, with a spread
                within it;
* unresolved -- the spread is wider than the bound, unless every change
                run reads better than every parent run.

failed_frac (failed over attempted requests, summed over a side's runs) is
compared too: any rise is *worse*.  Passing the same checkout as parent and
change measures run-to-run agreement of the benchmark itself.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change reads strictly better than the parent."""
    sign = 1.0 if better == "lower" else -1.0
    return sum(sign * (c - p) < 0 for p, c in zip(parent, change))


def verdict(parent: list[float], change: list[float], bound: float,
            better: str = "lower", change_fails_more: bool = False) -> str:
    """Verdict for one metric from paired runs (parent[i] with change[i])."""
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    gain = sign * (p_med - statistics.median(change))
    if (not change_fails_more and wins(parent, change, better)
            >= 0.9 * len(parent) and gain > p_q3 - p_q1):
        return "improved"
    if max(sign * c for c in change) < min(sign * p for p in parent):
        return "no worse"   # every change run beats every parent run
    if (p_q3 - p_q1) / abs(p_med) > bound:
        return "unresolved"
    return "no worse" if -gain <= bound * abs(p_med) else "worse"


def run_side(root: Path, workload: str, seed: int, args) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--root", str(root),
           "--workload", workload, "--seed", str(seed), "--trace", "0",
           "--scale", args.scale]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=100,
                   help="seed of the first pair; pair i uses seed + i")
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--scale", default="full")
    args = p.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    report = []
    for workload in workloads:
        results = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                results[side].append(run_side(sides[side], workload,
                                              args.seed + i, args))
        fails = {side: sum(r["failed"] for r in rs)
                 / sum(r["attempted"] for r in rs)
                 for side, rs in results.items()}
        more = fails["change"] > fails["parent"]
        report.append({"workload": workload, "metric": "failed_frac",
                       "parent": fails["parent"], "change": fails["change"],
                       "verdict": "worse" if more else "no worse"})
        for m in spec["end_to_end"]:
            vals = {side: [r["metrics"][m["name"]]["value"] for r in rs]
                    for side, rs in results.items()}
            row = {"workload": workload, "metric": m["name"],
                   "unit": m["unit"], "bound": m["bound"],
                   "win_rate": wins(vals["parent"], vals["change"],
                                    m["better"]) / args.pairs,
                   "verdict": verdict(vals["parent"], vals["change"],
                                      m["bound"], m["better"], more)}
            for side, v in vals.items():
                q1, med, q3 = quartiles(v)
                row[side] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / abs(med), "runs": v}
            report.append(row)

    print(f"{'workload':<15} {'metric':<13} {'parent median [q1, q3] spread':<40}"
          f" {'change median [q1, q3] spread':<40} {'wins':>5}  verdict")
    for row in report:
        if row["metric"] == "failed_frac":
            print(f"{row['workload']:<15} {'failed_frac':<13} "
                  f"{row['parent']:<40.4g} {row['change']:<40.4g} "
                  f"{'':>5}  {row['verdict']}")
            continue
        cells = [f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] "
                 f"{s['spread']:.3f}" for s in (row["parent"], row["change"])]
        print(f"{row['workload']:<15} {row['metric']:<13} {cells[0]:<40} "
              f"{cells[1]:<40} {row['win_rate']:>5.2f}  {row['verdict']}"
              f" (bound {row['bound']})")
    out = BENCH_DIR.parent / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"compare-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps({"sides": {k: str(v) for k, v in sides.items()},
                                "pairs": args.pairs, "rows": report},
                               indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
