"""Run bench/run.py over workloads and seeds, one process at a time, and
summarise each metric by its median and quartiles.

    python3 bench/report.py                      # every workload, one run each
    python3 bench/report.py --runs 10            # ten seeds: the steadiness check
    python3 bench/report.py --runs 1 --trace     # per-layer runs of every workload

Every workload of BENCHMARK.json runs with seeds 1..runs, each run for
its run_seconds.  Every run's own report is printed as it finishes.  The
summary gives, for each end-to-end metric, the spread (q3 - q1) / median of
its values and the metric's bound from BENCHMARK.json; a benchmark is steady
when every spread but setup_s's is below a third of its bound.  With --trace
it also fails when a per-layer `.calls` metric is zero on every workload,
the sign of a wrapper bound to a name nothing calls.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=1, help="runs per workload, seeds 1..runs")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    results = {}
    for workload in names:
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "1" if args.trace else "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if done.returncode != 0 or not lines:
                print(done.stderr, file=sys.stderr)
                print(f"run failed: {' '.join(cmd)} (exit {done.returncode})", file=sys.stderr)
                return 1
            results.setdefault(workload, []).append(json.loads(lines[-1]))

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    print()
    print(f"{'workload':<9} {'metric':<48} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    unsteady = []
    for workload, runs in results.items():
        correct = all(r["correct"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"{workload:<9} correct {correct}, attempted {attempted}, failed {failed}, "
              f"error_ratio {failed / attempted:.4f}")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, q2, q3 = quartiles(values)
            spread = (q3 - q1) / q2 if q2 else 0.0
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s" and spread > bound / 3:
                flag = "  UNSTEADY" if spread > bound else "  over 1/3 bound"
                unsteady.append((workload, m["name"]))
            if args.trace and not any(values):
                continue
            print(f"{'':<9} {m['name'] + ' (' + m['unit'] + ')':<48} {q2:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.3f} {'' if bound is None else bound:>6}{flag}")

    status = 0
    if args.trace:
        dead = [
            m["name"] for m in metrics
            if m["name"].endswith(".calls")
            and not any(r["metrics"][m["name"]]["value"] for runs in results.values() for r in runs)
        ]
        if dead:
            print(f"per-layer metrics with zero calls on every workload: {dead}", file=sys.stderr)
            status = 1
    if unsteady:
        print(f"spread above a third of the bound: {unsteady}")
    return status


if __name__ == "__main__":
    sys.exit(main())
