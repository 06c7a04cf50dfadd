"""cfinite benchmark: one seeded workload, timed end to end or traced per layer.

    python3 bench/run.py --workload refute --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository: the library is imported from its
src/ directory.  Prints a readable report, then, as the last line, one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end_to_end
metrics of BENCHMARK.json, or with --trace 1 its per_layer metrics.
bench/README.md describes the workloads and the metrics.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("refute", "validate", "guess", "cli")
IMPORTS = 5  # fresh interpreters timed for setup_s; it takes their median

# On a host whose cores are shared, speed can drift by 2x within seconds.
# Every timing is therefore rescaled to a reference speed: the time of a fixed
# pure-Python kernel is taken before and after each timed stretch, and a
# stretch's seconds are multiplied by REFERENCE_KERNEL_S / (mean kernel time).
REFERENCE_KERNEL_S = 0.012


def kernel_s() -> float:
    """Seconds the host takes now for a fixed big-integer and Fraction loop.

    The garbage collector is off while it runs, so the kernel's time does not
    depend on how many objects the library keeps alive."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc, x = Fraction(0), 1
        for i in range(1, 2000):
            x = x * 3 + i
            acc += Fraction(i, i + 7)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def parse_args(spec, argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"], help="timed interval per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def speed(*kernels) -> float:
    """Reference seconds per wall second, from kernel times around a stretch."""
    return REFERENCE_KERNEL_S / statistics.fmean(kernels)


def timed(fn):
    """fn(), its wall seconds, and the host speed factor around it."""
    before = kernel_s()
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    return result, wall, speed(before, kernel_s())


class Pass:
    """The ops of whole cycles, their results and latencies (reference
    seconds; `wall` keeps the unscaled seconds)."""

    def __init__(self):
        self.ops, self.results, self.latencies, self.wall = [], [], [], []
        self.cycles = 0

    @property
    def elapsed(self) -> float:
        return sum(self.latencies)

    def per_cycle(self, seconds=None):
        """The latencies (or other per-op seconds) of each cycle."""
        seconds = self.latencies if seconds is None else seconds
        per = len(self.ops) // self.cycles
        return [seconds[c * per : (c + 1) * per] for c in range(self.cycles)]

    def rate(self, seconds=None) -> float:
        """Ops per second of op time, over the cycles but the fastest and the
        slowest (see trimmed).  Every cycle has the same ops."""
        times = trimmed(sum(c) for c in self.per_cycle(seconds))
        return len(self.ops) // self.cycles * len(times) / sum(times)

    def p50(self) -> float:
        """Median latency: the mean over cycles of a cycle's median, leaving
        out the lowest and the highest (see trimmed).

        A mix is a few clusters of op cost, and the pooled median falls
        between two of them, on the slowest op of one and the fastest of the
        next; the cycles' medians do not hang on single ops."""
        return statistics.fmean(trimmed(statistics.median(c) for c in self.per_cycle()))

    def tail(self):
        """Tail latency, its percentile and the samples beyond it: the
        percentile is chosen on all the run's ops (tail_pct), and its value
        is the trimmed mean over cycles of the cycle's percentile, as in p50.
        Returns (value, percentile, samples beyond)."""
        pct, beyond = tail_pct(len(self.latencies))
        return statistics.fmean(trimmed(percentile(c, pct) for c in self.per_cycle())), pct, beyond


def trimmed(values) -> list:
    """The values but the lowest and the highest, when there are three or
    more, so that one cycle that meets a burst of host load does not move a
    figure."""
    values = sorted(values)
    return values[1:-1] if len(values) >= 3 else values


def call_op(op, parent):
    try:
        return op.call(parent)
    except Exception as exc:  # the op boundary: a raise is the op's result, checked later
        return exc.with_traceback(None)


def run_cycles(wl, seconds=None, cycles=None, rec=None) -> Pass:
    """Whole cycles until `seconds` of op time have passed, or `cycles` cycles.

    Inputs for a cycle are made before its first op; checks run later.  The
    kernel runs between ops, outside their latencies."""
    run = Pass()
    before = kernel_s()
    while True:
        for op in wl.cycle(run.cycles):
            start = time.perf_counter()
            if rec is None:
                result = call_op(op, None)
            else:
                result = rec.op(len(run.ops), lambda span, op=op: call_op(op, span))
            wall = time.perf_counter() - start
            after = kernel_s()
            run.wall.append(wall)
            run.latencies.append(wall * speed(before, after))
            run.ops.append(op)
            run.results.append(result)
            before = after
        run.cycles += 1
        if (run.cycles >= cycles) if cycles is not None else (run.elapsed >= seconds):
            return run


TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_pct(n: int):
    """The highest percentile of TAIL_LADDER with at least ten of n samples
    above it by nearest rank, and that number of samples.

    A fixed ladder keeps the percentile the same for runs whose sample counts
    differ by a cycle.  With fewer than 20 samples it is the maximum."""
    for pct in TAIL_LADDER:
        beyond = n - math.ceil(pct * n / 100)
        if beyond >= 10:
            return pct, beyond
    return 100.0, 0


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(pct * len(ordered) / 100), 1) - 1]


def startup_s(env) -> float:
    """Reference seconds a fresh interpreter takes to start and import
    cfinite.cli: the part of set-up that a run can do only once itself."""
    cmd = [sys.executable, "-c", "import cfinite.cli"]
    _, wall, factor = timed(lambda: subprocess.run(cmd, env=env, check=True, timeout=60))
    return wall * factor


def checked(wl, run: Pass):
    """Failure category of every op (None when its output is right)."""
    verdicts = []
    for op, result in zip(run.ops, run.results):
        try:
            verdicts.append(wl.check(op, result))
        except Exception as exc:  # a malformed output is a wrong output
            print(f"check of {op.label} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            verdicts.append("wrong")
    return verdicts


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
    return h.hexdigest()


def emit(spec_metrics, values: dict, correct: bool, attempted: int, failed: int):
    metrics = {}
    for m in spec_metrics:
        if m["name"] not in values:
            raise KeyError(f"metric {m['name']} of BENCHMARK.json is not computed")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(spec, argv)
    # One CPU for the run and its children, so the kernel measures the CPU
    # that the `cli` children run on too.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "cfinite" / "__init__.py").is_file():
        print(f"run.py: no cfinite sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cfinite.cli  # noqa: F401

    import workloads

    env = {**os.environ, "PYTHONPATH": str(SRC)}
    import_s = statistics.median(startup_s(env) for _ in range(IMPORTS))
    before = kernel_s()

    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT)
    try:
        rounds = []
        for r in range(workloads.ROUNDS):
            start = time.perf_counter()
            wl.setup_round(r)
            wall = time.perf_counter() - start
            after = kernel_s()
            rounds.append(wall * speed(before, after))
            before = after
        setup_s = import_s + statistics.median(rounds)

        run = run_cycles(wl, seconds=args.seconds)
        verdicts = checked(wl, run)
        outputs = [wl.render(op, res) for op, res in zip(run.ops, run.results)]
        traced = None
        if args.trace:
            traced = trace(wl, run, outputs, args)
    finally:
        wl.close()

    n = len(run.ops)
    wrong = verdicts.count(workloads.WRONG)
    known = Counter(v for v in verdicts if v not in (None, workloads.WRONG))
    failed = wrong + sum(known.values())
    p50 = run.p50()
    tail_s, pct, beyond = run.tail()
    values = {
        "ops_per_s": run.rate(),
        "latency_p50_s": p50,
        "latency_tail_s": tail_s,
        "setup_s": setup_s,
        "peak_rss_mib": wl.peak_rss_kib() / 1024,
    }
    sizes = [s for s in (wl.doc_kib(op, r) for op, r in zip(run.ops, run.results)) if s is not None]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  {n} ops in {run.cycles} cycles, {run.elapsed:.3f} s of op time "
          f"({sum(run.wall):.3f} s wall, host at {run.elapsed / sum(run.wall):.3f} of reference speed); "
          "one client, closed loop")
    print(f"  attempted {n}  failed {failed}  error_ratio {failed / n:.4f} (ratio)")
    for label, count in sorted(known.items()):
        print(f"    {count} {label}")
    print(f"  ops_per_s       {values['ops_per_s']:.6g} 1/s   ({run.rate(run.wall):.6g} per wall second)")
    print(f"  cycle seconds   {' '.join(f'{sum(c):.4f}' for c in run.per_cycle())}")
    print(f"  latency_p50_s   {p50:.6g} s   (n={n}; trimmed mean of {run.cycles} cycle medians, "
          f"pooled median {statistics.median(run.latencies):.6g} s)")
    print(f"  latency_tail_s  {tail_s:.6g} s   (p{pct:.1f}, n={n}, {beyond} beyond; trimmed mean of {run.cycles} "
          f"cycles' p{pct:.1f}, pooled p{pct:.1f} {percentile(run.latencies, pct):.6g} s)")
    print(f"  setup_s         {setup_s:.6g} s   (start-up and import {import_s:.4g} s, median of {IMPORTS} "
          f"interpreters, + median of {len(rounds)} set-up rounds)")
    print(f"  peak_rss_mib    {values['peak_rss_mib']:.6g} MiB")
    if sizes:
        print(f"  cert_kib_mean   {statistics.fmean(sizes):.6g} KiB")
    if args.workload == "refute":
        first = outputs[: len(wl.cycle(0))]
        print(f"  certs_sha256    {digest(first)} (cycle 0, {len(first)} documents)")
        print(f"  certs_sha256    {digest(outputs)} (all {n} documents)")

    correct = wrong == 0
    if traced is None:
        emit(spec["end_to_end"], values, correct, n, failed)
        return 0
    layer, problems = traced
    layer["certify.cert_kib_mean"] = statistics.fmean(sizes) if sizes else 0.0
    layer["cli.process_s"] = p50 if args.workload == "cli" else 0.0
    for problem in problems:
        print(f"  TRACE FAILURE: {problem}", file=sys.stderr)
    print(f"  traced pass: outputs {'identical' if layer['trace.outputs_identical'] else 'DIFFER'}; "
          f"{layer['trace.ops_per_s_traced']:.6g} traced / {layer['trace.ops_per_s_untraced']:.6g} "
          f"untraced ops/s = {layer['trace.overhead_ratio']:.4f}")
    report_layers(layer)
    emit(spec["per_layer"], layer, correct and not problems, n, failed)
    return 1 if problems else 0


def trace(wl, run: Pass, outputs, args):
    """Run the same cycles again with every layer wrapped.

    Returns the per-layer metrics and a list of problems: outputs that differ
    from the untraced pass, ops whose self times do not add up to their wall
    time."""
    rec = spans.Recorder()
    installed = spans.install(rec, spans.cfinite_modules())
    wl.recorder = rec
    try:
        again = run_cycles(wl, cycles=run.cycles, rec=rec)
    finally:
        wl.recorder = None
        installed.undo()
    problems = []
    if installed.missing:
        print(f"  not wrapped (absent): {', '.join(installed.missing)}", file=sys.stderr)
    traced_outputs = [wl.render(op, res) for op, res in zip(again.ops, again.results)]
    identical = traced_outputs == outputs
    if not identical:
        problems.append("traced outputs differ from untraced outputs")
    factors = [lat / wall for lat, wall in zip(again.latencies, again.wall)]
    op_info = {i: (op.bucket, f) for i, (op, f) in enumerate(zip(again.ops, factors))}
    layer, unbalanced = spans.aggregate(rec, op_info, again.cycles)
    if unbalanced:
        problems.append(f"self times do not sum to wall time on ops {unbalanced[:10]}")
    untraced_rate = run.rate()
    traced_rate = again.rate()
    layer.update(
        {
            "trace.ops_per_s_untraced": untraced_rate,
            "trace.ops_per_s_untraced_wall": run.rate(run.wall),
            "trace.ops_per_s_traced": traced_rate,
            "trace.overhead_ratio": traced_rate / untraced_rate,
            "trace.outputs_identical": 1.0 if identical else 0.0,
            "bench.cycles": float(again.cycles),
            "cli.interpreter_s": 0.0,
            "cli.import_s": 0.0,
            "cli.import.numpy_s": 0.0,
        }
    )
    if args.workload == "cli":
        layer.update(wl.process_metrics(timed))
    ops = [{"id": i, "label": op.label, "bucket": op.bucket} for i, op in enumerate(again.ops)]
    rec.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json.gz", {"ops": ops})
    return layer, problems


def report_layers(layer: dict):
    """Self time per layer and cycle, largest first."""
    rows = [(layer[f"{name}.self_s"], name) for name in spans.LAYERS + ("outside", "trace")]
    whole = sum(v for v, _ in rows) or 1.0
    print("  self time per cycle of the mix, by layer:")
    for value, name in sorted(rows, reverse=True):
        print(f"    {name:<11} {value:10.6f} s  {100 * value / whole:5.1f} %")


if __name__ == "__main__":
    sys.exit(main())
