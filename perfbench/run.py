"""modlam benchmark: one workload per process, a closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports modlam from its
src/ directory, at the interpreter's default recursion limit.  With
--trace 0 it prints the end-to-end metrics; with --trace 1 it runs each
round once untraced and once traced, and prints the per-layer metrics
and the tracing overhead.  Times are stated at a reference host speed
(see workloads.Tally); the raw figures are printed on the "host
slowdown" line.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the exit code is 0 only
if every output check passed.  BENCHMARK.json lists the workloads and
metrics with the reason for each workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_REPEATS = 7

# Set-up as a fresh `modlam` process pays it: interpreter start, importing
# modlam and building the catalog's module descriptors.
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
from modlam import catalog, cli, terms
for name in catalog.INSTANCES:
    catalog.module_instance(name)
print(time.monotonic())
"""

#: Tail percentiles tried from the top down.
TAIL_LADDER = (99.9, 99, 95, 90, 50)


def setup_seconds() -> tuple[float, float]:
    """Median time from spawning a process to its first operation being
    ready, over several fresh processes after one warm-up: scaled to the
    reference host speed by probes either side of each, and raw."""
    raw, scaled = [], []
    before = workloads.probe()
    for i in range(SETUP_REPEATS + 1):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, SRC],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        seconds = float(proc.stdout.split()[-1]) - start
        after = workloads.probe()
        if i:
            raw.append(seconds)
            scaled.append(seconds * 2 * workloads.HOST_REF_S / (before + after))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def percentile(xs: list, p: float) -> float:
    xs = sorted(xs)
    k = (len(xs) - 1) * p / 100
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def tail_percentile(samples: int) -> float:
    """The highest ladder percentile with at least ten of `samples` beyond
    it, or 100 (the maximum) when there are too few."""
    for p in TAIL_LADDER:
        if samples * (100 - p) / 100 >= 10:
            return p
    return 100.0


def git_sha() -> str:
    """The checkout's commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(workload, args) -> tuple[workloads.Tally, dict, list[str]]:
    setup, setup_raw = setup_seconds()
    tally = workloads.Tally()
    start = time.perf_counter()
    rounds = 0
    while rounds < workload.min_rounds or time.perf_counter() - start < args.seconds:
        tally.run_round(workload, rounds)
        rounds += 1
    # The percentile is fixed by the sample count every run is sure to
    # reach, so that a faster program is not judged at a higher one.
    p = tail_percentile(workload.min_rounds * workload.per_round)
    latencies, raw = tally.latencies(), tally.latencies(scaled=False)
    n = len(latencies)
    lines = [
        f"rounds: {rounds}, requests: {n}, ops: {tally.ops}",
        f"failed_share: {tally.failed / tally.ops:.6f} share ("
        + ", ".join(f"{k} {tally.kinds.get(k, 0)}" for k in workload.failure_kinds)
        + f" of {tally.ops} ops)",
        f"tail: p{p:g} of {n} requests",
        f"host slowdown: median {tally.slowdown():.4f} over {len(tally.probes)} probes; raw "
        f"setup_s {setup_raw:.6g} s, ops_per_s {tally.ops_per_s(scaled=False):.6g} 1/s, "
        f"latency_p50_ms {1e3 * percentile(raw, 50):.6g} ms, latency_tail_ms {1e3 * percentile(raw, p):.6g} ms",
    ]
    metrics = {
        "setup_s": (setup, "s"),
        "ops_per_s": (tally.ops_per_s(), "1/s"),
        "ok_share": (1 - tally.failed / tally.ops, "share"),
        "latency_p50_ms": (1e3 * percentile(latencies, 50), "ms"),
        "latency_tail_ms": (1e3 * percentile(latencies, p), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return tally, metrics, lines


def per_layer(workload, args) -> tuple[workloads.Tally, dict, list[str]]:
    """Each round runs once untraced and once traced, alternating which
    goes first; per-layer figures come from the traced runs."""
    import tracing

    tracer = tracing.Tracer()
    plain = workloads.Tally()
    traced = workloads.Tally(unmeasured=tracer.paused)
    start = time.perf_counter()
    rounds = 0
    while rounds < 1 or time.perf_counter() - start < args.seconds:
        for tally in (plain, traced) if rounds % 2 == 0 else (traced, plain):
            if tally is plain:
                tally.run_round(workload, rounds)
                continue
            ins = tracing.install(tracer)
            try:
                tally.run_round(workload, rounds)
            finally:
                ins.uninstall()
        rounds += 1
    plain_rate, traced_rate = plain.ops_per_s(), traced.ops_per_s()
    overhead = 1 - traced_rate / plain_rate
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json")
    tracer.dump(path)
    units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
    values = tracing.layer_values(tracer, rounds, overhead, traced.slowdown())
    metrics = {name: (v, units[name]) for name, v in values.items()}
    merged = workloads.Tally(
        ops=plain.ops + traced.ops,
        failed=plain.failed + traced.failed,
        errors=plain.errors + traced.errors,
    )
    lines = [
        f"rounds: {rounds}, each run untraced and traced",
        f"ops_per_s untraced {plain_rate:.6g}, traced {traced_rate:.6g}, "
        f"tracing overhead {overhead:.4f}",
        f"host slowdown over the traced rounds: {traced.slowdown():.4f}",
        f"spans: {len(tracer.spans)} kept of {tracer.next_id}, written to {os.path.relpath(path, ROOT)}",
    ]
    return merged, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "modlam", "__init__.py")):
        print(f"error: no modlam sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import modlam

    if not os.path.abspath(modlam.__file__).startswith(SRC + os.sep):
        print(f"error: imported modlam from {modlam.__file__}, not {SRC}", file=sys.stderr)
        return 2

    print(
        f"env: workload={args.workload} seed={args.seed} trace={args.trace} "
        f"python={platform.python_version()} nproc={len(os.sched_getaffinity(0))} "
        f"git_sha={git_sha()} recursionlimit={sys.getrecursionlimit()}"
    )
    workload = workloads.WORKLOADS[args.workload](args.seed)
    tally, metrics, lines = (per_layer if args.trace else end_to_end)(workload, args)
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    for message in tally.errors[:10]:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not tally.errors,
                "attempted": tally.ops,
                "failed": tally.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if not tally.errors else 1


if __name__ == "__main__":
    sys.exit(main())
