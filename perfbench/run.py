"""Benchmark of the treegibbs command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see ``workloads.py``):
``solve_study``, ``sample_deep`` and ``oracle_compare``.  The run first
times ``import treegibbs.cli`` in several fresh interpreters (setup), then
runs the workload in one more fresh interpreter (``worker.py``) for S
seconds of timed ops, checking every op's artifacts.  It prints each
metric by name with its unit, a ``record:`` line with the environment and
details, and as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones of a traced phase, and the spans are written
to ``perfbench/work/``.  Exits 2 without a result when the treegibbs
source is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

SETUP_SAMPLES = 11
RUN_TIMEOUT_S = 170.0
TAIL_BEYOND = 10

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import treegibbs.cli; print(time.perf_counter() - t)"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def tail_percentile(latencies):
    """(p, value): the highest integer percentile, by nearest rank, that
    still has at least ten ops beyond it; None with ten ops or fewer."""
    xs = sorted(latencies)
    n = len(xs)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= TAIL_BEYOND:
            return p, xs[rank - 1]
    return None


def import_seconds(deadline):
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=deadline - time.monotonic(),
    )
    return float(out.stdout.strip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="treegibbs CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "treegibbs" / "cli.py").is_file():
        print(f"perfbench: no treegibbs source under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_TIMEOUT_S

    setup = [] if args.trace else [import_seconds(deadline) for _ in range(SETUP_SAMPLES)]
    workdir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    trace_file = WORK / f"trace-{args.workload}-s{args.seed}.json"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", str(workdir), "--trace-file", str(trace_file)],
            stdout=subprocess.PIPE, text=True, timeout=deadline - time.monotonic(),
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        print(f"perfbench: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    raw = json.loads(proc.stdout.splitlines()[-1])

    latencies = raw["latencies"]
    tail = tail_percentile(latencies)
    end_to_end = {
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail[1],
        "ops_per_s": len(latencies) / sum(latencies),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    if setup:
        end_to_end["setup_s"] = statistics.median(setup)
    fail_ratio = raw["failed"] / raw["attempted"]

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, value in end_to_end.items():
        print(f"  {name:<14} {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"  {'op_fail_ratio':<14} {fail_ratio:.6g} ratio ({raw['failed']} of {raw['attempted']} ops)")
    for name, value in raw.get("per_layer", {}).items():
        print(f"  {name:<38} {value:.6g}")
    record = {
        "workload": args.workload,
        "why": workloads.WORKLOADS[args.workload].why,
        "seed": args.seed,
        "timed_ops": len(latencies),
        "tail_percentile": tail[0],
        "setup_samples": setup,
        "op_fail_ratio": fail_ratio,
        "problems": raw["problems"],
        "environment": raw["environment"],
        "determinism": "artifacts of repeated inputs compared byte for byte; identical only within one numpy/BLAS build",
    }
    for key in ("traced_latencies", "absent_entry_points", "absent_metrics", "uncounted_spans"):
        if key in raw:
            record[key] = raw[key]
    if args.trace:
        record["trace_file"] = str(trace_file.relative_to(ROOT))
    print("record: " + json.dumps(record))

    if args.trace:
        metrics = {name: {"value": raw["per_layer"][name], "unit": unit} for name, unit, *_ in spans.LAYER_METRICS}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": raw["failed"] == 0, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
