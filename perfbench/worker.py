"""One benchmark workload in a fresh interpreter.

Runs the workload's ops in a closed loop (one client, no added threads)
through ``treegibbs.cli.main(argv)``, checks every op's artifacts, and
prints its raw measurements as one JSON line.  With ``--trace 1`` the
timed time is split between an untraced and a traced phase, and the spans
of the traced phase are written to ``--trace-file``.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \\
        --trace 0|1 --workdir DIR --trace-file PATH
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from treegibbs import cli, gibbs, grid, kernel, operators, serialize, solver  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Timed ops in the untraced phase at least, so that the tail percentile
# (at least ten ops beyond it) is defined at p50 or higher.
MIN_TIMED_OPS = 21
# Untimed ops before timing starts, for at least one full cycle: the
# first seconds of a run are measurably slower than the rest.
WARMUP_SECONDS = 3.0


def _artifacts(op):
    """(bytes written, {(command, file): sha256}) of an op's outputs."""
    written = 0
    digests = {}
    for j, command in enumerate(op):
        for path in sorted(command.out.iterdir()) if command.out.is_dir() else ():
            data = path.read_bytes()
            written += len(data)
            digests[(j, path.name)] = hashlib.sha256(data).hexdigest()
    return written, digests


class Runner:
    """Runs ops in cycle order, checks them, and keeps the failure count."""

    def __init__(self, ops, stdout):
        self.ops = ops
        self.stdout = stdout
        self.tracer = None
        self.next = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.bytes_written = {}
        self._digests = {}

    def _main(self, argv):
        if self.tracer is None:
            return cli.main(argv)
        return self.tracer.call(spans.COMMAND_SPAN, cli.main, (argv,))

    def _commands(self, op):
        results = []
        for command in op:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    rc = self._main(command.argv())
                except Exception as exc:  # a crashing command fails its op; the run goes on
                    rc = exc
            results.append((rc, [str(w.message) for w in caught]))
        return results

    def run_one(self) -> tuple[int, float]:
        """Run the next op; return (op id, seconds)."""
        index = self.next
        self.next += 1
        slot = index % len(self.ops)
        op = self.ops[slot]
        for command in op:
            shutil.rmtree(command.out, ignore_errors=True)
        with contextlib.redirect_stdout(self.stdout):
            start = time.perf_counter()
            if self.tracer is None:
                results = self._commands(op)
            else:
                results = self.tracer.run_op(index, lambda: self._commands(op))
            elapsed = time.perf_counter() - start

        problems = []
        for command, (rc, caught) in zip(op, results):
            if isinstance(rc, Exception):
                problems.append(f"{command.name}: raised {type(rc).__name__}: {rc}")
            else:
                problems += checks.check(command, rc, caught)
        self.bytes_written[index], digests = _artifacts(op)
        if self._digests.setdefault(slot, digests) != digests:
            problems.append("artifacts differ from an earlier run of the same inputs")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"op {index} (config {slot}): {p}" for p in problems]
        return index, elapsed


def phase(runner, seconds, min_ops):
    """Run ops until ``seconds`` of timed time and ``min_ops`` ops."""
    latencies, op_ids = [], []
    while sum(latencies) < seconds or len(latencies) < min_ops:
        index, elapsed = runner.run_one()
        op_ids.append(index)
        latencies.append(elapsed)
    return latencies, op_ids


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                             if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path)
    args = parser.parse_args(argv)

    args.workdir.mkdir(parents=True, exist_ok=True)
    ops = workloads.generate(args.workload, args.seed, args.workdir)
    with open(os.devnull, "w") as devnull:
        runner = Runner(ops, devnull)
        phase(runner, WARMUP_SECONDS, workloads.CYCLE)
        phase_seconds = args.seconds / 2 if args.trace else args.seconds
        latencies, _ = phase(runner, phase_seconds, MIN_TIMED_OPS)
        result = {"latencies": latencies}
        if args.trace:
            tracer = spans.Tracer()
            modules = {"cli": cli, "gibbs": gibbs, "grid": grid, "kernel": kernel,
                       "operators": operators, "serialize": serialize, "solver": solver}
            entry_points = spans.targets(gibbs)
            absent = spans.install(tracer, modules, entry_points)
            runner.tracer = tracer
            traced, traced_ops = phase(runner, phase_seconds, workloads.CYCLE)
            overhead = statistics.median(traced) / statistics.median(latencies) - 1.0
            result["traced_latencies"] = traced
            # One op per config, summed in config order so float counts repeat exactly.
            counted = sorted(traced_ops[: workloads.CYCLE], key=lambda op: op % workloads.CYCLE)
            result["per_layer"] = spans.layer_metrics(
                tracer.spans, traced_ops, counted, runner.bytes_written, overhead)
            result["absent_entry_points"] = absent
            result["absent_metrics"] = spans.absent_metrics(entry_points, absent)
            result["uncounted_spans"] = sorted(tracer.uncounted)

    env = environment()
    if args.trace:
        args.trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "environment": env,
            "span_fields": ["name", "op", "start_s", "end_s", "parent", "counts"],
            "spans": tracer.spans,
        }))
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        problems=runner.problems[:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        environment=env,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
