"""In-memory span tracing around treegibbs entry points, and the per-layer
metrics derived from the spans.

Spans come from wrappers installed at the module attributes that callers
look up (``cli.discretize``, ``solver.solve_fixed_point``,
``KernelSpec.evaluate``, ...), so the library's source is untouched.  A
span records its name, op id, start, end and parent span, plus counts
taken from the call's arguments or result.  An entry point that no longer
exists is recorded as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time

import numpy as np

ROOT_SPAN = "op"
COMMAND_SPAN = "cli.main"


class Tracer:
    """Records nested spans while an op is open; calls outside an op pass
    straight through, so reference computations made by the checks leave
    no spans.  Span names whose counts could not be taken are kept in
    ``uncounted``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, op, start, end, parent index, counts]
        self.op = None
        self.uncounted = set()
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = [name, self.op, self.clock(), None, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[3] = self.clock()
        self._stack.pop()

    def call(self, name, fn, args=(), kwargs=None, counter=None, signature=None):
        kwargs = kwargs or {}
        if self.op is None:
            return fn(*args, **kwargs)
        span = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(span)
        if counter is not None:
            try:
                span[5] = counter(signature.bind(*args, **kwargs).arguments, result)
            except (KeyError, AttributeError, TypeError):
                self.uncounted.add(name)  # the entry point's arguments changed shape
        return result

    def run_op(self, op_id, fn):
        """Run ``fn()`` as op ``op_id`` under a root span."""
        self.op = op_id
        span = self._open(ROOT_SPAN)
        try:
            return fn()
        finally:
            self._close(span)
            self.op = None


# --- counters: (bound arguments, result) -> counts --------------------------


def _evaluate_counts(a, result):
    return {"points": int(np.broadcast(np.asarray(a["t"]), np.asarray(a["u"])).size)}


def _discretize_counts(a, result):
    n = len(a["grid"].nodes)
    return {"matrix_bytes": 8 * n * (n + 1)}


def _solve_counts(a, result):
    n = len(a["dk"].grid.nodes)
    iterations = int(getattr(result, "iterations", 0))
    return {
        "iterations": iterations,
        "converged": int(bool(getattr(result, "converged", False))),
        "gemv_flops": 2 * n * n * iterations,
    }


def _sample_counts(a, result):
    return {"spins": int(a["n_samples"]) * int(a["shape"].vertex_count)}


def _oracle_counts(threshold):
    def counts(a, result):
        n_mc = int(a["n_mc"])
        ess = float(getattr(result, "ess", 0.0))
        return {"draws": n_mc, "ess_ratio": ess / n_mc, "ess_warnings": int(ess < threshold)}

    return counts


def _dumps_counts(a, result):
    return {"bytes": len(result)}


def targets(gibbs_module):
    """(module key, attribute path, span name, counter) for every wrapped
    entry point.  One span name may sit at several attributes, e.g. the
    bounds that ``cli`` and ``solver`` each import."""
    return [
        ("kernel", "KernelSpec.evaluate", "kernel.evaluate", _evaluate_counts),
        ("cli", "kernel_bounds", "kernel.bounds", None),
        ("solver", "kernel_bounds", "kernel.bounds", None),
        ("cli", "discretize", "operators.discretize", _discretize_counts),
        ("cli", "apply_hammerstein", "operators.apply_hammerstein", None),
        ("solver", "apply_hammerstein", "operators.apply_hammerstein", None),
        ("cli", "solve_fixed_point", "solver.solve", _solve_counts),
        ("cli", "solve_linear", "solver.solve", _solve_counts),
        ("solver", "solve_fixed_point", "solver.solve", _solve_counts),
        ("cli", "uniqueness_probe", "solver.probe", None),
        ("cli", "fixed_point_to_eigenpair", "solver.eigen", None),
        ("cli", "rescale_eigenpair", "solver.eigen", None),
        ("gibbs", "sample_tree", "gibbs.sample", _sample_counts),
        ("gibbs", "root_marginal", "gibbs.root_marginal", None),
        ("gibbs", "mc_finite_volume_marginal", "gibbs.oracle",
         _oracle_counts(getattr(gibbs_module, "ESS_WARN_THRESHOLD", 100.0))),
        ("gibbs", "histogram_spins", "gibbs.histogram", None),
        ("gibbs", "density_bin_probabilities", "gibbs.histogram", None),
        ("gibbs", "z_scores", "gibbs.histogram", None),
        ("gibbs", "assignments_csv", "gibbs.assignments_csv", None),
        ("serialize", "dumps", "serialize.dumps", _dumps_counts),
        ("cli", "gridfunction_csv", "grid.gridfunction_csv", None),
        ("cli", "make_grid", "grid.make_grid", None),
    ]


def _wrap(tracer, name, fn, counter):
    signature = inspect.signature(fn) if counter is not None else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, counter, signature)

    return wrapper


def install(tracer, modules, entry_points):
    """Wrap each entry point; return the ``module.attribute`` paths that
    do not exist."""
    absent = []
    for key, path, name, counter in entry_points:
        *owner_path, attr = path.split(".")
        owner = modules[key]
        for part in owner_path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            absent.append(f"{key}.{path}")
        else:
            setattr(owner, attr, _wrap(tracer, name, original, counter))
    return absent


# --- aggregation -------------------------------------------------------------


def covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = {}
    for span in spans:
        if span[4] >= 0:
            children.setdefault(span[4], []).append((span[2], span[3]))
    return [
        (s[3] - s[2]) - covered(children.get(i, ()), s[2], s[3]) for i, s in enumerate(spans)
    ]


def _has_ancestor(spans, index, name):
    parent = spans[index][4]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][4]
    return False


def per_op(spans):
    """{op: {span name: {"total", "self", "calls", count...}}} plus, per op,
    the kernel points evaluated inside the sampler."""
    table = {}
    selfs = self_times(spans)
    for i, (name, op, start, end, _, counts) in enumerate(spans):
        row = table.setdefault(op, {}).setdefault(name, {"total": 0.0, "self": 0.0, "calls": 0})
        row["total"] += end - start
        row["self"] += selfs[i]
        row["calls"] += 1
        for key, value in (counts or {}).items():
            row[key] = row.get(key, 0) + value
        if name == "kernel.evaluate" and _has_ancestor(spans, i, "gibbs.sample"):
            sampler = table[op].setdefault("gibbs.sample", {"total": 0.0, "self": 0.0, "calls": 0})
            sampler["kernel_points"] = sampler.get("kernel_points", 0) + counts["points"]
    return table


# Per-layer metrics of the traced run: (name, unit, span read, field).
# Fields "total" and "self" are per-op medians over every traced op; any
# other field is a per-op mean over the counted ops, which are one full
# cycle of the workload's configs and so repeat exactly from run to run.
# A field of None marks a metric derived in ``layer_metrics``.
LAYER_METRICS = [
    ("kernel.evaluate.calls", "count", "kernel.evaluate", "calls"),
    ("kernel.evaluate.points", "count", "kernel.evaluate", "points"),
    ("kernel.evaluate.self_s", "s", "kernel.evaluate", "self"),
    ("kernel.evaluate.ns_per_point", "ns", "kernel.evaluate", None),
    ("kernel.bounds.calls", "count", "kernel.bounds", "calls"),
    ("kernel.bounds.total_s", "s", "kernel.bounds", "total"),
    ("kernel.bounds.self_s", "s", "kernel.bounds", "self"),
    ("operators.discretize.calls", "count", "operators.discretize", "calls"),
    ("operators.discretize.total_s", "s", "operators.discretize", "total"),
    ("operators.discretize.self_s", "s", "operators.discretize", "self"),
    ("operators.matrix_bytes", "bytes", "operators.discretize", "matrix_bytes"),
    ("operators.apply_hammerstein.total_s", "s", "operators.apply_hammerstein", "total"),
    ("solver.eigen.total_s", "s", "solver.eigen", "total"),
    ("solver.solve.calls", "count", "solver.solve", "calls"),
    ("solver.solve.self_s", "s", "solver.solve", "self"),
    ("solver.iterations", "count", "solver.solve", "iterations"),
    ("solver.converged_ratio", "ratio", "solver.solve", None),
    ("solver.gemv_flops", "flop", "solver.solve", "gemv_flops"),
    ("solver.gflops", "GFLOP/s", "solver.solve", None),
    ("solver.probe.total_s", "s", "solver.probe", "total"),
    ("solver.probe.self_s", "s", "solver.probe", "self"),
    ("gibbs.sample.total_s", "s", "gibbs.sample", "total"),
    ("gibbs.sample.self_s", "s", "gibbs.sample", "self"),
    ("gibbs.sample.spins", "count", "gibbs.sample", "spins"),
    ("gibbs.sample.spins_per_s", "1/s", "gibbs.sample", None),
    ("gibbs.sample.kernel_points_per_spin", "ratio", "gibbs.sample", None),
    ("gibbs.assignments_csv.total_s", "s", "gibbs.assignments_csv", "total"),
    ("cli.bytes_written", "bytes", None, None),
    ("gibbs.oracle.total_s", "s", "gibbs.oracle", "total"),
    ("gibbs.oracle.self_s", "s", "gibbs.oracle", "self"),
    ("gibbs.oracle.draws", "count", "gibbs.oracle", "draws"),
    ("gibbs.oracle.ess_ratio", "ratio", "gibbs.oracle", None),
    ("gibbs.oracle.ess_warnings", "count", "gibbs.oracle", "ess_warnings"),
    ("gibbs.root_marginal.total_s", "s", "gibbs.root_marginal", "total"),
    ("gibbs.histogram.total_s", "s", "gibbs.histogram", "total"),
    ("serialize.dumps.calls", "count", "serialize.dumps", "calls"),
    ("serialize.dumps.total_s", "s", "serialize.dumps", "total"),
    ("serialize.dumps.bytes", "bytes", "serialize.dumps", "bytes"),
    ("grid.gridfunction_csv.total_s", "s", "grid.gridfunction_csv", "total"),
    ("grid.make_grid.total_s", "s", "grid.make_grid", "total"),
    ("cli.self_s", "s", COMMAND_SPAN, "self"),
    ("trace.overhead_ratio", "ratio", None, None),
]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, ops, counted_ops, bytes_written, overhead_ratio):
    """Per-layer metrics for the traced ``ops``; counts come from
    ``counted_ops`` and ``bytes_written`` maps op id to artifact bytes."""
    table = per_op(spans)

    def field(op, name, key):
        return table.get(op, {}).get(name, {}).get(key, 0)

    def total(name, key, over=ops):
        return sum(field(op, name, key) for op in over)

    values = {}
    for metric, _, name, key in LAYER_METRICS:
        if key in ("total", "self"):
            values[metric] = statistics.median(field(op, name, key) for op in ops)
        elif key is not None:
            values[metric] = total(name, key, counted_ops) / len(counted_ops)
    values["kernel.evaluate.ns_per_point"] = 1e9 * _ratio(
        total("kernel.evaluate", "self"), total("kernel.evaluate", "points"))
    values["solver.converged_ratio"] = _ratio(
        total("solver.solve", "converged", counted_ops), total("solver.solve", "calls", counted_ops))
    values["solver.gflops"] = 1e-9 * _ratio(
        total("solver.solve", "gemv_flops"), total("solver.solve", "self"))
    values["gibbs.sample.spins_per_s"] = _ratio(
        total("gibbs.sample", "spins"), total("gibbs.sample", "total"))
    values["gibbs.sample.kernel_points_per_spin"] = _ratio(
        total("gibbs.sample", "kernel_points", counted_ops), total("gibbs.sample", "spins", counted_ops))
    values["gibbs.oracle.ess_ratio"] = _ratio(
        total("gibbs.oracle", "ess_ratio", counted_ops), total("gibbs.oracle", "calls", counted_ops))
    values["cli.bytes_written"] = sum(bytes_written[op] for op in counted_ops) / len(counted_ops)
    values["trace.overhead_ratio"] = overhead_ratio
    return {name: float(values[name]) for name, *_ in LAYER_METRICS}


def absent_metrics(entry_points, absent):
    """Per-layer metrics whose every entry point is absent; they are
    reported as 0 and listed by name."""
    present = {name for key, path, name, _ in entry_points if f"{key}.{path}" not in absent}
    return sorted(metric for metric, _, name, _ in LAYER_METRICS
                  if name not in (None, COMMAND_SPAN) and name not in present)
