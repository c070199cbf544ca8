"""Tests of the benchmark itself: seeded generation, span self-time
accounting, robust wrappers, and that each output check accepts real
artifacts and rejects corrupted ones."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from run import tail_percentile  # noqa: E402
from treegibbs import cli  # noqa: E402


def run_command(command):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(command.argv())


def copy_of(command, tmp_path):
    """The command with its artifacts copied, so a test may corrupt them."""
    out = tmp_path / "copy"
    shutil.copytree(command.out, out)
    return dataclasses.replace(command, out=out)


def edit_json(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


# --- generator ---------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(tmp_path, name):
    def configs(seed, label):
        workdir = tmp_path / label
        workdir.mkdir()
        ops = workloads.generate(name, seed, workdir)
        assert len(ops) == workloads.CYCLE
        return [(c.name, c.config.read_bytes()) for op in ops for c in op]

    first = configs(7, "a")
    assert configs(7, "b") == first
    assert configs(8, "c") != first


# --- spans -------------------------------------------------------------------


def test_self_time_subtracts_child_spans():
    ticks = iter([0.0, 1.0, 2.0, 5.0, 6.0, 7.0, 9.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))

    def outer():
        tracer.call("b", lambda: None)
        return "done"

    def op():
        tracer.call("a", outer)
        tracer.call("c", lambda: None)

    tracer.run_op(0, op)
    names = [s[0] for s in tracer.spans]
    assert names == [spans.ROOT_SPAN, "a", "b", "c"]
    assert [s[4] for s in tracer.spans] == [-1, 0, 1, 0]
    # op [0,10] minus a [1,6] and c [7,9]; a [1,6] minus b [2,5].
    assert spans.self_times(tracer.spans) == [3.0, 2.0, 3.0, 2.0]
    table = spans.per_op(tracer.spans)[0]
    assert table["a"]["total"] == 5.0 and table["a"]["self"] == 2.0 and table["a"]["calls"] == 1


def test_covered_time_is_the_union_of_overlapping_children():
    assert spans.covered([(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)], 0.0, 10.0) == 6.0
    assert spans.covered([], 0.0, 10.0) == 0.0


def test_calls_outside_an_op_leave_no_spans():
    tracer = spans.Tracer()
    assert tracer.call("x", lambda: 4) == 4
    assert tracer.spans == []


def test_missing_entry_points_are_absent_and_counts_come_from_arguments():
    def sample_tree(f, dk, shape, n_samples, seed):
        return None  # a planned refactor returns an array; counts ignore it

    modules = {key: types.SimpleNamespace() for key in ("cli", "gibbs", "kernel", "serialize", "solver")}
    modules["gibbs"].sample_tree = sample_tree
    tracer = spans.Tracer()
    entry_points = spans.targets(modules["gibbs"])
    absent = spans.install(tracer, modules, entry_points)
    assert "gibbs.sample_tree" not in absent
    assert "cli.solve_linear" in absent and "kernel.KernelSpec.evaluate" in absent

    shape = types.SimpleNamespace(vertex_count=46)
    tracer.run_op(0, lambda: modules["gibbs"].sample_tree(None, None, shape, n_samples=2000, seed=1))
    assert tracer.spans[1][0] == "gibbs.sample" and tracer.spans[1][5] == {"spins": 92000}
    missing = spans.absent_metrics(entry_points, absent)
    assert "solver.iterations" in missing and "gibbs.sample.spins" not in missing


def test_a_counter_that_no_longer_fits_leaves_the_call_working():
    tracer = spans.Tracer()
    modules = {key: types.SimpleNamespace() for key in ("cli", "gibbs", "kernel", "serialize", "solver")}
    modules["solver"].solve_fixed_point = lambda dk, k: "report without iterations"
    spans.install(tracer, modules, spans.targets(modules["gibbs"]))
    result = tracer.run_op(0, lambda: modules["solver"].solve_fixed_point(None, 2))
    assert result == "report without iterations"
    assert tracer.uncounted == {"solver.solve"}


def test_tail_percentile_keeps_ten_ops_beyond_it():
    latencies = [float(i) for i in range(1, 31)]
    assert tail_percentile(latencies) == (66, 20.0)
    assert tail_percentile(latencies[:10]) is None


# --- output checks -----------------------------------------------------------


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    op = workloads.generate("solve_study", 0, tmp_path_factory.mktemp("study"))[0]
    return [(command, run_command(command)) for command in op]


@pytest.fixture(scope="module")
def sample(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("sample")
    config = {
        "kernel": {"variant": "polynomial", "a": 1.0, "coeffs": [[1, 1, 0.3]]},
        "k": 2, "grid": workloads.COARSE_GRID, "solver": workloads.SOLVER,
        "sample": {"depth": 2, "n_samples": 500, "seed": 3},
    }
    path = workdir / "sample.json"
    path.write_text(json.dumps(config))
    expect = {"draws": 500, "vertices": 10, "reference": lambda: workloads.root_bin_probabilities(config)}
    command = workloads.Command("sample", path, workdir / "out", expect)
    return command, run_command(command)


@pytest.fixture(scope="module")
def compare(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("compare")
    path = workdir / "compare.json"
    path.write_text(json.dumps({
        "kernel": {"variant": "polynomial", "a": 1.0, "coeffs": [[1, 1, 0.1]]}, "k": 2,
        "compare": {"n_mc": 20000, "depth": 1, "seed": 5},
    }))
    command = workloads.Command("compare", path, workdir / "out", {"n_mc": 20000})
    return command, run_command(command)


def test_real_artifacts_pass_every_check(study, sample, compare):
    for command, rc in [*study, sample, compare]:
        assert checks.check(command, rc, []) == [], command.name


def test_certify_check_rejects_a_flipped_verdict(study, tmp_path):
    command, rc = study[0]
    bad = copy_of(command, tmp_path)
    edit_json(bad.out / "report.json", lambda r: r["certificate"].update({"pass": not r["certificate"]["pass"]}))
    assert checks.check(bad, rc, [])
    assert checks.check(command, 3 - rc, [])  # exit code disagrees with the verdict


def test_solve_check_rejects_non_convergence(study, tmp_path):
    command, rc = study[1]
    bad = copy_of(command, tmp_path)
    edit_json(bad.out / "report.json", lambda r: r.update({"converged": False}))
    assert checks.check(bad, rc, [])


def test_eigen_check_rejects_a_large_residual(study, tmp_path):
    command, rc = study[2]
    bad = copy_of(command, tmp_path)
    edit_json(bad.out / "report.json", lambda r: r.update({"eigen_residual": 1e-6}))
    assert checks.check(bad, rc, [])


def test_probe_check_rejects_non_convergence_exit(study):
    command, _ = study[3]
    assert checks.check(command, 4, [])


def test_sample_check_rejects_a_truncated_samples_csv(sample, tmp_path):
    command, rc = sample
    bad = copy_of(command, tmp_path)
    lines = (bad.out / "samples.csv").read_text().splitlines()
    (bad.out / "samples.csv").write_text("\n".join(lines[:-5]) + "\n")
    assert checks.check(bad, rc, [])


def test_sample_check_rejects_a_histogram_shifted_by_one_bin(sample, tmp_path):
    command, rc = sample
    bad = copy_of(command, tmp_path)
    edit_json(bad.out / "histogram.json", lambda h: h.update({"counts": np.roll(h["counts"], 1).tolist()}))
    assert checks.check(bad, rc, [])


def test_sample_check_rejects_shifted_spins_by_z_test(sample, tmp_path):
    """Root spins moved right, with histograms rewritten to match: only the
    z-test against the reference marginal can catch it."""
    command, rc = sample
    bad = copy_of(command, tmp_path)
    rows = (bad.out / "samples.csv").read_text().splitlines()
    for i, row in enumerate(rows[1:], start=1):
        s, vertex, spin = row.split(",")
        if vertex == "r":
            rows[i] = f"{s},{vertex},{min(float(spin) + 0.3, 1.0)!r}"
    (bad.out / "samples.csv").write_text("\n".join(rows) + "\n")
    roots, _ = checks.root_spins(rows, 500, 10)
    counts = checks.bin_counts(roots).tolist()
    edit_json(bad.out / "histogram.json", lambda h: h.update({"counts": counts}))
    edit_json(bad.out / "report.json", lambda r: r["root_histogram"].update({"counts": counts}))
    problems = checks.check(bad, rc, [])
    assert problems and all("sup|z|" in p for p in problems)


def test_compare_check_rejects_warnings_and_mismatch_exit(compare):
    command, rc = compare
    assert checks.check(command, rc, ["effective sample size 42.0 below 100"])
    assert checks.check(command, 6, [])


def test_missing_artifacts_are_a_problem_not_a_crash(study, tmp_path):
    command, rc = study[1]
    bad = dataclasses.replace(command, out=tmp_path / "nothing")
    assert checks.check(bad, rc, [])
