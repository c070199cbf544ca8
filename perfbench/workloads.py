"""Seeded generator of benchmark ops.

An op is the unit that is timed and counted: one or more CLI commands,
each run on a config file written here.  The program sees only
``--config``/``--out``.  Each run cycles through ``CYCLE`` op configs drawn
from the workload seed, so consecutive ops differ in kernel and seed,
every op after the first cycle re-runs earlier inputs (which checks that
artifacts are byte-identical), and a statistical false alarm of the CLI's
own 4-sigma compare test can hit at most ``CYCLE`` distinct draws per run.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import HISTOGRAM_BINS, ratio_certified

CYCLE = 4

SOLVER = {"tol": 1e-12, "max_iter": 10_000}
EIGEN_TARGETS = [1.0, 2.0]
PROBE_STARTS = 8
FINE_GRID = {"points_per_panel": 16, "panels": 64}  # n = 1024
COARSE_GRID = {"points_per_panel": 12, "panels": 8}  # n = 96
SAMPLE_DEPTH = 4
SAMPLE_DRAWS = 2000
ORACLE_DRAWS = 200_000


@dataclass(frozen=True)
class Command:
    name: str
    config: Path
    out: Path
    expect: dict  # what the command's check compares against

    def argv(self) -> list:
        return [self.name, "--config", str(self.config), "--out", str(self.out)]


@dataclass(frozen=True)
class Workload:
    why: str
    build: Callable  # (rng, write) -> [(command name, config path, expect)]


def _log_ratio(rng) -> float:
    """ln(M/m), log-uniform on [0.02, 1.0]: both sides of eta_2 and eta_3."""
    return float(np.exp(rng.uniform(np.log(0.02), 0.0)))


def _seed(rng) -> int:
    return int(rng.integers(2**31))


def _exponential_bilinear(rng) -> tuple[dict, float]:
    """K = exp(J beta xi) with xi = a t + b u + c tu scaled to ln(M/m).

    A bilinear xi takes its extrema at the corners of [0,1]^2, so the
    exact M/m is the ratio of the largest and smallest corner values."""
    J = float(rng.choice([-1.0, 1.0]))
    a, b, c = (float(x) for x in rng.uniform(-1.0, 1.0, 3))
    corners = np.array([0.0, a, b, a + b + c])
    beta = _log_ratio(rng) / float(corners.max() - corners.min())
    values = np.exp(J * beta * corners)
    kernel = {"variant": "exponential", "J": J, "beta": beta, "interaction": [[1, 0, a], [0, 1, b], [1, 1, c]]}
    return kernel, float(values.max() / values.min())


def _tabulated(rng) -> tuple[dict, float]:
    """Random positive table, side 5..12, spanning exactly ln(M/m).

    Bilinear interpolation takes its extrema at table entries, so the
    exact M/m is the table's max over its min."""
    side = int(rng.integers(5, 13))
    u = rng.random((side, side))
    values = np.exp(_log_ratio(rng) * (u - u.min()) / (u.max() - u.min()))
    return {"variant": "tabulated", "values": values.tolist()}, float(values.max() / values.min())


def _solve_study(rng, write):
    k = int(rng.choice([2, 3]))
    exp_kernel, exp_ratio = _exponential_bilinear(rng)
    tab_kernel, tab_ratio = _tabulated(rng)
    exp_cfg = write("exponential", {
        "kernel": exp_kernel, "k": k, "grid": FINE_GRID, "solver": SOLVER,
        "eigen": {"targets": EIGEN_TARGETS},
        "probe": {"n_starts": PROBE_STARTS, "seed": _seed(rng)},
    })
    tab_cfg = write("tabulated", {"kernel": tab_kernel, "k": k, "grid": FINE_GRID, "solver": SOLVER})
    n = FINE_GRID["points_per_panel"] * FINE_GRID["panels"]
    return [
        ("certify", exp_cfg, {"certified": ratio_certified(exp_ratio, k)}),
        ("solve", exp_cfg, {"n": n}),
        ("eigen", exp_cfg, {"tol": SOLVER["tol"], "k": k, "targets": EIGEN_TARGETS}),
        ("probe", exp_cfg, {"certified": ratio_certified(exp_ratio, k), "n_starts": PROBE_STARTS}),
        ("certify", tab_cfg, {"certified": ratio_certified(tab_ratio, k)}),
        ("solve", tab_cfg, {"n": n}),
    ]


def root_bin_probabilities(config: dict) -> np.ndarray:
    """Exact bin masses of the library's root marginal for ``config``."""
    from treegibbs import cli, gibbs, operators, solver

    spec = cli.build_kernel(config["kernel"])
    dk = operators.discretize(spec, cli.build_grid(config["grid"]))
    rep = solver.solve_fixed_point(dk, config["k"], solver.SolveOptions(**SOLVER))
    density = gibbs.root_marginal(rep.solution, dk, config["k"])
    return gibbs.density_bin_probabilities(density, np.linspace(0.0, 1.0, HISTOGRAM_BINS + 1))


def _sample_deep(rng, write):
    total = rng.uniform(0.05, 0.5)  # M/m = 1 + total <= 1.5
    c = total * rng.dirichlet(np.ones(4))
    config = {
        "kernel": {"variant": "polynomial", "a": 1.0,
                   "coeffs": [[1, 1, c[0]], [1, 2, c[1]], [2, 1, c[2]], [2, 2, c[3]]]},
        "k": 2, "grid": COARSE_GRID, "solver": SOLVER,
        "sample": {"depth": SAMPLE_DEPTH, "n_samples": SAMPLE_DRAWS, "seed": _seed(rng)},
    }
    vertices = 1 + 3 * (2**SAMPLE_DEPTH - 1)
    reference = functools.cache(lambda: root_bin_probabilities(config))
    return [("sample", write("sample", config),
             {"draws": SAMPLE_DRAWS, "vertices": vertices, "reference": reference})]


def _oracle_compare(rng, write):
    kernel, _ = _exponential_bilinear(rng)
    config = write("compare", {
        "kernel": kernel, "k": 2, "grid": COARSE_GRID, "solver": SOLVER,
        "compare": {"n_mc": ORACLE_DRAWS, "depth": 2, "bins": HISTOGRAM_BINS, "seed": _seed(rng)},
    })
    return [("compare", config, {"n_mc": ORACLE_DRAWS})]


WORKLOADS = {
    "solve_study": Workload(
        "certify/solve/eigen/probe at n=1024: dense kernel grids, sampled bounds and Picard solves; no sampler",
        _solve_study),
    "sample_deep": Workload(
        "sample at depth 4 with 2000 draws: per-vertex kernel rows in the exact sampler and a 92k-row samples.csv",
        _sample_deep),
    "oracle_compare": Workload(
        "compare with a 200k-draw MC oracle: kernel on scattered pairs, oracle instead of sampler, small artifacts",
        _oracle_compare),
}


def generate(name: str, seed: int, workdir: Path) -> list:
    """``CYCLE`` ops for workload ``name``; each op is a list of Commands.
    Config files go to ``workdir``; command j of an op writes to
    ``workdir/out/j``.  The same seed gives byte-identical configs."""
    workload = WORKLOADS[name]
    tag = list(WORKLOADS).index(name)
    ops = []
    for i in range(CYCLE):

        def write(label, config, i=i):
            path = workdir / f"op{i}-{label}.json"
            path.write_text(json.dumps(config, sort_keys=True))
            return path

        rng = np.random.default_rng([seed, tag, i])
        triples = workload.build(rng, write)
        ops.append([Command(cmd, cfg, workdir / "out" / str(j), expect)
                    for j, (cmd, cfg, expect) in enumerate(triples)])
    return ops
