"""Config-driven batch front end.

One JSON config describes the kernel, the order k, the grid, and solver
controls; one subcommand per invocation runs a workflow and writes its
artifacts (report.json plus CSV/JSON data files) into the output directory.
The report is also printed on standard output.

Exit codes are a stable contract:
    0  success
    2  config error
    3  certificate fail
    4  non-convergence
    5  uniqueness-probe mismatch
    6  marginal-comparison failure
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import gibbs, serialize
from .grid import Grid, GridFunction, gridfunction_csv, make_grid
from .kernel import (
    Bounds,
    Certificate,
    ConstantKernel,
    ExponentialKernel,
    KernelSpec,
    PolynomialKernel,
    TabulatedKernel,
    kernel_bounds,
    uniqueness_certificate,
)
from .operators import DiscretizedKernel, apply_hammerstein, discretize
from .solver import (
    SolveOptions,
    SolveReport,
    fixed_point_to_eigenpair,
    rescale_eigenpair,
    solve_fixed_point,
    solve_linear,
    uniqueness_probe,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CERT_FAIL = 3
EXIT_NO_CONVERGENCE = 4
EXIT_NOT_CLUSTERED = 5
EXIT_MARGINAL_MISMATCH = 6

COMPARE_Z_LIMIT = 4.0


class ConfigError(Exception):
    """Malformed or inconsistent run configuration."""


def _require(cfg: dict, key: str, context: str):
    if key not in cfg:
        raise ConfigError(f"missing '{key}' in {context}")
    return cfg[key]


def _triples(raw, context: str):
    try:
        return [(int(i), int(j), float(c)) for i, j, c in raw]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context} must be a list of (i, j, coefficient) triples") from exc


def build_kernel(cfg) -> KernelSpec:
    if not isinstance(cfg, dict):
        raise ConfigError("kernel block must be an object")
    variant = _require(cfg, "variant", "kernel block")
    try:
        if variant == "constant":
            return ConstantKernel(float(_require(cfg, "c", "constant kernel")))
        if variant == "polynomial":
            return PolynomialKernel(
                coeffs=_triples(_require(cfg, "coeffs", "polynomial kernel"), "kernel coeffs"),
                a=float(_require(cfg, "a", "polynomial kernel")),
            )
        if variant == "exponential":
            return ExponentialKernel(
                J=float(_require(cfg, "J", "exponential kernel")),
                beta=float(_require(cfg, "beta", "exponential kernel")),
                interaction=_triples(
                    _require(cfg, "interaction", "exponential kernel"), "kernel interaction"
                ),
            )
        if variant == "tabulated":
            return TabulatedKernel(np.asarray(_require(cfg, "values", "tabulated kernel"), dtype=float))
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid kernel parameters: {exc}") from exc
    raise ConfigError(f"unknown kernel variant '{variant}'")


def build_grid(cfg) -> Grid:
    cfg = cfg or {}
    try:
        return make_grid(int(cfg.get("points_per_panel", 12)), int(cfg.get("panels", 8)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid grid block: {exc}") from exc


def build_solve_options(cfg, seed_override: int | None) -> SolveOptions:
    cfg = cfg or {}
    seed = cfg.get("seed")
    if seed_override is not None:
        seed = seed_override
    try:
        return SolveOptions(
            tol=float(cfg.get("tol", 1e-12)),
            max_iter=int(cfg.get("max_iter", 10_000)),
            damping=float(cfg.get("damping", 1.0)),
            init=str(cfg.get("init", "flat")),
            seed=None if seed is None else int(seed),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid solver block: {exc}") from exc


def _get_k(cfg, minimum: int) -> int:
    try:
        k = int(_require(cfg, "k", "config"))
    except (TypeError, ValueError) as exc:
        raise ConfigError("k must be an integer") from exc
    if k < minimum:
        raise ConfigError(f"this task requires k >= {minimum}")
    return k


def _seeded(block: dict, name: str, seed_override: int | None) -> int:
    if seed_override is not None:
        return int(seed_override)
    try:
        return int(_require(block, name, "config"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be an integer") from exc


def _bounds_dict(b: Bounds) -> dict:
    return {
        "m": b.m,
        "M": b.M,
        "m0": b.m0,
        "M0": b.M0,
        "resolution": b.resolution,
        "exact": b.exact,
    }


def _certificate_dict(c: Certificate) -> dict:
    return {
        "k": c.k,
        "gamma1": c.gamma1,
        "gamma2": c.gamma2,
        "lhs": c.lhs,
        "bound": c.bound,
        "ratio": c.ratio,
        "eta_k": c.eta_k,
        "pass": c.passed,
    }


def _gridfunction_dict(f: GridFunction) -> dict:
    return {
        "t": f.grid.points,
        "f": f.samples,
    }


def _solve_report_dict(rep: SolveReport, with_solution: bool = True) -> dict:
    out = {
        "converged": rep.converged,
        "residual": rep.residual,
        "iterations": rep.iterations,
        "omega": rep.omega_value,
    }
    if with_solution:
        out["solution"] = _gridfunction_dict(rep.solution)
    return out


def _histogram_dict(h: gibbs.Histogram) -> dict:
    return {
        "edges": h.edges,
        "counts": h.counts,
        "probs": h.probs,
        "stderrs": h.stderrs,
        "ess": h.ess,
        "n_draws": h.n_draws,
    }


def _emit(out_dir: Path, name: str, text: str):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text)


def _emit_report(out_dir: Path, report: dict) -> str:
    text = serialize.dumps(report)
    _emit(out_dir, "report.json", text)
    sys.stdout.write(text)
    return text


def _solve_for_task(dk: DiscretizedKernel, k: int, opts: SolveOptions) -> SolveReport:
    return solve_linear(dk, opts) if k == 1 else solve_fixed_point(dk, k, opts)


def cmd_certify(cfg: dict, out_dir: Path, seed_override) -> int:
    spec = build_kernel(_require(cfg, "kernel", "config"))
    k = _get_k(cfg, 2)
    bounds = kernel_bounds(spec)
    cert = uniqueness_certificate(bounds, k)
    _emit_report(out_dir, {"task": "certify", "bounds": _bounds_dict(bounds), "certificate": _certificate_dict(cert)})
    return EXIT_OK if cert.passed else EXIT_CERT_FAIL


def cmd_solve(cfg: dict, out_dir: Path, seed_override) -> int:
    spec = build_kernel(_require(cfg, "kernel", "config"))
    k = _get_k(cfg, 1)
    grid = build_grid(cfg.get("grid"))
    opts = build_solve_options(cfg.get("solver"), seed_override)
    dk = discretize(spec, grid)
    rep = _solve_for_task(dk, k, opts)
    _emit(out_dir, "solution.csv", gridfunction_csv(rep.solution))
    _emit_report(out_dir, {"task": "solve", "k": k, **_solve_report_dict(rep)})
    return EXIT_OK if rep.converged else EXIT_NO_CONVERGENCE


def cmd_eigen(cfg: dict, out_dir: Path, seed_override) -> int:
    spec = build_kernel(_require(cfg, "kernel", "config"))
    k = _get_k(cfg, 2)
    grid = build_grid(cfg.get("grid"))
    opts = build_solve_options(cfg.get("solver"), seed_override)
    eigen_cfg = cfg.get("eigen") or {}
    try:
        targets = [float(x) for x in eigen_cfg.get("targets", [])]
    except (TypeError, ValueError) as exc:
        raise ConfigError("eigen targets must be numbers") from exc
    if any(x <= 0.0 for x in targets):
        raise ConfigError("eigen targets must be positive")

    dk = discretize(spec, grid)
    rep = solve_fixed_point(dk, k, opts)
    if not rep.converged:
        _emit_report(out_dir, {"task": "eigen", "k": k, **_solve_report_dict(rep, with_solution=False)})
        return EXIT_NO_CONVERGENCE
    pair = fixed_point_to_eigenpair(rep.solution, dk, k)

    def eigen_residual(p):
        hk = apply_hammerstein(dk, p.h, k)
        return float(np.max(np.abs(hk.samples - p.lam * p.h.samples)))

    rescaled = []
    for lam in targets:
        moved = rescale_eigenpair(pair, lam, k)
        rescaled.append({"lambda": lam, "residual": eigen_residual(moved)})
    _emit(out_dir, "solution.csv", gridfunction_csv(pair.h, names=("t", "h")))
    _emit_report(
        out_dir,
        {
            "task": "eigen",
            "k": k,
            "lambda0": pair.lam,
            "eigen_residual": eigen_residual(pair),
            "rescaled": rescaled,
            "solve": _solve_report_dict(rep, with_solution=False),
            "eigenfunction": _gridfunction_dict(pair.h),
        },
    )
    return EXIT_OK


def cmd_probe(cfg: dict, out_dir: Path, seed_override) -> int:
    spec = build_kernel(_require(cfg, "kernel", "config"))
    k = _get_k(cfg, 2)
    grid = build_grid(cfg.get("grid"))
    opts = build_solve_options(cfg.get("solver"), seed_override)
    probe_cfg = _require(cfg, "probe", "config")
    try:
        n_starts = int(_require(probe_cfg, "n_starts", "probe block"))
    except (TypeError, ValueError) as exc:
        raise ConfigError("n_starts must be an integer") from exc
    if n_starts < 2:
        raise ConfigError("probe requires n_starts >= 2")
    seed = _seeded(probe_cfg, "seed", seed_override)

    dk = discretize(spec, grid)
    probe = uniqueness_probe(dk, k, n_starts, seed, opts)
    _emit_report(
        out_dir,
        {
            "task": "probe",
            "k": k,
            "seed": seed,
            "certificate": _certificate_dict(probe.certificate),
            "n_starts": probe.n_starts,
            "max_pairwise_distance": probe.max_pairwise_distance,
            "unique_within_tol": probe.unique_within_tol,
            "all_converged": probe.all_converged,
            "per_start": [_solve_report_dict(r, with_solution=False) for r in probe.per_start],
        },
    )
    if not probe.all_converged:
        return EXIT_NO_CONVERGENCE
    return EXIT_OK if probe.unique_within_tol else EXIT_NOT_CLUSTERED


def cmd_sample(cfg: dict, out_dir: Path, seed_override) -> int:
    spec = build_kernel(_require(cfg, "kernel", "config"))
    k = _get_k(cfg, 1)
    grid = build_grid(cfg.get("grid"))
    opts = build_solve_options(cfg.get("solver"), seed_override)
    sample_cfg = _require(cfg, "sample", "config")
    try:
        depth = int(_require(sample_cfg, "depth", "sample block"))
        n_samples = int(_require(sample_cfg, "n_samples", "sample block"))
    except (TypeError, ValueError) as exc:
        raise ConfigError("sample depth and n_samples must be integers") from exc
    if depth < 0 or n_samples < 1:
        raise ConfigError("sample requires depth >= 0 and n_samples >= 1")
    seed = _seeded(sample_cfg, "seed", seed_override)

    dk = discretize(spec, grid)
    rep = _solve_for_task(dk, k, opts)
    if not rep.converged:
        _emit_report(out_dir, {"task": "sample", "k": k, **_solve_report_dict(rep, with_solution=False)})
        return EXIT_NO_CONVERGENCE
    shape = gibbs.TreeShape(k=k, depth=depth)
    sample = gibbs.sample_tree(rep.solution, dk, shape, n_samples, seed)
    hist = gibbs.histogram_spins(sample.spins[:, 0])
    _emit(out_dir, "samples.csv", gibbs.assignments_csv(sample))
    _emit(out_dir, "histogram.json", serialize.dumps(_histogram_dict(hist)))
    _emit_report(
        out_dir,
        {
            "task": "sample",
            "k": k,
            "depth": depth,
            "n_samples": n_samples,
            "seed": seed,
            "vertex_count": shape.vertex_count,
            "acceptance_rate": sample.acceptance_rate,
            "solve": _solve_report_dict(rep, with_solution=False),
            "root_histogram": _histogram_dict(hist),
        },
    )
    return EXIT_OK


def cmd_compare(cfg: dict, out_dir: Path, seed_override) -> int:
    spec = build_kernel(_require(cfg, "kernel", "config"))
    k = _get_k(cfg, 1)
    grid = build_grid(cfg.get("grid"))
    opts = build_solve_options(cfg.get("solver"), seed_override)
    compare_cfg = _require(cfg, "compare", "config")
    try:
        n_mc = int(_require(compare_cfg, "n_mc", "compare block"))
        depth = int(compare_cfg.get("depth", 1))
        bins = int(compare_cfg.get("bins", 20))
    except (TypeError, ValueError) as exc:
        raise ConfigError("compare block fields must be integers") from exc
    if not (1 <= depth <= 2):
        raise ConfigError("compare requires depth 1 or 2")
    if k > 3:
        raise ConfigError("compare requires k <= 3")
    if n_mc < 1 or bins < 1:
        raise ConfigError("compare requires n_mc >= 1 and bins >= 1")
    seed = _seeded(compare_cfg, "seed", seed_override)

    dk = discretize(spec, grid)
    rep = _solve_for_task(dk, k, opts)
    if not rep.converged:
        _emit_report(out_dir, {"task": "compare", "k": k, **_solve_report_dict(rep, with_solution=False)})
        return EXIT_NO_CONVERGENCE
    density = gibbs.root_marginal(rep.solution, dk, k)
    hist = gibbs.mc_finite_volume_marginal(rep.solution, dk, gibbs.TreeShape(k=k, depth=depth), n_mc, seed, bins)
    expected = gibbs.density_bin_probabilities(density, hist.edges)
    z = gibbs.z_scores(hist, expected)
    sup_z = float(np.max(np.abs(z)))
    _emit(out_dir, "histogram.json", serialize.dumps(_histogram_dict(hist)))
    _emit_report(
        out_dir,
        {
            "task": "compare",
            "k": k,
            "depth": depth,
            "n_mc": n_mc,
            "bins": bins,
            "seed": seed,
            "sup_abs_z": sup_z,
            "z_limit": COMPARE_Z_LIMIT,
            "z": z,
            "expected_probs": expected,
            "mc": _histogram_dict(hist),
            "solve": _solve_report_dict(rep, with_solution=False),
        },
    )
    return EXIT_OK if sup_z <= COMPARE_Z_LIMIT else EXIT_MARGINAL_MISMATCH


_COMMANDS = {
    "certify": cmd_certify,
    "solve": cmd_solve,
    "eigen": cmd_eigen,
    "probe": cmd_probe,
    "sample": cmd_sample,
    "compare": cmd_compare,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treegibbs",
        description="Fixed points, uniqueness certificates, and exact sampling "
        "for continuous-spin tree models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON run configuration")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")
        p.add_argument("--seed", type=int, default=None, help="override all seeds in the config")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            raw = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        try:
            cfg = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be a JSON object")
        return _COMMANDS[args.command](cfg, Path(args.out), args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
