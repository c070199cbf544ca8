"""Solvers for the order-k fixed-point equation and the associated
Hammerstein eigenproblem.

The fixed-point map is solved by damped Picard iteration; the ratio
certificate guarantees contraction, and for marginal kernels the damping
factor is halved automatically when the residual grows.  A converged fixed
point f converts to a Hammerstein eigenpair via h = f^(1/k) with eigenvalue
omega(f); rescaling h by (lambda/lambda0)^(1/(k-1)) moves the eigenvalue
anywhere on (0, inf), which also yields the Hammerstein fixed point at
lambda = 1.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction
from .kernel import Bounds, Certificate, kernel_bounds, uniqueness_certificate
from .operators import DiscretizedKernel, apply_hammerstein, apply_transfer, omega

# Sup-distance under which multi-start solutions count as one solution:
# looser than the solve tolerance to absorb path-dependent rounding.
CLUSTERING_TOL = 1e-8

# Residual contract for the assembled Hammerstein fixed point; the
# conversion from the order-k solve amplifies its tolerance by bounded
# kernel-dependent constants, so the target is looser than the solve tol.
HAMMERSTEIN_RESIDUAL_TOL = 1e-10

_MIN_DAMPING = 1.0 / 16.0
_BAD_STREAK = 3


@dataclass(frozen=True)
class SolveOptions:
    """Iteration controls.  ``init`` is one of "flat" (f = 1), "random"
    (log-uniform node values inside the invariant envelope, seeded), or
    "given" (start from ``init_function``)."""

    tol: float = 1e-12
    max_iter: int = 10_000
    damping: float = 1.0
    init: str = "flat"
    seed: int | None = None
    init_function: GridFunction | None = None

    def __post_init__(self):
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not (0.0 < self.damping <= 1.0):
            raise ValueError("damping must lie in (0, 1]")
        if self.init not in ("flat", "random", "given"):
            raise ValueError("init must be one of 'flat', 'random', 'given'")
        if self.init == "given" and self.init_function is None:
            raise ValueError("init='given' requires init_function")


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Result of a fixed-point solve; ``residual`` is the sup-norm of the
    defect of the reported solution under the solved map."""

    solution: GridFunction
    residual: float
    iterations: int
    converged: bool
    omega_value: float


@dataclass(frozen=True, eq=False)
class Eigenpair:
    """Eigenvalue/eigenfunction pair of the Hammerstein operator.

    Pairs produced by ``fixed_point_to_eigenpair`` are normalized to
    h(0) = 1; ``rescale_eigenpair`` intentionally leaves that set, since
    re-normalizing would undo the eigenvalue change.
    """

    lam: float
    h: GridFunction

    def __post_init__(self):
        if self.lam <= 0.0:
            raise ValueError("eigenvalue must be positive")
        if np.any(self.h.samples <= 0.0):
            raise ValueError("eigenfunction must be strictly positive")


@dataclass(frozen=True, eq=False)
class ProbeReport:
    """Multi-start uniqueness experiment: certificate verdict plus the
    maximum pairwise sup-distance among converged solutions."""

    certificate: Certificate
    n_starts: int
    max_pairwise_distance: float
    per_start: tuple
    unique_within_tol: bool

    @property
    def all_converged(self) -> bool:
        return all(r.converged for r in self.per_start)


def fixed_point_envelope(bounds: Bounds, k: int) -> tuple[float, float]:
    """Invariant box [(m/M0)^k, (M/m0)^k] containing every order-k fixed point."""
    k = int(k)
    if k < 1:
        raise ValueError("order k must be >= 1")
    return (bounds.m / bounds.M0) ** k, (bounds.M / bounds.m0) ** k


def hammerstein_envelope(bounds: Bounds, k: int) -> tuple[float, float]:
    """Box confining Hammerstein fixed points:
    [(m/M)(1/M)^(1/(k-1)), (M/m)(1/m)^(1/(k-1))]."""
    k = int(k)
    if k < 2:
        raise ValueError("order k must be >= 2")
    p = 1.0 / (k - 1)
    lo = (bounds.m / bounds.M) * (1.0 / bounds.M) ** p
    hi = (bounds.M / bounds.m) * (1.0 / bounds.m) ** p
    return lo, hi


def _initial_state(dk: DiscretizedKernel, k: int, opts: SolveOptions) -> GridFunction:
    n = dk.grid.n
    if opts.init == "flat":
        return GridFunction(dk.grid, np.ones(n), 1.0)
    if opts.init == "random":
        lo, hi = fixed_point_envelope(kernel_bounds(dk.spec), k)
        rng = np.random.default_rng(opts.seed)
        return GridFunction(dk.grid, np.exp(rng.uniform(np.log(lo), np.log(hi), size=n)), 1.0)
    f0 = opts.init_function
    if not dk.grid.compatible(f0.grid):
        raise ValueError("init_function grid does not match the solve grid")
    if np.any(f0.samples <= 0.0):
        raise ValueError("init_function must be strictly positive")
    return f0


def _apply_map(dk: DiscretizedKernel, f: GridFunction, k: int) -> tuple[np.ndarray, float]:
    """Samples of (Wf/omega(f))^k, and omega(f) = (Wf)(0)."""
    wf = apply_transfer(dk, f).samples
    return (wf / wf[0]) ** k, float(wf[0])


def _iterate(dk, k, opts, damped: bool) -> SolveReport:
    f = _initial_state(dk, k, opts)
    alpha = opts.damping
    streak = 0
    prev_res = np.inf
    for it in range(1, opts.max_iter + 1):
        g, om = _apply_map(dk, f, k)
        res = float(np.max(np.abs(g - f.samples)))
        if res <= opts.tol or it == opts.max_iter:
            return SolveReport(
                solution=f,
                residual=res,
                iterations=it,
                converged=res <= opts.tol,
                omega_value=om,
            )
        if damped:
            if res > prev_res:
                streak += 1
            else:
                streak = 0
            if streak >= _BAD_STREAK and alpha > _MIN_DAMPING:
                alpha = max(0.5 * alpha, _MIN_DAMPING)
                streak = 0
            g = (1.0 - alpha) * f.samples + alpha * g
        f = GridFunction(dk.grid, g[1:], g[0])
        prev_res = res
    raise AssertionError("unreachable")


def solve_fixed_point(dk: DiscretizedKernel, k: int, opts: SolveOptions = SolveOptions()) -> SolveReport:
    """Solve f = (Wf/omega(f))^k by damped Picard iteration.

    Non-convergence is reported through ``converged=False`` rather than an
    exception; a converged solution has f(0) = 1 (to within tol) and lies
    in the invariant envelope of its order.
    """
    k = int(k)
    if k < 1:
        raise ValueError("order k must be >= 1")
    return _iterate(dk, k, opts, damped=True)


def solve_linear(dk: DiscretizedKernel, opts: SolveOptions = SolveOptions()) -> SolveReport:
    """Order-1 fixed point via power iteration f <- Wf/(Wf)(0).

    A strictly positive kernel has a unique normalized positive
    eigenfunction; ``omega_value`` of the report is the leading eigenvalue
    of the transfer operator.
    """
    return _iterate(dk, 1, opts, damped=False)


def fixed_point_to_eigenpair(f: GridFunction, dk: DiscretizedKernel, k: int) -> Eigenpair:
    """Convert an order-k fixed point to a Hammerstein eigenpair.

    h = f^(1/k) satisfies H_k h = lambda0 h with lambda0 = omega(f); the
    eigen-residual inherits the fixed-point residual scaled by a bounded
    kernel constant.
    """
    k = int(k)
    if k < 2:
        raise ValueError("eigenpair conversion requires k >= 2")
    if np.any(f.samples <= 0.0):
        raise ValueError("fixed point must be strictly positive")
    h = f.samples ** (1.0 / k)
    return Eigenpair(omega(dk, f), GridFunction(f.grid, h[1:], h[0]))


def eigenpair_to_fixed_point(pair: Eigenpair, k: int) -> GridFunction:
    """Inverse conversion: the fixed point (h/h(0))^k.

    For a normalized eigenfunction this is plainly h^k; for a rescaled pair
    the scaling cancels (the fixed-point map is homogeneous of degree
    zero), so every rescaling of one eigenfunction maps to the same fixed
    point.
    """
    k = int(k)
    if k < 2:
        raise ValueError("eigenpair conversion requires k >= 2")
    f = (pair.h.samples / pair.h.samples[0]) ** k
    return GridFunction(pair.h.grid, f[1:], f[0])


def rescale_eigenpair(pair: Eigenpair, target_lambda: float, k: int) -> Eigenpair:
    """Move an eigenpair to any positive eigenvalue.

    Scaling h by c multiplies its eigenvalue by c^(k-1), so
    c = (target/lambda0)^(1/(k-1)) lands exactly on the target.  k=1 is
    rejected (the exponent is undefined) and the result is deliberately
    not re-normalized at t=0.
    """
    k = int(k)
    if k < 2:
        raise ValueError("eigenvalue rescaling requires k >= 2")
    if target_lambda <= 0.0:
        raise ValueError("target eigenvalue must be positive")
    c = (target_lambda / pair.lam) ** (1.0 / (k - 1))
    scaled = c * pair.h.samples
    return Eigenpair(float(target_lambda), GridFunction(pair.h.grid, scaled[1:], scaled[0]))


def solve_hammerstein_fixed_point(
    dk: DiscretizedKernel, k: int, opts: SolveOptions = SolveOptions()
) -> SolveReport:
    """Solve H_k f = f by solving the order-k fixed point, converting to an
    eigenpair, and rescaling the eigenvalue to 1."""
    k = int(k)
    if k < 2:
        raise ValueError("Hammerstein fixed point solve requires k >= 2")
    rep = solve_fixed_point(dk, k, opts)
    pair = fixed_point_to_eigenpair(rep.solution, dk, k)
    unit = rescale_eigenpair(pair, 1.0, k)
    fstar = unit.h
    hk = apply_hammerstein(dk, fstar, k)
    residual = float(np.max(np.abs(hk.samples - fstar.samples)))
    return SolveReport(
        solution=fstar,
        residual=residual,
        iterations=rep.iterations,
        converged=rep.converged and residual <= HAMMERSTEIN_RESIDUAL_TOL,
        omega_value=omega(dk, fstar),
    )


def uniqueness_probe(
    dk: DiscretizedKernel,
    k: int,
    n_starts: int,
    seed: int,
    opts: SolveOptions = SolveOptions(),
) -> ProbeReport:
    """Empirical uniqueness test: solve from many random starts and measure
    how far apart the solutions land.

    Starts are drawn log-uniformly inside the invariant envelope
    (deterministic per seed).  When the certificate passes, all converged
    solutions must cluster within ``CLUSTERING_TOL``; when it fails the
    probe still runs but asserts nothing (the certificate is sufficient,
    not necessary).  A non-converged start makes the probe inconclusive.
    """
    k = int(k)
    if k < 2:
        raise ValueError("uniqueness probe requires k >= 2")
    if n_starts < 2:
        raise ValueError("uniqueness probe requires n_starts >= 2")
    bounds = kernel_bounds(dk.spec)
    certificate = uniqueness_certificate(bounds, k)
    lo, hi = fixed_point_envelope(bounds, k)
    rng = np.random.default_rng(seed)
    reports = []
    for _ in range(n_starts):
        vals = np.exp(rng.uniform(np.log(lo), np.log(hi), size=dk.grid.n))
        start = GridFunction(dk.grid, vals, 1.0)
        reports.append(
            solve_fixed_point(dk, k, dataclasses.replace(opts, init="given", init_function=start))
        )
    solutions = [r.solution.samples for r in reports if r.converged]
    max_distance = 0.0
    for i in range(len(solutions)):
        for j in range(i + 1, len(solutions)):
            max_distance = max(max_distance, float(np.max(np.abs(solutions[i] - solutions[j]))))
    return ProbeReport(
        certificate=certificate,
        n_starts=int(n_starts),
        max_pairwise_distance=max_distance,
        per_start=tuple(reports),
        unique_within_tol=max_distance <= CLUSTERING_TOL,
    )
