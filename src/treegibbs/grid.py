"""Composite Gauss-Legendre quadrature on [0,1] and grid-sampled functions.

Gauss nodes are interior points, but the normalizing functional of the
fixed-point operators evaluates functions at t=0.  A grid therefore carries
``points = [0, nodes...]``, and a ``GridFunction`` stores one sample array
aligned with it: sample 0 is the value at t=0, samples 1..n the node values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .serialize import csv_rows, fmt_float_column

WEIGHT_SUM_TOL = 1e-14


def _frozen_array(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Grid:
    """Composite Gauss-Legendre rule on [0,1]: ``points_per_panel`` nodes on
    each of ``panels`` equal subintervals.  Weights sum to 1.  ``points`` is
    t=0 followed by the nodes; ``nodes`` is a view of ``points[1:]``."""

    nodes: np.ndarray
    weights: np.ndarray
    points_per_panel: int
    panels: int
    points: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        w = _frozen_array(self.weights)
        if np.ndim(self.nodes) != 1 or np.shape(self.nodes) != w.shape or w.size == 0:
            raise ValueError("nodes and weights must be 1-d arrays of equal nonzero length")
        points = _frozen_array(np.concatenate(([0.0], self.nodes)))
        n = points[1:]
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "nodes", n)
        object.__setattr__(self, "weights", w)
        if n[0] <= 0.0 or n[-1] >= 1.0 or np.any(np.diff(n) <= 0.0):
            raise ValueError("nodes must be strictly increasing and lie inside (0,1)")
        if np.any(w <= 0.0):
            raise ValueError("quadrature weights must be positive")
        if abs(float(w.sum()) - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError("quadrature weights must sum to 1")

    @property
    def n(self) -> int:
        return self.nodes.size

    def compatible(self, other: "Grid") -> bool:
        return self is other or (
            np.array_equal(self.nodes, other.nodes)
            and np.array_equal(self.weights, other.weights)
        )


def make_grid(points_per_panel: int = 12, panels: int = 8) -> Grid:
    """Build the composite Gauss-Legendre rule (default 12 x 8 = 96 nodes).

    An n-point panel integrates polynomials of degree <= 2n-1 exactly, so
    the default rule is spectrally accurate for the smooth kernels handled
    here while staying cheap to refine for convergence studies.  The
    largest weight is snapped so that the exactly rounded weight sum is
    1.0, which makes a constant integrate to exactly itself.
    """
    if points_per_panel < 1 or panels < 1:
        raise ValueError("points_per_panel and panels must both be >= 1")
    x, w = np.polynomial.legendre.leggauss(points_per_panel)
    edges = np.linspace(0.0, 1.0, panels + 1)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        nodes.append(half * (x + 1.0) + a)
        weights.append(half * w)
    weights = np.concatenate(weights)
    j = int(np.argmax(weights))
    for _ in range(4):  # two corrections suffice on every rule tried
        err = 1.0 - math.fsum(weights)
        if err == 0.0:
            break
        weights[j] += err
    return Grid(np.concatenate(nodes), weights, points_per_panel, panels)


@dataclass(frozen=True, eq=False, init=False)
class GridFunction:
    """Samples of a function at ``grid.points``: the value at t=0 first,
    then the node values.  ``values`` and ``value_at_zero`` read from the
    one ``samples`` array."""

    grid: Grid
    samples: np.ndarray

    def __init__(self, grid: Grid, values, value_at_zero: float):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.nodes.shape:
            raise ValueError("values length must match the grid node count")
        samples = np.empty(grid.n + 1)
        samples[0] = value_at_zero
        samples[1:] = values
        samples.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "samples", samples)

    @property
    def values(self) -> np.ndarray:
        return self.samples[1:]

    @property
    def value_at_zero(self) -> float:
        return float(self.samples[0])

    @property
    def all_samples(self) -> np.ndarray:
        return self.samples


def sample_function(grid: Grid, fn) -> GridFunction:
    """Sample a callable at the grid nodes and at t=0."""
    return GridFunction(grid, fn(grid.nodes), float(fn(0.0)))


def integrate(grid: Grid, values) -> float:
    """Quadrature approximation of the integral over [0,1]."""
    values = np.asarray(values, dtype=float)
    if values.shape != grid.weights.shape:
        raise ValueError("values length must match the grid node count")
    return float(grid.weights @ values)


def sup_norm(f: GridFunction) -> float:
    """Max of |f| over all stored samples (t=0 and the nodes)."""
    return float(np.max(np.abs(f.samples)))


def interp_knots(f: GridFunction) -> tuple[np.ndarray, np.ndarray]:
    """Knots of the piecewise-linear interpolant: the grid points with their
    samples, and a constant-extrapolated right endpoint at t=1."""
    return np.append(f.grid.points, 1.0), np.append(f.samples, f.samples[-1])


def interpolate(f: GridFunction, t):
    """Piecewise-linear interpolation of f at t in [0,1] (scalar or array)."""
    tt = np.asarray(t, dtype=float)
    if np.any(tt < 0.0) or np.any(tt > 1.0):
        raise ValueError("interpolation point outside [0,1]")
    xs, ys = interp_knots(f)
    out = np.interp(tt, xs, ys)
    return float(out) if tt.ndim == 0 else out


def shift_gap(f: GridFunction, a: float) -> float:
    """Sup-norm distance between a sign-changing f and the constant a.

    For any f that takes both signs, sup|f - a| >= sup|f| / 2 no matter how
    a is chosen; callers use this gap to rule out collapse of a difference
    of two fixed points onto a constant.
    """
    samples = f.samples
    if not (samples.min() < 0.0 < samples.max()):
        raise ValueError("shift_gap requires a sign-changing function")
    return float(np.max(np.abs(samples - float(a))))


def gridfunction_csv(f: GridFunction, names: tuple[str, str] = ("t", "f")) -> str:
    """CSV serialization: header, then (t, f(t)) rows starting with t=0."""
    rows = csv_rows(fmt_float_column(f.grid.points), fmt_float_column(f.samples))
    return ",".join(names) + "\n" + rows.decode("ascii")
