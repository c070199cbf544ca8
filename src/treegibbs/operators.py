"""Nystrom-discretized integral operators for a positive kernel.

On a quadrature grid the linear transfer operator (Wf)(t) = int K(t,u)f(u)du
becomes one matrix-vector product over a kernel table whose rows are the
grid points [0, nodes...] and whose columns are the nodes.  Row 0 is
K(0, .), so element 0 of Wf is the normalizer omega(f) = (Wf)(0), computed
by the same reduction as every node value and never interpolated.  From W
we build the normalized transfer Bf = Wf/omega(f), the order-k fixed-point
map f -> (Bf)^k, and the Hammerstein operator f -> W(f^k).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, GridFunction
from .kernel import KernelSpec


@dataclass(frozen=True, eq=False)
class DiscretizedKernel:
    """Kernel table K(s_i, u_j) for s in ``grid.points`` and u in
    ``grid.nodes``: shape (n+1, n), row 0 is K(0, .).  ``matrix`` (node
    pairs) and ``row_at_zero`` are views of it.  The table is frozen in
    place, not copied."""

    table: np.ndarray
    grid: Grid
    spec: KernelSpec

    def __post_init__(self):
        table = np.asarray(self.table, dtype=float)
        n = self.grid.n
        if table.shape != (n + 1, n):
            raise ValueError("kernel table must have shape (n+1, n) for an n-node grid")
        if np.any(table <= 0.0):
            raise ValueError("discretized kernel entries must be strictly positive")
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    @property
    def matrix(self) -> np.ndarray:
        return self.table[1:]

    @property
    def row_at_zero(self) -> np.ndarray:
        return self.table[0]


def discretize(spec: KernelSpec, grid: Grid) -> DiscretizedKernel:
    """Evaluate the kernel at all (grid point, node) pairs in one call."""
    return DiscretizedKernel(spec.evaluate(grid.points[:, None], grid.nodes[None, :]), grid, spec)


def _check_grid(dk: DiscretizedKernel, f: GridFunction):
    if not dk.grid.compatible(f.grid):
        raise ValueError("grid mismatch between discretized kernel and function")


def apply_transfer(dk: DiscretizedKernel, f: GridFunction) -> GridFunction:
    """Linear transfer (Wf)(s) = sum_j w_j K(s,u_j) f(u_j) at every grid
    point s; sample 0 is omega(f)."""
    _check_grid(dk, f)
    wf = dk.table @ (dk.grid.weights * f.values)
    return GridFunction(dk.grid, wf[1:], wf[0])


def _admissible_transfer(dk: DiscretizedKernel, f: GridFunction) -> np.ndarray:
    """Samples of Wf for a nonnegative, nonzero f, with omega(f) > 0 checked."""
    if np.any(f.samples < 0.0):
        raise ValueError("function must be nonnegative")
    if not np.any(f.samples > 0.0):
        raise ValueError("function must not be identically zero")
    wf = apply_transfer(dk, f).samples
    if wf[0] <= 0.0:
        raise ValueError("normalizer is not positive; input function is inadmissible")
    return wf


def omega(dk: DiscretizedKernel, f: GridFunction) -> float:
    """Normalizing functional omega(f) = (Wf)(0); positive for admissible f."""
    return float(_admissible_transfer(dk, f)[0])


def apply_normalized_transfer(dk: DiscretizedKernel, f: GridFunction) -> GridFunction:
    """Normalized transfer Bf = Wf / omega(f); (Bf)(0) = 1 exactly."""
    wf = _admissible_transfer(dk, f)
    b = wf / wf[0]
    return GridFunction(dk.grid, b[1:], b[0])


def apply_fixed_point_map(dk: DiscretizedKernel, f: GridFunction, k: int) -> GridFunction:
    """Order-k fixed-point map f -> (Bf)^k.

    The map is homogeneous of degree zero (scaling f changes nothing) and
    pins the output to 1 at t=0, so its fixed points are exactly the
    normalized consistent boundary laws of order k.
    """
    k = int(k)
    if k < 1:
        raise ValueError("order k must be >= 1")
    b = apply_normalized_transfer(dk, f)
    return GridFunction(dk.grid, b.values**k, 1.0)


def apply_hammerstein(dk: DiscretizedKernel, f: GridFunction, k: int) -> GridFunction:
    """Hammerstein operator of order k: t -> int K(t,u) f(u)^k du."""
    k = int(k)
    if k < 1:
        raise ValueError("order k must be >= 1")
    if np.any(f.samples < 0.0):
        raise ValueError("function must be nonnegative")
    powered = f.samples**k
    return apply_transfer(dk, GridFunction(dk.grid, powered[1:], powered[0]))


def extend_fixed_point(dk: DiscretizedKernel, f: GridFunction, k: int, ts) -> np.ndarray:
    """Natural continuous extension of an order-k fixed point.

    Evaluates ((W f)(t)/omega(f))^k at arbitrary t using the solved node
    values; exact at the nodes up to the solve residual, and as accurate
    between them as the quadrature itself (unlike linear interpolation).
    """
    k = int(k)
    if k < 1:
        raise ValueError("order k must be >= 1")
    ts = np.asarray(ts, dtype=float)
    if np.any(ts < 0.0) or np.any(ts > 1.0):
        raise ValueError("evaluation points must lie in [0,1]")
    om = omega(dk, f)
    wt = dk.spec.evaluate(ts[:, None], dk.grid.nodes[None, :]) @ (dk.grid.weights * f.values)
    return (wt / om) ** k
