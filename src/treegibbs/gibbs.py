"""Tree measures built from a solved fixed point.

A converged order-k fixed point f is a boundary law.  It induces a Markov
law on the rooted tree in which the root carries density proportional to
f^((k+1)/k) and each child given parent spin t carries density proportional
to K(t,u) f~(u), with f~ the piecewise-linear interpolant of f.  The exact
sampler draws the root by inverse CDF and every child by rejection: propose
from f~, accept with probability K(t,u)/M for a proven envelope M >= K.
Both closed forms are derived, not quoted, so they are guarded by a
brute-force finite-volume Monte Carlo oracle: weight exp(-beta*H) times the
boundary field prod f~ over the outer sphere, estimated by self-normalized
importance sampling with a uniform proposal.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .grid import Grid, GridFunction, integrate, interp_knots
from .kernel import ExponentialKernel, KernelSpec, _kernel_envelope
from .operators import DiscretizedKernel, apply_fixed_point_map
from . import serialize

# A density is only trusted when built from a genuine fixed point.
FIXED_POINT_GATE = 1e-6

DENSITY_NORMALIZATION_TOL = 1e-10
ESS_WARN_THRESHOLD = 100.0

_ORACLE_CHUNK = 1 << 15
_CSV_CHUNK_ROWS = 1 << 14


@dataclass(frozen=True)
class TreeShape:
    """Rooted regular tree: the root has k+1 direct successors, every other
    internal vertex has k; ``depth`` is the radius of the ball."""

    k: int
    depth: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("tree order k must be >= 1")
        if self.depth < 0:
            raise ValueError("depth must be >= 0")

    @property
    def vertex_count(self) -> int:
        if self.depth == 0:
            return 1
        if self.k == 1:
            return 1 + 2 * self.depth
        return 1 + (self.k + 1) * (self.k**self.depth - 1) // (self.k - 1)

    def vertex_table(self) -> tuple[list, np.ndarray, np.ndarray]:
        """Breadth-first vertex enumeration: (paths, parent index, depth)."""
        paths = ["r"]
        parents = [-1]
        depths = [0]
        frontier = [0]
        for d in range(1, self.depth + 1):
            new_frontier = []
            for v in frontier:
                n_children = self.k + 1 if v == 0 else self.k
                for c in range(n_children):
                    paths.append(f"{paths[v]}.{c}")
                    parents.append(v)
                    depths.append(d)
                    new_frontier.append(len(paths) - 1)
            frontier = new_frontier
        return paths, np.asarray(parents), np.asarray(depths)


@dataclass(frozen=True, eq=False)
class TreeAssignment:
    """One spin configuration on a finite tree, aligned with the
    breadth-first vertex order of ``shape.vertex_table()``."""

    shape: TreeShape
    spins: np.ndarray

    def __post_init__(self):
        spins = np.array(self.spins, dtype=float)
        if spins.shape != (self.shape.vertex_count,):
            raise ValueError("spin count must match the tree vertex count")
        if np.any(spins < 0.0) or np.any(spins > 1.0):
            raise ValueError("spins must lie in [0,1]")
        spins.setflags(write=False)
        object.__setattr__(self, "spins", spins)


@dataclass(frozen=True, eq=False, init=False)
class DensityOnGrid(GridFunction):
    """Probability density on [0,1] sampled at the grid points (t=0 and the
    nodes), normalized so its quadrature integral is 1."""

    normalization: float

    def __init__(self, grid: Grid, values, value_at_zero: float, normalization: float):
        super().__init__(grid, values, value_at_zero)
        if np.any(self.samples < 0.0):
            raise ValueError("density must be nonnegative")
        if abs(integrate(grid, self.values) - 1.0) > DENSITY_NORMALIZATION_TOL:
            raise ValueError("density quadrature integral must equal 1")
        object.__setattr__(self, "normalization", float(normalization))

    def as_grid_function(self) -> GridFunction:
        return self


@dataclass(frozen=True, eq=False)
class Histogram:
    """Binned estimate of a distribution on [0,1] with per-bin standard
    errors; ``counts`` are importance-weighted for the MC oracle."""

    edges: np.ndarray
    counts: np.ndarray
    probs: np.ndarray
    stderrs: np.ndarray
    ess: float
    n_draws: int


def energy(assignment: TreeAssignment, spec: KernelSpec) -> float:
    """Configuration energy -J * sum_edges xi(s(x), s(y)).

    For an exponential kernel the interaction is evaluated directly; any
    other variant is read as K = exp(interaction) with the inverse
    temperature absorbed, giving -sum_edges ln K.
    """
    _, parents, _ = assignment.shape.vertex_table()
    if parents.size <= 1:
        return 0.0
    child = np.arange(1, parents.size)
    sp = assignment.spins[parents[child]]
    sc = assignment.spins[child]
    if isinstance(spec, ExponentialKernel):
        return float(-spec.J * np.sum(spec.interaction_value(sp, sc)))
    return float(-np.sum(np.log(spec.evaluate(sp, sc))))


def fixed_point_residual(f: GridFunction, dk: DiscretizedKernel, k: int) -> float:
    """Sup-norm defect of f under the order-k fixed-point map.

    This is the executable form of the consistency condition tying the
    finite-volume distributions together; a converged solve drives it to
    the solver tolerance.
    """
    g = apply_fixed_point_map(dk, f, k)
    return float(np.max(np.abs(g.samples - f.samples)))


def _marginal_exponent(k: int) -> float:
    # Root sits on k+1 subtrees, each contributing f^(1/k).
    return (k + 1.0) / k


def root_marginal(f: GridFunction, dk: DiscretizedKernel, k: int) -> DensityOnGrid:
    """Root-spin density of the tree measure: proportional to f^((k+1)/k).

    Each of the root's k+1 subtrees integrates to a factor proportional to
    f^(1/k) at the root spin, hence the exponent.  Rejects f whose
    fixed-point residual exceeds ``FIXED_POINT_GATE``.
    """
    k = int(k)
    if k < 1:
        raise ValueError("order k must be >= 1")
    residual = fixed_point_residual(f, dk, k)
    if residual > FIXED_POINT_GATE:
        raise ValueError(
            f"root marginal needs a fixed point: residual {residual:.3e} exceeds {FIXED_POINT_GATE:.1e}"
        )
    raw = f.samples ** _marginal_exponent(k)
    z = integrate(f.grid, raw[1:])
    rho = raw / z
    return DensityOnGrid(f.grid, rho[1:], rho[0], z)


def child_transition(f: GridFunction, dk: DiscretizedKernel, parent_spin: float) -> DensityOnGrid:
    """Spin density of a child given its parent: proportional to K(t,u)f(u).

    The kernel row is evaluated exactly at the (arbitrary) parent spin.
    The caller is responsible for passing a solved fixed point f.
    """
    parent_spin = float(parent_spin)
    if not (0.0 <= parent_spin <= 1.0):
        raise ValueError("parent_spin must lie in [0,1]")
    if np.any(f.samples < 0.0):
        raise ValueError("f must be nonnegative")
    row = dk.spec.evaluate(parent_spin, f.grid.points) * f.samples
    z = integrate(f.grid, row[1:])
    if z <= 0.0:
        raise ValueError("transition density has nonpositive mass")
    p = row / z
    return DensityOnGrid(f.grid, p[1:], p[0], z)


def _pl_cdf(ts: np.ndarray, dens: np.ndarray) -> np.ndarray:
    """Unnormalized CDF at the knots of the piecewise-linear density
    through (ts, dens); element 0 is 0 and the last element the mass."""
    seg_mass = 0.5 * (dens[:-1] + dens[1:]) * np.diff(ts)
    return np.concatenate(([0.0], np.cumsum(seg_mass)))


def _sample_pl(ts: np.ndarray, dens: np.ndarray, cdf: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws from the piecewise-linear density with knot CDF
    ``cdf`` (from ``_pl_cdf``).

    The CDF is quadratic on each knot interval; the quadratic is solved in
    the cancellation-free form s = 2*du / (d0 + sqrt(d0^2 + 2*slope*du)).
    """
    u = uniforms * cdf[-1]
    idx = np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, ts.size - 2)
    du = u - cdf[idx]
    d0 = dens[idx]
    h = np.diff(ts)[idx]
    slope = (dens[idx + 1] - d0) / h
    disc = np.maximum(d0 * d0 + 2.0 * slope * du, 0.0)
    denom = d0 + np.sqrt(disc)
    s = np.divide(2.0 * du, denom, out=np.zeros_like(du), where=denom > 0.0)
    return ts[idx] + np.minimum(s, h)


@dataclass(frozen=True, eq=False)
class TreeSample:
    """Independent draws of the tree measure.

    Row i of the read-only (n_samples, V) array ``spins`` is one
    configuration in the breadth-first vertex order of
    ``shape.vertex_table()``.  ``acceptance_rate`` is accepted over proposed
    child draws of the rejection step, or None at depth 0.
    """

    shape: TreeShape
    spins: np.ndarray
    acceptance_rate: float | None


def sample_tree(
    f: GridFunction,
    dk: DiscretizedKernel,
    shape: TreeShape,
    n_samples: int,
    seed: int,
) -> TreeSample:
    """Exact top-down sampler of the tree measure.

    Root spins come first, from ``rng.random(n_samples)`` by inverse CDF on
    the piecewise-linear ``root_marginal``.  Children are then drawn one
    depth at a time from the target K(t,u) f~(u), where t is the parent
    spin and f~ the piecewise-linear interpolant of f through
    ``interp_knots(f)``, the same weight the Monte Carlo oracle uses.  A
    proposal u is drawn from f~ (its CDF is built once) and accepted when
    U * M <= K(t,u), with M the proven envelope ``kernel._kernel_envelope``;
    rejected draws are redrawn until none remain, so the acceptance rate is
    at least min K / M.  Deterministic per seed.  Replacing the per-draw
    inverse CDF by this rejection step changed the child draws for a fixed
    seed; root draws stayed the same for n_samples <= 32768.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    _, parents, depths = shape.vertex_table()
    spins = np.empty((n_samples, parents.size))

    ts, root_dens = interp_knots(root_marginal(f, dk, shape.k))
    spins[:, 0] = _sample_pl(ts, root_dens, _pl_cdf(ts, root_dens), rng.random(n_samples))

    f_dens = interp_knots(f)[1]
    f_cdf = _pl_cdf(ts, f_dens)
    envelope = _kernel_envelope(dk.spec)
    proposed = 0
    for d in range(1, shape.depth + 1):
        level = np.flatnonzero(depths == d)
        parent_spin = spins[:, parents[level]].ravel()
        child = np.empty_like(parent_spin)
        pending = np.arange(parent_spin.size)
        while pending.size:
            proposed += pending.size
            u = _sample_pl(ts, f_dens, f_cdf, rng.random(pending.size))
            accept = rng.random(pending.size) * envelope <= dk.spec.evaluate(parent_spin[pending], u)
            child[pending[accept]] = u[accept]
            pending = pending[~accept]
        spins[:, level] = child.reshape(n_samples, level.size)
    spins.setflags(write=False)
    rate = n_samples * (parents.size - 1) / proposed if proposed else None
    return TreeSample(shape, spins, rate)


def mc_finite_volume_marginal(
    f: GridFunction,
    dk: DiscretizedKernel,
    shape: TreeShape,
    n_mc: int,
    seed: int,
    bins: int = 20,
) -> Histogram:
    """Brute-force root-marginal estimate from the finite-volume weights.

    Draws configurations uniformly on [0,1]^V and reweights by
    prod_edges K(s(x), s(y)) * prod_{boundary} f(s(x)) (the common boundary
    normalization cancels in the self-normalized estimator).  Restricted to
    depth 1..2 and k <= 3, where the proposal still covers the target.
    """
    if not (1 <= shape.depth <= 2):
        raise ValueError("finite-volume oracle supports depth 1 or 2")
    if shape.k > 3:
        raise ValueError("finite-volume oracle supports k <= 3")
    if n_mc < 1:
        raise ValueError("n_mc must be >= 1")
    if bins < 1:
        raise ValueError("bins must be >= 1")

    rng = np.random.default_rng(seed)
    _, parents, depths = shape.vertex_table()
    n_vertices = parents.size
    boundary = np.flatnonzero(depths == shape.depth)
    child = np.arange(1, n_vertices)
    xs_f, ys_f = interp_knots(f)

    edges = np.linspace(0.0, 1.0, bins + 1)
    sum_w = 0.0
    sum_w2 = 0.0
    bin_w = np.zeros(bins)
    bin_w2 = np.zeros(bins)

    for start in range(0, n_mc, _ORACLE_CHUNK):
        m = min(start + _ORACLE_CHUNK, n_mc) - start
        sig = rng.random((m, n_vertices))
        w = np.ones(m)
        for v in child:
            w *= dk.spec.evaluate(sig[:, parents[v]], sig[:, v])
        for b in boundary:
            w *= np.interp(sig[:, b], xs_f, ys_f)
        idx = np.minimum((sig[:, 0] * bins).astype(int), bins - 1)
        sum_w += w.sum()
        sum_w2 += (w * w).sum()
        bin_w += np.bincount(idx, weights=w, minlength=bins)
        bin_w2 += np.bincount(idx, weights=w * w, minlength=bins)

    probs = bin_w / sum_w
    var = (bin_w2 * (1.0 - probs) ** 2 + (sum_w2 - bin_w2) * probs**2) / sum_w**2
    ess = sum_w * sum_w / sum_w2
    if ess < ESS_WARN_THRESHOLD:
        warnings.warn(f"effective sample size {ess:.1f} below {ESS_WARN_THRESHOLD:.0f}")
    return Histogram(
        edges=edges,
        counts=bin_w,
        probs=probs,
        stderrs=np.sqrt(var),
        ess=float(ess),
        n_draws=int(n_mc),
    )


def histogram_spins(spins, bins: int = 20) -> Histogram:
    """Unweighted histogram of spin draws with binomial standard errors."""
    spins = np.asarray(spins, dtype=float)
    n = spins.size
    if n < 1:
        raise ValueError("need at least one draw")
    edges = np.linspace(0.0, 1.0, bins + 1)
    idx = np.minimum((spins * bins).astype(int), bins - 1)
    counts = np.bincount(idx, minlength=bins).astype(float)
    probs = counts / n
    stderrs = np.sqrt(probs * (1.0 - probs) / n)
    return Histogram(edges=edges, counts=counts, probs=probs, stderrs=stderrs, ess=float(n), n_draws=int(n))


def density_bin_probabilities(density: DensityOnGrid, edges) -> np.ndarray:
    """Exact bin masses of the piecewise-linear density representation."""
    edges = np.asarray(edges, dtype=float)
    if np.any(edges < 0.0) or np.any(edges > 1.0) or np.any(np.diff(edges) <= 0.0):
        raise ValueError("edges must be increasing and lie in [0,1]")
    ts, ds = interp_knots(density)
    cdf_knots = _pl_cdf(ts, ds)
    idx = np.clip(np.searchsorted(ts, edges, side="right") - 1, 0, ts.size - 2)
    s = edges - ts[idx]
    slope = (ds[idx + 1] - ds[idx]) / (ts[idx + 1] - ts[idx])
    cdf = cdf_knots[idx] + ds[idx] * s + 0.5 * slope * s * s
    return np.diff(cdf) / cdf_knots[-1]


def z_scores(hist: Histogram, expected_probs) -> np.ndarray:
    """Per-bin standardized discrepancies between a histogram and expected
    bin masses; bins with zero standard error score 0 when they agree and
    +/-inf when they do not."""
    expected = np.asarray(expected_probs, dtype=float)
    if expected.shape != hist.probs.shape:
        raise ValueError("expected_probs must have one entry per bin")
    diff = hist.probs - expected
    z = np.zeros_like(diff)
    ok = hist.stderrs > 0.0
    z[ok] = diff[ok] / hist.stderrs[ok]
    z[~ok & (diff != 0.0)] = np.sign(diff[~ok & (diff != 0.0)]) * np.inf
    return z


def assignments_csv(sample: TreeSample) -> str:
    """CSV serialization: one row per vertex (sample, vertex path, spin).

    Each spin is ``format(spin, ".17g")``.  Rows are built as byte cells,
    ``_CSV_CHUNK_ROWS`` at a time so the temporaries stay small, with no
    Python call per spin.
    """
    paths, _, _ = sample.shape.vertex_table()
    n_samples, n_vertices = sample.spins.shape
    path_cells = serialize.text_cells(paths)
    per_chunk = max(1, _CSV_CHUNK_ROWS // n_vertices)
    chunks = [b"sample,vertex,spin\n"]
    for s0 in range(0, n_samples, per_chunk):
        ids = serialize.text_cells([str(s) for s in range(s0, min(n_samples, s0 + per_chunk))])
        chunks.append(serialize.csv_rows(
            np.repeat(ids, n_vertices, axis=0),
            np.tile(path_cells, (len(ids), 1)),
            serialize.fmt_float_column(sample.spins[s0:s0 + per_chunk]),
        ))
    return b"".join(chunks).decode("ascii")
