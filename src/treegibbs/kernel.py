"""Strictly positive interaction kernels K(t,u) on [0,1]^2.

A kernel plays the role of the edge Boltzmann factor exp(J*beta*xi(t,u))
of a nearest-neighbor model with spins in [0,1].  This module evaluates
kernels, computes their extrema, and decides the spectral-ratio uniqueness
certificate: with m = min K, M = max K, the fixed-point equation of order
k has a unique positive solution whenever (M/m)^k - (m/M)^k < 1/k,
equivalently M/m < eta_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.polynomial import polyval2d

POSITIVITY_RESOLUTION = 201
DEFAULT_BOUNDS_RESOLUTION = 1001
_ENVELOPE_ROUNDING = 1e-12


def _as_domain_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError(f"{name} must lie in [0,1]")
    return arr


def _coeff_matrix(triples, min_degree: int, nonnegative: bool) -> np.ndarray:
    """Dense coefficient matrix C with C[i,j] multiplying t^i u^j."""
    triples = [(int(i), int(j), float(c)) for i, j, c in triples]
    if not triples:
        return np.zeros((1, 1))
    for i, j, c in triples:
        if i < min_degree or j < min_degree:
            raise ValueError(f"coefficient index ({i},{j}) below minimum degree {min_degree}")
        if nonnegative and c < 0.0:
            raise ValueError(f"coefficient c[{i},{j}]={c} must be nonnegative")
    mi = max(i for i, _, _ in triples)
    mj = max(j for _, j, _ in triples)
    C = np.zeros((mi + 1, mj + 1))
    for i, j, c in triples:
        C[i, j] += c
    return C


class KernelSpec:
    """Base class for kernel descriptions.  Subclasses implement ``_eval``;
    positivity on [0,1]^2 is validated at construction by dense sampling."""

    def evaluate(self, t, u):
        """K(t,u) for scalars or broadcastable arrays with entries in [0,1]."""
        t = _as_domain_array(t, "t")
        u = _as_domain_array(u, "u")
        t, u = np.broadcast_arrays(t, u)
        out = self._eval(t, u)
        return float(out) if out.ndim == 0 else out

    def _eval(self, t: np.ndarray, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _validate_positive(self):
        s = np.linspace(0.0, 1.0, POSITIVITY_RESOLUTION)
        k = self._eval(*np.broadcast_arrays(s[:, None], s[None, :]))
        if not np.all(np.isfinite(k)) or np.any(k <= 0.0):
            raise ValueError("kernel must be finite and strictly positive on [0,1]^2")


@dataclass(frozen=True)
class ConstantKernel(KernelSpec):
    """K(t,u) = c for a positive constant c."""

    c: float

    def __post_init__(self):
        object.__setattr__(self, "c", float(self.c))
        if self.c <= 0.0:
            raise ValueError("constant kernel value must be positive")

    def _eval(self, t, u):
        return np.full(np.broadcast(t, u).shape, self.c)


@dataclass(frozen=True, eq=False)
class PolynomialKernel(KernelSpec):
    """K(t,u) = sum_{i,j>=1} c_ij t^i u^j + a with c_ij >= 0 and a > 0.

    Every term vanishes on the lines t=0 and u=0 and the coefficients are
    nonnegative, so K increases in each variable: the extrema sit at the
    corners and the row K(0, .) is the constant a.  Coefficients are given
    as (i, j, c_ij) triples.
    """

    coeffs: tuple
    a: float
    coeff_matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        if self.a <= 0.0:
            raise ValueError("offset a must be positive")
        C = _coeff_matrix(self.coeffs, min_degree=1, nonnegative=True)
        C[0, 0] = self.a
        object.__setattr__(self, "coeffs", tuple((int(i), int(j), float(c)) for i, j, c in self.coeffs))
        object.__setattr__(self, "coeff_matrix", C)
        self._validate_positive()

    @property
    def coeff_sum(self) -> float:
        return float(sum(c for _, _, c in self.coeffs))

    def _eval(self, t, u):
        return np.asarray(polyval2d(t, u, self.coeff_matrix), dtype=float)


@dataclass(frozen=True, eq=False)
class ExponentialKernel(KernelSpec):
    """K(t,u) = exp(J * beta * xi(t,u)) for a bivariate polynomial
    interaction xi, coupling J != 0 and inverse temperature beta > 0."""

    J: float
    beta: float
    interaction: tuple
    interaction_matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "J", float(self.J))
        object.__setattr__(self, "beta", float(self.beta))
        if self.J == 0.0:
            raise ValueError("coupling J must be nonzero")
        if self.beta <= 0.0:
            raise ValueError("inverse temperature beta must be positive")
        C = _coeff_matrix(self.interaction, min_degree=0, nonnegative=False)
        object.__setattr__(
            self, "interaction", tuple((int(i), int(j), float(c)) for i, j, c in self.interaction)
        )
        object.__setattr__(self, "interaction_matrix", C)
        self._validate_positive()

    def interaction_value(self, t, u):
        """xi(t,u) for scalars or broadcastable arrays in [0,1]."""
        t = _as_domain_array(t, "t")
        u = _as_domain_array(u, "u")
        t, u = np.broadcast_arrays(t, u)
        out = np.asarray(polyval2d(t, u, self.interaction_matrix), dtype=float)
        return float(out) if out.ndim == 0 else out

    def _eval(self, t, u):
        return np.exp(self.J * self.beta * np.asarray(polyval2d(t, u, self.interaction_matrix)))


@dataclass(frozen=True, eq=False)
class TabulatedKernel(KernelSpec):
    """Kernel given by strictly positive values on a uniform grid over
    [0,1]^2, extended by bilinear interpolation (the simplest interpolant
    that preserves positivity).  ``values[i, j]`` is K at (i/(nt-1), j/(nu-1))."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] < 2 or vals.shape[1] < 2:
            raise ValueError("tabulated kernel needs a 2-d table with at least 2 points per axis")
        if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
            raise ValueError("tabulated kernel values must be finite and strictly positive")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        self._validate_positive()

    @classmethod
    def from_callable(cls, fn, n_t: int = 11, n_u: int = 11) -> "TabulatedKernel":
        t = np.linspace(0.0, 1.0, n_t)
        u = np.linspace(0.0, 1.0, n_u)
        return cls(fn(t[:, None], u[None, :]))

    def _eval(self, t, u):
        nt, nu = self.values.shape
        st = t * (nt - 1)
        su = u * (nu - 1)
        it = np.minimum(st.astype(int), nt - 2)
        iu = np.minimum(su.astype(int), nu - 2)
        rt = st - it
        ru = su - iu
        V = self.values
        return (
            (1.0 - rt) * (1.0 - ru) * V[it, iu]
            + (1.0 - rt) * ru * V[it, iu + 1]
            + rt * (1.0 - ru) * V[it + 1, iu]
            + rt * ru * V[it + 1, iu + 1]
        )


@dataclass(frozen=True)
class Bounds:
    """Kernel extrema: global min/max m, M and the t=0 row min/max m0, M0."""

    m: float
    M: float
    m0: float
    M0: float
    resolution: int
    exact: bool

    def __post_init__(self):
        if not (0.0 < self.m <= self.m0 <= self.M0 <= self.M):
            raise ValueError("bounds must satisfy 0 < m <= m0 <= M0 <= M")


def sampled_bounds(spec: KernelSpec, resolution: int = DEFAULT_BOUNDS_RESOLUTION) -> Bounds:
    """Extrema over a uniform (resolution x resolution) sample of [0,1]^2."""
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    s = np.linspace(0.0, 1.0, resolution)
    k = spec.evaluate(s[:, None], s[None, :])
    row0 = spec.evaluate(0.0, s)
    return Bounds(
        m=float(k.min()),
        M=float(k.max()),
        m0=float(row0.min()),
        M0=float(row0.max()),
        resolution=resolution,
        exact=False,
    )


def kernel_bounds(spec: KernelSpec, resolution: int = DEFAULT_BOUNDS_RESOLUTION) -> Bounds:
    """Kernel extrema, exact where the variant allows it.

    Constant and polynomial kernels have corner extrema, and a bilinear
    interpolant takes its extrema at table vertices, so these variants
    report ``exact=True``; exponential kernels fall back to dense grid
    sampling and are flagged approximate so certificate consumers can
    widen margins.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    if isinstance(spec, ConstantKernel):
        c = spec.c
        return Bounds(c, c, c, c, resolution, True)
    if isinstance(spec, PolynomialKernel):
        a = spec.a
        return Bounds(a, a + spec.coeff_sum, a, a, resolution, True)
    if isinstance(spec, TabulatedKernel):
        v, row0 = spec.values, spec.values[0]
        return Bounds(float(v.min()), float(v.max()), float(row0.min()), float(row0.max()), resolution, True)
    return sampled_bounds(spec, resolution)


def _bernstein_max(C: np.ndarray) -> float:
    """Largest Bernstein coefficient of sum C[i,j] t^i u^j on [0,1]^2.

    The Bernstein coefficients enclose the polynomial's range (Garloff
    1986), so this is an upper bound on its maximum; the four corner
    coefficients are the corner values, so the bound is exact for bilinear
    polynomials and whenever the maximum sits at a corner.
    """

    def to_bernstein(degree: int) -> np.ndarray:
        return np.array(
            [[math.comb(j, i) / math.comb(degree, i) for i in range(degree + 1)] for j in range(degree + 1)]
        )

    p, q = C.shape[0] - 1, C.shape[1] - 1
    return float((to_bernstein(p) @ C @ to_bernstein(q).T).max())


def _kernel_envelope(spec: KernelSpec) -> float:
    """Proven upper bound on K over [0,1]^2, for rejection sampling.

    Polynomial kernels take their Bernstein maximum, exponential kernels
    exp(beta * Bernstein maximum of J*xi), tabulated kernels their largest
    table entry (a bilinear interpolant is a convex combination of its
    corners) and constant kernels c.  The result is rounded up by a
    relative 1e-12 so that floating-point evaluation of K never exceeds
    it.  Unlike ``kernel_bounds``, nothing here is sampled.
    """
    if isinstance(spec, ConstantKernel):
        top = spec.c
    elif isinstance(spec, PolynomialKernel):
        top = _bernstein_max(spec.coeff_matrix)
    elif isinstance(spec, ExponentialKernel):
        top = math.exp(spec.beta * _bernstein_max(spec.J * spec.interaction_matrix))
    elif isinstance(spec, TabulatedKernel):
        top = float(spec.values.max())
    else:
        raise TypeError(f"no kernel envelope for {type(spec).__name__}")
    return top * (1.0 + _ENVELOPE_ROUNDING)


@dataclass(frozen=True)
class Certificate:
    """Outcome of the ratio test for uniqueness of the order-k fixed point.

    ``passed`` is the strict test lhs < 1/k with lhs = (M/m)^k - (m/M)^k;
    equivalently M/m < eta_k.  Boundary cases are deliberately FAIL: the
    raw numbers are exposed so callers may apply their own convention.
    """

    k: int
    gamma1: float
    gamma2: float
    lhs: float
    bound: float
    ratio: float
    eta_k: float
    passed: bool


def eta_threshold(k: int) -> float:
    """Critical kernel ratio eta_k = ((1 + sqrt(4k^2+1)) / (2k))^(1/k).

    The ratio test passes iff M/m is below this threshold; eta_k decreases
    to 1 as k grows.
    """
    k = int(k)
    if k < 2:
        raise ValueError("ratio threshold is defined for k >= 2")
    return float(((1.0 + np.sqrt(4.0 * k * k + 1.0)) / (2.0 * k)) ** (1.0 / k))


def uniqueness_certificate(bounds: Bounds, k: int) -> Certificate:
    """Evaluate the uniqueness condition (M/m)^k - (m/M)^k < 1/k.

    k=1 is rejected: the linear case has an unconditionally unique
    normalized solution and needs no certificate.
    """
    k = int(k)
    if k < 2:
        raise ValueError("uniqueness certificate requires k >= 2")
    ratio = bounds.M / bounds.m
    gamma1 = ratio ** (-k)
    gamma2 = ratio ** k
    lhs = gamma2 - gamma1
    bound = 1.0 / k
    return Certificate(
        k=k,
        gamma1=gamma1,
        gamma2=gamma2,
        lhs=lhs,
        bound=bound,
        ratio=ratio,
        eta_k=eta_threshold(k),
        passed=bool(lhs < bound),
    )

