"""Kernel variants, extrema, and the ratio uniqueness certificate."""

import numpy as np
import pytest

from treegibbs import (
    Bounds,
    ConstantKernel,
    ExponentialKernel,
    PolynomialKernel,
    TabulatedKernel,
    eta_threshold,
    kernel_bounds,
    sampled_bounds,
    uniqueness_certificate,
)
from treegibbs.kernel import _kernel_envelope
from tests.conftest import separable_kernel


def eta_by_bisection(k: int, tol: float = 1e-12) -> float:
    """Independent threshold oracle: solve x^k - x^(-k) = 1/k on [1, 2]."""
    lo, hi = 1.0, 2.0
    target = 1.0 / k
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid**k - mid ** (-k) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestEvaluate:
    def test_constant(self):
        assert ConstantKernel(2.0).evaluate(0.3, 0.7) == 2.0

    def test_polynomial_direct_substitution(self):
        spec = PolynomialKernel(coeffs=[(1, 1, 1.0)], a=1.0)
        assert spec.evaluate(1.0, 1.0) == pytest.approx(2.0, abs=1e-15)

    def test_exponential_vanishing_interaction_at_zero(self):
        spec = ExponentialKernel(J=1.0, beta=1.0, interaction=[(1, 1, 1.0)])
        assert spec.evaluate(0.0, 0.9) == pytest.approx(1.0, abs=1e-15)

    def test_exponential_matches_formula(self):
        spec = ExponentialKernel(J=2.0, beta=0.5, interaction=[(1, 1, 1.0)])
        t, u = 0.3, 0.8
        assert spec.evaluate(t, u) == pytest.approx(np.exp(1.0 * t * u), rel=1e-15)

    def test_tabulated_bilinear_reproduction(self):
        spec = separable_kernel()
        t = np.linspace(0.0, 1.0, 57)
        got = spec.evaluate(t[:, None], t[None, :])
        want = (1.0 + t[:, None]) * (1.0 + t[None, :])
        assert np.max(np.abs(got - want)) < 1e-14

    def test_domain_errors(self):
        spec = ConstantKernel(1.0)
        with pytest.raises(ValueError):
            spec.evaluate(1.2, 0.5)
        with pytest.raises(ValueError):
            spec.evaluate(0.5, -0.1)

    @pytest.mark.parametrize(
        "spec",
        [
            ConstantKernel(3.0),
            PolynomialKernel(coeffs=[(1, 1, 0.5), (2, 3, 1.5)], a=0.2),
            ExponentialKernel(J=-2.0, beta=1.0, interaction=[(1, 1, 1.0), (2, 2, -0.5)]),
            separable_kernel(),
        ],
    )
    def test_strict_positivity_on_dense_sample(self, spec):
        s = np.linspace(0.0, 1.0, 101)
        assert np.all(spec.evaluate(s[:, None], s[None, :]) > 0.0)


class TestConstruction:
    def test_constant_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ConstantKernel(0.0)

    def test_polynomial_rejects_negative_coefficient(self):
        with pytest.raises(ValueError):
            PolynomialKernel(coeffs=[(1, 1, -0.1)], a=1.0)

    def test_polynomial_rejects_zero_offset(self):
        with pytest.raises(ValueError):
            PolynomialKernel(coeffs=[(1, 1, 0.1)], a=0.0)

    def test_polynomial_rejects_low_degree_indices(self):
        with pytest.raises(ValueError):
            PolynomialKernel(coeffs=[(0, 1, 0.1)], a=1.0)

    def test_exponential_rejects_zero_coupling(self):
        with pytest.raises(ValueError):
            ExponentialKernel(J=0.0, beta=1.0, interaction=[(1, 1, 1.0)])

    def test_exponential_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            ExponentialKernel(J=1.0, beta=0.0, interaction=[(1, 1, 1.0)])

    def test_tabulated_rejects_nonpositive_entry(self):
        vals = np.ones((3, 3))
        vals[1, 2] = 0.0
        with pytest.raises(ValueError):
            TabulatedKernel(vals)

    def test_tabulated_rejects_tiny_table(self):
        with pytest.raises(ValueError):
            TabulatedKernel(np.ones((1, 3)))


class TestBounds:
    def test_constant(self):
        b = kernel_bounds(ConstantKernel(3.0))
        assert (b.m, b.M, b.m0, b.M0) == (3.0, 3.0, 3.0, 3.0)
        assert b.exact

    def test_polynomial_exact_corners(self):
        b = kernel_bounds(PolynomialKernel(coeffs=[(1, 1, 0.1)], a=1.0))
        assert b.exact
        assert b.m == 1.0 and b.M == pytest.approx(1.1, abs=1e-15)
        assert b.m0 == 1.0 and b.M0 == 1.0  # the t=0 row is the constant a

    def test_exponential_grid_extrema(self):
        spec = ExponentialKernel(J=1.0, beta=1.0, interaction=[(1, 1, 1.0)])
        b = kernel_bounds(spec, resolution=1001)
        # t*u is monotone, so the sampled extrema are the exact corner values
        assert not b.exact
        assert b.m == pytest.approx(1.0, abs=1e-15)
        assert b.M == pytest.approx(np.e, abs=1e-15)
        assert b.m0 == pytest.approx(1.0, abs=1e-15)
        assert b.M0 == pytest.approx(1.0, abs=1e-15)

    def test_polynomial_exact_vs_sampled(self):
        spec = PolynomialKernel(coeffs=[(1, 1, 0.3), (2, 2, 0.2)], a=0.7)
        exact = kernel_bounds(spec)
        sampled = sampled_bounds(spec, resolution=401)
        # sampling can only shrink the range
        assert exact.m <= sampled.m <= sampled.M <= exact.M
        assert sampled.m - exact.m < 1e-4 and exact.M - sampled.M < 1e-4

    @pytest.mark.parametrize("seed", range(8))
    def test_ordering_invariant(self, seed):
        rng = np.random.default_rng(seed)
        triples = [
            (int(i), int(j), float(c))
            for i, j, c in zip(rng.integers(0, 3, 4), rng.integers(0, 3, 4), rng.normal(0, 0.8, 4))
        ]
        spec = ExponentialKernel(J=1.0, beta=1.0, interaction=triples)
        b = sampled_bounds(spec, resolution=201)
        assert 0.0 < b.m <= b.m0 <= b.M0 <= b.M

    def test_refining_resolution_never_loosens(self):
        spec = ExponentialKernel(J=1.5, beta=1.0, interaction=[(1, 1, 1.0), (2, 1, -0.4)])
        # nested uniform grids: each resolution 2r-1 contains the previous points
        chain = [sampled_bounds(spec, r) for r in (251, 501, 1001, 2001)]
        for coarse, fine in zip(chain, chain[1:]):
            assert fine.m <= coarse.m
            assert fine.M >= coarse.M

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            kernel_bounds(ConstantKernel(1.0), resolution=1)

    def test_bounds_invariant_enforced(self):
        with pytest.raises(ValueError):
            Bounds(m=2.0, M=1.0, m0=1.0, M0=1.0, resolution=2, exact=True)


def random_kernel(variant: str, rng):
    if variant == "constant":
        return ConstantKernel(rng.uniform(0.1, 5.0))
    if variant == "polynomial":
        triples = zip(rng.integers(1, 4, 4), rng.integers(1, 4, 4), rng.uniform(0.0, 1.0, 4))
        return PolynomialKernel(coeffs=list(triples), a=rng.uniform(0.5, 2.0))
    if variant == "exponential":
        triples = zip(rng.integers(0, 4, 5), rng.integers(0, 4, 5), rng.normal(0.0, 1.0, 5))
        return ExponentialKernel(J=rng.choice([-1.0, 1.0]), beta=rng.uniform(0.2, 2.0), interaction=list(triples))
    return TabulatedKernel(rng.uniform(0.5, 3.0, rng.integers(2, 10, 2)))


class TestEnvelope:
    """The rejection sampler's envelope: a proven upper bound on K."""

    @staticmethod
    def assert_tight(envelope, exact):
        assert exact <= envelope
        assert (envelope - exact) / exact <= 1e-12 + 1e-15

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("variant", ["constant", "polynomial", "exponential", "tabulated"])
    def test_covers_lattice_maximum(self, variant, seed):
        spec = random_kernel(variant, np.random.default_rng([seed, len(variant)]))
        assert _kernel_envelope(spec) >= sampled_bounds(spec, resolution=1001).M

    def test_polynomial_is_exact(self):
        spec = PolynomialKernel(coeffs=[(1, 1, 0.3), (2, 1, 0.2), (3, 3, 0.05)], a=0.7)
        self.assert_tight(_kernel_envelope(spec), 0.7 + spec.coeff_sum)

    def test_tabulated_is_exact(self):
        values = np.random.default_rng(5).uniform(0.5, 3.0, (6, 9))
        self.assert_tight(_kernel_envelope(TabulatedKernel(values)), values.max())

    @pytest.mark.parametrize("J", [1.0, -1.0])
    @pytest.mark.parametrize(
        "xi", [[(1, 1, 1.0)], [(1, 0, 1.0), (0, 1, 1.0), (1, 1, -2.0)], [(0, 0, 0.3), (1, 0, -0.8), (1, 1, 0.5)]]
    )
    def test_bilinear_exponential_is_exact_at_corners(self, J, xi):
        spec = ExponentialKernel(J=J, beta=1.7, interaction=xi)
        corners = spec.evaluate(np.array([0.0, 0.0, 1.0, 1.0]), np.array([0.0, 1.0, 0.0, 1.0]))
        self.assert_tight(_kernel_envelope(spec), corners.max())

    def test_roadmap_table_is_not_undersampled(self):
        values = np.ones((7, 7))
        values[1, 1] = 1.132
        spec = TabulatedKernel(values)
        self.assert_tight(_kernel_envelope(spec), 1.132)
        assert kernel_bounds(spec).M == 1.132


class TestEtaThreshold:
    def test_k2_closed_form_vs_bisection(self):
        assert eta_threshold(2) == pytest.approx(eta_by_bisection(2), abs=1e-9)
        assert eta_threshold(2) == pytest.approx(1.131713, abs=1e-6)

    def test_k3_closed_form_vs_bisection(self):
        assert eta_threshold(3) == pytest.approx(eta_by_bisection(3), abs=1e-9)
        assert eta_threshold(3) == pytest.approx(1.056860, abs=1e-6)

    def test_large_k_approaches_one_from_above(self):
        v100 = eta_threshold(100)
        assert 1.0 < v100 < 1.01
        assert v100 == pytest.approx(eta_by_bisection(100), abs=1e-9)

    def test_monotone_decreasing_in_k(self):
        values = [eta_threshold(k) for k in range(2, 30)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_k1(self):
        with pytest.raises(ValueError):
            eta_threshold(1)


class TestCertificate:
    def test_equal_bounds_pass(self):
        b = Bounds(2.0, 2.0, 2.0, 2.0, 2, True)
        cert = uniqueness_certificate(b, 5)
        assert cert.lhs == 0.0 and cert.bound == 0.2 and cert.passed

    def test_ratio_one_point_one_passes_for_k2(self):
        cert = uniqueness_certificate(Bounds(1.0, 1.1, 1.0, 1.1, 2, True), 2)
        lhs = 1.1**2 - (1.0 / 1.1) ** 2
        assert cert.lhs == pytest.approx(lhs, abs=1e-15)
        assert cert.lhs == pytest.approx(0.383554, abs=1e-6)
        assert cert.passed

    def test_ratio_one_point_two_fails_for_k2(self):
        cert = uniqueness_certificate(Bounds(1.0, 1.2, 1.0, 1.2, 2, True), 2)
        assert cert.lhs == pytest.approx(1.2**2 - (1.0 / 1.2) ** 2, abs=1e-15)
        assert cert.lhs == pytest.approx(0.745556, abs=1e-6)
        assert not cert.passed

    def test_rejects_k1(self):
        with pytest.raises(ValueError):
            uniqueness_certificate(Bounds(1.0, 1.1, 1.0, 1.1, 2, True), 1)

    def test_random_triples_match_bisection_threshold(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            k = int(rng.integers(2, 11))
            m = float(rng.uniform(0.5, 2.0))
            ratio = float(np.exp(rng.uniform(0.0, np.log(1.5))))
            M = m * ratio
            cert = uniqueness_certificate(Bounds(m, M, m, M, 2, True), k)
            assert cert.passed == (ratio < eta_by_bisection(k))
            assert cert.ratio == pytest.approx(ratio, rel=1e-12)


class TestPolynomialFamilyVerdict:
    """The certificate on the polynomial family, whose bounds are exact:
    m = a and M = a + sum(c_ij)."""

    @staticmethod
    def passes(spec, k):
        return uniqueness_certificate(kernel_bounds(spec), k).passed

    def test_small_sum_passes(self):
        spec = PolynomialKernel(coeffs=[(1, 1, 0.1)], a=1.0)
        assert self.passes(spec, 2)
        assert 0.1 <= eta_by_bisection(2) - 1.0

    def test_large_sum_fails(self):
        spec = PolynomialKernel(coeffs=[(1, 1, 0.2)], a=1.0)
        assert not self.passes(spec, 2)
        assert 0.2 > eta_by_bisection(2) - 1.0

    def test_zero_sum_passes_for_all_k(self):
        spec = PolynomialKernel(coeffs=[], a=1.5)
        assert all(self.passes(spec, k) for k in range(2, 12))
