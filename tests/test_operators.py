"""Discretized transfer, normalized, fixed-point, and Hammerstein operators."""

import mpmath
import numpy as np
import pytest

from treegibbs import (
    ConstantKernel,
    ExponentialKernel,
    GridFunction,
    PolynomialKernel,
    apply_fixed_point_map,
    apply_hammerstein,
    apply_normalized_transfer,
    apply_transfer,
    discretize,
    extend_fixed_point,
    fixed_point_envelope,
    fixed_point_residual,
    kernel_bounds,
    make_grid,
    omega,
    sample_function,
)

EXP_TU = ExponentialKernel(J=1.0, beta=1.0, interaction=[(1, 1, 1.0)])


def ones(grid):
    return GridFunction(grid, np.ones(grid.n), 1.0)


def exp_moment2_oracle(t: float) -> float:
    """int_0^1 u^2 exp(t*u) du via the integration-by-parts closed form,
    evaluated in 50-digit arithmetic to dodge the small-t cancellation."""
    with mpmath.workdps(50):
        t = mpmath.mpf(t)
        if t == 0:
            return float(mpmath.mpf(1) / 3)
        value = mpmath.e**t * (1 / t - 2 / t**2 + 2 / t**3) - 2 / t**3
        return float(value)


class TestDiscretize:
    def test_constant_entries(self, grid96):
        dk = discretize(ConstantKernel(2.5), grid96)
        assert np.all(dk.matrix == 2.5)
        assert np.all(dk.row_at_zero == 2.5)

    def test_matrix_and_row_are_views_of_one_table(self, grid96):
        dk = discretize(EXP_TU, grid96)
        assert dk.table.shape == (grid96.n + 1, grid96.n)
        assert np.shares_memory(dk.matrix, dk.table)
        assert np.shares_memory(dk.row_at_zero, dk.table)

    def test_symmetric_interaction_gives_symmetric_matrix(self, grid96):
        dk = discretize(EXP_TU, grid96)
        assert np.max(np.abs(dk.matrix - dk.matrix.T)) < 1e-14

    def test_entries_match_pointwise_formula(self, grid96):
        dk = discretize(EXP_TU, grid96)
        t = grid96.nodes
        assert np.array_equal(dk.matrix, np.exp(t[:, None] * t[None, :]))
        assert np.array_equal(dk.row_at_zero, np.ones(grid96.n))


class TestTransfer:
    def test_constant_kernel_on_ones(self, grid96):
        dk = discretize(ConstantKernel(2.0), grid96)
        out = apply_transfer(dk, ones(grid96))
        assert np.max(np.abs(out.values - 2.0)) < 1e-14
        assert out.value_at_zero == pytest.approx(2.0, abs=1e-14)

    def test_zero_function_maps_to_zero(self, grid96):
        dk = discretize(EXP_TU, grid96)
        out = apply_transfer(dk, GridFunction(grid96, np.zeros(grid96.n), 0.0))
        assert np.all(out.values == 0.0) and out.value_at_zero == 0.0

    def test_exponential_closed_form(self, grid96):
        # int_0^1 exp(t*u) du = expm1(t)/t, limit 1 at t=0
        dk = discretize(EXP_TU, grid96)
        out = apply_transfer(dk, ones(grid96))
        want = np.expm1(grid96.nodes) / grid96.nodes
        assert np.max(np.abs(out.values - want)) < 1e-13
        assert out.value_at_zero == pytest.approx(1.0, abs=1e-14)

    def test_grid_mismatch(self, grid96):
        dk = discretize(EXP_TU, grid96)
        other = make_grid(12, 4)
        with pytest.raises(ValueError):
            apply_transfer(dk, ones(other))


class TestSharedReduction:
    """omega(f) and the node values of Wf come from one reduction, so a
    constant kernel maps the flat function to exactly equal samples."""

    @pytest.mark.parametrize("pts,panels", [(16, 64), (4, 24), (8, 12)])
    def test_constant_kernel_flat_function_is_exact(self, pts, panels):
        grid = make_grid(pts, panels)
        dk = discretize(ConstantKernel(2.0), grid)
        flat = ones(grid)
        assert fixed_point_residual(flat, dk, 2) == 0.0
        out = apply_transfer(dk, flat).all_samples
        assert np.all(out == out[0])


class TestOmega:
    def test_constant(self, grid96):
        dk = discretize(ConstantKernel(3.0), grid96)
        assert omega(dk, ones(grid96)) == pytest.approx(3.0, abs=1e-14)

    def test_polynomial_zero_row_is_offset(self, grid96):
        dk = discretize(PolynomialKernel(coeffs=[(1, 1, 1.0)], a=1.0), grid96)
        assert omega(dk, ones(grid96)) == pytest.approx(1.0, abs=1e-14)

    def test_consistent_with_transfer_at_zero(self, grid96, rng):
        dk = discretize(EXP_TU, grid96)
        f = GridFunction(grid96, rng.uniform(0.1, 2.0, grid96.n), 1.0)
        assert omega(dk, f) == apply_transfer(dk, f).value_at_zero

    def test_rejects_negative_function(self, grid96):
        dk = discretize(EXP_TU, grid96)
        with pytest.raises(ValueError):
            omega(dk, sample_function(grid96, lambda t: t - 0.5))

    def test_rejects_zero_function(self, grid96):
        dk = discretize(EXP_TU, grid96)
        with pytest.raises(ValueError):
            omega(dk, GridFunction(grid96, np.zeros(grid96.n), 0.0))


class TestNormalizedTransfer:
    def test_value_at_zero_is_exactly_one(self, grid96, rng):
        dk = discretize(EXP_TU, grid96)
        f = GridFunction(grid96, rng.uniform(0.5, 1.5, grid96.n), 1.0)
        assert apply_normalized_transfer(dk, f).value_at_zero == 1.0

    def test_constant_kernel_flattens_everything(self, grid96, rng):
        dk = discretize(ConstantKernel(4.0), grid96)
        f = GridFunction(grid96, rng.uniform(0.5, 1.5, grid96.n), 1.0)
        out = apply_normalized_transfer(dk, f)
        assert np.max(np.abs(out.values - 1.0)) < 1e-14

    def test_scale_invariance(self, grid96, rng):
        dk = discretize(EXP_TU, grid96)
        f = GridFunction(grid96, rng.uniform(0.5, 1.5, grid96.n), 1.0)
        g = GridFunction(grid96, 7.0 * f.values, 7.0)
        a = apply_normalized_transfer(dk, f)
        b = apply_normalized_transfer(dk, g)
        assert np.max(np.abs(a.values - b.values)) < 1e-14


class TestFixedPointMap:
    def test_constant_kernel(self, grid96, rng):
        dk = discretize(ConstantKernel(2.0), grid96)
        f = GridFunction(grid96, rng.uniform(0.5, 1.5, grid96.n), 1.0)
        for k in (1, 2, 5):
            out = apply_fixed_point_map(dk, f, k)
            assert np.max(np.abs(out.values - 1.0)) < 1e-14
            assert out.value_at_zero == 1.0

    def test_degree_zero_homogeneity(self, grid96, rng):
        dk = discretize(EXP_TU, grid96)
        f = GridFunction(grid96, rng.uniform(0.5, 1.5, grid96.n), 1.0)
        gamma = 3.0
        scaled = GridFunction(grid96, gamma**2 * f.values, gamma**2)
        a = apply_fixed_point_map(dk, f, 2)
        b = apply_fixed_point_map(dk, scaled, 2)
        assert np.max(np.abs(a.values - b.values)) < 1e-13

    def test_exponential_closed_form_k2(self, grid96):
        dk = discretize(EXP_TU, grid96)
        out = apply_fixed_point_map(dk, ones(grid96), 2)
        want = (np.expm1(grid96.nodes) / grid96.nodes) ** 2
        assert np.max(np.abs(out.values - want)) < 1e-12

    def test_output_within_envelope(self, grid96, rng):
        specs = [
            PolynomialKernel(coeffs=[(1, 1, 0.4)], a=1.0),
            ConstantKernel(2.0),
            EXP_TU,
        ]
        for spec in specs:
            dk = discretize(spec, grid96)
            lo, hi = fixed_point_envelope(kernel_bounds(spec), 2)
            for _ in range(20):
                f = GridFunction(grid96, rng.uniform(0.2, 3.0, grid96.n), 1.0)
                out = apply_fixed_point_map(dk, f, 2)
                assert np.all(out.all_samples >= lo - 1e-9)
                assert np.all(out.all_samples <= hi + 1e-9)

    def test_positivity_preserved(self, grid96, rng):
        dk = discretize(EXP_TU, grid96)
        f = GridFunction(grid96, rng.uniform(0.01, 5.0, grid96.n), 1.0)
        for op in (apply_transfer, apply_normalized_transfer):
            out = op(dk, f)
            assert np.all(out.all_samples > 0.0)
        assert np.all(apply_fixed_point_map(dk, f, 3).all_samples > 0.0)
        assert np.all(apply_hammerstein(dk, f, 3).all_samples > 0.0)

    def test_rejects_k_zero(self, grid96):
        dk = discretize(EXP_TU, grid96)
        with pytest.raises(ValueError):
            apply_fixed_point_map(dk, ones(grid96), 0)


class TestHammerstein:
    def test_constant_kernel_on_ones(self, grid96):
        dk = discretize(ConstantKernel(2.0), grid96)
        for k in (1, 2, 4):
            out = apply_hammerstein(dk, ones(grid96), k)
            assert np.max(np.abs(out.all_samples - 2.0)) < 1e-14

    def test_order_one_equals_transfer(self, grid96, rng):
        dk = discretize(EXP_TU, grid96)
        f = GridFunction(grid96, rng.uniform(0.1, 2.0, grid96.n), 0.7)
        a = apply_hammerstein(dk, f, 1)
        b = apply_transfer(dk, f)
        assert np.array_equal(a.values, b.values)
        assert a.value_at_zero == b.value_at_zero

    def test_second_moment_closed_form(self, grid96):
        # f(u) = u, k = 2: (H f)(t) = int exp(t*u) u^2 du
        dk = discretize(EXP_TU, grid96)
        f = sample_function(grid96, lambda t: t)
        out = apply_hammerstein(dk, f, 2)
        want = np.array([exp_moment2_oracle(t) for t in grid96.nodes])
        assert np.max(np.abs(out.values - want)) < 1e-13
        assert out.value_at_zero == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_range_cone_property(self, grid96, rng):
        # outputs h satisfy M * min(h) >= m * max(h)
        for spec in (PolynomialKernel(coeffs=[(1, 1, 0.7)], a=0.5), ConstantKernel(1.5)):
            dk = discretize(spec, grid96)
            b = kernel_bounds(spec)
            for _ in range(100):
                f = GridFunction(grid96, rng.uniform(0.0, 3.0, grid96.n), rng.uniform(0.0, 3.0))
                h = apply_hammerstein(dk, f, 2)
                assert b.M * h.all_samples.min() >= b.m * h.all_samples.max() - 1e-12

    def test_rejects_negative_function(self, grid96):
        dk = discretize(EXP_TU, grid96)
        with pytest.raises(ValueError):
            apply_hammerstein(dk, sample_function(grid96, lambda t: t - 0.5), 2)


class TestNystromConsistency:
    def test_refinement_shrinks_changes(self):
        # low-order panels make the quadrature error visible; the change
        # between consecutive refinements must shrink
        spec = ExponentialKernel(J=1.0, beta=1.0, interaction=[(1, 1, 3.0)])
        probes = np.linspace(0.0, 1.0, 33)
        outputs = []
        for panels in (2, 4, 8, 16):
            g = make_grid(2, panels)
            dk = discretize(spec, g)
            f = GridFunction(g, np.ones(g.n), 1.0)
            outputs.append(extend_fixed_point(dk, f, 2, probes))
        changes = [np.max(np.abs(a - b)) for a, b in zip(outputs, outputs[1:])]
        assert changes[1] < changes[0] and changes[2] < changes[1]

    def test_extension_matches_map_at_nodes(self, grid96):
        dk = discretize(EXP_TU, grid96)
        f = GridFunction(grid96, np.ones(grid96.n), 1.0)
        ext = extend_fixed_point(dk, f, 2, grid96.nodes)
        direct = apply_fixed_point_map(dk, f, 2)
        assert np.max(np.abs(ext - direct.values)) < 1e-14
