"""Quadrature grids, grid functions, interpolation, and the shift-gap bound."""

import math

import numpy as np
import pytest

from treegibbs import (
    GridFunction,
    gridfunction_csv,
    integrate,
    interp_knots,
    interpolate,
    make_grid,
    sample_function,
    shift_gap,
    sup_norm,
)


def riemann_oracle(fn, n=1_000_000):
    """Independent midpoint Riemann sum for smooth integrands."""
    x = (np.arange(n) + 0.5) / n
    return float(np.sum(fn(x)) / n)


class TestMakeGrid:
    def test_single_point_single_panel_is_midpoint(self):
        g = make_grid(1, 1)
        assert g.n == 1
        assert g.nodes[0] == pytest.approx(0.5, abs=1e-15)
        assert g.weights[0] == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("pts,panels", [(1, 1), (4, 3), (12, 8), (12, 16), (3, 5)])
    def test_weights_sum_to_one(self, pts, panels):
        g = make_grid(pts, panels)
        assert abs(g.weights.sum() - 1.0) < 1e-14
        assert math.fsum(g.weights) == 1.0
        assert g.n == pts * panels

    def test_nodes_strictly_increasing_inside_unit_interval(self):
        g = make_grid(12, 8)
        assert g.nodes[0] > 0.0 and g.nodes[-1] < 1.0
        assert np.all(np.diff(g.nodes) > 0.0)

    def test_rejects_zero_sizes(self):
        with pytest.raises(ValueError):
            make_grid(0, 4)
        with pytest.raises(ValueError):
            make_grid(4, 0)


class TestIntegrate:
    def test_constant_one(self, grid96):
        assert integrate(grid96, np.ones(grid96.n)) == pytest.approx(1.0, abs=1e-15)

    def test_linear_exact(self):
        g = make_grid(8, 4)
        assert integrate(g, g.nodes) == pytest.approx(0.5, abs=1e-14)

    def test_quadratic_exact(self):
        g = make_grid(8, 1)
        assert integrate(g, g.nodes**2) == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_gauss_panel_polynomial_exactness(self):
        # an n-point panel is exact through degree 2n-1
        g = make_grid(4, 2)
        for deg in range(2 * 4):
            exact = 1.0 / (deg + 1)
            assert integrate(g, g.nodes**deg) == pytest.approx(exact, abs=1e-14)

    def test_exponential_against_riemann_oracle(self):
        g = make_grid(16, 1)
        oracle = riemann_oracle(np.exp)
        assert abs(oracle - (np.e - 1.0)) < 5e-13  # oracle sanity
        assert integrate(g, np.exp(g.nodes)) == pytest.approx(oracle, abs=1e-12)

    def test_refinement_reduces_error(self):
        # low-order panels so the error is measurable, integrand exp(5u)
        exact = (np.exp(5.0) - 1.0) / 5.0
        errors = []
        for panels in (1, 2, 4, 8):
            g = make_grid(2, panels)
            errors.append(abs(integrate(g, np.exp(5.0 * g.nodes)) - exact))
        assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))

    def test_length_mismatch(self, grid96):
        with pytest.raises(ValueError):
            integrate(grid96, np.ones(grid96.n - 1))


class TestGridFunction:
    def test_length_validation(self, grid96):
        with pytest.raises(ValueError):
            GridFunction(grid96, np.ones(3), 1.0)

    def test_sup_norm_constant(self, grid96):
        f = GridFunction(grid96, np.ones(grid96.n), 1.0)
        assert sup_norm(f) == 1.0

    def test_sup_norm_includes_zero_value(self, grid96):
        f = sample_function(grid96, lambda t: t - 0.5)
        assert sup_norm(f) == pytest.approx(0.5, abs=1e-15)

    def test_sup_norm_matches_bruteforce(self, grid96, rng):
        vals = rng.normal(size=grid96.n)
        v0 = rng.normal()
        f = GridFunction(grid96, vals, v0)
        assert sup_norm(f) == max(np.abs(vals).max(), abs(v0))


class TestInterpolate:
    def test_exact_at_nodes_and_zero(self, grid96, rng):
        f = GridFunction(grid96, rng.uniform(0.5, 2.0, grid96.n), 0.75)
        assert interpolate(f, 0.0) == 0.75
        for i in (0, 17, grid96.n - 1):
            assert interpolate(f, grid96.nodes[i]) == f.values[i]

    def test_reproduces_affine_function(self, grid96):
        f = sample_function(grid96, lambda t: 2.0 * t)
        assert interpolate(f, 0.25) == pytest.approx(0.5, abs=1e-12)

    def test_right_end_constant_extrapolation(self, grid96):
        f = sample_function(grid96, lambda t: 2.0 * t)
        assert interpolate(f, 1.0) == f.values[-1]

    def test_array_argument(self, grid96):
        f = sample_function(grid96, lambda t: t)
        ts = np.array([0.0, 0.25, 0.5, 1.0])
        out = interpolate(f, ts)
        assert out.shape == ts.shape

    def test_domain_error(self, grid96):
        f = sample_function(grid96, lambda t: t)
        with pytest.raises(ValueError):
            interpolate(f, 1.5)
        with pytest.raises(ValueError):
            interpolate(f, -0.1)

    def test_knots_cover_unit_interval(self, grid96):
        f = sample_function(grid96, lambda t: t + 1.0)
        xs, ys = interp_knots(f)
        assert xs[0] == 0.0 and xs[-1] == 1.0
        assert len(xs) == grid96.n + 2 and len(ys) == len(xs)


class TestShiftGap:
    def test_zero_shift(self, grid96):
        f = sample_function(grid96, lambda t: t - 0.5)
        assert shift_gap(f, 0.0) == pytest.approx(0.5, abs=1e-15)
        assert shift_gap(f, 0.0) >= 0.5 * sup_norm(f)

    def test_large_shift_dominates(self, grid96):
        f = sample_function(grid96, lambda t: t - 0.5)
        assert shift_gap(f, 10.0) == pytest.approx(10.5, abs=1e-12)
        assert shift_gap(f, 10.0) >= 0.25

    def test_requires_sign_change(self, grid96):
        f = sample_function(grid96, lambda t: t + 1.0)
        with pytest.raises(ValueError):
            shift_gap(f, 0.0)

    def test_randomized_half_sup_bound(self, grid96):
        # sign-changing piecewise-linear functions vs arbitrary shifts
        rng = np.random.default_rng(7)
        for _ in range(1000):
            vals = rng.normal(size=grid96.n)
            vals -= vals.mean()  # guarantees both signs
            f = GridFunction(grid96, vals, rng.normal())
            samples = f.all_samples
            if not (samples.min() < 0.0 < samples.max()):
                continue
            a = rng.uniform(-5.0, 5.0)
            assert shift_gap(f, a) >= 0.5 * sup_norm(f)


class TestCsv:
    def test_header_and_zero_row_first(self, grid96):
        f = sample_function(grid96, lambda t: t + 1.0)
        lines = gridfunction_csv(f).splitlines()
        assert lines[0] == "t,f"
        assert lines[1].startswith("0,1")
        assert len(lines) == grid96.n + 2
