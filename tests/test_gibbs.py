"""Tree measures: energy, marginals, exact sampling, and the finite-volume
Monte Carlo oracle."""

import numpy as np
import pytest

from treegibbs import (
    ConstantKernel,
    DensityOnGrid,
    ExponentialKernel,
    GridFunction,
    PolynomialKernel,
    TreeAssignment,
    TreeShape,
    child_transition,
    density_bin_probabilities,
    discretize,
    energy,
    fixed_point_residual,
    histogram_spins,
    integrate,
    interpolate,
    make_grid,
    mc_finite_volume_marginal,
    root_marginal,
    sample_tree,
    z_scores,
)
from treegibbs.gibbs import assignments_csv
from treegibbs.solver import solve_fixed_point, solve_linear
from tests.conftest import separable_kernel

POLY_PASS = PolynomialKernel(coeffs=[(1, 1, 0.1)], a=1.0)
XI_TU = [(1, 1, 1.0)]


@pytest.fixture(scope="module")
def poly_solution(grid96):
    dk = discretize(POLY_PASS, grid96)
    return dk, solve_fixed_point(dk, 2).solution


@pytest.fixture(scope="module")
def separable_solution(grid96):
    dk = discretize(separable_kernel(), grid96)
    return dk, solve_linear(dk).solution


class TestTreeShape:
    @pytest.mark.parametrize(
        "k,depth,count",
        [(1, 0, 1), (1, 1, 3), (1, 3, 7), (2, 1, 4), (2, 2, 10), (3, 2, 17)],
    )
    def test_vertex_count(self, k, depth, count):
        shape = TreeShape(k=k, depth=depth)
        assert shape.vertex_count == count
        paths, parents, depths = shape.vertex_table()
        assert len(paths) == count and parents.size == count
        assert depths.max() == (depth if count > 1 else 0)

    def test_root_has_one_extra_successor(self):
        _, parents, _ = TreeShape(k=2, depth=2).vertex_table()
        children_of_root = np.sum(parents == 0)
        assert children_of_root == 3
        children_of_first = np.sum(parents == 1)
        assert children_of_first == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            TreeShape(k=0, depth=1)
        with pytest.raises(ValueError):
            TreeShape(k=2, depth=-1)


class TestEnergy:
    def test_single_active_edge(self):
        # path of three vertices; second edge contributes zero interaction
        spec = ExponentialKernel(J=1.0, beta=1.0, interaction=XI_TU)
        shape = TreeShape(k=1, depth=1)
        a = TreeAssignment(shape, np.array([1.0, 1.0, 0.0]))
        assert energy(a, spec) == pytest.approx(-1.0, abs=1e-15)

    def test_zero_interaction(self):
        spec = ExponentialKernel(J=3.0, beta=1.0, interaction=[(1, 1, 0.0)])
        shape = TreeShape(k=2, depth=1)
        a = TreeAssignment(shape, np.full(4, 0.7))
        assert energy(a, spec) == 0.0

    def test_depth_one_star(self):
        spec = ExponentialKernel(J=2.0, beta=1.0, interaction=XI_TU)
        shape = TreeShape(k=2, depth=1)  # 4 vertices, 3 edges
        a = TreeAssignment(shape, np.ones(4))
        assert energy(a, spec) == pytest.approx(-6.0, abs=1e-14)

    def test_generic_kernel_uses_log(self):
        spec = ConstantKernel(2.0)
        shape = TreeShape(k=2, depth=1)
        a = TreeAssignment(shape, np.full(4, 0.3))
        assert energy(a, spec) == pytest.approx(-3.0 * np.log(2.0), abs=1e-14)

    def test_additive_over_edges(self, rng):
        spec = ExponentialKernel(J=1.3, beta=1.0, interaction=[(1, 1, 1.0), (2, 1, 0.5)])
        shape = TreeShape(k=2, depth=1)
        spins = rng.random(4)
        a = TreeAssignment(shape, spins)
        per_edge = sum(
            -spec.J * spec.interaction_value(spins[0], spins[c]) for c in (1, 2, 3)
        )
        assert energy(a, spec) == pytest.approx(per_edge, abs=1e-13)

    def test_depth_zero_has_no_energy(self):
        spec = ConstantKernel(2.0)
        a = TreeAssignment(TreeShape(k=2, depth=0), np.array([0.5]))
        assert energy(a, spec) == 0.0


class TestRootMarginal:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_constant_kernel_uniform_for_every_order(self, grid96, k):
        dk = discretize(ConstantKernel(2.0), grid96)
        f = solve_fixed_point(dk, k).solution
        rho = root_marginal(f, dk, k)
        assert np.max(np.abs(rho.values - 1.0)) < 1e-13
        assert rho.value_at_zero == pytest.approx(1.0, abs=1e-13)

    def test_order_one_exponent_is_two(self, grid96, separable_solution):
        # k = 1: density proportional to f^2 with f = 1+t
        dk, f = separable_solution
        rho = root_marginal(f, dk, 1)
        want = (1.0 + grid96.nodes) ** 2 * 3.0 / 7.0
        assert np.max(np.abs(rho.values - want)) < 1e-12

    def test_normalized_by_quadrature(self, poly_solution):
        dk, f = poly_solution
        rho = root_marginal(f, dk, 2)
        assert integrate(rho.grid, rho.values) == pytest.approx(1.0, abs=1e-14)

    def test_rejects_non_fixed_point(self, grid96):
        dk = discretize(POLY_PASS, grid96)
        flat = GridFunction(grid96, np.ones(grid96.n), 1.0)
        with pytest.raises(ValueError):
            root_marginal(flat, dk, 2)


class TestChildTransition:
    def test_constant_kernel_uniform_for_any_parent(self, grid96):
        dk = discretize(ConstantKernel(2.0), grid96)
        f = solve_fixed_point(dk, 2).solution
        for t in (0.0, 0.31, 1.0):
            p = child_transition(f, dk, t)
            assert np.max(np.abs(p.values - 1.0)) < 1e-13

    def test_separable_kernel_is_parent_independent(self, grid96, separable_solution):
        # p(u|t) ~ (1+t)(1+u)(1+u) and the (1+t) factor normalizes away
        dk, f = separable_solution
        want = (1.0 + grid96.nodes) ** 2 * 3.0 / 7.0
        for t in (0.1, 0.9):
            p = child_transition(f, dk, t)
            assert np.max(np.abs(p.values - want)) < 1e-12

    def test_normalization_for_random_parents(self, poly_solution, rng):
        dk, f = poly_solution
        for t in rng.random(100):
            p = child_transition(f, dk, float(t))
            assert integrate(p.grid, p.values) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_bad_parent_spin(self, poly_solution):
        dk, f = poly_solution
        with pytest.raises(ValueError):
            child_transition(f, dk, 1.2)


class TestSampler:
    def test_deterministic_per_seed(self, poly_solution):
        dk, f = poly_solution
        shape = TreeShape(k=2, depth=1)
        a = sample_tree(f, dk, shape, 200, seed=5)
        b = sample_tree(f, dk, shape, 200, seed=5)
        c = sample_tree(f, dk, shape, 200, seed=6)
        assert np.array_equal(a.spins, b.spins)
        assert not np.array_equal(a.spins, c.spins)

    def test_constant_kernel_uniform_spins(self, grid96):
        dk = discretize(ConstantKernel(2.0), grid96)
        f = solve_fixed_point(dk, 2).solution
        draws = sample_tree(f, dk, TreeShape(k=2, depth=1), 100_000, seed=12)
        spins = draws.spins
        # all vertices i.i.d. uniform: mean 0.5 within 3 sigma
        for v in range(4):
            assert abs(spins[:, v].mean() - 0.5) < 3.0 * np.sqrt(1.0 / 12.0 / 100_000)

    def test_depth_zero_draws_root_marginal(self, poly_solution):
        dk, f = poly_solution
        draws = sample_tree(f, dk, TreeShape(k=2, depth=0), 50_000, seed=3)
        spins = draws.spins[:, 0]
        hist = histogram_spins(spins)
        probs = density_bin_probabilities(root_marginal(f, dk, 2), hist.edges)
        assert np.max(np.abs(hist.probs - probs) - 3.0 * hist.stderrs) < 0.0

    def test_root_histogram_matches_marginal(self, poly_solution):
        dk, f = poly_solution
        draws = sample_tree(f, dk, TreeShape(k=2, depth=1), 100_000, seed=8)
        hist = histogram_spins(draws.spins[:, 0])
        probs = density_bin_probabilities(root_marginal(f, dk, 2), hist.edges)
        assert np.all(np.abs(hist.probs - probs) <= 3.0 * hist.stderrs)

    def test_child_given_parent_matches_transition(self, grid96):
        # Joint (root, first child) bin masses: the root density times the
        # child_transition bin masses, integrated over the root spin on a
        # quadrature grid whose panels are aligned with the bins.
        dk = discretize(ExponentialKernel(J=1.0, beta=1.0, interaction=XI_TU), grid96)
        f = solve_fixed_point(dk, 2).solution
        n, bins = 100_000, 5
        draws = sample_tree(f, dk, TreeShape(k=2, depth=1), n, seed=13)
        idx = np.minimum((draws.spins[:, :2] * bins).astype(int), bins - 1)
        probs = np.bincount(idx[:, 0] * bins + idx[:, 1], minlength=bins * bins) / n
        rho = root_marginal(f, dk, 2)
        edges = np.linspace(0.0, 1.0, bins + 1)
        quad = make_grid(8, 20)
        expected = np.zeros((bins, bins))
        for t, w in zip(quad.nodes, quad.weights):
            child = density_bin_probabilities(child_transition(f, dk, t), edges)
            expected[int(t * bins)] += w * interpolate(rho, t) * child
        expected = expected.ravel() / expected.sum()
        z = (probs - expected) / np.sqrt(expected * (1.0 - expected) / n)
        assert np.max(np.abs(z)) <= 4.5

    def test_depth_zero_has_no_acceptance_rate(self, poly_solution):
        dk, f = poly_solution
        assert sample_tree(f, dk, TreeShape(k=2, depth=0), 10, seed=1).acceptance_rate is None

    def test_spins_stay_in_unit_interval(self, poly_solution):
        dk, f = poly_solution
        draws = sample_tree(f, dk, TreeShape(k=2, depth=2), 2_000, seed=4)
        spins = draws.spins
        assert spins.min() >= 0.0 and spins.max() <= 1.0


class TestFiniteVolumeOracle:
    def test_constant_kernel_uniform(self, grid96):
        dk = discretize(ConstantKernel(2.0), grid96)
        f = solve_fixed_point(dk, 2).solution
        hist = mc_finite_volume_marginal(f, dk, TreeShape(k=2, depth=1), 50_000, seed=1)
        assert np.all(np.abs(hist.probs - 0.05) <= 3.0 * hist.stderrs)

    def test_matches_analytic_marginal(self, poly_solution):
        dk, f = poly_solution
        hist = mc_finite_volume_marginal(f, dk, TreeShape(k=2, depth=1), 100_000, seed=7)
        probs = density_bin_probabilities(root_marginal(f, dk, 2), hist.edges)
        z = z_scores(hist, probs)
        assert np.max(np.abs(z)) <= 4.0

    def test_depth_one_and_two_agree_and_match_marginal(self, poly_solution):
        dk, f = poly_solution
        h1 = mc_finite_volume_marginal(f, dk, TreeShape(k=2, depth=1), 80_000, seed=21)
        h2 = mc_finite_volume_marginal(f, dk, TreeShape(k=2, depth=2), 80_000, seed=22)
        combined = np.sqrt(h1.stderrs**2 + h2.stderrs**2)
        assert np.all(np.abs(h1.probs - h2.probs) <= 3.0 * combined)
        probs = density_bin_probabilities(root_marginal(f, dk, 2), h2.edges)
        assert np.max(np.abs(z_scores(h2, probs))) <= 4.0

    def test_ess_reported_and_warning_for_tiny_runs(self, poly_solution):
        dk, f = poly_solution
        with pytest.warns(UserWarning):
            hist = mc_finite_volume_marginal(f, dk, TreeShape(k=2, depth=1), 50, seed=2)
        assert hist.ess <= 50.0

    def test_depth_and_order_preconditions(self, poly_solution):
        dk, f = poly_solution
        with pytest.raises(ValueError):
            mc_finite_volume_marginal(f, dk, TreeShape(k=2, depth=0), 100, seed=0)
        with pytest.raises(ValueError):
            mc_finite_volume_marginal(f, dk, TreeShape(k=2, depth=3), 100, seed=0)
        with pytest.raises(ValueError):
            mc_finite_volume_marginal(f, dk, TreeShape(k=4, depth=1), 100, seed=0)


class TestResidualDiagnostic:
    def test_converged_solution_has_tiny_residual(self, poly_solution):
        dk, f = poly_solution
        assert fixed_point_residual(f, dk, 2) <= 1e-12

    def test_constant_kernel_flat_function_is_exact(self, grid96):
        dk = discretize(ConstantKernel(2.0), grid96)
        flat = GridFunction(grid96, np.ones(grid96.n), 1.0)
        assert fixed_point_residual(flat, dk, 2) == 0.0

    def test_perturbation_raises_residual_monotonically(self, poly_solution, grid96):
        dk, f = poly_solution
        residuals = []
        for eps in (0.01, 0.001, 0.0001):
            g = GridFunction(grid96, f.values * (1.0 + eps * grid96.nodes), f.value_at_zero)
            residuals.append(fixed_point_residual(g, dk, 2))
        assert residuals[0] > residuals[1] > residuals[2] > 0.0


class TestHistogramHelpers:
    def test_bin_probabilities_sum_to_one(self, poly_solution):
        dk, f = poly_solution
        rho = root_marginal(f, dk, 2)
        probs = density_bin_probabilities(rho, np.linspace(0.0, 1.0, 21))
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(probs >= 0.0)

    def test_z_scores_zero_when_exact(self):
        hist = histogram_spins(np.array([0.1, 0.3, 0.6, 0.9]), bins=2)
        z = z_scores(hist, hist.probs)
        assert np.all(z == 0.0)

    def test_density_constructor_validates_mass(self, grid96):
        with pytest.raises(ValueError):
            DensityOnGrid(grid96, np.full(grid96.n, 2.0), 2.0, 1.0)

    def test_csv_layout(self, poly_solution):
        dk, f = poly_solution
        draws = sample_tree(f, dk, TreeShape(k=2, depth=1), 3, seed=1)
        lines = assignments_csv(draws).splitlines()
        assert lines[0] == "sample,vertex,spin"
        assert len(lines) == 1 + 3 * 4
        assert lines[1].startswith("0,r,")
        assert lines[2].startswith("0,r.0,")
