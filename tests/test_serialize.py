"""Artifact serialization: every CSV float is exactly format(x, ".17g")."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treegibbs import (
    GridFunction,
    PolynomialKernel,
    TreeSample,
    TreeShape,
    discretize,
    gridfunction_csv,
    sample_tree,
    solve_fixed_point,
)
from treegibbs.gibbs import _CSV_CHUNK_ROWS, assignments_csv
from treegibbs.serialize import csv_rows, fmt_float, fmt_float_column


def column_text(x) -> list[str]:
    return csv_rows(fmt_float_column(x)).decode("ascii").splitlines()


def reference_column(x) -> list[str]:
    return [format(v, ".17g") for v in np.asarray(x, dtype=float).ravel().tolist()]


def reference_assignments_csv(sample: TreeSample) -> str:
    """One Python format call per spin: the writer before vectorisation."""
    paths, _, _ = sample.shape.vertex_table()
    lines = ["sample,vertex,spin"]
    for s, row in enumerate(sample.spins.tolist()):
        lines.extend(f"{s},{p},{fmt_float(spin)}" for p, spin in zip(paths, row))
    return "\n".join(lines) + "\n"


finite = st.floats(allow_nan=False, allow_infinity=False)
fast_range = st.floats(min_value=1e-4, max_value=1.0, exclude_max=True)


class TestFloatColumn:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(finite, min_size=1, max_size=40))
    def test_any_finite_double(self, xs):
        assert column_text(np.array(xs)) == reference_column(xs)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(fast_range, min_size=1, max_size=40))
    def test_doubles_in_the_fixed_point_range(self, xs):
        assert column_text(np.array(xs)) == reference_column(xs)

    @pytest.mark.parametrize("decade", [1, 2, 3, 4])
    def test_round_half_ties(self, decade):
        # In [10**-decade, 10**(1 - decade)) the 17 digits are those of
        # x * 10**s, s = 16 + decade.  For x = m / 2**(s + 1) with m odd that
        # is m * 5**s / 2, which ends in .5: every such x is a rounding tie.
        j = 17 + decade
        m = np.arange(int(np.ceil(10.0**-decade * 2**j)) | 1, 2**j // 10 ** (decade - 1), 2)
        x = m / 2.0**j
        assert column_text(x) == reference_column(x)

    def test_dyadic_rationals(self):
        rng = np.random.default_rng(7)
        x = rng.integers(1, 2**53, 50_000) / 2.0 ** rng.integers(1, 64, 50_000)
        assert column_text(x) == reference_column(x)

    @pytest.mark.parametrize(
        "x, text",
        [
            (1e-4, "0.0001"),
            (np.nextafter(1e-4, 0.0), "9.9999999999999991e-05"),
            (np.nextafter(1.0, 0.0), "0.99999999999999989"),
            (1.0, "1"),
            (0.0, "0"),
            (-0.0, "-0"),
            (5e-324, "4.9406564584124654e-324"),
            (0.1, "0.10000000000000001"),
            (0.5, "0.5"),
        ],
    )
    def test_fixed_cases(self, x, text):
        assert column_text([x]) == [text] == [format(x, ".17g")]

    @pytest.mark.parametrize("power", [1e-1, 1e-2, 1e-3, 1e-4, 1.0])
    def test_decade_edges(self, power):
        x = np.array([power, np.nextafter(power, 0.0), np.nextafter(power, 2.0)])
        assert column_text(x) == reference_column(x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises(self, bad):
        with pytest.raises(ValueError):
            fmt_float_column(np.array([0.5, bad, 0.25]))

    def test_matrix_is_read_row_major(self):
        x = np.array([[0.5, 2.0], [1e-5, 0.25]])
        assert column_text(x) == ["0.5", "2", "1.0000000000000001e-05", "0.25"]


class TestCsvWriters:
    @pytest.fixture(scope="class")
    def deep_sample(self, grid96):
        dk = discretize(PolynomialKernel(coeffs=[(1, 1, 0.1), (2, 2, 0.05)], a=1.0), grid96)
        f = solve_fixed_point(dk, 2).solution
        return sample_tree(f, dk, TreeShape(k=2, depth=4), 2000, seed=3)

    def test_sampled_tree_matches_reference_writer(self, deep_sample):
        assert deep_sample.spins.size > 4 * _CSV_CHUNK_ROWS
        assert assignments_csv(deep_sample) == reference_assignments_csv(deep_sample)

    def test_every_fallback_matches_reference_writer(self):
        spins = np.array([
            [0.0, -0.0, 1.0, 5e-324],
            [9.9999999999999991e-05, 1e-300, 1.5, 123456.789],
            [-0.25, 1e300, np.nextafter(1.0, 0.0), 1e-4],
        ])
        sample = TreeSample(TreeShape(k=2, depth=1), spins, None)
        assert assignments_csv(sample) == reference_assignments_csv(sample)

    def test_gridfunction_matches_reference_writer(self, grid96):
        rng = np.random.default_rng(11)
        values = rng.choice([1e-6, 0.3, 2.0, 7e5], grid96.n) * rng.random(grid96.n)
        f = GridFunction(grid96, values, 1.0)
        rows = [f"{fmt_float(t)},{fmt_float(v)}" for t, v in zip(f.grid.points, f.samples)]
        assert gridfunction_csv(f, names=("t", "h")) == "\n".join(["t,h", *rows]) + "\n"
