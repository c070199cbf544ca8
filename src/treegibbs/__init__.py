"""Numerical toolkit for translation-invariant Gibbs measures of
[0,1]-valued nearest-neighbor models on regular (Cayley) trees.

The pipeline: describe a positive interaction kernel, discretize the
associated integral operators on a Gauss-Legendre grid, solve the
normalized fixed-point equation, certify uniqueness from kernel extrema,
convert to the Hammerstein eigenproblem, and sample the resulting tree
measure exactly, cross-checked by a finite-volume Monte Carlo oracle.
"""

from .grid import (
    Grid,
    GridFunction,
    make_grid,
    integrate,
    sup_norm,
    interpolate,
    interp_knots,
    shift_gap,
    sample_function,
    gridfunction_csv,
)
from .kernel import (
    KernelSpec,
    ConstantKernel,
    PolynomialKernel,
    ExponentialKernel,
    TabulatedKernel,
    Bounds,
    Certificate,
    kernel_bounds,
    sampled_bounds,
    uniqueness_certificate,
    eta_threshold,
)
from .operators import (
    DiscretizedKernel,
    discretize,
    apply_transfer,
    omega,
    apply_normalized_transfer,
    apply_fixed_point_map,
    apply_hammerstein,
    extend_fixed_point,
)
from .solver import (
    SolveOptions,
    SolveReport,
    Eigenpair,
    ProbeReport,
    fixed_point_envelope,
    hammerstein_envelope,
    solve_fixed_point,
    solve_linear,
    fixed_point_to_eigenpair,
    eigenpair_to_fixed_point,
    rescale_eigenpair,
    solve_hammerstein_fixed_point,
    uniqueness_probe,
    CLUSTERING_TOL,
)
from .gibbs import (
    TreeShape,
    TreeAssignment,
    TreeSample,
    DensityOnGrid,
    Histogram,
    energy,
    fixed_point_residual,
    root_marginal,
    child_transition,
    sample_tree,
    mc_finite_volume_marginal,
    histogram_spins,
    density_bin_probabilities,
    z_scores,
)

__version__ = "0.1.0"
