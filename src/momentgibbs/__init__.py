"""Vector-valued Gibbs ensembles over finite state sets.

Finite state sets with vector energies, numerically stable partition
functions, the mean-energy map and its inversion by constrained entropy
maximization, convex-duality diagnostics, hull geometry with
low-temperature (tropical) limits, projective moment maps, and seeded
microstate sampling.
"""

from .duality import (
    QuadraticForm,
    legendre_residual,
    legendre_roundtrip,
    quadratic_direct_image,
)
from .errors import (
    AllZeroWeights,
    BadSplit,
    DimensionMismatch,
    DuplicatePoint,
    EmptyStateSet,
    InvalidTotal,
    LengthMismatch,
    NoConvergence,
    NotNegativeDefinite,
    OffAffineSpan,
    TargetOnBoundary,
    TargetOutsideHull,
    UnsupportedDimension,
    ZeroDirection,
)
from .gibbs import (
    Distribution,
    GibbsSummary,
    energy_covariance,
    entropy,
    gibbs_distribution,
    gibbs_summary,
    log_partition,
    mean_energy,
    mean_observable,
)
from .microstates import (
    GENERATOR_NAME,
    MicrostateCounts,
    empirical_distribution,
    log_equilibrium_count,
    log_multinomial_measure,
    sample_counts,
)
from .moment_solver import (
    SolveOptions,
    SolveReport,
    entropy_of_mean,
    invert_mean_energy,
    solve_gradient,
)
from .polytope import (
    FaceResult,
    Polytope,
    convex_hull,
    interior_margin,
    min_face,
    tropical_limit,
)
from .state_space import (
    CoVector,
    Observable,
    StateSet,
    affine_dim,
    new_state_set,
    state_set_from_json,
    state_set_to_json,
)
from .toric import WeightVector, moment_of_beta, positive_point, projective_moment

__version__ = "0.1.0"

__all__ = [
    "AllZeroWeights",
    "BadSplit",
    "CoVector",
    "DimensionMismatch",
    "Distribution",
    "DuplicatePoint",
    "EmptyStateSet",
    "FaceResult",
    "GENERATOR_NAME",
    "GibbsSummary",
    "InvalidTotal",
    "LengthMismatch",
    "MicrostateCounts",
    "NoConvergence",
    "NotNegativeDefinite",
    "Observable",
    "OffAffineSpan",
    "Polytope",
    "QuadraticForm",
    "SolveOptions",
    "SolveReport",
    "StateSet",
    "TargetOnBoundary",
    "TargetOutsideHull",
    "UnsupportedDimension",
    "WeightVector",
    "ZeroDirection",
    "affine_dim",
    "convex_hull",
    "empirical_distribution",
    "energy_covariance",
    "entropy",
    "entropy_of_mean",
    "gibbs_distribution",
    "gibbs_summary",
    "interior_margin",
    "invert_mean_energy",
    "legendre_residual",
    "legendre_roundtrip",
    "log_equilibrium_count",
    "log_multinomial_measure",
    "log_partition",
    "mean_energy",
    "mean_observable",
    "min_face",
    "moment_of_beta",
    "new_state_set",
    "positive_point",
    "projective_moment",
    "quadratic_direct_image",
    "sample_counts",
    "solve_gradient",
    "state_set_from_json",
    "state_set_to_json",
    "tropical_limit",
]
