"""Vector-valued Gibbs ensembles over finite state sets.

Finite state sets with vector energies, numerically stable partition
functions, the mean-energy map and its inversion by constrained entropy
maximization, convex-duality diagnostics, hull geometry with
low-temperature (tropical) limits, projective moment maps, and seeded
microstate sampling.

Every name loads on first use (PEP 562): `import momentgibbs` imports no
submodule and no numpy, and `momentgibbs.X` imports only the module that
defines X. The submodules in `_EXPORTS` resolve the same way.
"""

import importlib

__version__ = "0.1.0"

# each module and the names it exports; __all__ and the lookup derive from it
_EXPORTS = {
    "duality": "QuadraticForm legendre_residual legendre_roundtrip quadratic_direct_image",
    "errors": """AllZeroWeights BadSplit DimensionMismatch DuplicatePoint EmptyStateSet
        InvalidTotal LengthMismatch NoConvergence NotNegativeDefinite OffAffineSpan
        TargetOnBoundary TargetOutsideHull UnsupportedDimension ZeroDirection""",
    "gibbs": """Distribution GibbsSummary energy_covariance entropy gibbs_distribution
        gibbs_summary log_partition mean_energy mean_observable""",
    "microstates": """GENERATOR_NAME MicrostateCounts empirical_distribution
        log_equilibrium_count log_multinomial_measure sample_counts""",
    "moment_solver": "SolveOptions SolveReport entropy_of_mean invert_mean_energy solve_gradient",
    "polytope": "FaceResult Polytope convex_hull interior_margin min_face tropical_limit",
    "state_space": """CoVector Observable StateSet affine_dim new_state_set state_set_from_json
        state_set_to_json""",
    "toric": "WeightVector moment_of_beta positive_point projective_moment",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:  # importing a submodule binds it in this namespace
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
