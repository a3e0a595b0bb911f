"""Inverts the mean-energy map: find beta whose Gibbs mean hits a target.

The solve minimizes the smooth convex dual

    F(beta) = log_partition(beta) + (beta, target)

whose gradient is target - mean_energy(beta) and whose Hessian is the energy
covariance, by damped Newton with Cholesky steps and Armijo backtracking.
Each step calls LAPACK's dpotrf/dpotrs directly, the routines behind scipy's
cho_factor/cho_solve, so steps keep the wrappers' bits at a fraction of their
per-call cost. When the factorization fails, the step retries with a ridge
r * I: r starts at 1e-12 times the mean Hessian diagonal and grows tenfold per
retry, 40 attempts in all.
Degenerate point sets (affine span smaller than the ambient space) are first
mapped to orthonormal span coordinates, where the Hessian is positive
definite; the solved beta is lifted back with zero component along the span's
annihilator.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, TargetOnBoundary, TargetOutsideHull
from .gibbs import _covariance, _entropy, _normalized
from .polytope import _margin, _span_violation, convex_hull
from .state_space import CoVector, StateSet, affine_frame, point_array

# targets closer to the boundary than this (relative to hull diameter) are
# refused: the solution diverges there
_BOUNDARY_REL = 1e-9
_ARMIJO = 1e-4
# near the optimum the predicted decrease falls below the rounding noise of F
# itself; a slack of _ARMIJO_SLACK * (1 + |F|) keeps Armijo from rejecting such steps
_ARMIJO_SLACK = 32.0 * sys.float_info.epsilon  # float64 eps, np.finfo(float).eps
_MIN_STEP = 1e-14
_SHRINK = 0.5  # backtracking factor of the line search
_RIDGE_FLOOR = 1e-12  # first ridge, relative to the mean Hessian eigenvalue


@dataclass(frozen=True)
class SolveOptions:
    """Stopping rule of the Newton solve; defaults suit desk-scale problems.

    `grad_tol` bounds the convergence metric (see `SolveReport.grad_norm`)
    and must lie in (0, 1); `max_iter` caps the Newton iterations and must be
    positive.
    """

    grad_tol: float = 1e-10
    max_iter: int = 100

    def __post_init__(self):
        if not (0.0 < self.grad_tol < 1.0):
            raise ValueError("grad_tol must lie in (0, 1)")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Outcome of a moment inversion.

    `grad_norm` is the infinity norm of target - mean in span coordinates,
    scaled by the hull diameter (the convergence metric). `reduced` is true
    when the points did not affinely span the ambient space; the returned
    beta is then one representative of an affine family (the component along
    the span's annihilator is zero and carries no information). Reports
    compare and hash by identity.
    """

    beta: CoVector
    iterations: int
    grad_norm: float
    entropy: float
    converged: bool
    reduced: bool


def invert_mean_energy(A: StateSet, target, opts: SolveOptions | None = None) -> SolveReport:
    """Solve mean_energy(A, beta) = target for the unique beta.

    The target must lie strictly inside the hull of the points relative to
    their affine span. Targets outside raise TargetOutsideHull with the
    signed margin; targets within 1e-9 of the boundary (relative to the hull
    diameter) raise TargetOnBoundary, since beta diverges there -- see
    `polytope.tropical_limit` for the limiting face.
    """
    if opts is None:
        opts = SolveOptions()
    t_full = point_array(target, A.dim)
    hull = convex_hull(A)

    off = _span_violation(hull, t_full)
    if off:
        raise TargetOutsideHull(-off, f"target is {off:.3g} off the affine span of the states")

    margin = _margin(hull, t_full)
    btol = _BOUNDARY_REL * hull.diameter
    if margin < -btol:
        raise TargetOutsideHull(margin)
    if margin <= btol:
        raise TargetOnBoundary(
            margin,
            f"target margin {margin:.3g} is within {btol:.3g} of the hull boundary; "
            "beta diverges there (see polytope.tropical_limit for the limiting face)",
        )

    reduced = A.affine_dim < A.dim
    if reduced:
        origin, span, _ = affine_frame(A)
        pts = (A.points - origin) @ span
        t = span.T @ (t_full - origin)
    else:
        span = None
        pts = A.points
        t = t_full
    d = A.affine_dim

    if d == 0:
        # single state: the only admissible target is the point itself
        return SolveReport(
            beta=CoVector(np.zeros(A.dim)),
            iterations=0,
            grad_norm=0.0,
            entropy=0.0,
            converged=True,
            reduced=reduced,
        )

    scale = hull.diameter
    beta = np.zeros(d)
    log_z, p = _normalized(-(pts @ beta))
    iterations = 0

    while True:
        mean = p @ pts
        grad = t - mean
        grad_norm = float(np.abs(grad).max()) / scale
        converged = grad_norm <= opts.grad_tol
        if converged or iterations == opts.max_iter:
            break
        iterations += 1

        step = _newton_step(_covariance(pts, p, mean), grad)

        f0 = log_z + float(beta @ t)
        slope = -float(grad @ step)  # derivative of F along -step; negative
        slack = _ARMIJO_SLACK * (1.0 + abs(f0))
        stride = 1.0
        stalled = False
        while True:
            cand = beta - stride * step
            log_z_c, p_c = _normalized(-(pts @ cand))
            if log_z_c + float(cand @ t) <= f0 + _ARMIJO * stride * slope + slack:
                break
            stride *= _SHRINK
            if stride < _MIN_STEP:
                stalled = True
                break
        if stalled:
            break  # no representable progress left; the raise below reports it
        beta, log_z, p = cand, log_z_c, p_c

    beta_full = span @ beta if reduced else beta
    report = SolveReport(
        beta=CoVector(beta_full),
        iterations=iterations,
        grad_norm=grad_norm,
        entropy=_entropy(p),
        converged=converged,
        reduced=reduced,
    )
    if not converged:
        raise NoConvergence(
            f"no convergence after {iterations} iterations "
            f"(grad_norm {grad_norm:.3g} > {opts.grad_tol:.3g})",
            report=report,
        )
    return report


def entropy_of_mean(A: StateSet, target, opts: SolveOptions | None = None) -> float:
    """Maximum entropy among distributions whose energy mean equals target.

    This is the entropy of the Gibbs distribution at the solved beta; it also
    equals (beta, target) + log_partition(beta), the convex-duality identity.
    """
    return invert_mean_energy(A, target, opts).entropy


def solve_gradient(A: StateSet, target, opts: SolveOptions | None = None) -> CoVector:
    """The solved beta, read as the gradient of `entropy_of_mean` at target."""
    return invert_mean_energy(A, target, opts).beta


def _newton_step(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve hess @ s = grad by Cholesky, adding a scaled ridge if it fails.

    Calls dpotrf/dpotrs with the arguments cho_factor/cho_solve pass, so the
    step has their bits; at the solver's d <= 6 the wrappers cost over ten
    times the routines. Their checks stay: a non-finite input raises
    ValueError, as does an illegal-argument code. The factor needs no check:
    each entry below the diagonal enters the pivot of its row, so with info 0
    all are finite.
    """
    from scipy.linalg.lapack import dpotrf, dpotrs

    a = hess
    reg = 0.0
    for _ in range(40):
        _check_finite(a)
        factor, info = dpotrf(a, lower=1, clean=0)
        if info == 0:
            _check_finite(grad)
            step, info = dpotrs(factor, grad, lower=1)
            if info != 0:
                raise ValueError(f"dpotrs: illegal value in argument {-info}")
            return step
        if info < 0:
            raise ValueError(f"dpotrf: illegal value in argument {-info}")
        # a leading minor is not positive definite: retry with a larger ridge
        if reg == 0.0:
            d = hess.shape[0]
            eye = np.eye(d)
            reg = _RIDGE_FLOOR * max(float(np.trace(hess)) / d, np.finfo(float).tiny)
        else:
            reg *= 10.0
        a = hess + reg * eye
    raise np.linalg.LinAlgError("covariance could not be regularized to positive definite")


def _check_finite(x: np.ndarray) -> None:
    """The check `np.asarray_chkfinite` makes, with its message, for an array."""
    if not np.isfinite(x).all():
        raise ValueError("array must not contain infs or NaNs")
