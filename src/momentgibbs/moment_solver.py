"""Inverts the mean-energy map: find beta whose Gibbs mean hits a target.

The solve minimizes the smooth convex dual

    F(beta) = log_partition(beta) + (beta, t) = log sum_i exp(-(beta, x_i - t)),

the log-partition function of x - t, with gradient t - mean_energy(beta) and the energy
covariance as Hessian, by damped Newton with Cholesky steps and Armijo backtracking.
Each step is one call of LAPACK's dposv (dpotrf and dpotrs, the routines
behind scipy's cho_factor/cho_solve), so steps keep the wrappers' bits at a
fraction of their per-call cost. When the factorization fails, the step
retries with a ridge r * I: r starts at 1e-12 times the mean Hessian diagonal
and grows tenfold per retry, 40 attempts in all.
Newton runs in the state set's frame (points and target less the first point,
scaled by 2^-k, in span coordinates, where the Hessian is positive definite),
so a set, its 2^j multiple and its exact translates take the same steps. Beta
is scaled back and lifted by the span, with zero component along its annihilator.
Every solve starts at beta = 0, whose uniform weights depend on the set alone:
the first solve on a set memoizes that state on it, and every solve reads it. A
solve centers the set's (d, N) rows of frame coordinates on t once, R = x - t: a
candidate beta costs one product, a min-shift, one `exp` pass and one sum
(`_dual`), R p = mean - t is minus the gradient, and the Hessian is
`gibbs._covariance` of R; each makes d passes of length N, not N of d. The
report keeps no weights: its entropy is the Gibbs kernel's at the solved beta,
read when it is asked for.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import NoConvergence, TargetOnBoundary, TargetOutsideHull
from .gibbs import _at, _covariance, _scipy_kernel
from .polytope import _margin, _span_violation, convex_hull
from .state_space import CoVector, StateSet, _frame_coords, point_array

# targets closer to the boundary than this (relative to hull diameter, taken in
# the set's unit, where it is finite) are refused: the solution diverges there
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
    a positive integer.
    """

    grad_tol: float = 1e-10
    max_iter: int = 100

    def __post_init__(self):
        if not (0.0 < self.grad_tol < 1.0):
            raise ValueError("grad_tol must lie in (0, 1)")
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, (int, np.integer)):
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")


_DEFAULTS = SolveOptions()


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Outcome of a moment inversion.

    `grad_norm` is the infinity norm of target - mean in span coordinates,
    scaled by the hull diameter (the convergence metric). `reduced` is true
    when the points did not affinely span the ambient space; the returned
    beta is then one representative of an affine family (the component along
    the span's annihilator is zero and carries no information). `entropy` is
    read on each access from the Gibbs kernel at beta on the solved set, which
    the report holds in a private field left out of `repr`, so it has the bits of
    `gibbs_summary(A, beta).entropy`. Reports compare and hash by identity.
    """

    beta: CoVector
    iterations: int
    grad_norm: float
    converged: bool
    reduced: bool
    _set: StateSet = field(repr=False)

    @property
    def entropy(self) -> float:
        """Shannon entropy of the Gibbs weights at the solved beta, in nats."""
        return float(_at(self._set, self.beta)[3])


def invert_mean_energy(A: StateSet, target, opts: SolveOptions | None = None) -> SolveReport:
    """Solve mean_energy(A, beta) = target for the unique beta.

    The target must lie strictly inside the hull of the points relative to
    their affine span. Targets outside raise TargetOutsideHull with the
    signed margin; targets within 1e-9 of the boundary (relative to the hull
    diameter) raise TargetOnBoundary, since beta diverges there -- see
    `polytope.tropical_limit` for the limiting face.
    """
    if opts is None:
        opts = _DEFAULTS
    t_full = point_array(target, A.dim)
    hull = convex_hull(A)

    off = _span_violation(hull, t_full)
    if off:
        raise TargetOutsideHull(-off, f"target is {off:.3g} off the affine span of the states")

    margin = _margin(hull, t_full)
    btol = math.ldexp(_BOUNDARY_REL * hull._unit_diameter, A._exp)
    if margin < -btol:
        raise TargetOutsideHull(margin)
    if margin <= btol:
        raise TargetOnBoundary(
            margin,
            f"target margin {margin:.3g} is within {btol:.3g} of the hull boundary; "
            "beta diverges there (see polytope.tropical_limit for the limiting face)",
        )

    d = A.affine_dim
    reduced = d < A.dim

    if d == 0:  # single state: the only admissible target is the point itself
        return SolveReport(CoVector(np.zeros(A.dim)), 0, 0.0, True, reduced, A)

    t = _frame_coords(A, t_full)
    if A._start is None:  # racing first solves write equal values
        log_z, p = math.log(len(A)), np.full(len(A), 1.0 / len(A))  # F(0) = log N, uniform p
        mean = np.dot(A._coords, p)
        cov = _covariance(A._coords, p, mean)
        for arr in (p, mean, cov):
            arr.setflags(write=False)
        object.__setattr__(A, "_start", (log_z, p, mean, cov))
    f, p, mean, hess = A._start
    R = A._coords - t[:, None]  # x - t: F is the log-partition function of these rows
    offset = mean - t  # R p, minus the gradient
    dposv = _scipy_kernel("dposv")
    beta = np.zeros(d)
    iterations = 0

    while True:
        grad_norm = float(np.maximum.reduce(np.abs(offset))) / hull._unit_diameter
        converged = grad_norm <= opts.grad_tol
        if converged or iterations == opts.max_iter:
            break
        iterations += 1

        step = _newton_step(hess if iterations == 1 else _covariance(R, p, offset), offset, dposv)

        slope = -float(offset @ step)  # derivative of F along step; negative
        slack = _ARMIJO_SLACK * (1.0 + abs(f))
        stride = 1.0
        while stride >= _MIN_STEP:
            cand = beta + stride * step  # 1.0 * step is step, bit for bit
            f_c, e, s = _dual(cand, R)
            if f_c <= f + _ARMIJO * stride * slope + slack:
                break
            stride *= _SHRINK
        else:
            break  # no representable progress left; the raise below reports it
        beta, f, p = cand, f_c, np.divide(e, s, out=e)
        offset = np.dot(R, p)

    beta = np.ldexp(beta, -A._exp)
    report = SolveReport(
        beta=CoVector(A._span @ beta),
        iterations=iterations,
        grad_norm=grad_norm,
        converged=converged,
        reduced=reduced,
        _set=A,
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


def _dual(beta: np.ndarray, R: np.ndarray) -> tuple[float, np.ndarray, float]:
    """F(beta) = log s - m from the rows R of x - t, z = (beta, R), m = min z and the
    weights e = exp(m - z) <= 1 before normalization, whose sum is s."""
    z = np.dot(beta, R)
    m = float(np.minimum.reduce(z))
    e = np.exp(np.subtract(m, z, out=z), out=z)
    s = float(np.add.reduce(e))
    return math.log(s) - m, e, s


def _newton_step(hess: np.ndarray, offset: np.ndarray, dposv) -> np.ndarray:
    """Solve hess @ s = offset (minus the gradient) by Cholesky, adding a scaled ridge if it fails.

    One dposv call runs dpotrf and dpotrs with the arguments cho_factor and cho_solve pass,
    so the step has their bits; at the solver's d <= 6 the wrappers cost over ten times the
    routine. Their checks stay: a non-finite input raises ValueError (the offset only once
    a factor exists), as does an illegal-argument code. The factor needs no check: each
    entry below the diagonal enters the pivot of its row, so with info 0 all are finite.
    dposv is `_scipy_kernel`'s, from scipy.linalg's compiled module with no scipy package;
    a solve looks it up once and passes it to each step.
    """
    a = hess
    reg = 0.0
    for _ in range(40):
        _check_finite(a)
        _, step, info = dposv(a, offset, lower=1)
        if info == 0:
            _check_finite(offset)
            return step
        if info < 0:
            raise ValueError(f"dposv: illegal value in argument {-info}")
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
    """`np.asarray_chkfinite`'s check and message, by one pass over the few (d <= 6) entries."""
    if not all(map(math.isfinite, x.ravel().tolist())):
        raise ValueError("array must not contain infs or NaNs")
