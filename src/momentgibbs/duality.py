"""Convex-duality diagnostics and the Gaussian (quadratic) direct image.

Minus the log partition function (in the inverse temperature) and the
max-entropy value (in the mean energy) are concave conjugates of each other;
`legendre_residual` and `legendre_roundtrip` measure how tightly the code
realizes that duality. `quadratic_direct_image` is the closed-form direct
image of a negative definite quadratic form under a coordinate projection:
maximizing over the dropped coordinates leaves the Schur complement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadSplit, NotNegativeDefinite
from .gibbs import _at, _entropy, _scipy_kernel, mean_energy
from .moment_solver import SolveOptions, invert_mean_energy
from .state_space import StateSet, _float_array, _read_only, _value_eq, point_array


@dataclass(frozen=True)
class QuadraticForm:
    """Negative definite form f(x) = -x' M x, stored through its positive
    definite matrix M (Cholesky of M is the validity check)."""

    matrix: np.ndarray

    __eq__ = _value_eq

    def __post_init__(self):
        m = _float_array(self.matrix, "matrix has an entry")
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError(f"matrix must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        if np.abs(m - m.T).max() > 1e-12 * np.abs(m).max():
            raise ValueError("matrix must be symmetric within 1e-12 of its largest entry")
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            raise NotNegativeDefinite(
                "matrix is not positive definite, so -x'Mx is not negative definite"
            ) from None
        object.__setattr__(self, "matrix", _read_only(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def value(self, x) -> float:
        """f(x) = -x' M x."""
        v = point_array(x, self.dim)
        return -float(v @ self.matrix @ v)


def legendre_residual(A: StateSet, beta) -> float:
    """S(p(beta)) - (beta, mean) - log Z(beta); zero in exact arithmetic. Taken
    about the heaviest state h, where the (beta, x_h) in both terms cancels
    exactly, so a translate gives the same residual; (beta, mean - x_h) is minus
    the mean log-weight (a weight of 0 may have log-weight -inf). Below 1e-10 in
    magnitude for desk-scale point sets with ||beta|| <= 20. Its own entropy (``xlogy``)
    and log-sum check the kernel's weights, not the kernel's delta and S against each other."""
    log_w, p = _at(A, beta)[:2]
    m = float(np.maximum.reduce(log_w))  # max-shifted, so the sum stays finite
    log_z = m + float(np.log(np.add.reduce(np.exp(log_w - m))))
    return _entropy(p) + float(p @ np.where(p > 0, log_w, 0.0)) - log_z


def legendre_roundtrip(A: StateSet, target, opts: SolveOptions | None = None) -> float:
    """Norm of mean_energy(invert(target)) - target; at most ~1e-8.

    The two gradient maps (mean energy in beta, solved beta in the mean) are
    mutually inverse; this measures the composed error, in the unit 2^k so no norm overflows.
    """
    t = point_array(target, A.dim)
    report = invert_mean_energy(A, t, opts)
    return float(np.ldexp(np.linalg.norm(np.ldexp(mean_energy(A, report.beta) - t, -A._exp)), A._exp))


def quadratic_direct_image(f: QuadraticForm, kept: int) -> QuadraticForm:
    """Maximize f over the dropped coordinates of a coordinate projection.

    With M partitioned as [[P, B], [B', R]] (P of size kept x kept), the
    maximum of -x'Mx over the trailing coordinates at fixed leading ones is
    the Schur complement form -(x')(P - B R^-1 B')(x'), again negative
    definite. A general affine surjection reduces to this projection by an
    orthonormal change of basis aligning its fibers with the dropped
    coordinates; performing that change is the caller's job.
    """
    n = f.dim
    if isinstance(kept, bool) or not isinstance(kept, (int, np.integer)) or not 1 <= kept < n:
        raise BadSplit(f"kept must be an integer in [1, {n - 1}], got {kept!r}")
    m = f.matrix
    lead = m[:kept, :kept]
    cross = m[:kept, kept:]
    trail = m[kept:, kept:]
    # dpotrf and dpotrs in one call, as cho_factor and cho_solve run them
    _, solved, info = _scipy_kernel("dposv")(trail, cross.T, lower=1)
    if info > 0:
        raise NotNegativeDefinite("trailing block is not positive definite")
    schur = lead - cross @ solved
    return QuadraticForm((schur + schur.T) / 2.0)
