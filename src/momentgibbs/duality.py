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
from .gibbs import gibbs_summary, mean_energy
from .moment_solver import SolveOptions, invert_mean_energy
from .state_space import StateSet, _float_array, _value_eq, covector_array, point_array


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
        if np.abs(m - m.T).max() > 1e-12:
            raise ValueError("matrix must be symmetric within 1e-12")
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            raise NotNegativeDefinite(
                "matrix is not positive definite, so -x'Mx is not negative definite"
            ) from None
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def value(self, x) -> float:
        """f(x) = -x' M x."""
        v = point_array(x, self.dim)
        return -float(v @ self.matrix @ v)


def legendre_residual(A: StateSet, beta) -> float:
    """S(p(beta)) - (beta, mean) - log Z(beta); zero in exact arithmetic.

    Stays below 1e-10 in magnitude for desk-scale point sets with
    ||beta|| <= 20.
    """
    b = covector_array(beta, A.dim)
    s = gibbs_summary(A, b)
    return s.entropy - float(b @ s.mean_energy) - s.log_z


def legendre_roundtrip(A: StateSet, target, opts: SolveOptions | None = None) -> float:
    """Norm of mean_energy(invert(target)) - target; at most ~1e-8.

    The two gradient maps (mean energy in beta, solved beta in the mean) are
    mutually inverse; this measures the composed error.
    """
    t = point_array(target, A.dim)
    report = invert_mean_energy(A, t, opts)
    return float(np.linalg.norm(mean_energy(A, report.beta) - t))


def quadratic_direct_image(f: QuadraticForm, kept: int) -> QuadraticForm:
    """Maximize f over the dropped coordinates of a coordinate projection.

    With M partitioned as [[P, B], [B', R]] (P of size kept x kept), the
    maximum of -x'Mx over the trailing coordinates at fixed leading ones is
    the Schur complement form -(x')(P - B R^-1 B')(x'), again negative
    definite. A general affine surjection reduces to this projection by an
    orthonormal change of basis aligning its fibers with the dropped
    coordinates; performing that change is the caller's job.
    """
    from scipy.linalg import cho_factor, cho_solve

    n = f.dim
    if isinstance(kept, bool) or not isinstance(kept, (int, np.integer)) or not 1 <= kept < n:
        raise BadSplit(f"kept must be an integer in [1, {n - 1}], got {kept!r}")
    m = f.matrix
    lead = m[:kept, :kept]
    cross = m[:kept, kept:]
    trail = m[kept:, kept:]
    try:
        factor = cho_factor(trail, lower=True)
    except np.linalg.LinAlgError:
        raise NotNegativeDefinite("trailing block is not positive definite") from None
    schur = lead - cross @ cho_solve(factor, cross.T)
    return QuadraticForm((schur + schur.T) / 2.0)
