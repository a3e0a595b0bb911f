"""Forward thermodynamics: partition function, Gibbs weights, moments, entropy.

All log-domain sums use the max-shift (log-sum-exp) form, so every operation
stays finite for any finite inverse temperature, including the deep
low-temperature regime where naive exponentials overflow.

scipy.special (for ``xlogy``) loads on the first entropy computation, not on
import, so callers that never need the entropy never load scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch
from .state_space import Observable, StateSet, _float_array, _value_eq, covector_array


@dataclass(frozen=True)
class Distribution:
    """Probability vector indexed by the states of `parent`.

    Entries are non-negative and sum to 1 within 1e-12 absolute.
    """

    probs: np.ndarray
    parent: StateSet

    __eq__ = _value_eq

    def __post_init__(self):
        p = np.atleast_1d(_float_array(self.probs, "probabilities have an entry"))
        if p.ndim != 1 or p.shape[0] != len(self.parent):
            raise LengthMismatch(
                f"{p.size} probabilities for {len(self.parent)} states"
            )
        if np.any(p < 0) or not np.all(np.isfinite(p)):
            raise ValueError("probabilities must be finite and non-negative")
        total = float(p.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    def __len__(self) -> int:
        return self.probs.shape[0]


@dataclass(frozen=True, eq=False)
class GibbsSummary:
    """Bundle of the forward quantities at one inverse temperature.

    `covariance` is computed from the summary's weights on each read, so
    callers that never read it never pay for it. Summaries compare and hash
    by identity.
    """

    log_z: float
    distribution: Distribution
    mean_energy: np.ndarray
    entropy: float

    @property
    def covariance(self) -> np.ndarray:
        """Covariance of the energy points under the summary's weights."""
        p = self.distribution
        return _covariance(p.parent.points, p.probs, self.mean_energy)


def _log_weights(A: StateSet, beta) -> np.ndarray:
    b = covector_array(beta, A.dim)
    return -(A.points @ b)


def _normalized(log_w: np.ndarray) -> tuple[float, np.ndarray]:
    # max-shift keeps the sum finite; log_w - log_z <= 0 so exp never overflows
    m = float(log_w.max())
    log_z = m + float(np.log(np.exp(log_w - m).sum()))
    return log_z, np.exp(log_w - log_z)


def _covariance(pts: np.ndarray, p: np.ndarray, mean: np.ndarray) -> np.ndarray:
    # symmetrized so rounding never leaves the result asymmetric
    centered = pts - mean
    cov = centered.T @ (centered * p[:, None])
    return (cov + cov.T) / 2.0


def _entropy(p: np.ndarray) -> float:
    from scipy.special import xlogy

    return float(-xlogy(p, p).sum() + 0.0)  # +0.0 avoids -0.0


def log_partition(A: StateSet, beta) -> float:
    """log of the Boltzmann sum over states, sum_w exp(-(beta, w))."""
    log_z, _ = _normalized(_log_weights(A, beta))
    return log_z


def gibbs_distribution(A: StateSet, beta) -> Distribution:
    """Probabilities proportional to exp(-(beta, w)); all strictly positive."""
    _, p = _normalized(_log_weights(A, beta))
    return Distribution(p, A)


def mean_observable(p: Distribution, obs: Observable) -> float:
    """Expectation of an observable under a distribution on the same states."""
    if len(obs) != len(p):
        raise LengthMismatch(f"observable has {len(obs)} values for {len(p)} states")
    return float(p.probs @ obs.values)


def mean_energy(A: StateSet, beta) -> np.ndarray:
    """Mean of the energy points; equals minus the gradient of
    `log_partition` in beta, and always lies strictly inside the hull."""
    _, p = _normalized(_log_weights(A, beta))
    return p @ A.points


def energy_covariance(A: StateSet, beta) -> np.ndarray:
    """Covariance matrix of the energy points under the Gibbs weights.

    Symmetric positive semidefinite; positive definite exactly when the
    points affinely span R^dim. This is also the Hessian of `log_partition`
    and minus the Jacobian of `mean_energy`.
    """
    _, p = _normalized(_log_weights(A, beta))
    return _covariance(A.points, p, p @ A.points)


def entropy(p: Distribution) -> float:
    """Shannon entropy in nats, with the 0*log(0) = 0 convention."""
    return _entropy(p.probs)


def gibbs_summary(A: StateSet, beta) -> GibbsSummary:
    """All forward quantities from a single pass over the states; the
    covariance is computed from the summary's weights on each read."""
    log_z, probs = _normalized(_log_weights(A, beta))
    return GibbsSummary(log_z, Distribution(probs, A), probs @ A.points, _entropy(probs))
