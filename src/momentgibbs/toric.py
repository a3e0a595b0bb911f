"""Positive-part parametrization and the projective moment map.

Only squared magnitudes of homogeneous coordinates enter the moment map, so
points of projective space are represented by non-negative weight vectors.
The moment image of the positive point at beta equals the Gibbs mean energy
at 2*beta (the squares double the exponent).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllZeroWeights, LengthMismatch
from .gibbs import _log_weights
from .state_space import StateSet, _float_array, _value_eq, covector_array


@dataclass(frozen=True)
class WeightVector:
    """Squared-magnitude homogeneous coordinates, one weight per state."""

    weights: np.ndarray

    __eq__ = _value_eq

    def __post_init__(self):
        w = np.atleast_1d(_float_array(self.weights, "weights have an entry"))
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must form a nonempty vector")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("weights must be finite and non-negative")
        if not np.any(w > 0):
            raise AllZeroWeights("weights must not all vanish")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.weights.shape[0]


def positive_point(A: StateSet, beta) -> WeightVector:
    """The point (exp(-(beta, w)))_w, rescaled so the largest weight is 1.

    The rescaling is a projective no-op and keeps the representation finite
    for any finite beta.
    """
    log_w = _log_weights(A, beta)
    return WeightVector(np.exp(log_w - log_w.max()))


def projective_moment(A: StateSet, w: WeightVector) -> np.ndarray:
    """Weighted average of the points, sum_i w_i * point_i / sum_i w_i.

    Invariant under positive rescaling of the weights; the image is the hull
    of the points, with the relative interior hit exactly when all weights
    are positive.
    """
    if len(w) != len(A):
        raise LengthMismatch(f"{len(w)} weights for {len(A)} states")
    return (w.weights @ A.points) / w.weights.sum()


def moment_of_beta(A: StateSet, beta) -> np.ndarray:
    """Moment image of the positive point at beta.

    The squared magnitudes double the exponent, so this equals
    mean_energy(A, 2*beta) up to rounding; the squaring happens in log space
    to keep the overflow guarantee.
    """
    return projective_moment(A, positive_point(A, 2.0 * covector_array(beta, A.dim)))
