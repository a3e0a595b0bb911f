"""Forward thermodynamics: partition function, Gibbs weights, moments, entropy.

Log-weights are formed in the state set's unit, about its heaviest state, and
summed in log-sum-exp form: finite for any finite beta, the same for a
translated set; only log Z carries the shift, the heaviest state's -(beta, x).

The entropy's ``xlogy`` loads on its first use from scipy's compiled module,
with no scipy package (`_scipy_kernel`): callers that never need it load none.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from importlib.machinery import PathFinder
from importlib.util import module_from_spec

import numpy as np

from .errors import LengthMismatch
from .state_space import Observable, StateSet, _float_array, _read_only, _unit_covector, _value_eq, covector_array


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
        total = float(np.add.reduce(p))
        # a nan or negative entry fails the min, an infinite one the sum; a sum that
        # overflows from finite entries passes here and fails the sum check below
        if not (np.minimum.reduce(p) >= 0 and (math.isfinite(total) or np.isfinite(p).all())):
            raise ValueError("probabilities must be finite and non-negative")
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")
        object.__setattr__(self, "probs", _read_only(p))

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


def _log_weights(A: StateSet, beta) -> tuple[np.ndarray, float]:
    """The log-weights -(beta, x - x_h) about the heaviest state h, all <= 0, and the
    shift -(beta, x_h) they share: log Z is their log-sum plus it. x - x_h is taken in
    the unit 2^k and beta in its own 2^j, so a weight rounds with its distance to h
    and nothing overflows before 2^(k + j). The same bits on an integer translate.
    np.dot, not @: at d = 1, @ takes a non-BLAS loop several times slower, for the same bits."""
    b = covector_array(beta, A.dim)
    b_unit, j = _unit_covector(b)
    a = np.dot(A._coords, -(b_unit @ A._span)).argmax()  # heaviest up to the frame's rounding
    r = np.dot(-b_unit, A._unit_t - A._unit_t[:, a : a + 1])
    h = r.argmax()
    with np.errstate(over="ignore"):  # a weight below the float range: -inf, a zero weight
        return np.ldexp(r - r[h], A._exp + j), -float(b @ A.points[h])


def _normalized(log_w: np.ndarray) -> tuple[float, np.ndarray]:
    # max-shift keeps the sum finite; log_w - log_z <= 0 so exp never overflows
    m = float(np.maximum.reduce(log_w))
    log_z = m + float(np.log(np.add.reduce(np.exp(log_w - m))))
    return log_z, np.exp(log_w - log_z)


def _covariance(pts: np.ndarray, p: np.ndarray, mean: np.ndarray) -> np.ndarray:
    # symmetrized so rounding never leaves the result asymmetric
    centered = pts - mean
    cov = centered.T @ (centered * p[:, None])
    return (cov + cov.T) / 2.0


_SPECIAL, _FLAPACK = "scipy.special._special_ufuncs", "scipy.linalg._flapack"
_KERNEL_MODULES = {"xlogy": _SPECIAL, "gammaln": _SPECIAL, "dposv": _FLAPACK}  # as in scipy 1.17
_KERNELS = {}  # those modules by name, each loaded once per process


def _scipy_kernel(kernel: str):
    """scipy's `kernel` from its compiled module, loaded from its file without the package
    __init__ files, whose array-API layer imports ~250 ms of numpy submodules."""
    module = _KERNELS.get(name := _KERNEL_MODULES[kernel]) or sys.modules.get(name)
    if module is None:
        scipy = PathFinder.find_spec("scipy")
        sub = scipy and os.path.join(scipy.submodule_search_locations[0], name.split(".")[1])
        if (spec := sub and PathFinder.find_spec(name, [sub])) is None:
            raise ImportError(f"no module {name} on sys.path (scipy>=1.17 has it)", name=name)
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules.pop(name, None)  # scipy's import reloads it: single-phase, same functions
    return getattr(_KERNELS.setdefault(name, module), kernel)


def _entropy(p: np.ndarray) -> float:
    xlogy = _scipy_kernel("xlogy")
    return float(-xlogy(p, p).sum() + 0.0)  # +0.0 avoids -0.0


def log_partition(A: StateSet, beta) -> float:
    """log of the Boltzmann sum over states, sum_w exp(-(beta, w))."""
    log_w, shift = _log_weights(A, beta)
    return _normalized(log_w)[0] + shift


def gibbs_distribution(A: StateSet, beta) -> Distribution:
    """Probabilities proportional to exp(-(beta, w)); all strictly positive."""
    _, p = _normalized(_log_weights(A, beta)[0])
    return Distribution(p, A)


def mean_observable(p: Distribution, obs: Observable) -> float:
    """Expectation of an observable under a distribution on the same states."""
    if len(obs) != len(p):
        raise LengthMismatch(f"observable has {len(obs)} values for {len(p)} states")
    return float(p.probs @ obs.values)


def mean_energy(A: StateSet, beta) -> np.ndarray:
    """Mean of the energy points; equals minus the gradient of
    `log_partition` in beta, and always lies strictly inside the hull."""
    _, p = _normalized(_log_weights(A, beta)[0])
    return np.dot(p, A.points)


def energy_covariance(A: StateSet, beta) -> np.ndarray:
    """Covariance matrix of the energy points under the Gibbs weights.

    Symmetric positive semidefinite; positive definite exactly when the
    points affinely span R^dim. This is also the Hessian of `log_partition`
    and minus the Jacobian of `mean_energy`.
    """
    _, p = _normalized(_log_weights(A, beta)[0])
    return _covariance(A.points, p, np.dot(p, A.points))


def entropy(p: Distribution) -> float:
    """Shannon entropy in nats, with the 0*log(0) = 0 convention."""
    return _entropy(p.probs)


def gibbs_summary(A: StateSet, beta) -> GibbsSummary:
    """All forward quantities from a single pass over the states; the
    covariance is computed from the summary's weights on each read."""
    log_w, shift = _log_weights(A, beta)
    log_z, probs = _normalized(log_w)
    return GibbsSummary(log_z + shift, Distribution(probs, A), np.dot(probs, A.points), _entropy(probs))
