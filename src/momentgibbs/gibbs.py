"""Forward thermodynamics: partition function, Gibbs weights, moments, entropy.

One kernel, `_gibbs`, computes them for an (s, n) block of betas; one beta is a
block of one row. A row's log-weights l are formed about its heaviest state h:
a candidate a is picked in the set's frame, x - x_a is taken in the unit 2^k,
and the result is shifted about h. So a weight rounds with its distance to h,
and a translate gives the same weights; only log Z carries -(beta, x_h). One
`exp` pass gives E = e^l with E_h = 0, delta = log1p(sum E), p = E e^-delta
(p_h = e^-delta), log Z = delta - (beta, x_h) and S = delta - sum p l, which keep
their relative precision at low temperature, where log(sum e^l) rounds delta
away and -sum p log p drops h's term. Each product is elementwise, summing the
coordinates in a fixed order, or stacked, so a row's bits do not depend on its block.

The ``xlogy`` of `entropy(Distribution)` loads on its first use from scipy's
compiled module, with no scipy package (`_scipy_kernel`): callers that never
need it load none.
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
from .state_space import Observable, StateSet, _float_array, _read_only, _value_eq, covector_array


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
        return _covariance(p.parent.points.T, p.probs, self.mean_energy)


def _gibbs(A: StateSet, betas: np.ndarray) -> tuple[np.ndarray, ...]:
    """(log-weights, weights, mean, entropy, log Z) of each row of an (s, n) block of
    finite betas: (s, N), (s, N), (s, n), (s,) and (s,) arrays. beta is scaled to its
    own unit 2^j, so nothing overflows before 2^(k + j); the exponents stay int32,
    which `ldexp` takes in its fast loop."""
    rows = np.arange(len(betas))
    j = np.frexp(np.abs(betas).max(axis=1))[1]
    nb = -np.ldexp(betas, -j[:, None])
    v = np.matmul(nb[:, None], A._span)[:, 0]  # -beta on the span
    C, U = A._coords, A._unit_t
    score = C[0] * v[:, :1] if A.affine_dim else np.zeros((len(betas), 1))  # one state
    for c in range(1, A.affine_dim):
        score += C[c] * v[:, c, None]
    a = score.argmax(axis=1)  # heaviest up to the frame's rounding
    r = np.subtract(U[0], U[0, a][:, None])
    r *= nb[:, :1]
    for k in range(1, A.dim):
        t = np.subtract(U[k], U[k, a][:, None], out=score)
        t *= nb[:, k, None]
        r += t
    h = r.argmax(axis=1)
    r -= r[rows, h][:, None]
    e = A._exp + j
    # a weight below the float range is -inf, a zero weight; a (beta, x_h) beyond it is
    # not a double, and the caller refuses the log Z
    with np.errstate(over="ignore", invalid="ignore"):
        log_w = np.ldexp(r, e[:, None])
        shift = -np.matmul(betas[:, None], A.points[h][:, :, None])[:, 0, 0]
    p = np.exp(log_w)
    p[rows, h] = 0.0
    delta = np.log1p(p.sum(axis=1))
    p_h = np.exp(-delta)
    p *= p_h[:, None]
    p[rows, h] = p_h
    mean = np.matmul(p[:, None], A.points)[:, 0]
    # sum p l in the unit, where no l is -inf: a zero weight adds 0, not 0 * -inf
    entropy = delta - np.ldexp(np.matmul(p[:, None], r[:, :, None])[:, 0, 0], e)
    return log_w, p, mean, entropy, delta + shift


def _at(A: StateSet, beta) -> tuple:
    """`_gibbs` at one beta (a CoVector or array-like, checked): each quantity's row."""
    return tuple(x[0] for x in _gibbs(A, covector_array(beta, A.dim)[None]))


def _covariance(rows: np.ndarray, p: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Covariance of (d, N) rows under p, for the solver's Hessian and the forward path:
    d elementwise passes of length N. On `A.points.T` it keeps the bits of the (N, d) form;
    symmetrized so rounding never leaves the result asymmetric."""
    c = rows - mean[:, None]
    cov = np.dot(c * p, c.T)
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
    return float(_at(A, beta)[4])


def gibbs_distribution(A: StateSet, beta) -> Distribution:
    """Probabilities proportional to exp(-(beta, w)); all strictly positive."""
    return Distribution(_at(A, beta)[1], A)


def mean_observable(p: Distribution, obs: Observable) -> float:
    """Expectation of an observable under a distribution on the same states."""
    if len(obs) != len(p):
        raise LengthMismatch(f"observable has {len(obs)} values for {len(p)} states")
    return float(p.probs @ obs.values)


def mean_energy(A: StateSet, beta) -> np.ndarray:
    """Mean of the energy points; equals minus the gradient of
    `log_partition` in beta, and always lies strictly inside the hull."""
    return _at(A, beta)[2]


def energy_covariance(A: StateSet, beta) -> np.ndarray:
    """Covariance matrix of the energy points under the Gibbs weights.

    Symmetric positive semidefinite; positive definite exactly when the
    points affinely span R^dim. This is also the Hessian of `log_partition`
    and minus the Jacobian of `mean_energy`.
    """
    return _covariance(A.points.T, *_at(A, beta)[1:3])  # the weights and the mean


def entropy(p: Distribution) -> float:
    """Shannon entropy in nats, with the 0*log(0) = 0 convention."""
    return _entropy(p.probs)


def gibbs_summary(A: StateSet, beta) -> GibbsSummary:
    """All forward quantities from one call of the kernel; the covariance is
    computed from the summary's weights on each read."""
    _, probs, mean, s, log_z = _at(A, beta)
    return GibbsSummary(float(log_z), Distribution(probs, A), mean, float(s))
