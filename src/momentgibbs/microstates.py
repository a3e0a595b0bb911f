"""Seeded microstate sampling, occupation counts, and equilibrium counting.

Microstates are assignments of `total` distinguishable particles to states,
drawn i.i.d. from a distribution. The sampling stream is part of the public
contract so counts freeze across platforms:

  * bit generator: numpy's Philox4x64-10 counter-based generator, keyed
    directly with the user seed (counter starts at zero);
  * one uniform double per particle via the 53-bit conversion of
    ``Generator.random``, drawn in blocks of 2**20 (the counts do not depend
    on the block size);
  * each particle is placed by right-bisecting the inclusive cumulative sums
    of the probabilities (the last edge pinned to 1.0); the counts are
    computed per block from the sorted draws, which places them the same way.

Regression vectors for this stream live in the test suite and the README.

Totals and counts are int64, so a total must be below 2**63. ``gammaln`` and
``xlogy`` load on the first log-count call, with no scipy package loaded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidTotal, LengthMismatch
from .gibbs import Distribution, _scipy_kernel
from .state_space import StateSet, _read_only, _value_eq

GENERATOR_NAME = "philox4x64-10"

# Draws per block: memory stays O(block) for any total, and the stream hands
# out the same doubles in the same order whatever the block size.
_BLOCK = 2**20


@dataclass(frozen=True)
class MicrostateCounts:
    """Occupation numbers of one sampled microstate.

    `total` is the particle number (the counts sum to it); `seed` is the
    stream key that produced the draw; `parent` is the state set the counts
    index, kept so empirical distributions stay tied to their states.
    """

    counts: np.ndarray
    total: int
    seed: int
    parent: StateSet

    __eq__ = _value_eq

    def __post_init__(self):
        total = _check_total(self.total)
        try:
            c = np.atleast_1d(np.asarray(self.counts, dtype=np.int64))
        except OverflowError:  # a Python int beyond the int64 range
            raise ValueError("counts beyond the int64 range") from None
        if c.ndim != 1 or c.shape[0] != len(self.parent):
            raise LengthMismatch(f"{c.size} counts for {len(self.parent)} states")
        if np.any(c < 0):
            raise ValueError("counts must be non-negative")
        count_sum = sum(c.tolist())  # exact: an int64 sum would wrap
        if count_sum != total:
            raise ValueError(f"counts sum to {count_sum}, expected total {total}")
        object.__setattr__(self, "counts", _read_only(c))
        object.__setattr__(self, "total", total)


def _check_total(total) -> int:
    if isinstance(total, bool) or not isinstance(total, (int, np.integer)) or total < 1:
        raise InvalidTotal(f"total must be a positive integer, got {total!r}")
    if total >= 2**63:
        raise InvalidTotal(f"total must be below 2**63 (counts are int64), got {total!r}")
    return int(total)


def sample_counts(p: Distribution, total: int, seed: int) -> MicrostateCounts:
    """Multinomial occupation counts of `total` i.i.d. draws from p.

    Deterministic in (p, total, seed); see the module docstring for the
    exact stream contract.
    """
    total = _check_total(total)
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    edges = np.cumsum(p.probs)
    edges[-1] = 1.0
    counts = np.zeros(len(p), dtype=np.int64)
    for start in range(0, total, _BLOCK):
        draws = rng.random(min(_BLOCK, total - start))
        draws.sort()
        # every draw is below the last edge, 1.0, so the draws below each edge
        # fix every bin: right bisection places exactly the differences there
        counts += np.diff(np.searchsorted(draws, edges, side="left"), prepend=0)
    return MicrostateCounts(counts, total, int(seed), p.parent)


def empirical_distribution(c: MicrostateCounts) -> Distribution:
    """Observed frequencies counts / total as a Distribution."""
    return Distribution(c.counts / c.total, c.parent)


def log_multinomial_measure(p: Distribution, c: MicrostateCounts) -> float:
    """log probability that i.i.d. draws from p produce exactly these counts.

    log Gamma(total+1) - sum log Gamma(counts+1) + sum counts * log p. A
    zero-probability state with a nonzero count makes the measure exactly
    zero; that is reported as -inf, not an error.
    """
    if len(c.counts) != len(p):
        raise LengthMismatch(f"{len(c.counts)} counts for {len(p)} probabilities")
    counts = c.counts
    if np.any((p.probs == 0.0) & (counts > 0)):
        return float("-inf")
    gammaln, xlogy = _scipy_kernel("gammaln"), _scipy_kernel("xlogy")
    value = gammaln(c.total + 1) - gammaln(counts + 1).sum() + xlogy(counts, p.probs).sum()
    return float(value)


def log_equilibrium_count(p: Distribution, total: int) -> float:
    """log of the number of microstates whose frequencies equal p.

    Gamma-function interpolation log Gamma(total+1) - sum log Gamma(total*p+1),
    valid for non-integer total*p. Divided by total, this converges to the
    entropy of p as total grows.
    """
    gammaln = _scipy_kernel("gammaln")
    total = _check_total(total)
    return float(gammaln(total + 1) - gammaln(total * p.probs + 1.0).sum())
