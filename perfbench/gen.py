"""Seeded synthetic lattice state sets and Gibbs targets for the benchmark.

Everything here is plain numpy and independent of momentgibbs, so the
inputs a run feeds the program do not change when the program does. The
same seed always gives the same sets, betas and targets.

A set is N distinct integer points drawn without replacement from the box
{0, ..., L-1}^d, with L = ceil((density * N) ** (1/d)). A small `density`
fills the box, so many points sit on its faces and the hull has few facets.
A large one leaves the points in near-general position, so qhull reports
many simplicial facets and the package's pairwise facet merge grows as the
square of their count. A reduced set is the image of such a set under an
integer affine map into a larger ambient space, so its affine dimension is
smaller than its ambient one and it is still a lattice set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SizeClass:
    """Shape of one generated set and the reason that shape was chosen."""

    dim: int  # affine dimension
    n: int  # number of states
    ambient: int  # ambient dimension; larger than dim for a reduced set
    density: float  # box cells per state
    why: str


# cli-large: N of 4000-5000 at affine dimension 1-3, no non-trivial hull in
# any command that runs on them.
CLI_LARGE = {
    "line": SizeClass(
        1, 5000, 1, 3.0,
        "the largest N the roadmap names; the hull of a 1-D set is an interval, "
        "so invert costs start-up, JSON parsing, StateSet checks and the solve kernel",
    ),
    "line-reduced": SizeClass(
        1, 4000, 3, 3.0,
        "the reduced path (SVD affine frame, span coordinates) at CLI scale, "
        "with an interval hull so invert stays cheap",
    ),
    "plane": SizeClass(
        2, 4500, 2, 3.0,
        "sweep and toric at N=4500: the Gibbs kernel per step and %.17g "
        "serialization of 4500 weights",
    ),
    "space": SizeClass(
        3, 4000, 3, 3.0,
        "forward, microstates and limit on a 3-D set of the order of the "
        "roadmap's N=4000 figures",
    ),
}

# invert-hull: affine dimension 2-6, one reduced. Their solve times are well
# apart (h3 < h2 < h4 < h5 < h6r); workloads.py sets their shares.
INVERT_HULL = {
    "h2": SizeClass(
        2, 1600, 2, 1000.0,
        "roadmap row N=1600 d=2: the pure-Python monotone chain is most of the solve",
    ),
    "h3": SizeClass(
        3, 500, 3, 1000.0,
        "roadmap row N=500 d=3: qhull with few facets, so the Newton loop is a "
        "visible share",
    ),
    "h4": SizeClass(
        4, 600, 4, 300.0,
        "about 400 qhull facets, a count that varies little between seeds: between "
        "h2 and h5 in solve time, so the median invert-hull op is one of these",
    ),
    "h5": SizeClass(
        5, 150, 5, 300.0,
        "about 1100-1400 qhull facets: the dense facet merge dominates the solve",
    ),
    "h6r": SizeClass(
        6, 50, 8, 300.0,
        "reduced embedding of a 6-D set in R^8, about 1300-1500 facets in span "
        "coordinates and about 300-400 MB peak: the heaviest set, kept well below "
        "1 GiB (d=6, N=200 was OOM-killed). N is small, so the affine frame's SVD "
        "(a full N x N factor, multi-threaded) stays negligible",
    ),
}

# one-off probe of the roadmap's heaviest row; never run inside a workload
ROADMAP_HEAVY = SizeClass(
    5, 2000, 5, 1000.0,
    "roadmap row N=2000 d=5: about 4000 facets, 2 s and 1.6 GB at the seed, too "
    "heavy for a timed workload",
)


def lattice_points(rng: np.random.Generator, cls: SizeClass) -> np.ndarray:
    """Distinct integer points of one size class, shape (n, ambient)."""
    side = max(2, math.ceil((cls.density * cls.n) ** (1.0 / cls.dim)))
    if side**cls.dim < cls.n:
        raise ValueError(f"box of side {side} has fewer than {cls.n} cells")
    cells = rng.choice(side**cls.dim, size=cls.n, replace=False)
    pts = np.stack(np.unravel_index(cells, (side,) * cls.dim), axis=1).astype(np.int64)
    if cls.ambient == cls.dim:
        return pts
    while True:
        embed = rng.integers(-2, 3, size=(cls.ambient, cls.dim))
        if np.linalg.matrix_rank(embed) == cls.dim:
            break
    shift = rng.integers(-3, 4, size=cls.ambient)
    return pts @ embed.T + shift  # injective, so the points stay distinct


def spread(points: np.ndarray) -> float:
    """Root-mean-square distance of the points from their centroid."""
    pts = np.asarray(points, dtype=float)
    return float(np.sqrt(((pts - pts.mean(axis=0)) ** 2).sum(axis=1).mean()))


def random_beta(rng: np.random.Generator, points: np.ndarray) -> np.ndarray:
    """A beta whose norm times the set's spread lies in [0.5, 2].

    That keeps the Gibbs weights spread over many states, so the mean lies
    well inside the hull and the solve is well conditioned.
    """
    direction = rng.normal(size=points.shape[1])
    direction /= np.linalg.norm(direction)
    return direction * rng.uniform(0.5, 2.0) / spread(points)


def gibbs_mean(points: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Mean of the points under weights exp(-(beta, w)), by log-sum-exp."""
    pts = np.asarray(points, dtype=float)
    log_w = -(pts @ beta)
    w = np.exp(log_w - log_w.max())
    return (w / w.sum()) @ pts


def span_projection(points: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Component of beta along the directions the points span.

    The component along the span's annihilator does not change the Gibbs
    weights, so only this projection is recoverable by inversion.
    """
    pts = np.asarray(points, dtype=float)
    _, s, vh = np.linalg.svd(pts - pts[0], full_matrices=False)
    basis = vh[s > 1e-9 * max(float(s[0]), 1.0)]
    return basis.T @ (basis @ beta)


def make_set(seed: int, name: str, cls: SizeClass) -> np.ndarray:
    """The points of set `name` for `seed`; the name keys its own stream."""
    key = [seed, *name.encode()]
    return lattice_points(np.random.default_rng(key), cls)


def to_doc(points: np.ndarray) -> dict:
    """State set document in the CLI's JSON schema."""
    return {"dim": int(points.shape[1]), "points": points.tolist()}


def csv(values) -> str:
    """Comma-list for a CLI vector flag, with every digit of each double.

    Pass it as `--flag=<list>`: argparse takes a separate argument such as
    "-0.5,1.0" for an option name.
    """
    return ",".join(repr(float(v)) for v in values)
