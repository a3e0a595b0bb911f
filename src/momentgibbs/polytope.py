"""Convex-hull geometry of the energy points and low-temperature limits.

The hull is computed in the affine span of the points: full-dimensional sets
are handled directly, degenerate sets are first mapped to orthonormal span
coordinates and the span itself is reported as a list of equality
constraints. Facet inequalities read (normal, x) >= offset and hold on the
whole hull with equality on the facet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import OffAffineSpan, UnsupportedDimension, ZeroDirection
from .state_space import StateSet, affine_frame, covector_array, point_array

MAX_HULL_DIM = 6

_SPAN_TOL = 1e-9  # span equations use unit normals, so this is a distance
_TIE_REL = 1e-9


class Facet(NamedTuple):
    """Halfspace (normal, x) >= offset, tight on the face it bounds."""

    normal: np.ndarray
    offset: float


@dataclass(frozen=True)
class FaceResult:
    """States minimizing a pairing, the minimum value, and their barycenter."""

    indices: tuple[int, ...]
    value: float
    barycenter: np.ndarray


@dataclass(frozen=True)
class Polytope:
    """Hull of a state set: vertex indices, facet halfspaces, span equations.

    `span_equations` is empty when the points affinely span the ambient
    space; otherwise each entry is an equality (normal, x) = offset (unit
    normal) cutting out the affine span, and the facet normals live inside
    the span.
    """

    ambient_dim: int
    affine_dim: int
    vertices: tuple[int, ...]
    facets: tuple[Facet, ...]
    span_equations: tuple[Facet, ...]
    diameter: float


def convex_hull(A: StateSet) -> Polytope:
    """Vertices and facets of the hull of the points.

    Dimensions 0 to 2 (after span reduction) are enumerated directly;
    dimensions 3 to 6 go through qhull with coplanar facet merging. Output
    order is deterministic: vertex indices ascending, facets sorted by their
    (normal, offset) coefficients.
    """
    d = A.affine_dim
    if d > MAX_HULL_DIM:
        raise UnsupportedDimension(
            f"hull enumeration supports affine dimension <= {MAX_HULL_DIM}, got {d}"
        )

    if d == A.dim:
        origin = np.zeros(A.dim)
        span = None
        reduced = A.points
        span_eqs: tuple[Facet, ...] = ()
    else:
        origin, span, comp = affine_frame(A)
        reduced = (A.points - origin) @ span
        span_eqs = tuple(
            Facet(_frozen(comp[:, j]), float(comp[:, j] @ origin))
            for j in range(comp.shape[1])
        )

    if d == 0:
        vertices: list[int] = [0]
        raw: list[tuple[np.ndarray, float]] = []
    elif d == 1:
        vertices, raw = _hull_interval(reduced[:, 0])
    elif d == 2:
        vertices, raw = _hull_planar(reduced, keep_integer=A.is_lattice and span is None)
    else:
        vertices, raw = _hull_qhull(reduced)

    facets = []
    for normal, offset in raw:
        if span is not None:
            normal = span @ normal
            offset = offset + float(normal @ origin)
        facets.append(Facet(_frozen(normal), float(offset)))
    facets.sort(key=lambda f: tuple(np.round(np.append(f.normal, f.offset), 12)))

    verts = tuple(sorted(int(i) for i in vertices))
    vp = A.points[list(verts)]
    if len(verts) > 1:
        diam = float(np.linalg.norm(vp[:, None, :] - vp[None, :, :], axis=-1).max())
    else:
        diam = 0.0
    return Polytope(A.dim, d, verts, tuple(facets), span_eqs, diam)


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float) + 0.0  # +0.0 canonicalizes -0.0 entries
    out.setflags(write=False)
    return out


def _hull_interval(t: np.ndarray):
    imin = int(np.argmin(t))
    imax = int(np.argmax(t))
    raw = [
        (np.array([1.0]), float(t[imin])),
        (np.array([-1.0]), float(-t[imax])),
    ]
    return [imin, imax], raw


def _hull_planar(pts: np.ndarray, keep_integer: bool):
    """Monotone chain in the plane; returns CCW vertices and edge halfspaces."""
    scale = max(1.0, float(np.abs(pts).max()))
    eps = 1e-9 * scale * scale  # cross products scale quadratically
    order = sorted(range(pts.shape[0]), key=lambda i: (pts[i, 0], pts[i, 1]))

    def cross(o, a, b):
        return (pts[a, 0] - pts[o, 0]) * (pts[b, 1] - pts[o, 1]) - (
            pts[a, 1] - pts[o, 1]
        ) * (pts[b, 0] - pts[o, 0])

    def chain(seq):
        out: list[int] = []
        for idx in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], idx) <= eps:
                out.pop()
            out.append(idx)
        return out

    lower = chain(order)
    upper = chain(reversed(order))
    ring = lower[:-1] + upper[:-1]  # counter-clockwise

    raw = []
    for a, b in zip(ring, ring[1:] + ring[:1]):
        edge = pts[b] - pts[a]
        normal = np.array([-edge[1], edge[0]])  # interior is left of a->b
        if not keep_integer:
            normal = normal / np.linalg.norm(normal)
        raw.append((normal, float(normal @ pts[a])))
    return ring, raw


def _hull_qhull(pts: np.ndarray):
    """qhull facets with coplanar (triangulated) duplicates merged."""
    from scipy.spatial import ConvexHull

    hull = ConvexHull(pts)
    # inside the hull: equations[:, :-1] @ x + equations[:, -1] <= 0
    rows = np.column_stack([-hull.equations[:, :-1], hull.equations[:, -1]])
    scale = max(1.0, float(np.abs(pts).max()))
    tol = 1e-7 * scale
    # cheap bulk collapse by rounding, then a tolerance pass for rows that
    # straddle a rounding boundary
    _, first = np.unique(np.round(rows / scale, 9), axis=0, return_index=True)
    cand = rows[np.sort(first)]
    gaps = np.abs(cand[:, None, :] - cand[None, :, :]).max(axis=-1)
    keep: list[int] = []
    dropped = np.zeros(len(cand), dtype=bool)
    for i in range(len(cand)):
        if not dropped[i]:
            keep.append(i)
            dropped |= gaps[i] <= tol
    raw = [(cand[i, :-1], float(cand[i, -1])) for i in keep]
    return sorted(int(v) for v in hull.vertices), raw


def interior_margin(Q: Polytope, x) -> float:
    """Signed distance from x to the hull boundary, within the affine span.

    Positive strictly inside (relative interior), zero on the boundary,
    negative outside. Points off the affine span are rejected.
    """
    p = point_array(x, Q.ambient_dim)
    viol = _span_violation(Q, p)
    if viol:
        raise OffAffineSpan(f"point is {viol:.3g} off the affine span of the states")
    if not Q.facets:
        return math.inf
    return min(
        (float(f.normal @ p) - f.offset) / float(np.linalg.norm(f.normal))
        for f in Q.facets
    )


def _span_violation(Q: Polytope, p: np.ndarray) -> float:
    """Distance from p to the affine span of the hull, or 0.0 within tolerance."""
    if not Q.span_equations:
        return 0.0
    viol = max(abs(float(eq.normal @ p) - eq.offset) for eq in Q.span_equations)
    return viol if viol > _SPAN_TOL else 0.0


def min_face(A: StateSet, direction) -> FaceResult:
    """States minimizing the pairing with `direction`, with tie tolerance
    1e-9 relative to the spread of pairing values (a zero direction ties
    every state)."""
    d = covector_array(direction, A.dim)
    pairings = A.points @ d
    low = float(pairings.min())
    spread = float(pairings.max()) - low
    idx = np.flatnonzero(pairings <= low + _TIE_REL * spread)
    bary = A.points[idx].mean(axis=0)
    return FaceResult(tuple(int(i) for i in idx), low, _frozen(bary))


def tropical_limit(A: StateSet, direction) -> np.ndarray:
    """Limit of the mean energy along t * direction as t grows without bound.

    The Gibbs weights concentrate uniformly on the face minimizing the
    pairing, so the limit is that face's barycenter.
    """
    return _limit_face(A, direction).barycenter


def _limit_face(A: StateSet, direction) -> FaceResult:
    """`min_face` for a direction that must be nonzero."""
    d = covector_array(direction, A.dim)
    if not np.any(d != 0.0):
        raise ZeroDirection("limit direction must be nonzero")
    return min_face(A, d)
