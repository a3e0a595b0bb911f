"""Convex-hull geometry of the energy points and low-temperature limits.

The hull is computed in the state set's frame: every set is centered at its
first point, in span coordinates (orthonormal ones for a degenerate set, whose
span is reported as equality constraints). Every halfspace or equation is one
row (normal, offset) of a float64 array with n+1 columns: facet rows read
(normal, x) >= offset and hold on the whole hull with equality on the facet;
span rows read (normal, x) = offset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OffAffineSpan, UnsupportedDimension, ZeroDirection
from .state_space import StateSet, _read_only, _unit_covector, affine_frame, covector_array, point_array

MAX_HULL_DIM = 6

# a point is on the span within _SPAN_TOL of the diameter plus _SPAN_ULPS ulps of the unit
# 2^k per state and coordinate: the rounding of a mean of N points and of the equations
_SPAN_TOL, _SPAN_ULPS = 1e-9, 4
_TIE_REL = 1e-9
_DIAM_ROWS = 256


@dataclass(frozen=True, eq=False)
class FaceResult:
    """States minimizing a pairing, the minimum value, and their barycenter.

    Results compare and hash by identity.
    """

    indices: tuple[int, ...]
    value: float
    barycenter: np.ndarray


@dataclass(frozen=True, eq=False)
class Polytope:
    """Hull of a state set: vertex indices, facet halfspaces, span equations.

    `facets` is a read-only float64 array of shape (F, n+1): row i is
    (normal, offset) of the halfspace (normal, x) >= offset, and `len(facets)`
    counts the facets. `span_equations` is a read-only array of shape
    (n-d, n+1) whose rows (unit normal, offset) read (normal, x) = offset and
    cut out the affine span; it has no rows when the points affinely span the
    ambient space, and otherwise the facet normals live inside the span.
    It keeps its set's unit 2^k and its diameter in that unit, finite where
    `diameter` overflows, the distance within which a point counts as on the
    span, and the facet normals' norms, computed once with it, in a private
    read-only array that `repr` leaves out; every margin divides by them.
    Hulls compare and hash by identity.
    """

    ambient_dim: int
    affine_dim: int
    vertices: tuple[int, ...]
    facets: np.ndarray
    span_equations: np.ndarray
    _unit_diameter: float = field(repr=False)
    _exp: int = field(repr=False)
    _span_tol: float = field(repr=False)
    _facet_norms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        norms = np.linalg.norm(self.facets[:, :-1], axis=1)
        norms.setflags(write=False)
        object.__setattr__(self, "_facet_norms", norms)

    @property
    def diameter(self) -> float:
        return float(np.ldexp(self._unit_diameter, self._exp))


def convex_hull(A: StateSet) -> Polytope:
    """Vertices and facets of the hull of the points.

    Dimensions 0 to 2 (after span reduction) are enumerated directly;
    dimensions 3 to 6 go through qhull, in the set's unit 2^k, with coplanar
    facet merging. Output order is deterministic: vertex indices ascending,
    facets sorted by their normals. The hull is computed once per state set
    and shared by every later call.
    """
    if A._hull is None:
        object.__setattr__(A, "_hull", _enumerate_hull(A))
    return A._hull


def _enumerate_hull(A: StateSet) -> Polytope:
    d = A.affine_dim
    if d > MAX_HULL_DIM:
        raise UnsupportedDimension(
            f"hull enumeration supports affine dimension <= {MAX_HULL_DIM}, got {d}"
        )

    origin, span, comp = affine_frame(A)
    # one product per column, as for the facets below; no rows at full dimension
    span_eqs = np.column_stack([comp.T + 0.0, [c @ origin for c in comp.T]])
    span_eqs.setflags(write=False)

    if d == 0:
        vertices: list[int] = [0]
        normals, offsets = np.zeros((0, 0)), np.zeros(0)
    elif d == 1:
        vertices, normals, offsets = _hull_interval(A._coords[0])
    elif d == 2:
        lattice = A.is_lattice and d == A.dim
        vertices, normals, offsets = _hull_planar(A._coords.T, A._exp, A._origin if lattice else None)
    else:
        vertices, normals, offsets = _hull_qhull(A._coords.T)
    # enumerated in span coordinates about the first point, in the set's unit 2^k:
    # stacked matrix-vector products, each with the bits of its own `span @ n` (a
    # matrix-matrix product may sum in another order), and the first point's
    # pairing added in the unit, where no sum overflows
    normals = (span @ normals[:, :, None])[:, :, 0]
    offsets = np.ldexp(offsets + (normals[:, None, :] @ A._origin[:, None])[:, 0, 0], A._exp)
    # +0.0 canonicalizes -0.0 normals; offsets keep their sign. Distinct facets
    # have distinct normals, so the normals alone order them (no offset overflows)
    rows = np.column_stack([normals + 0.0, offsets])
    facets = rows[np.lexsort(np.round(rows[:, :-1], 12).T[::-1])]
    facets.setflags(write=False)

    verts = tuple(sorted(int(i) for i in vertices))
    vp = np.ldexp(A.points[list(verts)], -A._exp)
    diam = 0.0
    # blocks of rows keep the pairwise differences linear in the vertex count
    for lo in range(0, len(vp), _DIAM_ROWS):
        gaps = vp[lo : lo + _DIAM_ROWS, None, :] - vp[None, :, :]
        diam = max(diam, float(np.linalg.norm(gaps, axis=-1).max()))
    span_tol = math.ldexp(_SPAN_TOL * diam + _SPAN_ULPS * (len(A) + A.dim) * np.finfo(float).eps, A._exp)
    return Polytope(A.dim, d, verts, facets, span_eqs, diam, A._exp, span_tol)


def _hull_interval(t: np.ndarray):
    imin = int(np.argmin(t))
    imax = int(np.argmax(t))
    return [imin, imax], np.array([[1.0], [-1.0]]), np.array([t[imin], -t[imax]])


def _hull_planar(pts: np.ndarray, k: int, lattice_origin: np.ndarray | None):
    """Monotone chain in the plane; returns CCW vertices and edge halfspaces
    (a lattice set, given with its first point, keeps integer normals, scaled
    back from the unit 2^k, while every normal and offset about the origin is a double)."""
    scale = float(np.abs(pts).max())
    eps = 1e-9 * scale * scale  # cross products scale quadratically
    xs, ys = pts[:, 0].tolist(), pts[:, 1].tolist()
    order = sorted(range(len(xs)), key=lambda i: (xs[i], ys[i]))

    def cross(o, a, b):
        return (xs[a] - xs[o]) * (ys[b] - ys[o]) - (ys[a] - ys[o]) * (xs[b] - xs[o])

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

    # integer offsets grow as the scale squared: past 2^1024, unit normals take over
    for integer in (lattice_origin is not None, False):
        normals, offsets = [], []
        with np.errstate(over="ignore", invalid="ignore"):  # a lattice pass past 2^1024 fails below
            for a, b in zip(ring, ring[1:] + ring[:1]):
                edge = pts[b] - pts[a]
                normal = np.array([-edge[1], edge[0]])  # interior is left of a->b
                normal = np.ldexp(normal, k) if integer else normal / np.linalg.norm(normal)
                normals.append(normal)
                offsets.append(float(normal @ pts[a]))
            # `_enumerate_hull` scales each offset plus the origin's pairing by 2^k, as here
            tops = integer and np.ldexp(np.add(offsets, np.array(normals) @ lattice_origin), k)
        if not integer or np.isfinite(tops).all():
            return ring, np.array(normals), np.array(offsets)


def _hull_qhull(pts: np.ndarray):
    """qhull facets with coplanar (triangulated) duplicates merged."""
    from scipy.spatial import ConvexHull, cKDTree

    hull = ConvexHull(pts)
    # inside the hull: equations[:, :-1] @ x + equations[:, -1] <= 0
    rows = np.column_stack([-hull.equations[:, :-1], hull.equations[:, -1]])
    # unit normals as they are, offsets in units of the largest centered coordinate
    key = rows / np.append(np.ones(pts.shape[1]), np.abs(pts).max())
    # cheap bulk collapse by rounding, then a tolerance pass for rows that
    # straddle a rounding boundary
    _, first = np.unique(np.round(key, 9), axis=0, return_index=True)
    first = np.sort(first)
    # greedy in candidate order: a kept row drops every row within 1e-7 of it
    # (max-norm). Pairs come sorted by their first index, so a row's own fate
    # is settled before the pairs it heads are read.
    dropped: set[int] = set()
    for i, j in sorted(cKDTree(key[first]).query_pairs(1e-7, p=np.inf)):
        if i not in dropped:
            dropped.add(j)
    keep = first[[i for i in range(len(first)) if i not in dropped]]
    return sorted(int(v) for v in hull.vertices), rows[keep, :-1], rows[keep, -1]


def interior_margin(Q: Polytope, x) -> float:
    """Signed distance from x to the hull boundary, within the affine span.

    Positive strictly inside (relative interior), zero on the boundary,
    negative outside. Points off the affine span are rejected.
    """
    p = point_array(x, Q.ambient_dim)
    viol = _span_violation(Q, p)
    if viol:
        raise OffAffineSpan(f"point is {viol:.3g} off the affine span of the states")
    return _margin(Q, p)


def _margin(Q: Polytope, p: np.ndarray) -> float:
    """`interior_margin` of a (n,) float array already known to lie on the span."""
    margins = (Q.facets[:, :-1] @ p - Q.facets[:, -1]) / Q._facet_norms
    return float(np.minimum.reduce(margins, initial=math.inf))  # no facets: a single point


def _span_violation(Q: Polytope, p: np.ndarray) -> float:
    """Distance from p to the affine span of the hull, or 0.0 when it is within the
    hull's span tolerance: `_SPAN_TOL` times its diameter plus `_SPAN_ULPS` (N + n)
    ulps of its set's unit 2^k, so it follows the spread of the set, not |x|."""
    eqs = Q.span_equations
    if not len(eqs):
        return 0.0
    viol = float(np.maximum.reduce(np.abs(eqs[:, :-1] @ p - eqs[:, -1])))
    return viol if viol > Q._span_tol else 0.0


def min_face(A: StateSet, direction) -> FaceResult:
    """States minimizing the pairing with `direction`, tied within 1e-9 of the
    pairings' spread, taken from their halves so it is finite at every magnitude
    (a zero direction ties every state)."""
    d = covector_array(direction, A.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        pairings = A.points @ d
    value = float(pairings.min())
    if not np.all(np.isfinite(pairings)):
        # a pairing overflowed: in the set's unit 2^k and d's own power of two
        # the pairings are finite and exact multiples of the true ones
        pairings = np.ldexp(A.points, -A._exp) @ _unit_covector(d)[0]
    low, high = float(pairings.min()), float(pairings.max())
    tol = 2 * _TIE_REL * (high / 2 - low / 2)  # the halves' spread cannot overflow
    idx = np.flatnonzero(pairings <= low + tol)
    with np.errstate(over="ignore", invalid="ignore"):
        bary = A.points[idx].mean(axis=0)
    if not np.all(np.isfinite(bary)):  # a sum overflowed: average those in the unit 2^k
        unit = np.ldexp(np.ldexp(A.points[idx], -A._exp).mean(axis=0), A._exp)
        bary = np.where(np.isfinite(bary), bary, unit)
    return FaceResult(tuple(int(i) for i in idx), value, _read_only(bary + 0.0))  # +0.0: no -0.0


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
