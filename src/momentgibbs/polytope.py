"""Convex-hull geometry of the energy points and low-temperature limits.

The hull is computed in the affine span of the points: full-dimensional sets
are handled directly, degenerate sets are first mapped to orthonormal span
coordinates and the span itself is reported as equality constraints. Every
halfspace or equation is one row (normal, offset) of a float64 array with n+1
columns: facet rows read (normal, x) >= offset and hold on the whole hull with
equality on the facet; span rows read (normal, x) = offset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OffAffineSpan, UnsupportedDimension, ZeroDirection
from .state_space import StateSet, affine_frame, covector_array, point_array

MAX_HULL_DIM = 6

_SPAN_TOL = 1e-9  # span violations are distances; the bound scales with the set's unit 2^k
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
    `diameter` overflows, and the facet normals' norms, computed once with it,
    in a private read-only array that `repr` leaves out; every margin divides
    by them. Hulls compare and hash by identity.
    """

    ambient_dim: int
    affine_dim: int
    vertices: tuple[int, ...]
    facets: np.ndarray
    span_equations: np.ndarray
    _unit_diameter: float = field(repr=False)
    _exp: int = field(repr=False)
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
        vertices, normals, offsets = _hull_interval(A._coords[:, 0])
    elif d == 2:
        vertices, normals, offsets = _hull_planar(A._coords, A._exp, A.is_lattice and d == A.dim)
    else:
        vertices, normals, offsets = _hull_qhull(A._coords)
    offsets = np.ldexp(offsets, A._exp)  # enumerated in the set's unit 2^k

    if len(span_eqs):
        # one product per facet: a batched product may sum in another order
        normals = np.array([span @ n for n in normals]).reshape(-1, A.dim)
        offsets = offsets + np.array([n @ origin for n in normals])
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
    return Polytope(A.dim, d, verts, facets, span_eqs, diam, A._exp)


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float) + 0.0  # +0.0 canonicalizes -0.0 entries
    out.setflags(write=False)
    return out


def _hull_interval(t: np.ndarray):
    imin = int(np.argmin(t))
    imax = int(np.argmax(t))
    return [imin, imax], np.array([[1.0], [-1.0]]), np.array([t[imin], -t[imax]])


def _hull_planar(pts: np.ndarray, k: int, keep_integer: bool):
    """Monotone chain in the plane; returns CCW vertices and edge halfspaces
    (a lattice set keeps integer normals, scaled back from the unit 2^k)."""
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
    for integer in (keep_integer, False):
        normals, offsets = [], []
        for a, b in zip(ring, ring[1:] + ring[:1]):
            edge = pts[b] - pts[a]
            normal = np.array([-edge[1], edge[0]])  # interior is left of a->b
            normal = np.ldexp(normal, k) if integer else normal / np.linalg.norm(normal)
            normals.append(normal)
            offsets.append(float(normal @ pts[a]))
        if not integer or math.frexp(max(map(abs, offsets)))[1] + k <= 1024:
            return ring, np.array(normals), np.array(offsets)


def _hull_qhull(pts: np.ndarray):
    """qhull facets with coplanar (triangulated) duplicates merged."""
    from scipy.spatial import ConvexHull, cKDTree

    hull = ConvexHull(pts)
    # inside the hull: equations[:, :-1] @ x + equations[:, -1] <= 0
    rows = np.column_stack([-hull.equations[:, :-1], hull.equations[:, -1]])
    # unit normals as they are, offsets in units of the largest coordinate
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
    return float(margins.min(initial=math.inf))  # no facets: a single point


def _span_violation(Q: Polytope, p: np.ndarray) -> float:
    """Distance from p to the affine span of the hull, or 0.0 when it is within
    `_SPAN_TOL` times the unit 2^k of the hull's state set."""
    eqs = Q.span_equations
    if not len(eqs):
        return 0.0
    viol = float(np.abs(eqs[:, :-1] @ p - eqs[:, -1]).max())
    return viol if viol > math.ldexp(_SPAN_TOL, Q._exp) else 0.0


def min_face(A: StateSet, direction) -> FaceResult:
    """States minimizing the pairing with `direction`, with tie tolerance
    1e-9 relative to the spread of pairing values (a zero direction ties
    every state)."""
    d = covector_array(direction, A.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        pairings = A.points @ d
    value = float(pairings.min())
    if not np.all(np.isfinite(pairings)):
        # a pairing overflowed: in the set's unit 2^k and d's own power of two
        # the pairings are finite and exact multiples of the true ones
        d_unit = np.ldexp(d, -math.frexp(float(np.abs(d).max()))[1])
        pairings = np.ldexp(A.points, -A._exp) @ d_unit
    low, high = float(pairings.min()), float(pairings.max())
    tol = _TIE_REL * (high - low)
    if math.isinf(tol):  # the spread overflowed; halving is exact at this magnitude
        tol = 2 * _TIE_REL * (high / 2 - low / 2)
    idx = np.flatnonzero(pairings <= low + tol)
    bary = A.points[idx].mean(axis=0)
    return FaceResult(tuple(int(i) for i in idx), value, _frozen(bary))


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
