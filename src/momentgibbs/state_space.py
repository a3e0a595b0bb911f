"""Finite state sets with vector-valued energies, plus observables and covectors.

A state set is an ordered list of N distinct points in R^n; the point of state
i is its energy vector. Its input is checked in bulk: one pass over the entry
types of a JSON document and one conversion of the rows to a float array.
Only when a bulk check fails do the row-by-row checks run, to name the first
bad row. Covectors live in the dual space and pair with points through the
ordinary dot product. Everything here is immutable after construction and
safe to share across threads. A state set's two lazily filled fields, its
hull and the solver's beta = 0 state, hold the same value on every write, so
a race between two threads that fill one is harmless.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatch, DuplicatePoint, EmptyStateSet, LengthMismatch

# Singular values below RANK_TOL times the largest one count as zero when
# computing the affine dimension; the test is relative, so it holds at any scale.
RANK_TOL = 1e-9

_JSON_KEYS = {"dim", "points", "labels"}

if TYPE_CHECKING:
    from .polytope import Polytope


def _float_array(values, what: str) -> np.ndarray:
    """`np.asarray(values, dtype=float)`, with a Python int beyond the float
    range reported as a ValueError ("<what> beyond the float range")."""
    try:
        return np.asarray(values, dtype=float)
    except OverflowError:
        raise ValueError(f"{what} beyond the float range") from None


def _points_matrix(points, dim: int) -> np.ndarray:
    if isinstance(points, np.ndarray):
        arr = _float_array(points, "points array has a coordinate")
        if arr.ndim != 2 or arr.shape[1] != dim:
            raise DimensionMismatch(
                f"points array has shape {arr.shape}, expected (N, {dim})"
            )
        if arr.shape[0] == 0:
            raise EmptyStateSet("state set must contain at least one point")
        return arr.copy()
    rows = list(points)
    # one conversion: an (N, dim) result passes every row check below (no rows
    # give shape (0,)); the checks run only on failure, to name the first bad row
    try:
        arr = np.array(rows, dtype=float)
        if arr.shape == (len(rows), dim):
            return arr
    except (TypeError, ValueError, OverflowError):
        pass
    if not rows:
        raise EmptyStateSet("state set must contain at least one point")
    for i, row in enumerate(rows):
        if np.ndim(row) != 1 or len(row) != dim:
            raise DimensionMismatch(f"point {i} has {np.size(row)} coordinates, expected {dim}")
    try:
        return np.array(rows, dtype=float)
    except OverflowError:  # a Python int beyond the float range
        bad = next(i for i, row in enumerate(rows) if max(map(abs, row)) > sys.float_info.max)
        raise ValueError(f"point {bad} has a coordinate beyond the float range") from None


def _value_eq(self, other):
    """`==` for the frozen value types that hold arrays: the same class, and
    every compared field equal, arrays in shape and every entry, other fields
    by `==`. Hashing stays a TypeError, as arrays do not hash."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    for f in fields(self):
        if f.compare:
            a, b = getattr(self, f.name), getattr(other, f.name)
            if not (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b):
                return False
    return True


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A read-only copy of arr: what each value type stores, so no caller's array aliases it."""
    out = arr.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class StateSet:
    """Ordered set of N distinct energy points in R^dim.

    The points are converted in one call and checked in bulk (an (N, dim)
    float array, all finite, all distinct); the first bad row or pair is named
    only on failure. Construction picks the set's frame, the first point as
    origin and the unit 2^k with k the binary exponent of the largest
    |coordinate|, and does one thin SVD of the points less the origin in that
    unit. `affine_dim` and the frame `affine_frame` returns are read from it;
    the (n, d) span matrix (the identity at full dimension, so lattice points
    keep integer coordinates), the points (as columns) and the origin in the unit
    and the frame coordinates (`_frame_coords` of the points, as (d, N) rows) are
    cached read-only.
    `is_lattice` records whether every input coordinate was an integer. Points
    are stored as float64 exactly as given.
    """

    dim: int
    points: np.ndarray
    labels: tuple[str, ...] | None = None
    affine_dim: int = field(init=False)
    is_lattice: bool = field(init=False)
    # the frame: k, all n right singular vectors (see __post_init__), span, the points in
    # the unit as (n, N) rows (fast differences), origin, coordinates as (d, N) rows
    _exp: int = field(init=False, repr=False, compare=False)
    _vh: np.ndarray = field(init=False, repr=False, compare=False)
    _span: np.ndarray = field(init=False, repr=False, compare=False)
    _unit_t: np.ndarray = field(init=False, repr=False, compare=False)
    _origin: np.ndarray = field(init=False, repr=False, compare=False)
    _coords: np.ndarray = field(init=False, repr=False, compare=False)
    # memos filled by `polytope.convex_hull` and `moment_solver.invert_mean_energy`
    # on first use; not part of the value
    _hull: Polytope | None = field(default=None, init=False, repr=False, compare=False)
    _start: tuple | None = field(default=None, init=False, repr=False, compare=False)

    __eq__ = _value_eq

    def __post_init__(self):
        if isinstance(self.dim, bool) or not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim!r}")
        object.__setattr__(self, "dim", int(self.dim))
        pts = _points_matrix(self.points, self.dim)
        if not np.all(np.isfinite(pts)):
            bad = int(np.flatnonzero(~np.isfinite(pts).all(axis=1))[0])
            raise ValueError(f"point {bad} has non-finite coordinates")
        _check_distinct(pts)
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != pts.shape[0]:
                raise LengthMismatch(
                    f"{len(labels)} labels for {pts.shape[0]} states"
                )
            if len(set(labels)) != len(labels):
                raise ValueError("labels must be distinct")
            object.__setattr__(self, "labels", labels)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        k = math.frexp(float(np.abs(pts).max()))[1]
        unit = np.ldexp(pts, -k)
        # thin when N >= n; with fewer points than coordinates the complement
        # needs all n rows of vh, and the left factor is at most n x n anyway
        _, s, vh = np.linalg.svd(unit - unit[0], full_matrices=pts.shape[0] < self.dim)
        object.__setattr__(self, "_exp", k)
        object.__setattr__(self, "_vh", vh)
        object.__setattr__(self, "affine_dim", int(np.sum(s > RANK_TOL * s[0])))
        d = self.affine_dim
        object.__setattr__(self, "_span", vh[:d].T.copy() if d < self.dim else np.eye(d))
        object.__setattr__(self, "_unit_t", np.ascontiguousarray(unit.T))
        object.__setattr__(self, "_origin", unit[0].copy())
        object.__setattr__(self, "_coords", np.ascontiguousarray(_frame_coords(self, pts).T))
        for arr in (vh, self._span, self._unit_t, self._origin, self._coords):
            arr.setflags(write=False)
        object.__setattr__(self, "is_lattice", bool(np.all(pts == np.rint(pts))))

    def __len__(self) -> int:
        return self.points.shape[0]

    def __reduce__(self):
        """Pickled as its constructor arguments: a load rebuilds the frame, with no memo."""
        return StateSet, (self.dim, self.points, self.labels)


@dataclass(frozen=True)
class Observable:
    """A real-valued function on the states, stored as one value per state."""

    values: np.ndarray

    __eq__ = _value_eq

    def __post_init__(self):
        vals = np.atleast_1d(_float_array(self.values, "observable has a value"))
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("observable values must form a nonempty vector")
        if not np.all(np.isfinite(vals)):
            raise ValueError("observable values must be finite")
        object.__setattr__(self, "values", _read_only(vals))

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class CoVector:
    """Inverse-temperature vector in the dual space; pairs with points by dot
    product."""

    components: np.ndarray

    __eq__ = _value_eq

    def __post_init__(self):
        comp = np.atleast_1d(_float_array(self.components, "covector has a component"))
        if comp.ndim != 1 or comp.size < 1:
            raise ValueError("covector needs at least one component")
        if not np.logical_and.reduce(np.isfinite(comp)):
            raise ValueError("covector components must be finite")
        object.__setattr__(self, "components", _read_only(comp))

    def __len__(self) -> int:
        return self.components.shape[0]

    def pairing(self, point) -> float:
        """(beta, omega) = sum_i beta_i * omega_i."""
        return float(self.components @ point_array(point, len(self)))


def _check_distinct(pts: np.ndarray) -> None:
    order = np.lexsort(pts.T[::-1])
    sorted_pts = pts[order]
    same = np.all(sorted_pts[1:] == sorted_pts[:-1], axis=1)
    if np.any(same):
        k = int(np.flatnonzero(same)[0])
        i, j = sorted((int(order[k]), int(order[k + 1])))
        raise DuplicatePoint(f"points {i} and {j} are identical")


def new_state_set(dim: int, points, labels=None) -> StateSet:
    """Validate and build a StateSet; see the class for the invariants."""
    return StateSet(dim, points, labels)


def affine_dim(A: StateSet) -> int:
    """Dimension of the affine span of the points (cached at construction)."""
    return A.affine_dim


def affine_frame(A: StateSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal frame of the affine span.

    Returns (origin, span, complement): `origin` is the first point, `span` is
    n x d with columns spanning the centered point directions (the identity
    when d = n), and `complement` is n x (n-d) with columns spanning the
    annihilator, each a fresh C-ordered copy. The frame is read from the SVD
    computed at construction, the same factorization `affine_dim` counts.
    """
    return A.points[0].copy(), A._span.copy(), A._vh[A.affine_dim :].T.copy()


def _frame_coords(A: StateSet, x: np.ndarray) -> np.ndarray:
    """Span coordinates of points (rows) or a point about the first point, in the unit 2^k."""
    return (np.ldexp(x, -A._exp) - A._origin) @ A._span


def _unit_covector(b: np.ndarray) -> tuple[np.ndarray, int]:
    """b times 2^-j, its entries below 1 in magnitude, and j (exact down to 2^-1022)."""
    j = math.frexp(float(np.abs(b).max()))[1]
    return np.ldexp(b, -j), j


def covector_array(beta, dim: int) -> np.ndarray:
    """Coerce a CoVector or array-like into a validated (dim,) float array."""
    if isinstance(beta, CoVector):
        comp = beta.components
    else:
        comp = np.atleast_1d(_float_array(beta, "covector has a component"))
    if comp.ndim != 1 or comp.shape[0] != dim:
        raise DimensionMismatch(f"covector has {comp.size} components, expected {dim}")
    if not np.logical_and.reduce(np.isfinite(comp)):
        raise ValueError("covector components must be finite")
    return np.asarray(comp, dtype=float)


def point_array(x, dim: int) -> np.ndarray:
    """Coerce a point (array-like or scalar for dim 1) into a (dim,) array."""
    p = np.atleast_1d(_float_array(x, "point has a coordinate"))
    if p.ndim != 1 or p.shape[0] != dim:
        raise DimensionMismatch(f"point has {p.size} coordinates, expected {dim}")
    if not np.logical_and.reduce(np.isfinite(p)):
        raise ValueError("point coordinates must be finite")
    return p


def state_set_from_json(doc) -> StateSet:
    """Build a StateSet from the CLI JSON document.

    Schema: {"dim": n, "points": [[...n reals...], ...], "labels": [...]?}.
    Unknown keys are rejected.
    """
    if not isinstance(doc, dict):
        raise ValueError("state set document must be a JSON object")
    unknown = sorted(set(doc) - _JSON_KEYS)
    if unknown:
        raise ValueError(f"unknown keys in state set document: {unknown}")
    for key in ("dim", "points"):
        if key not in doc:
            raise ValueError(f"state set document is missing {key!r}")
    dim = doc["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise ValueError("dim must be an integer")
    points = doc["points"]
    if not isinstance(points, list):
        raise ValueError("points must be a list of coordinate lists")
    # one pass over the types; on failure the row loop names the first bad row,
    # or accepts what the pass is too strict for (subclasses such as np.float64)
    if set(map(type, points)) != {list} or not (
        set(map(type, chain.from_iterable(points))) <= {int, float}
    ):
        for i, row in enumerate(points):
            if not isinstance(row, list):
                raise ValueError(f"point {i} must be a list of numbers")
            for v in row:
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise ValueError(f"point {i} contains a non-numeric entry")
    labels = doc.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
            raise ValueError("labels must be a list of strings")
    return new_state_set(dim, points, labels)


def state_set_to_json(A: StateSet) -> dict:
    """Inverse of `state_set_from_json` (labels emitted only when present)."""
    doc = {"dim": A.dim, "points": [[float(v) for v in row] for row in A.points]}
    if A.labels is not None:
        doc["labels"] = list(A.labels)
    return doc
