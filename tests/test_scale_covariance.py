"""Exact scale covariance: a set and its 2^k multiple give the same results.

Each state set picks its frame, the unit 2^k with k the binary exponent of its
largest coordinate, and runs its rank test, hull tolerances and Newton solve
in that unit. Scaling by a power of two is exact in floating point, so the
affine dimension, the vertices, the iterations and the entropy keep every bit,
beta scales by exactly 2^-k and every refusal margin by exactly 2^k.
"""

import math

import numpy as np
import pytest

import momentgibbs as mg
from momentgibbs.state_space import affine_frame

SCALES = (-60, -20, 20, 60)


def _integer_sets():
    """Seeded integer sets of affine dimension 1 to 3; every third one is
    mapped into a larger ambient space, so it is reduced."""
    rng = np.random.Generator(np.random.Philox(key=71))
    for i in range(30):
        d = int(rng.integers(1, 4))
        pts = np.unique(rng.integers(-6, 7, size=(int(rng.integers(d + 2, 40)), d)), axis=0)
        if i % 3 == 0:
            embed = rng.integers(-2, 3, size=(d, d + 1))
            pts = np.unique(pts @ embed + rng.integers(-4, 5, size=d + 1), axis=0)
        yield rng, pts.astype(float)


def _outcome(A, target):
    try:
        r = mg.invert_mean_energy(A, target)
    except (mg.TargetOutsideHull, mg.TargetOnBoundary) as err:
        return type(err), err.margin
    assert r.converged
    return None, (r.beta.components, r.iterations, r.entropy)


def test_results_scale_exactly_with_powers_of_two():
    reduced = 0
    refusals = 0
    for rng, pts in _integer_sets():
        A = mg.new_state_set(pts.shape[1], pts)
        Q = mg.convex_hull(A)
        center, vertex = pts.mean(axis=0), pts[Q.vertices[-1]]
        targets = [
            mg.mean_energy(A, 0.3 * rng.normal(size=A.dim)),  # inside
            vertex,  # on the boundary
            2.0 * vertex - center,  # outside
        ]
        if A.affine_dim < A.dim:
            reduced += 1
            targets.append(center + affine_frame(A)[2][:, 0])  # off the span
        outcomes = {0: [_outcome(A, t) for t in targets]}
        for k in SCALES:
            B = mg.new_state_set(A.dim, np.ldexp(pts, k))
            assert B.affine_dim == A.affine_dim
            assert mg.convex_hull(B).vertices == Q.vertices
            outcomes[k] = [_outcome(B, np.ldexp(t, k)) for t in targets]
        for k in SCALES:
            # a planar lattice hull keeps integer edge normals, and a 2^-20
            # multiple of a lattice is no lattice, so it gets unit normals: its
            # margins agree with the lattice's to rounding, and exactly across
            # the scales that share its representation
            ref = -20 if k < 0 and A.affine_dim == A.dim == 2 else 0
            for (kind, got), (kind0, base), (_, want) in zip(outcomes[k], outcomes[0], outcomes[ref]):
                assert kind is kind0
                if kind is None:
                    assert got[0].tobytes() == np.ldexp(base[0], -k).tobytes()  # beta
                    assert got[1:] == base[1:]  # iterations and entropy
                else:
                    refusals += 1
                    assert got == math.ldexp(want, k - ref)
                    assert abs(math.ldexp(got, -k) - base) <= 1e-15 * np.abs(pts).max()
    assert reduced == 10 and refusals > 250


def test_extreme_scales():
    # the centered points used to overflow before the rank test
    A = mg.new_state_set(1, [[-1.7e308], [1.7e308]])
    assert A.affine_dim == 1
    assert mg.convex_hull(A).vertices == (0, 1)
    assert mg.invert_mean_energy(A, [0.0]).entropy == math.log(2)
    # the diameter used to overflow, so the midpoint was refused as on the boundary
    B = mg.new_state_set(1, [[0.0], [1e200]])
    r = mg.invert_mean_energy(B, [5e199])
    assert r.converged and r.beta.components.tolist() == [0.0]
    assert r.entropy == math.log(2)
    with pytest.raises(mg.TargetOnBoundary):
        mg.invert_mean_energy(B, [1e200])
