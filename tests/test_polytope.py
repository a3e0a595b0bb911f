import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import momentgibbs as mg
from oracles import classify_against_hull


def test_interval_hull(three_state):
    Q = mg.convex_hull(three_state)
    assert Q.vertices == (0, 2)
    assert Q.affine_dim == 1
    assert Q.span_equations.shape == (0, 2)
    facets = {tuple(row) for row in Q.facets.tolist()}
    assert facets == {(1.0, 0.0), (-1.0, -2.0)}
    assert Q.diameter == 2.0


def test_square_hull(square):
    Q = mg.convex_hull(square)
    assert Q.vertices == (0, 1, 2, 3)
    assert len(Q.facets) == 4
    # unit square is cut out by x >= 0, y >= 0, -x >= -1, -y >= -1
    facets = {tuple(row) for row in Q.facets.tolist()}
    assert facets == {
        (1.0, 0.0, 0.0),
        (0.0, 1.0, 0.0),
        (-1.0, 0.0, -1.0),
        (0.0, -1.0, -1.0),
    }


def test_collinear_hull(collinear):
    Q = mg.convex_hull(collinear)
    assert Q.vertices == (0, 2)
    assert Q.affine_dim == 1
    assert len(Q.span_equations) == 1
    normal, offset = Q.span_equations[0, :-1], Q.span_equations[0, -1]
    # the span is the line x = y
    assert abs(abs(normal[0]) - 1 / math.sqrt(2)) < 1e-12
    assert normal[0] == pytest.approx(-normal[1], abs=1e-12)
    assert offset == pytest.approx(0.0, abs=1e-12)
    for pt in collinear.points:
        assert float(normal @ pt) == pytest.approx(offset, abs=1e-12)


def test_interior_margin_square(square):
    Q = mg.convex_hull(square)
    assert mg.interior_margin(Q, [0.5, 0.5]) == pytest.approx(0.5)
    assert mg.interior_margin(Q, [1.0, 1.0]) == pytest.approx(0.0, abs=1e-15)
    assert mg.interior_margin(Q, [2.0, 2.0]) == pytest.approx(-1.0)
    with pytest.raises(mg.DimensionMismatch):
        mg.interior_margin(Q, [0.5])


def test_interior_margin_relative_to_span(collinear):
    Q = mg.convex_hull(collinear)
    assert mg.interior_margin(Q, [1.0, 1.0]) == pytest.approx(math.sqrt(2))
    with pytest.raises(mg.OffAffineSpan):
        mg.interior_margin(Q, [1.0, 1.2])


def test_single_point_hull():
    A = mg.new_state_set(2, [[3.0, 4.0]])
    Q = mg.convex_hull(A)
    assert Q.vertices == (0,)
    assert Q.facets.shape == (0, 3)
    assert len(Q.span_equations) == 2
    assert mg.interior_margin(Q, [3.0, 4.0]) == math.inf
    with pytest.raises(mg.OffAffineSpan):
        mg.interior_margin(Q, [3.0, 4.1])


def test_facet_invariants_random_sets():
    rng = np.random.Generator(np.random.Philox(key=31))
    for _ in range(20):
        n = int(rng.integers(1, 5))
        N = int(rng.integers(n + 1, 13))
        A = mg.new_state_set(n, rng.normal(size=(N, n)))
        Q = mg.convex_hull(A)
        for normal, offset in zip(Q.facets[:, :-1], Q.facets[:, -1]):
            values = A.points @ normal - offset
            assert values.min() >= -1e-9  # every point satisfies the halfspace
            norm = np.linalg.norm(normal)
            tight = np.sum(np.abs(values) <= 1e-7 * norm)
            assert tight >= Q.affine_dim  # facets are genuine faces
        for v in Q.vertices:
            assert 0 <= v < N


def test_hull_determinism():
    rng = np.random.Generator(np.random.Philox(key=32))
    pts = rng.normal(size=(12, 3))
    # two sets, so the memo on one cannot hand back the other's hull
    Q1 = mg.convex_hull(mg.new_state_set(3, pts))
    Q2 = mg.convex_hull(mg.new_state_set(3, pts))
    assert Q1 is not Q2
    assert Q1.vertices == Q2.vertices
    assert len(Q1.facets) == len(Q2.facets)
    assert np.array_equal(Q1.facets, Q2.facets)


def _report_bits(r):
    return (r.beta.components.tobytes(), r.iterations, r.grad_norm.hex(),
            r.entropy.hex(), r.converged, r.reduced)


def test_hull_memoized_per_state_set():
    rng = np.random.Generator(np.random.Philox(key=38))
    pts = rng.normal(size=(12, 3))
    A = mg.new_state_set(3, pts)
    Q = mg.convex_hull(A)
    assert mg.convex_hull(A) is Q
    # the memo is not part of the value
    assert repr(A) == repr(mg.new_state_set(3, pts))
    single = mg.new_state_set(1, [[3.0]])
    mg.convex_hull(single)
    assert single == mg.new_state_set(1, [[3.0]])
    # a solve on the memoized hull matches one on a fresh set, bit for bit
    target = mg.mean_energy(A, rng.normal(size=3))
    first = _report_bits(mg.invert_mean_energy(A, target))
    assert _report_bits(mg.invert_mean_energy(A, target)) == first
    assert _report_bits(mg.invert_mean_energy(mg.new_state_set(3, pts), target)) == first


def test_hulls_compare_by_identity():
    pts = [[0, 0], [1, 0], [0, 1], [1, 1]]
    Q = mg.convex_hull(mg.new_state_set(2, pts))
    other = mg.convex_hull(mg.new_state_set(2, pts))
    assert _hull_bits(other) == _hull_bits(Q)
    assert Q == Q
    assert not (Q == other)
    assert Q != other
    assert hash(Q) == hash(Q)
    assert len({Q, other}) == 2


def _hull_bits(Q):
    return (Q.vertices, Q.diameter.hex(),
            Q.facets.tobytes())


def test_hull_memo_shared_across_threads():
    rng = np.random.Generator(np.random.Philox(key=39))
    point_sets = [rng.normal(size=(40, 3)) for _ in range(12)]
    expected = [_hull_bits(mg.convex_hull(mg.new_state_set(3, p))) for p in point_sets]
    shared = [mg.new_state_set(3, p) for p in point_sets]
    seen = []  # list.append is atomic under the interpreter lock

    def work():
        for A in shared:
            seen.append((id(A), _hull_bits(mg.convex_hull(A))))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 6 * len(shared)
    by_id = {id(A): bits for A, bits in zip(shared, expected)}
    assert all(bits == by_id[key] for key, bits in seen)
    assert [_hull_bits(A._hull) for A in shared] == expected


def test_cube_facets_merged():
    cube = mg.new_state_set(3, [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    Q = mg.convex_hull(cube)
    assert len(Q.vertices) == 8
    assert len(Q.facets) == 6
    hyper = mg.new_state_set(
        4, [[a, b, c, d] for a in (0, 1) for b in (0, 1) for c in (0, 1) for d in (0, 1)]
    )
    Q4 = mg.convex_hull(hyper)
    assert len(Q4.vertices) == 16
    assert len(Q4.facets) == 8


def test_unsupported_dimension():
    pts = np.vstack([np.zeros(7), np.eye(7)])
    A = mg.new_state_set(7, pts)
    assert A.affine_dim == 7
    for _ in range(2):  # a refusal is not memoized as a hull
        with pytest.raises(mg.UnsupportedDimension):
            mg.convex_hull(A)


def _box_lattice(rng, d, n, side):
    """n distinct points of the integer box {0, ..., side-1}^d."""
    cells = rng.choice(side**d, size=n, replace=False)
    return np.stack(np.unravel_index(cells, (side,) * d), axis=1).astype(float)


def _dense_merge_hull(A):
    """Reference for `convex_hull` at affine dimension 3 to 6: qhull facets
    merged greedily through the dense F x F x (d+1) table of coefficient
    gaps, sorted by per-facet rounded tuples.

    Returns (vertices, [(normal, offset)], diameter, rows dropped by the
    tolerance pass after the rounding collapse).
    """
    from scipy.spatial import ConvexHull

    # every set centered at its first point; the span is the identity at full
    # dimension, else from its own full SVD, independent of the StateSet
    origin = A.points[0].copy()
    span = np.eye(A.dim)
    if A.affine_dim < A.dim:
        _, _, vh = np.linalg.svd(A.points - origin, full_matrices=True)
        span = vh[: A.affine_dim].T.copy()
    reduced = (A.points - origin) @ span
    hull = ConvexHull(reduced)
    rows = np.column_stack([-hull.equations[:, :-1], hull.equations[:, -1]])
    # unit normals as they are, offsets in units of the largest centered coordinate
    key = rows / np.append(np.ones(A.affine_dim), np.abs(reduced).max())
    _, first = np.unique(np.round(key, 9), axis=0, return_index=True)
    cand, cand_key = rows[np.sort(first)], key[np.sort(first)]
    gaps = np.abs(cand_key[:, None, :] - cand_key[None, :, :]).max(axis=-1)
    keep = []
    dropped = np.zeros(len(cand), dtype=bool)
    for i in range(len(cand)):
        if not dropped[i]:
            keep.append(i)
            dropped |= gaps[i] <= 1e-7
    facets = []
    for i in keep:
        normal = span @ cand[i, :-1]
        offset = float(cand[i, -1]) + float(normal @ origin)
        facets.append((np.array(normal, dtype=float) + 0.0, float(offset)))
    facets.sort(key=lambda f: tuple(np.round(np.append(f[0], f[1]), 12)))
    verts = tuple(sorted(int(v) for v in hull.vertices))
    vp = A.points[list(verts)]
    diam = float(np.linalg.norm(vp[:, None, :] - vp[None, :, :], axis=-1).max())
    return verts, facets, diam, len(cand) - len(keep)


def _merge_oracle_sets():
    rng = np.random.Generator(np.random.Philox(key=36))
    # box-filled lattices: many points on the box faces, so qhull reports
    # many coplanar simplices per facet
    for d, n, side in [(3, 120, 6), (4, 120, 4), (5, 120, 3), (6, 100, 3)]:
        yield _box_lattice(rng, d, n, side)
    # jitter just below the merge tolerance: coplanar rows that the rounding
    # collapse keeps apart, in chains whose outcome depends on the greedy order
    for d, n, side in [(3, 60, 5), (4, 60, 4), (5, 60, 3), (6, 30, 3)]:
        pts = _box_lattice(rng, d, n, side)
        yield pts + rng.normal(scale=3e-8, size=pts.shape)
    # a 4-D lattice set embedded in R^6
    embed = np.vstack([np.eye(4), [[1, 1, 0, -1], [0, 2, -1, 1]]])
    yield _box_lattice(rng, 4, 80, 4) @ embed.T + [1, -2, 3, 0, 2, -1]


def test_hull_matches_dense_merge_reference():
    tolerance_merges = 0
    for pts in _merge_oracle_sets():
        A = mg.new_state_set(pts.shape[1], pts)
        assert A.affine_dim >= 3
        verts, facets, diam, merged = _dense_merge_hull(A)
        Q = mg.convex_hull(A)
        assert Q.vertices == verts
        assert Q.diameter.hex() == diam.hex()
        assert len(Q.facets) == len(facets)
        for row, (normal, offset) in zip(Q.facets, facets):
            assert row[:-1].tobytes() == normal.tobytes()
            assert row[-1].hex() == offset.hex()
        tolerance_merges += merged
    assert tolerance_merges > 0


def test_six_dim_hull_memory_linear_in_facets():
    # affine dimension 6, N=200: several thousand facets, where a pairwise
    # facet table would take gigabytes
    rng = np.random.Generator(np.random.Philox(key=37))
    A = mg.new_state_set(6, _box_lattice(rng, 6, 200, 7))
    tracemalloc.start()
    try:
        Q = mg.convex_hull(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(Q.facets) > 5000
    assert peak < 64 * 2**20
    target = mg.mean_energy(A, 0.2 * rng.normal(size=6))
    assert mg.invert_mean_energy(A, target).converged


def _format_sets():
    rng = np.random.Generator(np.random.Philox(key=40))
    yield mg.new_state_set(1, [[0.0], [1.0], [2.0]])
    yield mg.new_state_set(2, [[0, 0], [1, 0], [0, 1], [1, 1]])
    yield mg.new_state_set(2, [[0, 0], [1, 1], [2, 2]])
    yield mg.new_state_set(2, [[3.0, 4.0]])
    yield mg.new_state_set(3, rng.normal(size=(30, 3)))
    embed = np.vstack([np.eye(4), [[1, 1, 0, -1], [0, 2, -1, 1]]])
    yield mg.new_state_set(6, _box_lattice(rng, 4, 60, 4) @ embed.T + 1.0)
    yield mg.new_state_set(5, rng.normal(size=(3, 5)))  # N < n


def test_halfspace_row_format():
    for A in _format_sets():
        Q = mg.convex_hull(A)
        n, d = A.dim, A.affine_dim
        for rows in (Q.facets, Q.span_equations):
            assert rows.dtype == np.float64
            assert not rows.flags.writeable
            with pytest.raises(ValueError):
                rows[..., 0] = 1.0
        F = Q.facets.shape[0]
        assert Q.facets.shape == (F, n + 1)
        assert len(Q.facets) == F
        assert (F == 0) == (d == 0)
        assert Q.span_equations.shape == (n - d, n + 1)
        # rows sorted by their coefficients rounded to 12 decimals
        keys = [tuple(row) for row in np.round(Q.facets, 12).tolist()]
        assert keys == sorted(keys)
        # span rows: unit normals, every point on every equation
        span_normals = Q.span_equations[:, :-1]
        assert np.allclose(np.linalg.norm(span_normals, axis=1), 1.0)
        assert np.allclose(A.points @ span_normals.T, Q.span_equations[:, -1])
        # facet norms: computed once with the hull, read-only, not in the repr
        norms = Q._facet_norms
        assert not norms.flags.writeable
        assert norms.tobytes() == np.linalg.norm(Q.facets[:, :-1], axis=1).tobytes()
        assert "_facet_norms" not in repr(Q)


def _per_facet_margin(Q, p):
    """Reference for `interior_margin` inside the span: one dot per facet."""
    if not len(Q.facets):
        return math.inf
    return min(
        (float(row[:-1] @ p) - float(row[-1])) / float(np.linalg.norm(row[:-1]))
        for row in Q.facets
    )


def _margin_oracle_sets():
    rng = np.random.Generator(np.random.Philox(key=41))
    for d in range(1, 7):
        # lattice, reduced lattice, scaled Gaussians
        side, n_pts = {1: (40, 12), 2: (9, 40), 3: (6, 60), 4: (4, 60), 5: (3, 60), 6: (3, 40)}[d]
        pts = _box_lattice(rng, d, n_pts, side)
        yield pts
        embed = rng.integers(-2, 3, size=(d + 2, d)).astype(float)
        embed[:d] += np.eye(d) * 3
        yield pts @ embed.T + rng.integers(-5, 6, size=d + 2)
        yield rng.normal(size=(n_pts, d)) * 10.0 ** rng.integers(-3, 4)


def test_margin_matches_per_facet_reference():
    rng = np.random.Generator(np.random.Philox(key=42))
    for pts in _margin_oracle_sets():
        A = mg.new_state_set(pts.shape[1], pts)
        Q = mg.convex_hull(A)
        targets = [mg.mean_energy(A, rng.normal(size=A.dim) / Q.diameter) for _ in range(3)]
        targets += [A.points[v] for v in Q.vertices[:3]]
        center = A.points.mean(axis=0)
        targets += [center + s * (A.points[Q.vertices[-1]] - center) for s in (0.5, 1.0, 1.5)]
        btol = 1e-9 * Q.diameter
        normals, offsets = Q.facets[:, :-1], Q.facets[:, -1]
        for t in targets:
            mine, ref = mg.interior_margin(Q, t), _per_facet_margin(Q, t)
            # the batched formula with norms computed on the spot, to the bit
            formula = (normals @ t - offsets) / np.linalg.norm(normals, axis=1)
            assert mine.hex() == float(formula.min(initial=math.inf)).hex()
            assert abs(mine - ref) <= 1e-15 * (Q.diameter + np.abs(t).max())
            assert (mine > btol, mine >= -btol) == (ref > btol, ref >= -btol)


def test_margin_matches_lp_classification():
    rng = np.random.Generator(np.random.Philox(key=33))
    checked = 0
    while checked < 15:
        n = int(rng.integers(1, 4))
        N = int(rng.integers(n + 1, 11))
        pts = rng.uniform(-1, 1, size=(N, n))
        A = mg.new_state_set(n, pts)
        if A.affine_dim != n:
            continue
        Q = mg.convex_hull(A)
        probes = []
        # clearly interior: fat convex combinations of all points
        w = rng.uniform(0.2, 1.0, size=N)
        probes.append(((w / w.sum()) @ pts, "interior"))
        # vertices sit on the boundary
        probes.append((pts[Q.vertices[0]], "boundary"))
        # push well past the hull
        center = pts.mean(axis=0)
        far = center + 10.0 * (pts[Q.vertices[-1]] - center + 1.0)
        probes.append((far, "exterior"))
        for x, expected in probes:
            lp_class = classify_against_hull(pts, x, tol=1e-7)
            margin = mg.interior_margin(Q, x)
            if margin > 1e-7:
                mine = "interior"
            elif margin >= -1e-7:
                mine = "boundary"
            else:
                mine = "exterior"
            assert mine == lp_class == expected
        checked += 1


def test_planar_lattice_normals_beyond_the_float_range_fall_back_to_unit_normals():
    # the integer edge normals, 2^1024 times the edges in the unit, are not doubles
    A = mg.new_state_set(2, [[-1.7e308, 0], [1.7e308, 0], [0, 1.7e308]])
    assert A.is_lattice and A._exp == 1024
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Q = mg.convex_hull(A)
    assert Q.vertices == (0, 1, 2) and len(Q.facets) == 3
    assert np.all(np.isfinite(Q.facets))
    assert np.allclose(np.linalg.norm(Q.facets[:, :-1], axis=1), 1.0, rtol=1e-15)
    assert mg.interior_margin(Q, [0.0, 1e307]) > 0 > mg.interior_margin(Q, [0.0, -1e307])


def test_min_face_square(square):
    face = mg.min_face(square, [1.0, 1.0])
    assert face.indices == (0,)
    assert face.value == 0.0
    assert np.array_equal(face.barycenter, [0.0, 0.0])

    tie = mg.min_face(square, [1.0, 0.0])
    assert tie.indices == (0, 2)
    assert tie.barycenter == pytest.approx([0.0, 0.5])

    everything = mg.min_face(square, [0.0, 0.0])
    assert everything.indices == (0, 1, 2, 3)
    assert everything.barycenter == pytest.approx([0.5, 0.5])


def test_min_face_with_overflowing_pairings():
    # the pairings are -inf and inf: the ties come from the exact scaled pairings
    face = mg.min_face(mg.new_state_set(1, [[-1.7e308], [1.7e308]]), [10.0])
    assert face.indices == (0,)
    assert face.value == -math.inf
    assert face.barycenter.tolist() == [-1.7e308]
    # 1e309 - 1e309 is not a number; scaled, the pairings are 0, a subnormal and 0
    A = mg.new_state_set(2, [[1e308, -1e308], [0, 1], [5e307, -5e307]])
    face = mg.min_face(A, [10.0, 10.0])
    assert face.indices == (0, 2)
    assert face.barycenter.tolist() == [7.5e307, -7.5e307]
    # the direction must be scaled too: in the set's unit alone, 1.5 * 1.7e308 overflows
    A = mg.new_state_set(3, [[1, 1, 1], [-1, -1, -1], [0, 0, 1]])
    assert mg.min_face(A, [1.7e308] * 3).indices == (1,)


def test_min_face_barycenter_whose_sum_overflows():
    # the first coordinates sum to inf: they are averaged in the set's unit 2^k
    A = mg.new_state_set(2, [[1.7e308, 0], [1.7e308, 1], [0, 0]])
    face = mg.min_face(A, [-1.0, 0.0])
    assert face.indices == (0, 1)
    assert face.barycenter.tolist() == [1.7e308, 0.5]
    assert mg.tropical_limit(A, [-1.0, 0.0]).tolist() == [1.7e308, 0.5]
    # a finite mean keeps its caller-unit bits: 1e-300 * 2^-1024 is zero
    A = mg.new_state_set(2, [[1.7e308, 1e-300], [1.7e308, 3e-300], [0, 0]])
    assert mg.min_face(A, [-1.0, 0.0]).barycenter.tolist() == [1.7e308, (1e-300 + 3e-300) / 2]
    # pairwise summation meets inf and -inf partial sums: nan is averaged in the unit too
    A = mg.new_state_set(1, [[(1.7e308 - i * 1e300) * (-1) ** i] for i in range(16)])
    face = mg.min_face(A, [0.0])
    assert len(face.indices) == 16
    assert face.barycenter[0] == pytest.approx(5e299, abs=1e-15 * 1.7e308)  # cancellation


@settings(deadline=None, max_examples=40)
@given(st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
def test_min_face_scale_invariant(scale):
    A = mg.new_state_set(2, [[0, 0], [1, 0], [0, 1], [1, 1]])
    base = mg.min_face(A, [1.0, 0.5]).indices
    assert mg.min_face(A, [scale, 0.5 * scale]).indices == base


def test_tropical_limit_values(two_state, square):
    assert mg.tropical_limit(two_state, [1.0]) == pytest.approx([0.0])
    assert mg.tropical_limit(two_state, [-1.0]) == pytest.approx([1.0])
    assert mg.tropical_limit(square, [1.0, 0.0]) == pytest.approx([0.0, 0.5])
    with pytest.raises(mg.ZeroDirection):
        mg.tropical_limit(square, [0.0, 0.0])


def test_tropical_convergence_rate():
    rng = np.random.Generator(np.random.Philox(key=34))
    done = 0
    while done < 10:
        n = int(rng.integers(1, 4))
        N = int(rng.integers(2, 9))
        pts = rng.integers(-4, 5, size=(N, n)).astype(float)
        try:
            A = mg.new_state_set(n, pts)
        except mg.DuplicatePoint:
            continue
        direction = rng.integers(-3, 4, size=n).astype(float)
        if not direction.any():
            continue
        pairings = np.sort(pts @ direction)
        gap = pairings[1] - pairings[0]
        if gap < 0.5:  # want a unique minimizer
            continue
        limit = mg.tropical_limit(A, direction)
        diam = mg.convex_hull(A).diameter
        errs = []
        for t in (10.0, 20.0, 50.0):
            err = np.linalg.norm(mg.mean_energy(A, t * direction) - limit)
            assert err <= (N - 1) * diam * math.exp(-t * gap) + 1e-15
            errs.append(err)
        assert errs[0] >= errs[1] >= errs[2]
        final = np.linalg.norm(mg.mean_energy(A, (50.0 / gap) * direction) - limit)
        assert final <= 1e-6
        done += 1


def test_mean_energy_always_strictly_interior():
    rng = np.random.Generator(np.random.Philox(key=35))
    for _ in range(15):
        n = int(rng.integers(1, 4))
        N = int(rng.integers(n + 1, 9))
        A = mg.new_state_set(n, rng.uniform(-1, 1, size=(N, n)))
        if A.affine_dim != n:
            continue
        Q = mg.convex_hull(A)
        for scale in (0.0, 1.0, 5.0):
            beta = scale * rng.normal(size=n)
            assert mg.interior_margin(Q, mg.mean_energy(A, beta)) > 0.0
