"""Translation covariance: a set and its integer translate give the same results.

Each state set's frame is centered at its first point, in the unit 2^k with k
the binary exponent of its largest coordinate. Moving every point by an integer
vector c that float64 holds exactly (up to 2^40 here) keeps the centered points
exact, so the translate's frame holds the same numbers times a power of two. Its
rank test, hull and Newton solve then take the same steps: the affine
dimension, the vertices, the facet normals and the iterations keep every bit,
and a hull offset moves by (normal, c), exactly where the normal is integer.
A target that moves exactly gives the same beta bits. A target t + c that
rounds carries an error of up to half an ulp of c, and beta moves by no more
than that error through the inverse covariance. The Gibbs log-weights pair
beta with the differences x - x_h about the heaviest state h, ranked in the
frame, and those differences are exact for an integer set and its translate,
so the probabilities, the entropy and the Legendre residual keep every bit
too; only log Z moves, by -(beta, c) plus the rounding of the shift
-(beta, x_h + c) that every state shares. `limit` ranks its ties among the
differences from the first state in the unit 2^k, so its face is the same
on a set and its translate.
"""

import json
from fractions import Fraction

import numpy as np

import momentgibbs as mg
from momentgibbs import cli

SHIFTS = (10**3, 10**5, 10**6, 2**40)


def _integer_sets():
    """Seeded integer sets of affine dimension 1 to 3; every sixth one is
    mapped into a larger ambient space, so it is reduced."""
    rng = np.random.Generator(np.random.Philox(key=81))
    for i in range(24):
        d = int(rng.integers(1, 4))
        pts = np.unique(rng.integers(-6, 7, size=(int(rng.integers(d + 2, 30)), d)), axis=0)
        if i % 6 == 5:
            embed = rng.integers(-2, 3, size=(d, d + 1))
            pts = np.unique(pts @ embed + rng.integers(-4, 5, size=d + 1), axis=0)
        yield rng, pts.astype(float)


def _translates(rng, pts):
    """The set moved by an integer vector of each size in SHIFTS, mixed signs."""
    for s in SHIFTS:
        c = s * rng.choice([-1.0, 1.0], size=pts.shape[1]) + rng.integers(-9, 10, size=pts.shape[1])
        yield c, mg.new_state_set(pts.shape[1], pts + c)


def _ulps(x):
    return np.spacing(np.abs(x))


def test_hull_moves_with_integer_translates():
    integer_rows = reduced = 0
    for rng, pts in _integer_sets():
        A = mg.new_state_set(pts.shape[1], pts)
        Q = mg.convex_hull(A)
        reduced += A.affine_dim < A.dim
        for c, B in _translates(rng, pts):
            P = mg.convex_hull(B)
            assert B.affine_dim == A.affine_dim and P.vertices == Q.vertices
            for rows, moved in ((Q.facets, P.facets), (Q.span_equations, P.span_equations)):
                normals = rows[:, :-1]
                assert moved[:, :-1].tobytes() == normals.tobytes()
                shift = normals @ c
                if np.array_equal(normals, np.rint(normals)):  # exact integer offsets
                    integer_rows += len(rows)
                    assert np.array_equal(moved[:, -1], rows[:, -1] + shift)
                else:  # a rounding of the sum and one of the origin's pairing
                    bound = 4 * _ulps(np.abs(rows[:, -1]) + np.abs(normals) @ np.abs(c))
                    assert np.all(np.abs(moved[:, -1] - (rows[:, -1] + shift)) <= bound)
    assert reduced == 4 and integer_rows > 250


def test_exactly_translated_targets_give_the_same_bits():
    solved = 0
    for rng, pts in _integer_sets():
        A = mg.new_state_set(pts.shape[1], pts)
        # positive weights in multiples of 2^-10: a relative interior target on
        # the span whose t + c is exact for |c| <= 2^41
        weights = (rng.multinomial(1024 - len(pts), np.full(len(pts), 1 / len(pts))) + 1) / 1024
        target = weights @ pts
        want = mg.invert_mean_energy(A, target)
        for c, B in _translates(rng, pts):
            got = mg.invert_mean_energy(B, target + c)
            assert got.beta.components.tobytes() == want.beta.components.tobytes()
            assert (got.iterations, got.grad_norm, got.entropy, got.reduced) == (
                want.iterations, want.grad_norm, want.entropy, want.reduced
            )
            solved += 1
    assert solved == 24 * len(SHIFTS)


def test_rounded_targets_move_beta_within_first_order_bound():
    # beta = grad S(t), so a target error e moves beta by H^-1 e to first order,
    # H the covariance at beta. Both solves stop with |t - mean| <= grad_norm *
    # diameter, which adds to e. Twice that first-order bound holds on every set.
    worst = dict.fromkeys(SHIFTS, 0.0)
    for rng, pts in _integer_sets():
        A = mg.new_state_set(pts.shape[1], pts)
        if A.affine_dim < A.dim:
            continue
        target = mg.mean_energy(A, 0.5 * rng.normal(size=A.dim))
        want = mg.invert_mean_energy(A, target)
        inv = np.linalg.norm(np.linalg.inv(mg.energy_covariance(A, want.beta)), 2)
        diam = mg.convex_hull(A).diameter
        for (c, B), s in zip(_translates(rng, pts), SHIFTS):
            moved = target + c
            got = mg.invert_mean_energy(B, moved)
            error = np.abs((moved - c) - target).max()  # exact: |c| >= 2 |target|
            stop = (want.grad_norm + got.grad_norm) * diam
            bound = 2 * inv * np.sqrt(A.dim) * (error + stop)
            gap = np.linalg.norm(got.beta.components - want.beta.components)
            assert gap <= bound
            worst[s] = max(worst[s], gap / np.abs(want.beta.components).max())
    # the relative gaps follow ulp(c): under 1e-9 up to 1e6, under 1e-2 at 2^40
    assert max(worst[s] for s in SHIFTS[:3]) < 1e-9 and worst[2**40] < 1e-2


def test_gibbs_weights_keep_their_bits_and_log_z_moves_by_the_shift():
    # log Z(A) = L + s_A and log Z(A + c) = L + s_B with the same log-sum L of
    # the frame weights and the shifts s = -(beta, x_h) and -(beta, x_h + c), h the
    # heaviest state, the same on both sets (their probabilities are bit-equal).
    # A dot product of n terms rounds by at most n u sum |beta_i y_i| / (1 - n u)
    # (u = 2^-53; the factor 1.01 covers the denominator), and each of the two
    # sums L + s rounds once more, by u |log Z|.
    u = 2.0**-53
    checked = 0
    for rng, pts in _integer_sets():
        A = mg.new_state_set(pts.shape[1], pts)
        b = rng.normal(size=A.dim)
        want = mg.gibbs_summary(A, b)
        residual = mg.legendre_residual(A, b)
        for c, B in _translates(rng, pts):
            got = mg.gibbs_summary(B, b)
            assert got.distribution.probs.tobytes() == want.distribution.probs.tobytes()
            assert got.entropy.hex() == want.entropy.hex()
            assert mg.legendre_residual(B, b).hex() == residual.hex()
            log_z = mg.log_partition(B, b)
            assert log_z == got.log_z
            # the exact (beta, c) in rationals, so the expectation adds no rounding
            pair = sum(Fraction(x) * Fraction(y) for x, y in zip(b, c))
            gap = abs(Fraction(log_z) - (Fraction(want.log_z) - pair))
            h = int(np.argmax(want.distribution.probs))
            shifts = np.abs(b) @ (np.abs(pts[h]) + np.abs(pts[h] + c))
            bound = A.dim * u * shifts + u * (abs(log_z) + abs(want.log_z))
            assert gap <= 1.01 * bound
            checked += 1
    assert checked == 24 * len(SHIFTS)


def test_limit_ties_are_ranked_alike_on_translates():
    # ties are ranked on exact differences in the unit: in caller units the 2^40
    # translate's pairings round by ulp(2^40 / 3), and state 3 fell out of its face
    pts = np.array([[0, 4], [1, 3], [2, 2], [3, 1], [4, 0], [0, 0]], float)
    direction = [-0.3333333333333333] * 2
    want = mg.min_face(mg.new_state_set(2, pts), direction)
    got = mg.min_face(mg.new_state_set(2, pts + 2.0**40), direction)
    assert want.indices == got.indices == (0, 1, 2, 3, 4)
    assert got.barycenter.tolist() == (want.barycenter + 2.0**40).tolist() == [2.0**40 + 2] * 2
    # the value stays the caller-unit minimum
    assert (want.value, got.value) == (min(pts @ direction), min((pts + 2.0**40) @ direction))
    faces = ties = 0
    for rng, pts in _integer_sets():
        A = mg.new_state_set(pts.shape[1], pts)
        for c, B in _translates(rng, pts):
            for d in rng.integers(-2, 3, size=(4, A.dim)) / 3:
                if d.any():
                    face = mg.min_face(A, d).indices
                    assert mg.min_face(B, d).indices == face, (pts.tolist(), c.tolist(), d.tolist())
                    faces, ties = faces + 1, ties + (len(face) > 1)
    assert faces > 300 and ties > 30


def _grid_doc(offset):
    return {"dim": 2, "points": [[offset + i, offset + j] for i in range(8) for j in range(8)]}


def test_translated_grid_on_the_command_line(tmp_path, capsys):
    # the 8x8 grid moved by 1e5 once gave a 2-vertex hull and refused its center
    runs = {}
    for offset in (0, 100000):
        path = tmp_path / f"grid_{offset}.json"
        path.write_text(json.dumps(_grid_doc(offset)))
        mean = f"--mean={offset + 3.5},{offset + 2}"
        for argv in (["hull", str(path)], ["invert", str(path), mean]):
            code = cli.main(argv)
            runs[offset, argv[0]] = code, json.loads(capsys.readouterr().out)
    (code0, hull0), (code, hull) = runs[0, "hull"], runs[100000, "hull"]
    assert code0 == code == 0 and hull["vertices"] == hull0["vertices"] == [0, 7, 56, 63]
    assert [f["normal"] for f in hull["facets"]] == [f["normal"] for f in hull0["facets"]]
    shifted = [f["offset"] + 100000 * sum(f["normal"]) for f in hull0["facets"]]
    assert [f["offset"] for f in hull["facets"]] == shifted and len(shifted) == 4
    (code0, inv0), (code, inv) = runs[0, "invert"], runs[100000, "invert"]
    assert code0 == code == 0 and inv == inv0
