import math

import numpy as np
import pytest

import momentgibbs as mg


def test_positive_point_values(two_state, square):
    assert mg.positive_point(two_state, [0.0]).weights.tolist() == [1.0, 1.0]
    w = mg.positive_point(two_state, [math.log(2)]).weights
    assert w == pytest.approx([1.0, 0.5], rel=1e-15)
    w = mg.positive_point(square, [math.log(2), math.log(2)]).weights
    assert w == pytest.approx([1.0, 0.5, 0.5, 0.25], rel=1e-15)


def test_positive_point_max_normalized(two_state):
    for b in (-300.0, -5.0, 0.0, 17.0, 500.0):
        w = mg.positive_point(two_state, [b]).weights
        assert w.max() == 1.0
        assert np.all(np.isfinite(w)) and np.all(w > 0)
    # beyond exp(-745) the small weight flushes to zero but stays finite
    w = mg.positive_point(two_state, [800.0]).weights
    assert w.max() == 1.0 and np.all(np.isfinite(w)) and np.all(w >= 0)


def test_projective_moment_values(two_state, square):
    assert mg.projective_moment(two_state, mg.WeightVector([1.0, 1.0])) == pytest.approx([0.5])
    # amplitudes (1, 2) carry squared weights (1, 4)
    assert mg.projective_moment(two_state, mg.WeightVector([1.0, 4.0])) == pytest.approx([0.8])
    vertex = mg.projective_moment(square, mg.WeightVector([1.0, 0.0, 0.0, 0.0]))
    assert np.array_equal(vertex, [0.0, 0.0])


def test_projective_moment_errors(two_state):
    with pytest.raises(mg.AllZeroWeights):
        mg.WeightVector([0.0, 0.0])
    with pytest.raises(ValueError):
        mg.WeightVector([1.0, -0.5])
    with pytest.raises(mg.LengthMismatch):
        mg.projective_moment(two_state, mg.WeightVector([1.0, 1.0, 1.0]))


def test_projective_invariance_under_rescaling():
    rng = np.random.Generator(np.random.Philox(key=71))
    A = mg.new_state_set(2, rng.normal(size=(6, 2)))
    w = rng.uniform(0.1, 2.0, size=6)
    base = mg.projective_moment(A, mg.WeightVector(w))
    for c in (1e-6, 0.25, 3.0, 1e8):
        scaled = mg.projective_moment(A, mg.WeightVector(c * w))
        assert np.abs(scaled - base).max() <= 1e-14 * max(1.0, np.abs(base).max())


def test_moment_of_beta_values(two_state, square):
    assert mg.moment_of_beta(two_state, [0.0]) == pytest.approx([0.5])
    assert mg.moment_of_beta(two_state, [math.log(3) / 2]) == pytest.approx([0.25], rel=1e-14)
    # large beta along (1,1) drives the moment into the bottom-left vertex
    errs = [np.linalg.norm(mg.moment_of_beta(square, [t, t])) for t in (2.0, 5.0, 10.0)]
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] <= 1e-8


def test_moment_of_beta_squares_in_log_space(square):
    # 2 * beta overflows where the pairings do not: the squares vanish, not beta
    assert mg.moment_of_beta(square, [1e308, 0.0]).tolist() == [0.0, 0.5]
    assert mg.moment_of_beta(square, [-1e308, 1e308]).tolist() == [1.0, 0.0]
    # where 2 * beta is finite: the bits of the positive point at 2 * beta
    rng = np.random.Generator(np.random.Philox(key=74))
    for _ in range(200):
        beta = rng.normal(size=2) * 10.0 ** rng.integers(-3, 4)
        want = mg.projective_moment(square, mg.positive_point(square, 2.0 * beta))
        assert mg.moment_of_beta(square, beta).tobytes() == want.tobytes()


def test_factor_of_two_identity():
    rng = np.random.Generator(np.random.Philox(key=72))
    done = 0
    while done < 30:
        n = int(rng.integers(1, 5))
        N = int(rng.integers(2, 13))
        try:
            A = mg.new_state_set(n, rng.normal(size=(N, n)))
        except mg.DuplicatePoint:
            continue
        beta = rng.normal(size=n) * 2.0
        lhs = mg.moment_of_beta(A, beta)
        rhs = mg.mean_energy(A, 2.0 * beta)
        assert np.abs(lhs - rhs).max() <= 1e-12
        done += 1


def test_moment_image_in_hull():
    rng = np.random.Generator(np.random.Philox(key=73))
    done = 0
    while done < 10:
        n = int(rng.integers(1, 4))
        N = int(rng.integers(n + 1, 9))
        A = mg.new_state_set(n, rng.uniform(-1, 1, size=(N, n)))
        if A.affine_dim != n:
            continue
        Q = mg.convex_hull(A)
        w = rng.uniform(0.0, 1.0, size=N)
        w[int(rng.integers(0, N))] = 1.0  # keep at least one weight positive
        margin = mg.interior_margin(Q, mg.projective_moment(A, mg.WeightVector(w)))
        assert margin >= -1e-9
        all_pos = rng.uniform(0.1, 1.0, size=N)
        margin = mg.interior_margin(Q, mg.projective_moment(A, mg.WeightVector(all_pos)))
        assert margin > 0.0
        done += 1


def test_vertex_weights_map_to_vertex(square):
    for i in range(4):
        w = np.zeros(4)
        w[i] = 1.0
        assert np.array_equal(
            mg.projective_moment(square, mg.WeightVector(w)), square.points[i]
        )


def test_weight_vector_compares_by_value():
    w = mg.WeightVector([1.0, 0.5])
    assert w == mg.WeightVector([1.0, 0.5])
    assert w != mg.WeightVector([1.0, 0.25])
    assert w != mg.WeightVector([1.0, 0.5, 0.5])
    assert w != mg.CoVector([1.0, 0.5])
