import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import momentgibbs as mg
from oracles import central_gradient, central_jacobian

LOG3 = math.log(3.0)


def test_log_partition_values(two_state, three_state):
    assert mg.log_partition(two_state, [0.0]) == pytest.approx(math.log(2), rel=1e-15)
    # weights 1 and 1/3
    assert mg.log_partition(two_state, [LOG3]) == pytest.approx(math.log(4 / 3), rel=1e-14)
    # weights 1, 1/2, 1/4
    assert mg.log_partition(three_state, [math.log(2)]) == pytest.approx(math.log(7 / 4), rel=1e-14)


def test_gibbs_distribution_values(two_state, three_state):
    assert mg.gibbs_distribution(two_state, [0.0]).probs == pytest.approx([0.5, 0.5], abs=1e-15)
    assert mg.gibbs_distribution(two_state, [LOG3]).probs == pytest.approx([0.75, 0.25], abs=1e-15)
    p = mg.gibbs_distribution(three_state, [math.log(2)]).probs
    assert p == pytest.approx([4 / 7, 2 / 7, 1 / 7], abs=1e-15)
    assert np.all(p > 0)
    assert abs(p.sum() - 1.0) <= 1e-12


def test_dimension_mismatch(two_state):
    with pytest.raises(mg.DimensionMismatch):
        mg.log_partition(two_state, [0.0, 0.0])


def test_mean_observable(two_state, three_state):
    uniform = mg.gibbs_distribution(two_state, [0.0])
    assert mg.mean_observable(uniform, mg.Observable([0.0, 1.0])) == pytest.approx(0.5)
    # constants integrate to themselves
    skew = mg.gibbs_distribution(two_state, [LOG3])
    assert mg.mean_observable(skew, mg.Observable([3.7, 3.7])) == pytest.approx(3.7, rel=1e-15)
    # E[w^2] under (4/7, 2/7, 1/7) is 2/7 + 4/7 = 6/7
    p = mg.gibbs_distribution(three_state, [math.log(2)])
    assert mg.mean_observable(p, mg.Observable([0.0, 1.0, 4.0])) == pytest.approx(6 / 7, rel=1e-14)
    with pytest.raises(mg.LengthMismatch):
        mg.mean_observable(p, mg.Observable([1.0, 2.0]))


def test_mean_energy_values(two_state, three_state, square):
    assert mg.mean_energy(two_state, [LOG3]) == pytest.approx([0.25], abs=1e-15)
    assert mg.mean_energy(square, [0.0, 0.0]) == pytest.approx([0.5, 0.5], abs=1e-15)
    assert mg.mean_energy(three_state, [math.log(2)]) == pytest.approx([4 / 7], rel=1e-14)


def test_energy_covariance_values(two_state, square):
    assert mg.energy_covariance(two_state, [0.0]) == pytest.approx(np.array([[0.25]]), abs=1e-15)
    assert mg.energy_covariance(two_state, [LOG3]) == pytest.approx(np.array([[3 / 16]]), abs=1e-15)
    cov = mg.energy_covariance(square, [0.0, 0.0])
    assert cov == pytest.approx(np.diag([0.25, 0.25]), abs=1e-15)


def test_entropy_values(two_state):
    uniform4 = mg.Distribution([0.25] * 4, mg.new_state_set(1, [[0], [1], [2], [3]]))
    assert mg.entropy(uniform4) == pytest.approx(math.log(4), rel=1e-15)
    point = mg.Distribution([1.0, 0.0], two_state)
    assert mg.entropy(point) == 0.0
    skew = mg.Distribution([0.75, 0.25], two_state)
    assert mg.entropy(skew) == pytest.approx(math.log(4) - 0.75 * math.log(3), rel=1e-14)


def test_distribution_validation(two_state):
    with pytest.raises(mg.LengthMismatch):
        mg.Distribution([1.0], two_state)
    with pytest.raises(ValueError):
        mg.Distribution([0.7, 0.2], two_state)
    with pytest.raises(ValueError):
        mg.Distribution([1.5, -0.5], two_state)


def test_gibbs_summary_consistency(two_state):
    s = mg.gibbs_summary(two_state, [LOG3])
    assert s.log_z == mg.log_partition(two_state, [LOG3])
    assert s.distribution.probs == pytest.approx([0.75, 0.25], abs=1e-15)
    assert s.mean_energy == pytest.approx([0.25], abs=1e-15)
    assert s.covariance == pytest.approx(np.array([[3 / 16]]), abs=1e-15)
    assert s.entropy == mg.entropy(s.distribution)


def test_gibbs_summary_single_state():
    A = mg.new_state_set(1, [[5.0]])
    for beta in (-2.0, 0.0, 3.5):
        s = mg.gibbs_summary(A, [beta])
        assert s.log_z == pytest.approx(-5.0 * beta, rel=1e-15)
        assert s.distribution.probs.tolist() == [1.0]
        assert s.mean_energy == pytest.approx([5.0])
        assert s.covariance == pytest.approx(np.array([[0.0]]), abs=1e-15)
        assert s.entropy == 0.0


def test_beta_zero_uniform_and_max_entropy():
    # exp(-log N) is within one ulp of 1/N; entropy matches log N at the
    # same resolution
    for n_states in (2, 3, 5, 8):
        A = mg.new_state_set(1, [[i] for i in range(n_states)])
        s = mg.gibbs_summary(A, [0.0])
        assert np.abs(s.distribution.probs - 1.0 / n_states).max() <= 2e-16
        assert abs(s.entropy - math.log(n_states)) <= 4e-15


def test_translation_covariance():
    rng = np.random.Generator(np.random.Philox(key=21))
    for _ in range(20):
        n = int(rng.integers(1, 4))
        N = int(rng.integers(2, 9))
        pts = rng.normal(size=(N, n))
        A = mg.new_state_set(n, pts)
        beta = rng.normal(size=n)
        shift = rng.normal(size=n) * 5.0
        B = mg.new_state_set(n, pts + shift)
        assert mg.log_partition(B, beta) == pytest.approx(
            mg.log_partition(A, beta) - float(beta @ shift), rel=1e-12, abs=1e-12
        )
        assert mg.mean_energy(B, beta) == pytest.approx(
            mg.mean_energy(A, beta) + shift, rel=1e-12, abs=1e-12
        )
        assert mg.energy_covariance(B, beta) == pytest.approx(
            mg.energy_covariance(A, beta), rel=1e-10, abs=1e-12
        )
        assert mg.entropy(mg.gibbs_distribution(B, beta)) == pytest.approx(
            mg.entropy(mg.gibbs_distribution(A, beta)), rel=1e-12
        )


def test_gradient_of_log_partition_is_minus_mean():
    rng = np.random.Generator(np.random.Philox(key=22))
    for _ in range(10):
        n = int(rng.integers(1, 4))
        N = int(rng.integers(2, 10))
        A = mg.new_state_set(n, rng.uniform(-2, 2, size=(N, n)))
        beta = rng.normal(size=n)
        h = 1e-5 * np.maximum(1.0, np.abs(beta))
        fd = central_gradient(lambda b: mg.log_partition(A, b), beta, h)
        mean = mg.mean_energy(A, beta)
        denom = max(1.0, float(np.abs(mean).max()))
        assert np.abs(fd + mean).max() / denom <= 1e-6


def test_jacobian_of_mean_is_minus_covariance():
    rng = np.random.Generator(np.random.Philox(key=23))
    for _ in range(10):
        n = int(rng.integers(1, 4))
        N = int(rng.integers(2, 10))
        A = mg.new_state_set(n, rng.uniform(-2, 2, size=(N, n)))
        beta = rng.normal(size=n)
        h = 1e-5 * np.maximum(1.0, np.abs(beta))
        fd = central_jacobian(lambda b: mg.mean_energy(A, b), beta, h)
        cov = mg.energy_covariance(A, beta)
        denom = max(1.0, float(np.abs(cov).max()))
        assert np.abs(fd + cov).max() / denom <= 1e-5


def test_scalar_mean_monotone_decreasing():
    rng = np.random.Generator(np.random.Philox(key=24))
    for _ in range(5):
        N = int(rng.integers(2, 8))
        vals = np.sort(rng.uniform(-3, 3, size=N))
        if np.min(np.diff(vals)) < 1e-3:
            continue
        A = mg.new_state_set(1, vals[:, None])
        betas = np.linspace(-4, 4, 33)
        means = np.array([mg.mean_energy(A, [b])[0] for b in betas])
        assert np.all(np.diff(means) < 0)
        for b in (-2.0, 0.0, 1.5):
            var = mg.energy_covariance(A, [b])[0, 0]
            assert var > 0
            fd = central_gradient(lambda bb: mg.mean_energy(A, bb)[0], np.array([b]), 1e-5)[0]
            assert fd == pytest.approx(-var, rel=1e-6)


def test_scalar_mean_range():
    A = mg.new_state_set(1, [[0.0], [0.3], [2.0]])
    e_min, e_max = 0.0, 2.0
    # strict inequalities hold wherever doubles can resolve the gap
    for b in (-15.0, -3.0, 0.0, 5.0, 15.0):
        m = mg.mean_energy(A, [b])[0]
        assert e_min < m < e_max
    # far past that the mean saturates at the extreme value, overshooting by
    # at most a couple of ulp of rounding in the weighted sum
    for b in (-20.0, -200.0, 200.0):
        m = mg.mean_energy(A, [b])[0]
        assert e_min - 1e-12 <= m <= e_max + 1e-12
    gap = 0.3  # second-smallest minus smallest energy
    assert mg.mean_energy(A, [50.0 / gap])[0] - e_min <= 1e-6


def test_overflow_robustness_huge_beta():
    A = mg.new_state_set(1, [[i] for i in range(11)])
    for b in (1e4, -1e4, 9999.5):
        s = mg.gibbs_summary(A, [b])
        assert math.isfinite(s.log_z)
        assert np.all(np.isfinite(s.mean_energy))
        assert np.all(np.isfinite(s.covariance))
        assert math.isfinite(s.entropy)
    sq = mg.new_state_set(2, [[x, y] for x in range(4) for y in range(4)])
    s = mg.gibbs_summary(sq, [1e4, -1e4])
    assert np.all(np.isfinite(s.mean_energy)) and math.isfinite(s.log_z)


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.integers(min_value=-10, max_value=10), min_size=2, max_size=8, unique=True),
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
)
def test_partition_finite_and_normalized(values, beta):
    A = mg.new_state_set(1, [[v] for v in values])
    assert math.isfinite(mg.log_partition(A, [beta]))
    p = mg.gibbs_distribution(A, [beta]).probs
    assert abs(p.sum() - 1.0) <= 1e-12


def test_distribution_compares_by_value(two_state, three_state):
    p = mg.Distribution([0.25, 0.75], two_state)
    assert p == mg.Distribution([0.25, 0.75], mg.new_state_set(1, [[0], [1]]))
    assert p != mg.Distribution([0.75, 0.25], two_state)
    assert p != mg.Distribution([0.25, 0.5, 0.25], three_state)
    assert p != mg.Distribution([0.25, 0.75], mg.new_state_set(1, [[0], [2]]))
    assert p != [0.25, 0.75]
