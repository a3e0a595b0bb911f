import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import momentgibbs as mg
from momentgibbs import gibbs
from momentgibbs.state_space import _unit_covector, covector_array
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


@pytest.mark.parametrize(
    "probs, message",
    [
        ([1.5, -0.5], "probabilities must be finite and non-negative"),
        ([-0.0, 1.0], None),
        ([math.nan, 1.0], "probabilities must be finite and non-negative"),
        ([math.inf, 0.0], "probabilities must be finite and non-negative"),
        ([math.inf, -1.0], "probabilities must be finite and non-negative"),
        ([1e308, 1e308], "probabilities sum to inf, expected 1"),  # finite entries, overflowing sum
        ([0.7, 0.2], "probabilities sum to 0.8999999999999999, expected 1"),
    ],
)
def test_distribution_messages(two_state, probs, message):
    if message is None:
        assert mg.Distribution(probs, two_state).probs.tolist() == probs
        return
    with pytest.raises(ValueError) as err, np.errstate(over="ignore"):
        mg.Distribution(probs, two_state)
    assert str(err.value) == message


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


def test_weights_beyond_the_double_range_relative_to_the_first_state():
    # at beta = -1 the second state outweighs the first by e^3.4e308: the
    # log-weights are taken relative to it, and log Z is its -(beta, x)
    A = mg.new_state_set(1, [[-1.7e308], [1.7e308]])
    with np.errstate(over="ignore"):  # the first state's weight is e^-3.4e308
        s = mg.gibbs_summary(A, [-1.0])
        assert mg.legendre_residual(A, [-1.0]) == 0.0
    assert s.distribution.probs.tolist() == [0.0, 1.0] and s.log_z == 1.7e308
    assert s.mean_energy.tolist() == [1.7e308] and s.entropy == 0.0


def test_frame_products_do_not_overflow_where_the_weights_are_doubles():
    # beta's projection on a reduced set's span (1.7e308 * sqrt(2)), and a tiny
    # set's unit coordinates (up to 2) times beta: both once overflowed before
    # the scaling by 2^k, and the weights turned to NaN
    for pts, beta, log_z, probs in (
        ([[0, 0], [0.5, 0.5]], [1.7e308, 1.7e308], 0.0, [1.0, 0.0]),
        ([[-1e-300], [1e-300]], [-1.5e308], 1.5e8, [0.0, 1.0]),
    ):
        A = mg.new_state_set(len(pts[0]), pts)
        with np.errstate(over="ignore"):  # the light state's weight is e^-1.7e308
            s = mg.gibbs_summary(A, beta)
            assert mg.legendre_residual(A, beta) == 0.0
            assert mg.positive_point(A, beta).weights.tolist() == probs
        assert s.log_z == log_z and s.distribution.probs.tolist() == probs


def _exact_log_z(pts, beta) -> Decimal:
    """log Z from the float inputs in 60-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        return sum((-sum(Decimal(b) * Decimal(x) for b, x in zip(beta, pt))).exp() for pt in pts).ln()


def test_log_z_is_accurate_when_the_first_state_is_far_from_the_ground_state():
    # log Z = -(beta, x_h) + log sum_i exp(l_i), l_i = -(beta, x_i - x_h), h the
    # heaviest state. The shift rounds by at most n u sum |beta_j x_h,j|; x_i - x_h
    # rounds by u |x_i - x_h| and the pairing by n u more, which moves the log-sum
    # by at most sum_i p_i (n + 1) u sum_j |beta_j (x_i,j - x_h,j)| to first order;
    # the N exponentials, their sum and its log round by about (N + 1) u, and the
    # final sum by u |log Z|. About the first state, log Z cancelled -(beta, x_0)
    # against (beta, x_0 - x_h) (the first set was 81 ulps off, the third 497),
    # frame coordinates about x_0 rounded each weight by u ||beta||_1 2^k (the
    # second set was 6.1e-14 off), and the last set's probabilities summed to
    # 1 - 5e-11
    u = 2.0**-53
    for pts, beta in (
        ([[1000.1], [0.3]], [1.7]),
        ([[1000.1], [0.3], [0.5]], [1.7]),
        ([[1000.1], [0.3], [0.5]], [40.0]),
        ([[1000, 1000], [0.5, 0.25], [3, 0], [0, 4]], [1.3, 0.7]),
        ([[-3e5], [0.25], [1.5]], [-2.0]),
    ):
        A = mg.new_state_set(len(pts[0]), pts)
        s = mg.gibbs_summary(A, beta)
        p = s.distribution.probs
        h = int(np.argmax(p))
        (N, n), b = A.points.shape, np.abs(beta)
        top = n * float(b @ np.abs(A.points[h]))
        weights = (n + 1) * float(p @ (np.abs(A.points - A.points[h]) @ b))
        bound = u * (top + weights + (N + 1) + abs(s.log_z))
        assert abs(Decimal(s.log_z) - _exact_log_z(pts, beta)) <= Decimal(1.01 * bound), (pts, beta)


def test_beta_orthogonal_to_a_reduced_span_weighs_every_state_alike():
    # (beta, x) = 0 on every point: pairing beta with differences of the points
    # keeps every weight exactly 1, where its projection on the computed span
    # once left weights 1e-8 apart
    A = mg.new_state_set(2, [[-625, 625], [-375, 375], [250, -250], [375, -375], [500, -500]])
    s = mg.gibbs_summary(A, [-1e5, -1e5])
    uniform = mg.gibbs_summary(A, [0.0, 0.0])
    assert s.distribution.probs.tobytes() == uniform.distribution.probs.tobytes()
    assert s.log_z == uniform.log_z == mg.log_partition(A, [-1e5, -1e5])


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


def _log_weights_matmul(A, beta):
    """The log-weight kernel with @ and np.argmax, as it was before np.dot: the
    reference every bit of the np.dot kernel is compared with."""
    b = covector_array(beta, A.dim)
    b_unit, j = _unit_covector(b)
    a = int(np.argmax(A._coords @ -(b_unit @ A._span)))
    r = -b_unit @ (A._unit_t - A._unit_t[:, a : a + 1])
    h = int(np.argmax(r))
    with np.errstate(over="ignore"):
        return np.ldexp(r - r[h], A._exp + j), -float(b @ A.points[h])


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def test_dot_kernels_keep_the_bits_of_matmul():
    rng = np.random.Generator(np.random.Philox(key=2020))
    cases = 0
    for d in (1, 2, 3):
        for n in (d, d + 2):  # full, then reduced (affine dimension d in R^(d + 2))
            for N in (2, 60, 3000):
                coeffs = rng.integers(-40, 41, size=(N, d)).astype(float)
                coeffs[0] = 0.0  # the origin is a state when the offset is zero
                embed = rng.normal(size=(d, n)) if n > d else np.eye(d)
                offset = np.zeros(n) if N != 60 else rng.normal(size=n) * 1e3
                pts = np.unique(coeffs @ embed + offset, axis=0)
                A = mg.new_state_set(n, pts)
                assert A.affine_dim == min(d, len(pts) - 1)
                betas = [np.zeros(n), np.full(n, -0.0)] + [rng.normal(size=n) * s for s in (1e-3, 0.3, 30.0)]
                for beta in betas:
                    log_w, shift = _log_weights_matmul(A, beta)
                    got = gibbs._log_weights(A, beta)
                    assert (_bits(got[0]), _bits(got[1])) == (_bits(log_w), _bits(shift))
                    log_z, probs = gibbs._normalized(log_w)
                    mean = probs @ A.points
                    s = mg.gibbs_summary(A, beta)
                    assert _bits(s.log_z) == _bits(log_z + shift)
                    assert _bits(s.distribution.probs) == _bits(probs)
                    assert _bits(s.mean_energy) == _bits(mean)
                    assert _bits(s.entropy) == _bits(gibbs._entropy(probs))
                    assert _bits(mg.mean_energy(A, beta)) == _bits(mean)
                    assert _bits(mg.energy_covariance(A, beta)) == _bits(gibbs._covariance(A.points, probs, mean))
                    assert _bits(mg.positive_point(A, beta).weights) == _bits(np.exp(log_w))
                    cases += 1
    assert cases == 3 * 2 * 3 * 5
