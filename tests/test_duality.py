import math

import numpy as np
import pytest

import momentgibbs as mg
from oracles import fiber_max_quadratic

LOG3 = math.log(3.0)


def test_residual_closed_forms(two_state):
    assert abs(mg.legendre_residual(two_state, [0.0])) <= 1e-14
    # S = log4 - (3/4)log3, (b, m) = log3/4, log Z = log(4/3); they cancel
    assert abs(mg.legendre_residual(two_state, [LOG3])) <= 1e-12


def test_residual_square_direct_summation(square):
    beta = np.array([1.0, -2.0])
    # independent route: raw sums, no log-domain shifts
    weights = np.exp(-square.points @ beta)
    z = weights.sum()
    p = weights / z
    s = float(-(p * np.log(p)).sum())
    mean = p @ square.points
    expected = s - float(beta @ mean) - math.log(z)
    assert abs(expected) <= 1e-12
    assert mg.legendre_residual(square, beta) == pytest.approx(expected, abs=1e-12)


def test_residual_small_over_beta_range(four_level):
    for b in np.linspace(-20, 20, 41):
        assert abs(mg.legendre_residual(four_level, [b])) <= 1e-10


def test_roundtrip_values(two_state, three_state, square):
    assert mg.legendre_roundtrip(two_state, [0.5]) <= 1e-12
    assert mg.legendre_roundtrip(three_state, [4 / 7]) <= 1e-10
    assert mg.legendre_roundtrip(square, [0.3, 0.7]) <= 1e-8


def test_neg_log_partition_concave(square):
    rng = np.random.Generator(np.random.Philox(key=51))
    for _ in range(50):
        b1 = rng.normal(size=2) * 3
        b2 = rng.normal(size=2) * 3
        lam = float(rng.uniform(0.05, 0.95))
        mixed = -mg.log_partition(square, lam * b1 + (1 - lam) * b2)
        split = -lam * mg.log_partition(square, b1) - (1 - lam) * mg.log_partition(square, b2)
        assert mixed >= split - 1e-9


def test_quadratic_form_validation():
    f = mg.QuadraticForm([[2.0, 0.0], [0.0, 3.0]])
    assert f.dim == 2
    assert f.value([1.0, 1.0]) == pytest.approx(-5.0)
    # used to return nan with a numpy warning, and to raise numpy's matmul message
    with pytest.raises(ValueError, match="finite"):
        mg.QuadraticForm(np.eye(2)).value([np.inf, 0.0])
    with pytest.raises(mg.DimensionMismatch, match="expected 2"):
        f.value([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="symmetric"):
        mg.QuadraticForm([[1.0, 0.5], [0.2, 1.0]])
    # the symmetry tolerance is relative to the largest entry: an asymmetry of
    # 4e-15 of it passes at 1e6 (an absolute 1e-12 refused it), and one of 25%
    # fails at 1e-13 (an absolute 1e-12 accepted it, and the direct image then
    # read only the upper cross block)
    big = mg.QuadraticForm([[2e6, 1e6], [1e6 + 1.2e-8, 3e6]])
    assert big.matrix[1, 0] - big.matrix[0, 1] == pytest.approx(1.2e-8, rel=0.01)
    with pytest.raises(ValueError, match="symmetric"):
        mg.QuadraticForm(1e-13 * np.array([[2.0, 1.0], [1.5, 3.0]]))
    with pytest.raises(mg.NotNegativeDefinite):
        mg.QuadraticForm([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ValueError):
        mg.QuadraticForm(np.ones((2, 3)))


def test_direct_image_closed_forms():
    assert mg.quadratic_direct_image(mg.QuadraticForm(np.eye(2)), 1).matrix == pytest.approx(
        np.array([[1.0]])
    )
    # maximize -(x^2 + xy + y^2) over y: y = -x/2 leaves -(3/4) x^2
    f = mg.QuadraticForm([[1.0, 0.5], [0.5, 1.0]])
    assert mg.quadratic_direct_image(f, 1).matrix == pytest.approx(np.array([[0.75]]))
    assert mg.quadratic_direct_image(
        mg.QuadraticForm(np.diag([2.0, 3.0])), 1
    ).matrix == pytest.approx(np.array([[2.0]]))


def test_direct_image_bad_split():
    f = mg.QuadraticForm(np.eye(3))
    for kept in (0, 3, -1, 1.5):
        with pytest.raises(mg.BadSplit):
            mg.quadratic_direct_image(f, kept)


def test_direct_image_matches_fiber_maximization():
    rng = np.random.Generator(np.random.Philox(key=52))
    for _ in range(8):
        n = int(rng.integers(2, 5))
        root = rng.normal(size=(n, n))
        m = root @ root.T + n * np.eye(n)
        m = (m + m.T) / 2.0
        kept = int(rng.integers(max(1, n - 2), n))  # fiber dimension 1 or 2
        image = mg.quadratic_direct_image(mg.QuadraticForm(m), kept)
        for _ in range(3):
            lead = rng.normal(size=kept)
            expected = fiber_max_quadratic(m, kept, lead)
            assert image.value(lead) == pytest.approx(expected, abs=1e-8)


def test_direct_image_stays_negative_definite():
    rng = np.random.Generator(np.random.Philox(key=53))
    for _ in range(10):
        n = int(rng.integers(2, 6))
        root = rng.normal(size=(n, n))
        m = root @ root.T + 0.5 * np.eye(n)
        m = (m + m.T) / 2.0
        kept = int(rng.integers(1, n))
        image = mg.quadratic_direct_image(mg.QuadraticForm(m), kept)
        # constructing the result already runs the Cholesky check; be explicit
        assert np.all(np.linalg.eigvalsh(image.matrix) > 0)


def test_direct_image_schur_matches_cho_factor_reference():
    # the one dposv call keeps the bits of scipy's cho_factor and cho_solve
    from scipy.linalg import cho_factor, cho_solve

    rng = np.random.Generator(np.random.Philox(key=54))
    for _ in range(300):
        n = int(rng.integers(2, 8))
        root = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-3, 4)
        m = root @ root.T + 1e-3 * np.abs(root).max() ** 2 * np.eye(n)
        m = (m + m.T) / 2.0
        kept = int(rng.integers(1, n))
        cross, trail = m[:kept, kept:], m[kept:, kept:]
        schur = m[:kept, :kept] - cross @ cho_solve(cho_factor(trail, lower=True), cross.T)
        want = (schur + schur.T) / 2.0
        got = mg.quadratic_direct_image(mg.QuadraticForm(m), kept).matrix
        assert got.tobytes() == want.tobytes()


def test_direct_image_trailing_block_not_positive_definite():
    # a form past its own check, as a caller could build it: dposv's info > 0
    f = object.__new__(mg.QuadraticForm)
    object.__setattr__(f, "matrix", np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, 2.0, 1.0]]))
    with pytest.raises(mg.NotNegativeDefinite, match="trailing block"):
        mg.quadratic_direct_image(f, 1)


def test_direct_image_base_change():
    # projecting out the last coordinate commutes with restricting to a
    # leading coordinate subspace
    m = np.array(
        [
            [2.0, 0.3, 0.4],
            [0.3, 1.5, 0.2],
            [0.4, 0.2, 1.8],
        ]
    )
    restrict_then_project = mg.quadratic_direct_image(
        mg.QuadraticForm(m[np.ix_([0, 2], [0, 2])]), 1
    ).matrix
    project_then_restrict = mg.quadratic_direct_image(mg.QuadraticForm(m), 2).matrix[:1, :1]
    assert restrict_then_project == pytest.approx(project_then_restrict, abs=1e-12)


def test_quadratic_form_compares_by_value():
    q = mg.QuadraticForm([[2.0, 0.5], [0.5, 1.0]])
    assert q == mg.QuadraticForm([[2.0, 0.5], [0.5, 1.0]])
    assert q != mg.QuadraticForm([[2.0, 0.5], [0.5, 3.0]])
    assert q != mg.QuadraticForm(np.eye(3))
    assert q != [[2.0, 0.5], [0.5, 1.0]]
