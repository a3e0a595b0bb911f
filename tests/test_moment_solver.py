import math

import numpy as np
import pytest

import momentgibbs as mg
from oracles import central_gradient, max_entropy_on_fiber

LOG3 = math.log(3.0)


def test_symmetric_target_gives_zero_beta(two_state, square):
    r = mg.invert_mean_energy(two_state, [0.5])
    assert r.converged and not r.reduced
    assert np.abs(r.beta.components).max() <= 1e-12

    r = mg.invert_mean_energy(square, [0.5, 0.5])
    assert np.abs(r.beta.components).max() <= 1e-12


def test_two_state_closed_form(two_state):
    # for states {0, 1}: beta = log((1 - m) / m)
    r = mg.invert_mean_energy(two_state, [0.25])
    assert r.beta.components[0] == pytest.approx(LOG3, abs=1e-9)
    for m in (0.1, 0.35, 0.6, 0.9):
        r = mg.invert_mean_energy(two_state, [m])
        assert r.beta.components[0] == pytest.approx(math.log((1 - m) / m), abs=1e-9)


def test_three_state_round_trip(three_state):
    r = mg.invert_mean_energy(three_state, [4 / 7])
    assert r.beta.components[0] == pytest.approx(math.log(2), abs=1e-9)
    assert np.abs(mg.mean_energy(three_state, r.beta) - 4 / 7).max() <= 1e-10


def test_report_fields(two_state):
    r = mg.invert_mean_energy(two_state, [0.25])
    assert r.converged
    assert r.grad_norm <= mg.SolveOptions().grad_tol
    assert 0.0 <= r.entropy <= math.log(2)
    assert r.iterations <= 30


def test_entropy_of_mean_values(two_state, four_level):
    assert mg.entropy_of_mean(two_state, [0.5]) == pytest.approx(math.log(2), abs=1e-12)
    expected = math.log(4) - 0.75 * math.log(3)
    assert mg.entropy_of_mean(two_state, [0.25]) == pytest.approx(expected, abs=1e-10)
    # cross-check the duality identity at the solved point: S = (b, m) + log Z
    assert expected == pytest.approx(LOG3 / 4 + math.log(4 / 3), rel=1e-15)
    # the barycenter always carries the uniform distribution
    assert mg.entropy_of_mean(four_level, [2.0]) == pytest.approx(math.log(4), abs=1e-12)


def test_duality_identity_at_solution(two_state, three_state):
    for A, target in ((two_state, [0.3]), (three_state, [0.9])):
        r = mg.invert_mean_energy(A, target)
        lhs = r.entropy
        rhs = float(r.beta.components @ np.asarray(target)) + mg.log_partition(A, r.beta)
        assert abs(lhs - rhs) <= 1e-10


def test_solve_gradient_examples(two_state):
    assert np.abs(mg.solve_gradient(two_state, [0.5]).components).max() <= 1e-12
    assert mg.solve_gradient(two_state, [0.25]).components[0] == pytest.approx(LOG3, abs=1e-9)
    assert mg.solve_gradient(two_state, [0.75]).components[0] == pytest.approx(-LOG3, abs=1e-9)


def test_target_outside_hull(two_state):
    with pytest.raises(mg.TargetOutsideHull) as err:
        mg.invert_mean_energy(two_state, [1.5])
    assert err.value.margin == pytest.approx(-0.5)


def test_target_on_boundary(two_state):
    with pytest.raises(mg.TargetOnBoundary) as err:
        mg.invert_mean_energy(two_state, [1.0])
    assert err.value.margin == pytest.approx(0.0, abs=1e-15)
    assert "tropical_limit" in str(err.value)
    with pytest.raises(mg.TargetOnBoundary):
        mg.invert_mean_energy(two_state, [1.0 - 1e-12])


def test_no_convergence_carries_report(two_state):
    with pytest.raises(mg.NoConvergence) as err:
        mg.invert_mean_energy(two_state, [0.01], mg.SolveOptions(max_iter=2))
    report = err.value.report
    assert report is not None and not report.converged
    assert report.iterations == 2
    assert report.grad_norm > mg.SolveOptions().grad_tol


def test_degenerate_span_reduced_solve(collinear):
    r = mg.invert_mean_energy(collinear, [0.7, 0.7])
    assert r.reduced and r.converged
    assert np.abs(mg.mean_energy(collinear, r.beta) - [0.7, 0.7]).max() <= 1e-9
    # lifted beta has no component along the annihilator of the span (x = y)
    assert abs(r.beta.components @ np.array([1.0, -1.0])) <= 1e-12


def test_degenerate_span_target_off_span(collinear):
    with pytest.raises(mg.TargetOutsideHull) as err:
        mg.invert_mean_energy(collinear, [0.7, 1.3])
    assert err.value.margin < 0


def test_single_state_solves_trivially():
    A = mg.new_state_set(2, [[3.0, -1.0]])
    r = mg.invert_mean_energy(A, [3.0, -1.0])
    assert r.converged and r.reduced
    assert r.entropy == 0.0 and r.iterations == 0
    with pytest.raises(mg.TargetOutsideHull):
        mg.invert_mean_energy(A, [3.0, -0.5])


def test_solve_options_validation():
    with pytest.raises(ValueError):
        mg.SolveOptions(grad_tol=0.0)
    with pytest.raises(ValueError):
        mg.SolveOptions(grad_tol=2.0)
    with pytest.raises(ValueError):
        mg.SolveOptions(max_iter=0)


def test_round_trip_random_instances():
    rng = np.random.Generator(np.random.Philox(key=41))
    solved = 0
    while solved < 25:
        n = int(rng.integers(1, 6))
        N = int(rng.integers(n + 1, 51))
        A = mg.new_state_set(n, rng.uniform(0, 1, size=(N, n)))
        if A.affine_dim != n:
            continue
        direction = rng.normal(size=n)
        beta = rng.uniform(0, 10) * direction / np.linalg.norm(direction)
        target = mg.mean_energy(A, beta)
        r = mg.invert_mean_energy(A, target)
        assert np.abs(r.beta.components - beta).max() <= 1e-7
        assert r.iterations <= 30
        solved += 1


def test_matches_brute_force_entropy_maximum():
    rng = np.random.Generator(np.random.Philox(key=42))
    solved = 0
    while solved < 5:
        n = int(rng.integers(1, 3))
        N = int(rng.integers(n + 1, 5))
        A = mg.new_state_set(n, rng.uniform(-1, 1, size=(N, n)))
        if A.affine_dim != n:
            continue
        beta = rng.normal(size=n)
        target = mg.mean_energy(A, beta)
        brute = max_entropy_on_fiber(A.points, target)
        assert abs(brute - mg.entropy_of_mean(A, target)) <= 1e-3
        solved += 1


def test_entropy_gradient_is_beta(three_state):
    for target in (0.4, 0.9, 1.5):
        beta = mg.solve_gradient(three_state, [target]).components
        fd = central_gradient(
            lambda t: mg.entropy_of_mean(three_state, t), np.array([target]), 1e-5
        )
        assert np.abs(fd - beta).max() / max(1.0, np.abs(beta).max()) <= 1e-5


def test_entropy_of_mean_concave():
    rng = np.random.Generator(np.random.Philox(key=43))
    A = mg.new_state_set(2, rng.uniform(-1, 1, size=(7, 2)))
    assert A.affine_dim == 2
    for _ in range(20):
        t1 = mg.mean_energy(A, rng.normal(size=2))
        t2 = mg.mean_energy(A, rng.normal(size=2))
        lam = float(rng.uniform(0.05, 0.95))
        mix = lam * t1 + (1 - lam) * t2
        s_mix = mg.entropy_of_mean(A, mix)
        s_split = lam * mg.entropy_of_mean(A, t1) + (1 - lam) * mg.entropy_of_mean(A, t2)
        assert s_mix >= s_split - 1e-9
