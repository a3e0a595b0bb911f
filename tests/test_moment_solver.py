import math
import pickle
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import momentgibbs as mg
from momentgibbs import errors, moment_solver
from momentgibbs.gibbs import _covariance, _scipy_kernel
import oracles
from momentgibbs.moment_solver import _newton_step
from momentgibbs.state_space import _frame_coords, affine_frame, point_array
from oracles import central_gradient, max_entropy_on_fiber, reference_invert

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


def test_line_search_gives_up_when_no_stride_decreases_f(monkeypatch, two_state):
    mg.invert_mean_energy(two_state, [0.25])  # memoizes the beta = 0 state
    dual = moment_solver._dual
    monkeypatch.setattr(moment_solver, "_dual", lambda beta, R: (math.nan, *dual(beta, R)[1:]))
    with pytest.raises(mg.NoConvergence) as err:
        mg.invert_mean_energy(two_state, [0.25])
    report = err.value.report
    assert report.iterations == 1 and not report.converged
    assert report.beta.components.tolist() == [0.0]  # no candidate was taken
    assert str(err.value) == f"no convergence after 1 iterations (grad_norm {0.25:.3g} > {1e-10:.3g})"


def test_no_convergence_carries_report(two_state):
    with pytest.raises(mg.NoConvergence) as err:
        mg.invert_mean_energy(two_state, [0.01], mg.SolveOptions(max_iter=2))
    report = err.value.report
    assert report is not None and not report.converged
    assert report.iterations == 2
    assert report.grad_norm > mg.SolveOptions().grad_tol
    # the partial report's entropy is the kernel's at its beta
    p = mg.gibbs_distribution(two_state, report.beta)
    assert report.entropy == pytest.approx(mg.entropy(p), rel=1e-12)


def _raised(two_state):
    """One raised instance of every class in momentgibbs.errors."""
    classes = {name: cls for name, cls in vars(errors).items() if isinstance(cls, type)}
    errs = {name: cls(f"{name} message") for name, cls in classes.items() if "__reduce__" not in vars(cls)}
    for target, opts in (([1.5], None), ([1.0], None), ([0.01], mg.SolveOptions(max_iter=2))):
        with pytest.raises((mg.TargetOutsideHull, mg.TargetOnBoundary, mg.NoConvergence)) as err:
            mg.invert_mean_energy(two_state, target, opts)
        errs[type(err.value).__name__] = err.value
    assert errs.keys() == classes.keys()
    errs["TargetOnBoundary given a message"] = mg.TargetOnBoundary(-0.0, "on the boundary")
    return errs


def test_every_error_class_survives_pickle(two_state):
    errs = _raised(two_state)
    assert len(errs) == 15 and errs["NoConvergence"].report is not None
    for name, exc in errs.items():
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc) and str(back) == str(exc) and back.args == exc.args, name
        assert vars(back).keys() == vars(exc).keys(), name
    for name in ("TargetOutsideHull", "TargetOnBoundary", "TargetOnBoundary given a message"):
        back = pickle.loads(pickle.dumps(errs[name]))
        assert math.copysign(1.0, back.margin) == math.copysign(1.0, errs[name].margin)
        assert back.margin == errs[name].margin
    report = errs["NoConvergence"].report
    back = pickle.loads(pickle.dumps(errs["NoConvergence"])).report
    assert (back.iterations, back.grad_norm, back.converged, back.reduced) == (
        report.iterations, report.grad_norm, report.converged, report.reduced)
    assert back.beta == report.beta and back.entropy == report.entropy


def test_report_entropy_is_the_kernels_at_its_beta(square, two_state):
    # the report holds no weights: its entropy is read from the Gibbs kernel at its beta
    for A, t in ((square, [0.25, 0.6]), (two_state, [0.5]), (two_state, [1e-6])):
        r = mg.invert_mean_energy(A, t)
        assert not any(isinstance(v, np.ndarray) for v in vars(r).values())
        assert "_set" not in repr(r) and "entropy" not in repr(r)
        assert r.entropy.hex() == r.entropy.hex() == mg.gibbs_summary(A, r.beta).entropy.hex()
    single = mg.invert_mean_energy(mg.new_state_set(2, [[1.0, 2.0]]), [1.0, 2.0])
    assert single.entropy == 0.0 and math.copysign(1.0, single.entropy) == 1.0


def test_beta_alone_never_loads_scipy_special():
    # a planar hull needs no scipy.spatial; dposv loads from its compiled
    # module, so no scipy package loads, and reading the entropy loads nothing
    probe = (
        "import sys, momentgibbs as mg, momentgibbs.gibbs as g; "
        "A = mg.new_state_set(2, [[0, 0], [1, 0], [0, 1], [2, 3]]); "
        "loaded = lambda: (sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
        "sorted(g._KERNELS)); "
        "mg.solve_gradient(A, [0.5, 0.75]); print(loaded()); "
        "r = mg.invert_mean_energy(A, [0.5, 0.75]); print(loaded()); "
        "r.entropy; print(loaded())"
    )
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, check=True, text=True)
    solved = "([], ['scipy.linalg._flapack'])"
    assert run.stdout.splitlines() == [solved, solved, solved]


_IMPORT_ORDER_PROBE = """
import numpy as np
import momentgibbs as mg
import momentgibbs.gibbs as g
if SCIPY_FIRST:
    import scipy.linalg
    flapack = scipy.linalg._flapack
A = mg.new_state_set(2, [[0, 0], [1, 0], [0, 1], [2, 3]])
mg.invert_mean_energy(A, [0.5, 0.75]).entropy
p = mg.gibbs_distribution(A, [0.1, 0.2])
mg.log_multinomial_measure(p, mg.sample_counts(p, 50, 7))
import scipy.linalg, scipy.special, scipy.spatial
if SCIPY_FIRST:
    assert g._KERNELS["scipy.linalg._flapack"] is flapack
special = g._KERNELS["scipy.special._special_ufuncs"]
dposv = g._scipy_kernel("dposv")
assert scipy.linalg.lapack.dposv is dposv and scipy.linalg._flapack.dposv is dposv
assert special.xlogy is scipy.special.xlogy and special.gammaln is scipy.special.gammaln
assert (scipy.linalg.cho_factor(4.0 * np.eye(2))[0] == 2.0 * np.eye(2)).all()
assert abs(scipy.spatial.ConvexHull(np.r_[np.zeros((1, 3)), np.eye(3)]).volume - 1 / 6) < 1e-15
print("ok")
"""


@pytest.mark.parametrize("scipy_first", [False, True])
def test_kernels_are_scipys_own_in_either_import_order(scipy_first):
    # the kernels are scipy's own objects whichever loads first, and scipy's
    # packages still work after them; this pins the private module names, so
    # a scipy release that moves a kernel fails here
    probe = f"SCIPY_FIRST = {scipy_first}" + _IMPORT_ORDER_PROBE
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert (run.returncode, run.stderr, run.stdout) == (0, "", "ok\n")


def test_a_kernel_module_not_on_sys_path_raises_an_import_error_naming_it(monkeypatch):
    # a scipy older than the declared floor lacks the module; an install that
    # only a sys.meta_path finder can locate hides scipy itself from PathFinder
    import momentgibbs.gibbs as g

    monkeypatch.setitem(g._KERNEL_MODULES, "absent", "scipy.special._absent")
    with pytest.raises(ImportError, match="scipy.special._absent") as missing:
        g._scipy_kernel("absent")
    assert missing.value.name == "scipy.special._absent"
    monkeypatch.setattr(g, "PathFinder", type("NoScipy", (), {"find_spec": lambda *a: None}))
    with pytest.raises(ImportError, match="scipy.special._absent"):
        g._scipy_kernel("absent")
    assert "scipy.special._absent" not in g._KERNELS


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


def test_span_tolerance_in_coordinate_units():
    # a line far from the origin: the exact uniform mean is off the computed
    # span by rounding alone, about 1e-16 of its coordinates
    a = 1e7
    A = mg.new_state_set(2, [[a * k, math.pi * a * k + a] for k in range(3)])
    assert A.affine_dim == 1
    r = mg.invert_mean_energy(A, mg.mean_energy(A, [0.0, 0.0]))
    assert r.converged and r.reduced
    assert np.all(r.beta.components == 0.0)
    assert r.entropy == pytest.approx(LOG3, rel=1e-15)
    # a step off the line of 1e-6 in the coordinates' units is still refused
    normal = np.array([-math.pi, 1.0]) / math.hypot(math.pi, 1.0)
    with pytest.raises(mg.TargetOutsideHull) as err:
        mg.invert_mean_energy(A, mg.mean_energy(A, [0.0, 0.0]) + 1e-6 * a * normal)
    assert err.value.margin < 0


def test_span_tolerance_follows_the_spread():
    # a target 1 off a single point far from the origin, and off a short line
    # there: the tolerance follows the set's spread, not its distance to 0
    for shift in (0.0, 2.0**29):
        A = mg.new_state_set(4, [[0.0, 0.0, 0.0, shift]])
        with pytest.raises(mg.TargetOutsideHull, match="target is 1 off the affine span"):
            mg.invert_mean_energy(A, [1.0, 1.0, 1.0, shift + 1.0])
        B = mg.new_state_set(2, [[shift, shift], [shift + 1.0, shift + 1.0], [shift + 2.0, shift + 2.0]])
        with pytest.raises(mg.TargetOutsideHull):
            mg.invert_mean_energy(B, [shift + 1.0, shift + 1.0 + 2.0**-10])
        r = mg.invert_mean_energy(B, mg.mean_energy(B, [0.3, -0.1]))
        assert r.converged and r.reduced


def test_reduced_solve_memory_linear_in_states():
    # N=4000 lattice points on a plane in R^3: an N x N factor of the point
    # matrix alone would take 122 MiB
    rng = np.random.Generator(np.random.Philox(key=53))
    cells = rng.choice(64 * 64, size=4000, replace=False)
    plane = np.stack(np.unravel_index(cells, (64, 64)), axis=1).astype(float)
    A = mg.new_state_set(3, plane @ np.array([[1.0, 0.0, 2.0], [0.0, 1.0, -1.0]]) + 5.0)
    assert A.affine_dim == 2
    target = mg.mean_energy(A, [0.03, -0.02, 0.01])
    tracemalloc.start()
    try:
        mg.convex_hull(A)
        r = mg.invert_mean_energy(A, target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.reduced and r.converged
    assert peak < 16 * 2**20


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
    # a cap that is not an integer would never equal the count, and True would read as 1
    for cap in (2.5, 3.0, True, False, "3", None):
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            mg.SolveOptions(max_iter=cap)
    assert mg.SolveOptions(max_iter=np.int64(3)).max_iter == 3


def _solver_step(hess, grad):
    """`_newton_step` with the dposv that a solve looks up once and passes it."""
    return _newton_step(hess, grad, _scipy_kernel("dposv"))


def _wrapper_step(hess, grad):
    """The Newton step as computed through scipy's cho_factor/cho_solve."""
    from scipy.linalg import cho_factor, cho_solve

    d = hess.shape[0]
    reg = 0.0
    base = 1e-12 * max(float(np.trace(hess)) / d, np.finfo(float).tiny)
    for _ in range(40):
        try:
            return cho_solve(cho_factor(hess + reg * np.eye(d), lower=True), grad)
        except np.linalg.LinAlgError:
            reg = base if reg == 0.0 else reg * 10.0
    raise np.linalg.LinAlgError("covariance could not be regularized to positive definite")


def _bits(x):
    return x.dtype, x.shape, x.tobytes()


def _needs_ridge(hess):
    try:
        np.linalg.cholesky(hess)
    except np.linalg.LinAlgError:
        return True
    return False


def test_newton_step_matches_cholesky_wrappers():
    rng = np.random.Generator(np.random.Philox(key=44))
    for d in range(1, 9):
        for scale in (1e-6, 1e-2, 1.0, 1e3, 1e8):
            for _ in range(5):
                pts = rng.normal(size=(d + 3, d)) * scale
                p = rng.dirichlet(np.ones(d + 3))
                hess = _covariance(pts.T, p, p @ pts)
                grad = rng.normal(size=d) * scale
                assert _bits(_solver_step(hess, grad)) == _bits(_wrapper_step(hess, grad))

    # rank-deficient Hessians, which only a ridge makes positive definite
    collinear = np.outer(np.arange(6.0), [1.0, 2.0, -0.5])
    p = np.full(6, 1 / 6)
    deficient = [
        np.array([[1.0, 1.0], [1.0, 1.0]]),
        np.zeros((2, 2)),  # the ridge floor is subnormal; both give [nan, -inf]
        _covariance(collinear.T, p, p @ collinear),
        _covariance(collinear.T * 1e5, p, p @ collinear * 1e5),
        np.diag([1.0, -1e-9]),  # slightly indefinite: the fifth ridge is the first to work
    ]
    for hess in deficient:
        assert _needs_ridge(hess)
        grad = rng.normal(size=hess.shape[0])
        assert _bits(_solver_step(hess, grad)) == _bits(_wrapper_step(hess, grad))

    # no ridge in the sequence helps a negative definite matrix
    for step in (_solver_step, _wrapper_step):
        with pytest.raises(np.linalg.LinAlgError):
            step(-np.eye(2), np.ones(2))


def test_newton_step_refuses_non_finite_input():
    spd = np.array([[2.0, 0.5], [0.5, 1.0]])
    message = "array must not contain infs or NaNs"
    for bad in (np.nan, np.inf, -np.inf):
        upper = spd.copy()
        upper[0, 1] = bad  # a triangle LAPACK never reads
        diagonal = spd.copy()
        diagonal[1, 1] = bad
        for hess, grad in ((upper, np.ones(2)), (diagonal, np.ones(2)), (spd, np.array([1.0, bad]))):
            for step in (_solver_step, _wrapper_step):
                with pytest.raises(ValueError, match=message):
                    step(hess, grad)


def _two_pass_guard(A, target):
    """Reference: the feasibility guard as two passes, the solver's span test
    and then a full `interior_margin` that coerces and tests the target again
    and computes its own facet norms. Returns the margin or raises what the
    solver raises. A span violation counts above 1e-9 times the diameter plus
    4 (N + n) ulps of the set's unit 2^k."""
    unit = 2.0 ** math.frexp(float(np.abs(A.points).max()))[1]

    def span_violation(Q, p):
        eqs = Q.span_equations
        viol = float(np.abs(eqs[:, :-1] @ p - eqs[:, -1]).max(initial=0.0))
        tol = 1e-9 * Q.diameter + 4 * (len(A) + A.dim) * np.finfo(float).eps * unit
        return viol if viol > tol else 0.0

    t = point_array(target, A.dim)
    Q = mg.convex_hull(A)
    off = span_violation(Q, t)
    if off:
        raise mg.TargetOutsideHull(-off, f"target is {off:.3g} off the affine span of the states")
    p = point_array(t, Q.ambient_dim)
    viol = span_violation(Q, p)
    if viol:
        raise mg.OffAffineSpan(f"point is {viol:.3g} off the affine span of the states")
    normals = Q.facets[:, :-1]
    margins = (normals @ p - Q.facets[:, -1]) / np.linalg.norm(normals, axis=1)
    margin = float(margins.min(initial=math.inf))
    btol = 1e-9 * Q.diameter
    if margin < -btol:
        raise mg.TargetOutsideHull(margin)
    if margin <= btol:
        raise mg.TargetOnBoundary(
            margin,
            f"target margin {margin:.3g} is within {btol:.3g} of the hull boundary; "
            "beta diverges there (see polytope.tropical_limit for the limiting face)",
        )
    return margin


def _guard_sets():
    rng = np.random.Generator(np.random.Philox(key=45))
    yield np.array([[4.0]])
    for d in range(1, 7):
        pts = rng.normal(size=(d + 6, d)) * 10.0 ** rng.integers(-2, 3)
        yield pts
        yield np.unique(rng.integers(-3, 4, size=(d + 6, d)), axis=0).astype(float)
        # the same kind of set in a larger ambient space: a reduced solve
        embed = rng.normal(size=(d + 2, d))
        yield pts @ embed.T + rng.normal(size=d + 2)


def test_guard_matches_two_pass_reference():
    rng = np.random.Generator(np.random.Philox(key=46))
    outcomes = set()
    for pts in _guard_sets():
        A = mg.new_state_set(pts.shape[1], pts)
        Q = mg.convex_hull(A)
        center = A.points.mean(axis=0)
        vertex = A.points[Q.vertices[-1]]
        targets = [
            mg.mean_energy(A, rng.normal(size=A.dim) / max(Q.diameter, 1.0)),  # inside
            center + 1.5 * (vertex - center),  # outside
            vertex,  # on the boundary
            center + (1 - 1e-12) * (vertex - center),  # within the boundary tolerance
            (A.points[Q.vertices[0]] + vertex) / 2,  # an edge midpoint or a chord
            list(center),
        ]
        if A.affine_dim < A.dim:
            normal = affine_frame(A)[2][:, 0]
            targets += [center + s * normal for s in (1e-3, 1e-12, -5.0)]  # off the span
        targets.append(np.append(center, 0.0))  # the wrong dimension
        for t in targets:
            try:
                expected = _two_pass_guard(A, t)
            except ValueError as ref:
                with pytest.raises(type(ref)) as err:
                    mg.invert_mean_energy(A, t)
                assert str(err.value) == str(ref)
                if hasattr(ref, "margin"):
                    assert err.value.margin.hex() == ref.margin.hex()
                outcomes.add(type(ref))
            else:
                assert expected > 0.0
                assert mg.invert_mean_energy(A, t).converged
                outcomes.add(None)
    assert outcomes == {None, mg.TargetOutsideHull, mg.TargetOnBoundary, mg.DimensionMismatch}


def test_results_compare_by_identity(square):
    for make in (
        lambda: mg.invert_mean_energy(square, [0.3, 0.6]),
        lambda: mg.gibbs_summary(square, [0.5, -1.0]),
        lambda: mg.min_face(square, [1.0, 0.0]),
    ):
        first, second = make(), make()
        assert first == first
        assert not (first == second)
        assert first != second
        assert len({first, second}) == 2


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


def _report_bits(A, r):
    """A report's bits; a solver's report must also read the kernel's entropy at its beta."""
    if isinstance(r, mg.SolveReport):
        assert r.entropy.hex() == mg.gibbs_summary(A, r.beta).entropy.hex()
    return (r.beta.components.tobytes(), r.iterations, r.grad_norm.hex(), r.converged, r.reduced)


def _outcome(solve, A, target, opts):
    """A solve's bits: its report, a NoConvergence's partial report, or a
    refusal's type, message and margin."""
    try:
        return "solved", _report_bits(A, solve(A, target, opts))
    except mg.NoConvergence as err:
        return "partial", str(err), _report_bits(A, err.report)
    except ValueError as err:
        margin = getattr(err, "margin", None)
        return type(err).__name__, str(err), None if margin is None else margin.hex()


def test_solver_matches_frozen_reference(monkeypatch):
    # count the reference's log-sum calls: one per candidate, plus the start
    calls = [0]
    dual = oracles._ref_dual

    def counted(beta, centered):
        calls[0] += 1
        return dual(beta, centered)

    monkeypatch.setattr(oracles, "_ref_dual", counted)
    rng = np.random.Generator(np.random.Philox(key=47))
    options = [mg.SolveOptions(max_iter=m) for m in (1, 2, 3)]
    options += [mg.SolveOptions(), mg.SolveOptions(grad_tol=1e-300)]
    kinds, backtracks = set(), 0
    for d in range(1, 7):
        for reduced in (False, True):
            pts = rng.normal(size=(d + 6, d)) * 10.0 ** rng.integers(-3, 4)
            if reduced:
                pts = pts @ rng.normal(size=(d + 1, d)).T + rng.normal(size=d + 1)
            A = mg.new_state_set(pts.shape[1], pts)
            assert A.affine_dim == d
            Q = mg.convex_hull(A)
            scale = np.abs(A.points).max()
            center = A.points.mean(axis=0)
            vertex = A.points[Q.vertices[0]]
            targets = [
                mg.mean_energy(A, rng.normal(size=A.dim) / scale),
                mg.mean_energy(A, 30.0 * rng.normal(size=A.dim) / scale),  # far out: backtracks
                center + (1 - 1e-6) * (vertex - center),
                center,
                vertex,
                center + 2.0 * (vertex - center),
            ]
            for target in targets:
                for opts in options:
                    calls[0] = 0
                    expected = _outcome(reference_invert, A, target, opts)
                    if expected[0] in ("solved", "partial"):
                        backtracks += calls[0] - 1 - expected[-1][1]
                    # a fresh set and one whose start memo is filled
                    for B in (mg.new_state_set(A.dim, A.points), A):
                        assert _outcome(mg.invert_mean_energy, B, target, opts) == expected
                    kinds.add(expected[0])
    assert kinds == {"solved", "partial", "TargetOutsideHull", "TargetOnBoundary"}
    assert backtracks > 0


def _oracle_sets():
    """Seeded sets of affine dimension 1 to 6, scattered and lattice ones away
    from the origin, and one reduced: dimension 3 in R^5."""
    rng = np.random.Generator(np.random.Philox(key=2323))
    for d in range(1, 7):
        yield rng.normal(size=(d + 8, d)) * 10.0 ** rng.integers(-2, 3)
        yield np.unique(rng.integers(-4, 5, size=(3 * d + 6, d)), axis=0).astype(float) + 1000.0
    yield rng.normal(size=(12, 3)) @ rng.normal(size=(5, 3)).T + rng.normal(size=5)


def test_solved_beta_matches_a_40_digit_root():
    # an independent check of the frozen reference: beta against mpmath's root
    # for the same doubles. The worst errors are 7.6e-9 and 2.9e-12, for the
    # (d, N) kernels and the (N, d) ones alike: the stop's 1e-10 of the
    # diameter bounds the gradient, not beta, and at grad_tol 1e-13 the last
    # Newton step is taken
    rng = np.random.Generator(np.random.Philox(key=2324))
    reduced = 0
    for pts in _oracle_sets():
        A = mg.new_state_set(pts.shape[1], pts)
        reduced += A.affine_dim < A.dim
        spread = np.abs(A.points - A.points[0]).max()
        for scale in (0.3, 3.0):
            t = mg.mean_energy(A, rng.normal(size=A.dim) * scale / spread)
            root = np.array(oracles.mp_invert(A.points, t, affine_frame(A)[1]))
            for opts, bound in ((None, 1e-8), (mg.SolveOptions(grad_tol=1e-13), 1e-11)):
                r = mg.invert_mean_energy(A, t, opts)
                assert r.converged
                assert np.abs(r.beta.components - root).max() <= bound * np.abs(root).max()
    assert reduced == 1


def _mp_root_1d(xs, t, digits=60):
    """beta with Gibbs mean t on the 1-D points xs, by bisection in mpmath."""
    from mpmath import mp

    with mp.workdps(digits):
        xs, t = [mp.mpf(x) for x in xs], mp.mpf(t)

        def excess(b):
            m = min(b * x for x in xs)
            w = [mp.exp(m - b * x) for x in xs]
            return mp.fsum(wi * x for wi, x in zip(w, xs)) / mp.fsum(w) - t

        lo, hi = mp.mpf(-200), mp.mpf(200)
        for _ in range(250):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if excess(mid) > 0 else (lo, mid)
        return float((lo + hi) / 2)


def test_targets_near_a_far_vertex_keep_beta_accurate_in_either_order():
    # Newton about the target: the gradient is minus R p with R = x - t, so near the
    # vertex 5 it no longer cancels |5 - x_0| of rounding when 0 is listed first.
    # Solving about the first point, these errors were 3.4e-9 and 5.1e-10
    for order in ([0.0, 1.0, 2.0, 5.0], [5.0, 2.0, 1.0, 0.0]):
        A = mg.new_state_set(1, [[x] for x in order])
        for t in (5 - 5e-8, 5 - 1e-6):
            root = _mp_root_1d(order, t)
            beta = mg.invert_mean_energy(A, [t], mg.SolveOptions(grad_tol=1e-14)).beta.components[0]
            assert abs(beta - root) <= 1e-11 * abs(root), (order, t)


def _vertex_sets():
    """{0, 1}, {0, 1, 2, 5} and seeded sets of affine dimension 1 to 3, scattered and
    lattice ones away from the origin."""
    yield np.array([[0.0], [1.0]])
    yield np.array([[0.0], [1.0], [2.0], [5.0]])
    rng = np.random.Generator(np.random.Philox(key=1717))
    for d in (1, 2, 3):
        yield rng.normal(size=(d + 5, d)) * 10.0 ** rng.integers(-2, 3)
        yield np.unique(rng.integers(-4, 5, size=(2 * d + 5, d)), axis=0).astype(float) + 100.0


def test_entropy_near_every_vertex_keeps_its_relative_precision():
    # the report's entropy is the kernel's delta form at its own beta: over these 136
    # solves the largest relative error against 100 digits is 3.5e-15. -sum p log p
    # over the weights reads up to 1.2e-10 off here, as p_h = 1 - O(S) rounds away
    # the entropy's relative precision
    cases = 0
    for pts in _vertex_sets():
        for order in (pts, pts[::-1]):
            A = mg.new_state_set(order.shape[1], order)
            center = A.points.mean(axis=0)
            for v in mg.convex_hull(A).vertices:
                for eps in (1e-4, 1e-7):
                    t = center + (1 - eps) * (A.points[v] - center)
                    r = mg.invert_mean_energy(A, t, mg.SolveOptions(grad_tol=1e-15))
                    want = float(oracles.mp_log_z_entropy(A.points, r.beta.components)[1])
                    assert abs(r.entropy - want) <= 1e-14 * want, (order.tolist(), t, r.entropy, want)
                    cases += 1
    assert cases == 136


def test_start_memo_is_not_part_of_the_value():
    pts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 3.0]]
    A = mg.new_state_set(2, pts)
    first = _report_bits(A, mg.invert_mean_energy(A, [0.5, 0.5]))
    memo = A._start
    assert memo is not None
    fresh = mg.new_state_set(2, pts)
    assert A == fresh and repr(A) == repr(fresh)
    # a solve from the filled memo matches one on a fresh set, bit for bit
    assert _report_bits(A, mg.invert_mean_energy(A, [0.5, 0.5])) == first
    assert A._start is memo
    assert _report_bits(fresh, mg.invert_mean_energy(fresh, [0.5, 0.5])) == first
    for arr in A._start[1:]:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0
    # Newton reads the set's frame coordinates, contiguous (d, N) rows; the memo holds no copy
    assert len(A._start) == 4
    rows = A._coords
    assert rows.flags.c_contiguous and not rows.flags.writeable and rows.shape == (A.affine_dim, len(A))
    assert rows.tobytes() == np.ascontiguousarray(_frame_coords(A, A.points).T).tobytes()


def _start_bits(A):
    log_z, *arrays = A._start
    return (log_z.hex(), *(a.tobytes() for a in arrays))


def test_start_memo_shared_across_threads():
    rng = np.random.Generator(np.random.Philox(key=48))
    point_sets = [rng.normal(size=(40, 3)) for _ in range(12)]
    targets = [mg.mean_energy(mg.new_state_set(3, p), rng.normal(size=3)) for p in point_sets]
    expected = []
    for p, t in zip(point_sets, targets):
        A = mg.new_state_set(3, p)
        expected.append((_report_bits(A, mg.invert_mean_energy(A, t)), _start_bits(A)))
    shared = [mg.new_state_set(3, p) for p in point_sets]
    for A in shared:
        mg.convex_hull(A)  # only the start memo is left to fill
    seen = []  # list.append is atomic under the interpreter lock

    def work():
        for i, A in enumerate(shared):
            seen.append((i, _report_bits(A, mg.invert_mean_energy(A, targets[i]))))

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
    assert all(bits == expected[i][0] for i, bits in seen)
    assert [_start_bits(A) for A in shared] == [e[1] for e in expected]
    # every thread read one memo per set: read-only, with the bits of a lone solve
    for A in shared:
        assert not any(arr.flags.writeable for arr in A._start[1:])
