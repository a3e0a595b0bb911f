"""Independent reference computations used to check the library.

Nothing here may call the code paths under test: entropy maximization is a
dense grid scan over the constraint slice, hull membership is linear
programming, fiber maximization is golden-section search, derivatives are
central differences. `reference_invert` is a frozen copy of the Newton solve
as it stood before the start memo and the one-call LAPACK step, for checks
that a faster solver keeps every bit. `reference_state_set_from_json` and
`reference_new_state_set` are frozen copies of the state-set checks as they
stood before the bulk type pass and array conversion, for checks that every
document keeps its outcome.
"""

import math
import sys

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.optimize import linprog
from scipy.special import xlogy

import momentgibbs as mg
from momentgibbs.polytope import _margin, _span_violation
from momentgibbs.state_space import _frame_coords, affine_frame, point_array


def max_entropy_on_fiber(points, target, step=1e-3):
    """Grid-maximize Shannon entropy over {p >= 0, sum p = 1, p @ points = target}.

    Parametrizes the feasible affine slice with an orthonormal nullspace
    basis, scans a bounding box densely with `step`, then refines once around
    the best cell with step/500. The entropy is strictly concave on the
    slice, so the scan cannot be trapped away from the optimum.
    """
    pts = np.asarray(points, dtype=float)
    n_states = pts.shape[0]
    a_eq = np.vstack([np.ones(n_states), pts.T])
    b_eq = np.concatenate([[1.0], np.atleast_1d(np.asarray(target, dtype=float))])
    p0, *_ = np.linalg.lstsq(a_eq, b_eq, rcond=None)
    _, svals, vh = np.linalg.svd(a_eq)
    rank = int(np.sum(svals > 1e-12 * svals[0]))
    basis = vh[rank:].T
    dof = basis.shape[1]
    if dof == 0:
        p = np.clip(p0, 0.0, None)
        return float(-xlogy(p, p).sum())

    lo = np.empty(dof)
    hi = np.empty(dof)
    for j in range(dof):
        for sign, box in ((1.0, lo), (-1.0, hi)):
            cost = np.zeros(dof)
            cost[j] = sign
            res = linprog(cost, A_ub=-basis, b_ub=p0,
                          bounds=[(None, None)] * dof, method="highs")
            assert res.status == 0, "slice bounding box LP failed"
            box[j] = res.x[j]

    best_val, best_t = _scan_box(p0, basis, lo, hi, step)
    fine_val, _ = _scan_box(p0, basis, best_t - step, best_t + step, step / 500.0)
    return max(best_val, fine_val)


def _scan_box(p0, basis, lo, hi, step):
    axes = [np.arange(l, h + step / 2.0, step) for l, h in zip(lo, hi)]
    grids = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([g.ravel() for g in grids], axis=1)
    best = -np.inf
    best_t = coords[0]
    for chunk in np.array_split(coords, max(1, coords.shape[0] // 200_000)):
        p = p0 + chunk @ basis.T
        feasible = np.all(p >= -1e-12, axis=1)
        if not feasible.any():
            continue
        pf = np.clip(p[feasible], 0.0, None)
        entropies = -xlogy(pf, pf).sum(axis=1)
        k = int(np.argmax(entropies))
        if entropies[k] > best:
            best = float(entropies[k])
            best_t = chunk[feasible][k]
    return best, best_t


def classify_against_hull(points, x, tol=1e-9):
    """'interior' / 'boundary' / 'exterior' of conv(points) by LP feasibility.

    Membership asks for a convex combination hitting x; interiority asks for
    a positive step from x along every +/- axis direction while staying in
    the hull.
    """
    pts = np.asarray(points, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n_states, dim = pts.shape

    member = linprog(
        np.zeros(n_states),
        A_eq=np.vstack([np.ones(n_states), pts.T]),
        b_eq=np.concatenate([[1.0], x]),
        bounds=[(0, None)] * n_states,
        method="highs",
    )
    if member.status != 0:
        return "exterior"

    worst_step = math.inf
    for axis in range(dim):
        for sign in (1.0, -1.0):
            a_eq = np.zeros((dim + 1, n_states + 1))
            a_eq[0, :n_states] = 1.0
            a_eq[1:, :n_states] = pts.T
            a_eq[axis + 1, n_states] = -sign
            cost = np.zeros(n_states + 1)
            cost[-1] = -1.0  # maximize the step
            res = linprog(
                cost,
                A_eq=a_eq,
                b_eq=np.concatenate([[1.0], x]),
                bounds=[(0, None)] * n_states + [(0, None)],
                method="highs",
            )
            step = res.x[-1] if res.status == 0 else 0.0
            worst_step = min(worst_step, step)
    return "interior" if worst_step > tol else "boundary"


def golden_max(f, lo, hi, tol=1e-11):
    """Golden-section maximum of a unimodal f on [lo, hi]."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - ratio * (b - a)
    d = a + ratio * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = f(d)
    mid = (a + b) / 2.0
    return mid, f(mid)


def fiber_max_quadratic(m, kept, lead, tol=1e-11):
    """max of -v' M v over the trailing coordinates, leading ones fixed.

    Nested golden-section search; supports fiber dimension 1 or 2. The
    bracket radius bounds the maximizer through norm(B' x) / lambda_min(R).
    """
    m = np.asarray(m, dtype=float)
    lead = np.atleast_1d(np.asarray(lead, dtype=float))
    fiber_dim = m.shape[0] - kept
    cross = m[:kept, kept:]
    trail = m[kept:, kept:]
    lam_min = float(np.linalg.eigvalsh(trail)[0])
    radius = float(np.linalg.norm(cross.T @ lead)) / lam_min + 1.0

    if fiber_dim == 1:
        def value(y):
            v = np.concatenate([lead, [y]])
            return -float(v @ m @ v)

        return golden_max(value, -radius, radius, tol)[1]
    if fiber_dim == 2:
        def outer(y1):
            def inner(y2):
                v = np.concatenate([lead, [y1, y2]])
                return -float(v @ m @ v)

            return golden_max(inner, -radius, radius, tol)[1]

        return golden_max(outer, -radius, radius, tol)[1]
    raise ValueError("fiber dimension must be 1 or 2")


def central_gradient(f, x, h):
    """Componentwise central differences of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        bump = np.zeros_like(x)
        bump[i] = h if np.isscalar(h) else h[i]
        grad[i] = (f(x + bump) - f(x - bump)) / (2.0 * bump[i])
    return grad


def central_jacobian(f, x, h):
    """Central-difference Jacobian of a vector function, one column per axis."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        bump = np.zeros_like(x)
        bump[i] = h if np.isscalar(h) else h[i]
        cols.append((f(x + bump) - f(x - bump)) / (2.0 * bump[i]))
    return np.stack(cols, axis=1)


def reference_invert(A, target, opts=None):
    """`invert_mean_energy` frozen: every solve recomputes the beta = 0 state,
    F is recomputed at each iteration, log weights are -(pts @ beta) and each
    Newton step calls dpotrf and then dpotrs. The feasibility guard, the frame
    and the report types are the package's; the loop and its kernels are
    copies, so a change to them cannot move the reference."""
    opts = opts or mg.SolveOptions()
    t_full = point_array(target, A.dim)
    hull = mg.convex_hull(A)
    off = _span_violation(hull, t_full)
    if off:
        raise mg.TargetOutsideHull(-off, f"target is {off:.3g} off the affine span of the states")
    margin = _margin(hull, t_full)
    btol = math.ldexp(1e-9 * hull._unit_diameter, A._exp)
    if margin < -btol:
        raise mg.TargetOutsideHull(margin)
    if margin <= btol:
        raise mg.TargetOnBoundary(
            margin,
            f"target margin {margin:.3g} is within {btol:.3g} of the hull boundary; "
            "beta diverges there (see polytope.tropical_limit for the limiting face)",
        )
    d = A.affine_dim
    reduced = d < A.dim
    if d == 0:
        return mg.SolveReport(mg.CoVector(np.zeros(A.dim)), 0, 0.0, 0.0, True, reduced)

    pts = A._coords
    t = _frame_coords(A, t_full)
    beta = np.zeros(d)
    log_z, p = _ref_normalized(-(pts @ beta))
    iterations = 0
    while True:
        mean = p @ pts
        grad = t - mean
        grad_norm = float(np.abs(grad).max()) / hull._unit_diameter
        converged = grad_norm <= opts.grad_tol
        if converged or iterations == opts.max_iter:
            break
        iterations += 1
        step = reference_newton_step(_ref_covariance(pts, p, mean), grad)
        f0 = log_z + float(beta @ t)
        slope = -float(grad @ step)
        slack = 32.0 * np.finfo(float).eps * (1.0 + abs(f0))
        stride = 1.0
        stalled = False
        while True:
            cand = beta - stride * step
            log_z_c, p_c = _ref_normalized(-(pts @ cand))
            if log_z_c + float(cand @ t) <= f0 + 1e-4 * stride * slope + slack:
                break
            stride *= 0.5
            if stride < 1e-14:
                stalled = True
                break
        if stalled:
            break
        beta, log_z, p = cand, log_z_c, p_c

    beta = np.ldexp(beta, -A._exp)
    report = mg.SolveReport(
        beta=mg.CoVector(affine_frame(A)[1] @ beta if reduced else beta),
        iterations=iterations,
        grad_norm=grad_norm,
        entropy=float(-xlogy(p, p).sum() + 0.0),
        converged=converged,
        reduced=reduced,
    )
    if not converged:
        raise mg.NoConvergence(
            f"no convergence after {iterations} iterations "
            f"(grad_norm {grad_norm:.3g} > {opts.grad_tol:.3g})",
            report=report,
        )
    return report


def reference_newton_step(hess, grad):
    """The solver's Newton step as dpotrf followed by dpotrs, with its ridge
    rule and its checks."""
    a = hess
    reg = 0.0
    for _ in range(40):
        if not np.isfinite(a).all():
            raise ValueError("array must not contain infs or NaNs")
        factor, info = dpotrf(a, lower=1, clean=0)
        if info == 0:
            if not np.isfinite(grad).all():
                raise ValueError("array must not contain infs or NaNs")
            step, info = dpotrs(factor, grad, lower=1)
            if info != 0:
                raise ValueError(f"dpotrs: illegal value in argument {-info}")
            return step
        if info < 0:
            raise ValueError(f"dpotrf: illegal value in argument {-info}")
        if reg == 0.0:
            d = hess.shape[0]
            eye = np.eye(d)
            reg = 1e-12 * max(float(np.trace(hess)) / d, np.finfo(float).tiny)
        else:
            reg *= 10.0
        a = hess + reg * eye
    raise np.linalg.LinAlgError("covariance could not be regularized to positive definite")


def _ref_normalized(log_w):
    m = float(log_w.max())
    log_z = m + float(np.log(np.exp(log_w - m).sum()))
    return log_z, np.exp(log_w - log_z)


def _ref_covariance(pts, p, mean):
    centered = pts - mean
    cov = centered.T @ (centered * p[:, None])
    return (cov + cov.T) / 2.0


def reference_state_set_from_json(doc):
    """`state_set_from_json` frozen: every entry and every row is checked in a
    Python loop before the set is built by `reference_new_state_set`."""
    if not isinstance(doc, dict):
        raise ValueError("state set document must be a JSON object")
    unknown = sorted(set(doc) - {"dim", "points", "labels"})
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
    return reference_new_state_set(dim, points, labels)


def reference_new_state_set(dim, points, labels=None):
    """`new_state_set` with its dim check and its points matrix frozen; the
    package builds the rest (finite, distinct, labels) from that matrix."""
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim < 1:
        raise ValueError(f"dim must be a positive integer, got {dim!r}")
    return mg.new_state_set(int(dim), reference_points_matrix(points, int(dim)), labels)


def reference_points_matrix(points, dim):
    """`_points_matrix` frozen: `np.ndim` and `len` of every row, then one
    conversion."""
    if isinstance(points, np.ndarray):
        try:
            arr = np.asarray(points, dtype=float)
        except OverflowError:
            raise ValueError("points array has a coordinate beyond the float range") from None
        if arr.ndim != 2 or arr.shape[1] != dim:
            raise mg.DimensionMismatch(f"points array has shape {arr.shape}, expected (N, {dim})")
        if arr.shape[0] == 0:
            raise mg.EmptyStateSet("state set must contain at least one point")
        return arr.copy()
    rows = list(points)
    if not rows:
        raise mg.EmptyStateSet("state set must contain at least one point")
    for i, row in enumerate(rows):
        if np.ndim(row) != 1 or len(row) != dim:
            raise mg.DimensionMismatch(f"point {i} has {np.size(row)} coordinates, expected {dim}")
    try:
        return np.array(rows, dtype=float)
    except OverflowError:  # a Python int beyond the float range
        bad = next(i for i, row in enumerate(rows) if max(map(abs, row)) > sys.float_info.max)
        raise ValueError(f"point {bad} has a coordinate beyond the float range") from None
