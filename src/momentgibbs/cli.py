"""Command-line front end: JSON state sets in, JSON or CSV results out.

Numbers are serialized with 17 significant digits (%.17g), which
round-trips doubles exactly, so identical invocations produce byte-identical
payloads. Exit codes: 0 success, 2 invalid input, 3 infeasible target,
4 convergence failure (and 1 when `check` finds a residual above tolerance).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .duality import legendre_residual, legendre_roundtrip
from .errors import NoConvergence, TargetOnBoundary, TargetOutsideHull
from .gibbs import entropy, gibbs_distribution, gibbs_summary, mean_energy
from .microstates import (
    GENERATOR_NAME,
    log_equilibrium_count,
    log_multinomial_measure,
    sample_counts,
)
from .moment_solver import SolveOptions, invert_mean_energy
from .polytope import _limit_face, convex_hull
from .state_space import state_set_from_json
from .toric import moment_of_beta, positive_point

SCHEMA = "moment-gibbs/v1"

_CHECK_GRID_KEY = 987654321  # fixed stream key for the check command's grid
_CHECK_RESIDUAL_TOL = 1e-10
_CHECK_ROUNDTRIP_TOL = 1e-8


@dataclass(frozen=True)
class CommandResult:
    """Outcome of one CLI command: exit code, serialized payload, warnings."""

    exit_code: int
    payload: str
    diagnostics: tuple[str, ...] = ()


def _fmt(x: float) -> str:
    f = float(x)
    if math.isnan(f):
        return "NaN"
    if math.isinf(f):
        return "Infinity" if f > 0 else "-Infinity"
    return format(f, ".17g")


def _to_json(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_to_json(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ",".join(_to_json(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _floats(arr) -> list[float]:
    return [float(v) for v in np.atleast_1d(arr)]


def _parse_vector(text: str, what: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"could not parse {what} {text!r} as a comma-list of reals") from None
    if not values or not all(math.isfinite(v) for v in values):
        raise ValueError(f"{what} must be a nonempty comma-list of finite reals")
    return values


def _error_result(exc: Exception) -> CommandResult:
    kind = type(exc).__name__
    body: dict = {"type": kind, "message": str(exc)}
    if isinstance(exc, (TargetOutsideHull, TargetOnBoundary)):
        body["margin"] = exc.margin
        code = 3
    elif isinstance(exc, NoConvergence):
        code = 4
    else:
        code = 2
    payload = _to_json({"schema": SCHEMA, "error": body})
    return CommandResult(code, payload, (f"{kind}: {exc}",))


def cmd_forward(doc, beta: str) -> CommandResult:
    """Partition function, Gibbs weights, moments, and entropy at one beta."""
    try:
        A = state_set_from_json(doc)
        s = gibbs_summary(A, _parse_vector(beta, "beta"))
    except (ValueError, NoConvergence) as exc:
        return _error_result(exc)
    payload = _to_json(
        {
            "schema": SCHEMA,
            "log_z": s.log_z,
            "probs": _floats(s.distribution.probs),
            "mean": _floats(s.mean_energy),
            "covariance": [_floats(row) for row in s.covariance],
            "entropy": s.entropy,
        }
    )
    return CommandResult(0, payload)


def cmd_invert(doc, mean: str, tol: float | None = None, max_iter: int | None = None) -> CommandResult:
    """Solve for the beta whose Gibbs mean equals the requested vector."""
    try:
        A = state_set_from_json(doc)
        opts = SolveOptions(
            grad_tol=tol if tol is not None else SolveOptions.grad_tol,
            max_iter=max_iter if max_iter is not None else SolveOptions.max_iter,
        )
        report = invert_mean_energy(A, _parse_vector(mean, "mean"), opts)
    except (ValueError, NoConvergence) as exc:
        return _error_result(exc)
    payload = _to_json(
        {
            "schema": SCHEMA,
            "beta": _floats(report.beta.components),
            "iterations": report.iterations,
            "grad_norm": report.grad_norm,
            "entropy": report.entropy,
            "reduced": report.reduced,
        }
    )
    return CommandResult(0, payload)


def cmd_sweep(doc, axis: int, start: float, stop: float, steps: int, fixed: str | None = None) -> CommandResult:
    """CSV table of mean energy, entropy, and log Z along one beta axis."""
    try:
        A = state_set_from_json(doc)
        if steps < 2:
            raise ValueError(f"steps must be at least 2, got {steps}")
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ValueError("sweep range must be finite")
        if not 0 <= axis < A.dim:
            raise ValueError(f"axis must lie in [0, {A.dim - 1}], got {axis}")
        if fixed is None or fixed.strip() == "":
            held = [0.0] * (A.dim - 1)
        else:
            held = _parse_vector(fixed, "fixed")
        if len(held) != A.dim - 1:
            raise ValueError(f"fixed needs {A.dim - 1} components, got {len(held)}")
    except ValueError as exc:
        return _error_result(exc)

    header = ",".join(
        ["beta_axis"] + [f"mean_{i + 1}" for i in range(A.dim)] + ["entropy", "log_z"]
    )
    lines = [header]
    for value in np.linspace(start, stop, steps):
        beta = np.insert(np.asarray(held, dtype=float), axis, value)
        s = gibbs_summary(A, beta)
        cells = [value, *s.mean_energy, s.entropy, s.log_z]
        lines.append(",".join(_fmt(c) for c in cells))
    return CommandResult(0, "\n".join(lines))


def cmd_hull(doc) -> CommandResult:
    """Vertices, facet halfspaces, and span equations of the hull."""
    try:
        A = state_set_from_json(doc)
        hull = convex_hull(A)
    except ValueError as exc:
        return _error_result(exc)
    payload = _to_json(
        {
            "schema": SCHEMA,
            "affine_dim": hull.affine_dim,
            "vertices": list(hull.vertices),
            "facets": [
                {"normal": _floats(f.normal), "offset": f.offset} for f in hull.facets
            ],
            "span_equations": [
                {"normal": _floats(f.normal), "offset": f.offset}
                for f in hull.span_equations
            ],
        }
    )
    return CommandResult(0, payload)


def cmd_limit(doc, direction: str) -> CommandResult:
    """Low-temperature limit of the mean energy along a direction."""
    try:
        A = state_set_from_json(doc)
        face = _limit_face(A, _parse_vector(direction, "direction"))
    except ValueError as exc:
        return _error_result(exc)
    payload = _to_json(
        {
            "schema": SCHEMA,
            "face": list(face.indices),
            "value": face.value,
            "limit": _floats(face.barycenter),
        }
    )
    return CommandResult(0, payload)


def cmd_microstates(doc, total: int, seed: int, beta: str | None = None) -> CommandResult:
    """Sample occupation counts from the Gibbs distribution at beta."""
    try:
        A = state_set_from_json(doc)
        b = _parse_vector(beta, "beta") if beta else [0.0] * A.dim
        p = gibbs_distribution(A, b)
        counts = sample_counts(p, total, seed)
        measure = log_multinomial_measure(p, counts)
        eq_count = log_equilibrium_count(p, total)
    except ValueError as exc:
        return _error_result(exc)
    payload = _to_json(
        {
            "schema": SCHEMA,
            "generator": GENERATOR_NAME,
            "beta": [float(v) for v in b],
            "total": counts.total,
            "seed": counts.seed,
            "counts": [int(c) for c in counts.counts],
            "empirical": _floats(counts.counts / counts.total),
            "log_multinomial_measure": measure,
            "log_equilibrium_count": eq_count,
            "entropy": entropy(p),
        }
    )
    return CommandResult(0, payload)


def cmd_toric(doc, beta: str) -> CommandResult:
    """Positive point at beta and its projective moment image."""
    try:
        A = state_set_from_json(doc)
        b = _parse_vector(beta, "beta")
        w = positive_point(A, b)
        moment = moment_of_beta(A, b)
    except ValueError as exc:
        return _error_result(exc)
    payload = _to_json(
        {
            "schema": SCHEMA,
            "positive_point": _floats(w.weights),
            "moment": _floats(moment),
        }
    )
    return CommandResult(0, payload)


def cmd_check(doc, points: int = 100) -> CommandResult:
    """Duality residuals and inversion round-trips on a seeded beta grid.

    Exits 0 when the largest residual and round-trip error stay below their
    tolerances (1e-10 and 1e-8), 1 otherwise.
    """
    try:
        A = state_set_from_json(doc)
        if points < 1:
            raise ValueError("check needs at least one grid point")
    except ValueError as exc:
        return _error_result(exc)
    rng = np.random.Generator(np.random.Philox(key=_CHECK_GRID_KEY))
    betas = rng.uniform(-5.0, 5.0, size=(points, A.dim))
    max_residual = 0.0
    max_roundtrip = 0.0
    try:
        for b in betas:
            max_residual = max(max_residual, abs(legendre_residual(A, b)))
            max_roundtrip = max(max_roundtrip, legendre_roundtrip(A, mean_energy(A, b)))
    except (ValueError, NoConvergence) as exc:
        return _error_result(exc)
    passed = max_residual <= _CHECK_RESIDUAL_TOL and max_roundtrip <= _CHECK_ROUNDTRIP_TOL
    payload = _to_json(
        {
            "schema": SCHEMA,
            "grid_points": int(points),
            "max_legendre_residual": max_residual,
            "residual_tolerance": _CHECK_RESIDUAL_TOL,
            "max_roundtrip_error": max_roundtrip,
            "roundtrip_tolerance": _CHECK_ROUNDTRIP_TOL,
            "passed": passed,
        }
    )
    return CommandResult(0 if passed else 1, payload)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentgibbs",
        description="Vector-valued Gibbs ensembles over finite state sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="state set JSON file, or - for stdin")
        return p

    p = add("forward", "partition function, weights, moments, entropy at beta")
    p.add_argument("--beta", required=True, help="comma-list, one value per dimension")

    p = add("invert", "solve for the beta matching a mean energy")
    p.add_argument("--mean", required=True, help="target mean, comma-list")
    p.add_argument("--tol", type=float, default=None, help="gradient tolerance")
    p.add_argument("--max-iter", type=int, default=None, help="iteration cap")

    p = add("sweep", "CSV sweep of mean energy and entropy along one beta axis")
    p.add_argument("--axis", type=int, default=0, help="beta axis to sweep")
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--fixed", default=None, help="held values of the other axes")

    add("hull", "vertices and facets of the hull of the states")

    p = add("limit", "low-temperature limit of the mean energy along a direction")
    p.add_argument("--direction", required=True, help="comma-list direction")

    p = add("microstates", "sample particle occupation counts")
    p.add_argument("--total", type=int, required=True, help="number of particles")
    p.add_argument("--seed", type=int, required=True, help="stream key")
    p.add_argument("--beta", default=None, help="comma-list; default 0 (uniform)")

    p = add("toric", "positive point and moment image at beta")
    p.add_argument("--beta", required=True, help="comma-list")

    p = add("check", "duality residual and round-trip suite on a seeded grid")
    p.add_argument("--points", type=int, default=100, help="grid size")

    return parser


def _dispatch(args, doc) -> CommandResult:
    if args.command == "forward":
        return cmd_forward(doc, args.beta)
    if args.command == "invert":
        return cmd_invert(doc, args.mean, tol=args.tol, max_iter=args.max_iter)
    if args.command == "sweep":
        return cmd_sweep(doc, args.axis, args.start, args.stop, args.steps, args.fixed)
    if args.command == "hull":
        return cmd_hull(doc)
    if args.command == "limit":
        return cmd_limit(doc, args.direction)
    if args.command == "microstates":
        return cmd_microstates(doc, args.total, args.seed, beta=args.beta)
    if args.command == "toric":
        return cmd_toric(doc, args.beta)
    if args.command == "check":
        return cmd_check(doc, points=args.points)
    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 2
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"input is not valid JSON: {exc}", file=sys.stderr)
        return 2
    result = _dispatch(args, doc)
    if result.payload:
        print(result.payload)
    for line in result.diagnostics:
        print(line, file=sys.stderr)
    return result.exit_code


def run() -> None:
    raise SystemExit(main())
