"""Command-line front end: JSON state sets in, JSON or CSV results out.

Numbers are serialized with 17 significant digits (%.17g), which round-trips
doubles exactly, so identical invocations produce byte-identical payloads; a
non-finite number is refused, so stdout is strict JSON. Exit codes: 0 success,
2 invalid input (or a result that is not a finite double), 3 infeasible target,
4 convergence failure (and 1 when `check` finds a residual above tolerance).
Each command is a `cmd_*` function, registered once in `_build_parser`; the
exit-code mapping lives in one place, the `_command` error boundary that
wraps every command (and `main` exits 2 on unreadable input or invalid JSON).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from itertools import repeat

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
from .state_space import StateSet, state_set_from_json
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
    if not math.isfinite(f):
        raise ValueError(f"a result is {f!r}, which is not a finite double")
    return format(f, ".17g")


def _to_json(value) -> str:
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
    if isinstance(value, np.ndarray) and value.ndim and value.dtype in (np.float64, np.int64):
        return _array_json(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ",".join(_to_json(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _array_json(arr: np.ndarray) -> str:
    """`_to_json` of a float64 or int64 array in one pass over `tolist()`; a
    non-finite entry is refused by `_fmt`, the first one in row-major order."""
    spec = "d"
    if arr.dtype == np.float64:
        bad = arr[~np.isfinite(arr)]
        if bad.size:
            _fmt(bad[0])
        spec = ".17g"

    def nested(rows, depth):
        items = map(format, rows, repeat(spec)) if depth == 1 else (nested(r, depth - 1) for r in rows)
        return "[" + ",".join(items) + "]"

    return nested(arr.tolist(), arr.ndim)


def _parse_vector(text: str, what: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"could not parse {what} {text!r} as a comma-list of reals") from None
    if not values or not all(math.isfinite(v) for v in values):
        raise ValueError(f"{what} must be a nonempty comma-list of finite reals")
    return values


def _result(fields: dict, code: int = 0, diagnostics: tuple[str, ...] = ()) -> CommandResult:
    return CommandResult(code, _to_json({"schema": SCHEMA, **fields}), diagnostics)


def _error_result(exc: Exception) -> CommandResult:
    kind = type(exc).__name__
    body: dict = {"type": kind, "message": str(exc)}
    # a refusal whose margin is not a double is reported without one, as exit 2
    if isinstance(exc, (TargetOutsideHull, TargetOnBoundary)) and math.isfinite(exc.margin):
        body["margin"] = exc.margin
        code = 3
    elif isinstance(exc, NoConvergence):
        code = 4
    else:
        code = 2
    return _result({"error": body}, code, (f"{kind}: {exc}",))


def _command(body):
    """The error boundary of every command.

    The wrapped command takes the JSON document in place of the body's first
    parameter, a StateSet, and builds the set from it. Invalid input found at
    any stage (building the set, parsing options, computing) becomes an error
    payload through `_error_result`: exit 3 for an infeasible target, 4 for a
    solve that hit its iteration cap, 2 for anything else. numpy's
    floating-point warnings are silenced, so stderr gets only the diagnostic
    line; non-finite weights and targets fail explicit checks, non-finite results fail `_fmt`.
    """

    @functools.wraps(body)
    def command(doc, *args, **kwargs) -> CommandResult:
        try:
            with np.errstate(all="ignore"):
                return body(state_set_from_json(doc), *args, **kwargs)
        except (ValueError, NoConvergence) as exc:
            return _error_result(exc)

    return command


@_command
def cmd_forward(A: StateSet, beta: str) -> CommandResult:
    """Partition function, Gibbs weights, moments, and entropy at one beta."""
    s = gibbs_summary(A, _parse_vector(beta, "beta"))
    return _result(
        {
            "log_z": s.log_z,
            "probs": s.distribution.probs,
            "mean": s.mean_energy,
            "covariance": s.covariance,
            "entropy": s.entropy,
        }
    )


@_command
def cmd_invert(
    A: StateSet, mean: str, tol: float = SolveOptions.grad_tol, max_iter: int = SolveOptions.max_iter
) -> CommandResult:
    """Solve for the beta whose Gibbs mean equals the requested vector."""
    opts = SolveOptions(grad_tol=tol, max_iter=max_iter)
    report = invert_mean_energy(A, _parse_vector(mean, "mean"), opts)
    return _result(
        {
            "beta": report.beta.components,
            "iterations": report.iterations,
            "grad_norm": report.grad_norm,
            "entropy": report.entropy,
            "reduced": report.reduced,
        }
    )


@_command
def cmd_sweep(
    A: StateSet, axis: int, start: float, stop: float, steps: int, fixed: str | None = None
) -> CommandResult:
    """CSV table of mean energy, entropy, and log Z along one beta axis."""
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

    header = ",".join(
        ["beta_axis"] + [f"mean_{i + 1}" for i in range(A.dim)] + ["entropy", "log_z"]
    )
    lines = [header]
    beta = np.empty(A.dim)
    beta[np.arange(A.dim) != axis] = held
    for value in np.linspace(start, stop, steps):
        beta[axis] = value
        s = gibbs_summary(A, beta)
        cells = [value, *s.mean_energy, s.entropy, s.log_z]
        lines.append(",".join(_fmt(c) for c in cells))
    return CommandResult(0, "\n".join(lines))


@_command
def cmd_hull(A: StateSet) -> CommandResult:
    """Vertices, facet halfspaces, and span equations of the hull."""
    hull = convex_hull(A)
    return _result(
        {
            "affine_dim": hull.affine_dim,
            "vertices": hull.vertices,
            "facets": _halfspaces(hull.facets),
            "span_equations": _halfspaces(hull.span_equations),
        }
    )


def _halfspaces(rows: np.ndarray) -> list[dict]:
    return [{"normal": r[:-1], "offset": r[-1]} for r in rows]


@_command
def cmd_limit(A: StateSet, direction: str) -> CommandResult:
    """Low-temperature limit of the mean energy along a direction."""
    face = _limit_face(A, _parse_vector(direction, "direction"))
    return _result({"face": face.indices, "value": face.value, "limit": face.barycenter})


@_command
def cmd_microstates(A: StateSet, total: int, seed: int, beta: str | None = None) -> CommandResult:
    """Sample occupation counts from the Gibbs distribution at beta."""
    b = _parse_vector(beta, "beta") if beta else [0.0] * A.dim
    p = gibbs_distribution(A, b)
    counts = sample_counts(p, total, seed)
    measure = log_multinomial_measure(p, counts)
    eq_count = log_equilibrium_count(p, total)
    return _result(
        {
            "generator": GENERATOR_NAME,
            "beta": b,
            "total": counts.total,
            "seed": counts.seed,
            "counts": counts.counts,
            "empirical": counts.counts / counts.total,
            "log_multinomial_measure": measure,
            "log_equilibrium_count": eq_count,
            "entropy": entropy(p),
        }
    )


@_command
def cmd_toric(A: StateSet, beta: str) -> CommandResult:
    """Positive point at beta and its projective moment image."""
    b = _parse_vector(beta, "beta")
    w = positive_point(A, b)
    return _result({"positive_point": w.weights, "moment": moment_of_beta(A, b)})


@_command
def cmd_check(A: StateSet, points: int = 100) -> CommandResult:
    """Duality residuals and inversion round-trips on a seeded beta grid.

    Exits 0 when the largest residual and round-trip error stay below their
    tolerances (1e-10 and 1e-8), 1 otherwise.
    """
    if points < 1:
        raise ValueError("check needs at least one grid point")
    rng = np.random.Generator(np.random.Philox(key=_CHECK_GRID_KEY))
    betas = rng.uniform(-5.0, 5.0, size=(points, A.dim))
    max_residual = 0.0
    max_roundtrip = 0.0
    for b in betas:
        max_residual = max(max_residual, abs(legendre_residual(A, b)))
        max_roundtrip = max(max_roundtrip, legendre_roundtrip(A, mean_energy(A, b)))
    passed = max_residual <= _CHECK_RESIDUAL_TOL and max_roundtrip <= _CHECK_ROUNDTRIP_TOL
    return _result(
        {
            "grid_points": int(points),
            "max_legendre_residual": max_residual,
            "residual_tolerance": _CHECK_RESIDUAL_TOL,
            "max_roundtrip_error": max_roundtrip,
            "roundtrip_tolerance": _CHECK_ROUNDTRIP_TOL,
            "passed": passed,
        },
        0 if passed else 1,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentgibbs",
        description="Vector-valued Gibbs ensembles over finite state sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, command, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="state set JSON file, or - for stdin")
        p.set_defaults(run=command)
        return p

    p = add("forward", cmd_forward, "partition function, weights, moments, entropy at beta")
    p.add_argument("--beta", required=True, help="comma-list, one value per dimension")

    p = add("invert", cmd_invert, "solve for the beta matching a mean energy")
    p.add_argument("--mean", required=True, help="target mean, comma-list")
    p.add_argument("--tol", type=float, default=SolveOptions.grad_tol, help="gradient tolerance")
    p.add_argument("--max-iter", type=int, default=SolveOptions.max_iter, help="iteration cap")

    p = add("sweep", cmd_sweep, "CSV sweep of mean energy and entropy along one beta axis")
    p.add_argument("--axis", type=int, default=0, help="beta axis to sweep")
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--fixed", default=None, help="held values of the other axes")

    add("hull", cmd_hull, "vertices and facets of the hull of the states")

    p = add("limit", cmd_limit, "low-temperature limit of the mean energy along a direction")
    p.add_argument("--direction", required=True, help="comma-list direction")

    p = add("microstates", cmd_microstates, "sample particle occupation counts")
    p.add_argument("--total", type=int, required=True, help="number of particles")
    p.add_argument("--seed", type=int, required=True, help="stream key")
    p.add_argument("--beta", default=None, help="comma-list; default 0 (uniform)")

    p = add("toric", cmd_toric, "positive point and moment image at beta")
    p.add_argument("--beta", required=True, help="comma-list")

    p = add("check", cmd_check, "duality residual and round-trip suite on a seeded grid")
    p.add_argument("--points", type=int, default=100, help="grid size")

    return parser


def main(argv=None) -> int:
    options = vars(_build_parser().parse_args(argv))
    del options["command"]
    path, command = options.pop("input"), options.pop("run")
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 2
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"input is not valid JSON: {exc}", file=sys.stderr)
        return 2
    result = command(doc, **options)
    if result.payload:
        print(result.payload)
    for line in result.diagnostics:
        print(line, file=sys.stderr)
    return result.exit_code


def run() -> None:
    raise SystemExit(main())
