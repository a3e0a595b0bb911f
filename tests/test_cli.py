import argparse
import ast
import inspect
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest

import momentgibbs.cli as cli
from momentgibbs.errors import NoConvergence, TargetOutsideHull
from momentgibbs.gibbs import gibbs_summary
from momentgibbs.state_space import state_set_from_json
from conftest import DATA_DIR, load_doc
from oracles import mp_log_z_entropy

def payload(result):
    assert result.exit_code == 0, result.diagnostics
    return json.loads(result.payload)


def test_forward_two_state_uniform():
    doc = load_doc("two_state.json")
    out = payload(cli.cmd_forward(doc, "0"))
    assert out["schema"] == "moment-gibbs/v1"
    assert out["log_z"] == pytest.approx(math.log(2), rel=1e-15)
    assert out["probs"] == [0.5, 0.5]
    assert out["mean"] == [0.5]
    assert out["covariance"] == [[0.25]]
    assert out["entropy"] == pytest.approx(math.log(2), rel=1e-15)


def test_forward_seventeen_digit_formatting():
    doc = load_doc("two_state.json")
    res = cli.cmd_forward(doc, "0")
    assert '"log_z":0.69314718055994529' in res.payload


def test_forward_skewed_and_errors():
    doc = load_doc("two_state.json")
    out = payload(cli.cmd_forward(doc, "1.0986122886681098"))
    assert out["probs"] == pytest.approx([0.75, 0.25], abs=1e-12)

    res = cli.cmd_forward(doc, "0,0")
    assert res.exit_code == 2
    assert "DimensionMismatch" in res.payload

    res = cli.cmd_forward({"dim": 1, "points": [[0]], "oops": 1}, "0")
    assert res.exit_code == 2

    res = cli.cmd_forward(doc, "abc")
    assert res.exit_code == 2


def test_invert_command():
    doc = load_doc("two_state.json")
    out = payload(cli.cmd_invert(doc, "0.25"))
    assert out["beta"][0] == pytest.approx(math.log(3), abs=1e-9)
    assert out["reduced"] is False
    assert out["iterations"] <= 30

    out = payload(cli.cmd_invert(doc, "0.5"))
    assert out["beta"] == [0.0]

    res = cli.cmd_invert(doc, "1.5")
    assert res.exit_code == 3
    err = json.loads(res.payload)["error"]
    assert err["type"] == "TargetOutsideHull"
    assert err["margin"] == pytest.approx(-0.5)

    res = cli.cmd_invert(doc, "1.0")
    assert res.exit_code == 3
    assert json.loads(res.payload)["error"]["type"] == "TargetOnBoundary"

    res = cli.cmd_invert(doc, "0.25", max_iter=1)
    assert res.exit_code == 4


def test_sweep_two_state_monotone():
    doc = load_doc("two_state.json")
    res = cli.cmd_sweep(doc, 0, -5.0, 5.0, 11)
    assert res.exit_code == 0
    lines = res.payload.split("\n")
    assert lines[0] == "beta_axis,mean_1,entropy,log_z"
    assert len(lines) == 12
    assert "\r" not in res.payload
    means = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(a > b for a, b in zip(means, means[1:]))


def test_sweep_bad_inputs():
    doc = load_doc("two_state.json")
    assert cli.cmd_sweep(doc, 0, -5.0, 5.0, 1).exit_code == 2
    assert cli.cmd_sweep(doc, 3, -5.0, 5.0, 5).exit_code == 2
    assert cli.cmd_sweep(load_doc("square.json"), 0, -1.0, 1.0, 3, "0,0").exit_code == 2


def test_sweep_square_product_structure():
    res = cli.cmd_sweep(load_doc("square.json"), 0, -3.0, 3.0, 7, "0")
    lines = res.payload.split("\n")
    assert lines[0] == "beta_axis,mean_1,mean_2,entropy,log_z"
    assert len(lines) == 8
    second_mean = {line.split(",")[2] for line in lines[1:]}
    # the unswept axis stays at beta 0, so its marginal stays uniform
    assert all(float(v) == pytest.approx(0.5, abs=1e-15) for v in second_mean)


def test_sweep_error_in_the_loop_exits_2():
    # building the set and the weights succeeds; log Z at beta = 1e200, about
    # -1e400, is not a double
    doc = {"dim": 1, "points": [[1e200], [2e200]]}
    res = cli.cmd_sweep(doc, 0, 1e200, 2e200, 2)
    assert res.exit_code == 2
    err = json.loads(res.payload)["error"]
    assert err == {"type": "ValueError", "message": "a result is -inf, which is not a finite double"}
    assert res.diagnostics == ("ValueError: a result is -inf, which is not a finite double",)
    assert cli.cmd_forward(doc, "1e200").exit_code == 2
    # log Z leaves the float range inside the second block, not at its first row
    A = state_set_from_json(doc)
    values = np.linspace(0.0, 3e108, 40)
    first = next(i for i, b in enumerate(values) if not math.isfinite(gibbs_summary(A, [b]).log_z))
    assert cli._SWEEP_ROWS < first < 2 * cli._SWEEP_ROWS - 1
    res = cli.cmd_sweep(doc, 0, 0.0, 3e108, 40)
    assert res.diagnostics == ("ValueError: a result is -inf, which is not a finite double",)
    # a range whose width overflows: the first step's beta is NaN, as in a step loop
    res = cli.cmd_sweep(doc, 0, -1.7e308, 1.7e308, 3 * cli._SWEEP_ROWS)
    assert res.diagnostics == ("ValueError: covector components must be finite",)


def _summary_csv(doc, axis, start, stop, steps, fixed):
    """The sweep's CSV, built step by step from gibbs_summary."""
    A = state_set_from_json(doc)
    lines = [",".join(["beta_axis", *(f"mean_{i + 1}" for i in range(A.dim)), "entropy", "log_z"])]
    held = [float(v) for v in fixed.split(",")]
    for value in np.linspace(start, stop, steps):
        s = gibbs_summary(A, np.insert(held, axis, value))
        lines.append(",".join(cli._fmt(c) for c in [value, *s.mean_energy, s.entropy, s.log_z]))
    return "\n".join(lines)


def _plane_doc():
    rng = np.random.Generator(np.random.Philox(key=45))
    return {"dim": 2, "points": (rng.normal(size=(500, 2)) * [3.0, 0.5]).tolist()}


def _reduced_doc():
    """A set of affine dimension 3 in R^5, off the origin, with an odd state count."""
    rng = np.random.Generator(np.random.Philox(key=46))
    coeffs = rng.integers(-20, 21, size=(301, 3))
    embed = rng.integers(-3, 4, size=(3, 5))
    return {"dim": 5, "points": np.unique(coeffs @ embed + [7, -1, 0, 2, 5], axis=0).tolist()}


def test_sweep_matches_gibbs_summary():
    # each row of the kernel's blocks has the bits of a one-row call, at every
    # place in a block and in a last block of any length
    rows = cli._SWEEP_ROWS
    for doc, axis, fixed, steps in (
        (_plane_doc(), 0, "0.7", 41),
        (_plane_doc(), 1, "-1.5", 3 * rows + 5),
        (_plane_doc(), 0, "0.0", 2),
        (_reduced_doc(), 2, "0.3,-0.2,0.05,0.1", 3 * rows),
        (_reduced_doc(), 4, "-0.4,0,0.25,1e-3", 4 * rows + 1),
    ):
        assert state_set_from_json(doc).affine_dim in (2, 3)
        res = cli.cmd_sweep(doc, axis, -4.0, 3.0, steps, fixed)
        assert res.exit_code == 0
        assert res.payload == _summary_csv(doc, axis, -4.0, 3.0, steps, fixed)


def _failing_at(monkeypatch, failures: dict):
    """The Gibbs kernel raising failures[b] for the first beta[0] = b of its block
    that failures names, as a step loop would at that step."""
    from momentgibbs import gibbs

    kernel = gibbs._gibbs

    def failing(A, betas):
        for b in betas[:, 0]:
            if b in failures:
                raise failures[b]
        return kernel(A, betas)

    monkeypatch.setattr(gibbs, "_gibbs", failing)


@pytest.mark.parametrize(
    "failures",
    [
        {0.75: ValueError("step 0.75 fails")},  # in the third block only
        {0.0: ValueError("step 0 fails"), 0.75: ValueError("step 0.75 fails")},  # the first is reported
        {-0.5: ValueError("the second block"), 0.25: ValueError("the third block")},
        {0.5: TargetOutsideHull(-0.25)},  # exit 3, with its margin
        {0.5: NoConvergence("no convergence after 1 iterations")},  # exit 4
    ],
)
def test_a_failing_step_gives_the_serial_outcome(monkeypatch, capsys, failures):
    _failing_at(monkeypatch, failures)
    argv = ["sweep", TWO, "--from=-8", "--to=8", "--steps=65"]  # steps of 0.25
    steps = {b: int((b + 8) / 0.25) for b in failures}
    assert min(steps.values()) >= cli._SWEEP_ROWS  # past the first block
    first = failures[min(failures)]  # the first failing step in step order
    code = cli.main(argv)
    out = capsys.readouterr()
    err = json.loads(out.out)["error"]
    assert code == {ValueError: 2, TargetOutsideHull: 3, NoConvergence: 4}[type(first)]
    assert err == {"type": type(first).__name__, "message": str(first)} | (
        {"margin": first.margin} if isinstance(first, TargetOutsideHull) else {}
    )
    assert out.err == f"{err['type']}: {err['message']}\n"


def _subcommands():
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


EMPTY_SET_ARGV = {
    "forward": ["--beta", "0"],
    "invert": ["--mean", "0"],
    "sweep": ["--from", "0", "--to", "1", "--steps", "2"],
    "hull": [],
    "limit": ["--direction", "1"],
    "microstates": ["--total", "3", "--seed", "1"],
    "toric": ["--beta", "0"],
    "check": [],
}


def test_every_command_reports_an_empty_state_set(tmp_path, capsys):
    assert sorted(EMPTY_SET_ARGV) == sorted(_subcommands())
    path = tmp_path / "empty.json"
    path.write_text('{"dim": 1, "points": []}')
    for name, flags in EMPTY_SET_ARGV.items():
        assert cli.main([name, str(path), *flags]) == 2, name
        captured = capsys.readouterr()
        err = json.loads(captured.out)["error"]
        assert err["type"] == "EmptyStateSet", name
        assert captured.err.startswith("EmptyStateSet: "), name


def test_command_table_matches_the_functions():
    commands = {name[4:]: fn for name, fn in vars(cli).items() if name.startswith("cmd_")}
    subcommands = _subcommands()
    assert sorted(subcommands) == sorted(commands)
    for name, sub in subcommands.items():
        fn = commands[name]
        assert sub.get_default("run") is fn
        # main calls run(doc, **options): the option dests are the keyword parameters
        dests = {a.dest for a in sub._actions} - {"help", "input"}
        params = list(inspect.signature(fn).parameters)[1:]
        assert dests == set(params), name


def test_invert_tolerance_options():
    doc = load_doc("four_level.json")
    default = payload(cli.cmd_invert(doc, "1.3"))
    loose = payload(cli.cmd_invert(doc, "1.3", tol=1e-3))
    assert loose["iterations"] <= default["iterations"]
    assert loose["beta"][0] == pytest.approx(default["beta"][0], abs=1e-2)


def test_main_tolerance_flags_exit_2(capsys):
    two = str(DATA_DIR / "two_state.json")
    assert cli.main(["invert", two, "--mean", "0.25", "--tol", "0"]) == 2
    assert cli.main(["invert", two, "--mean", "0.25", "--max-iter", "0"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "ValueError: grad_tol must lie in (0, 1)",
        "ValueError: max_iter must be positive",
    ]


CENTERED = {"dim": 2, "points": [[-1, -1], [1, -1], [-1, 1], [1, 1]]}


@pytest.mark.parametrize(
    "argv",
    [
        ["forward", "--beta", "-1,2"],
        ["toric", "--beta", "-1,2"],
        ["microstates", "--total", "5", "--seed", "1", "--beta", "-1,2"],
        ["invert", "--mean", "-0.5,0.5"],
        ["limit", "--direction", "-1,0"],
        ["sweep", "--from", "-1e-3", "--to", "1", "--steps", "3"],
        ["sweep", "--from", "0", "--to", "1", "--steps", "3", "--fixed", "-1e-3"],
        ["sweep", "--from", "-1e-3", "--to", "-1,2", "--steps", "3"],  # refused by float
    ],
)
def test_a_negative_value_after_its_flag_reads_as_the_value(tmp_path, capsys, argv):
    path = tmp_path / "centered.json"
    path.write_text(json.dumps(CENTERED))
    runs = []
    for joined in (False, True):
        args = [argv[0], str(path)]
        for flag, value in zip(argv[1::2], argv[2::2]):
            args += [f"{flag}={value}"] if joined else [flag, value]
        try:
            code = cli.main(args)
        except SystemExit as exc:  # argparse's refusal
            code = exc.code
        runs.append((code, capsys.readouterr()))
    assert runs[0] == runs[1]
    assert runs[0][0] in (0, 2)


def test_main_joins_only_a_single_dash_value_to_a_double_dash_flag(monkeypatch):
    class Parsed(Exception):
        pass

    def parse_args(args):
        raise Parsed(args)

    monkeypatch.setattr(cli, "_build_parser", lambda: types.SimpleNamespace(parse_args=parse_args))
    with pytest.raises(Parsed) as parsed:
        cli.main(["forward", "-", "--beta", "-1", "--", "-2", "--x=1", "-3", "--y", "-", "--z", "--w", "-4"])
    assert parsed.value.args[0] == [
        "forward", "-", "--beta=-1", "--", "-2", "--x=1", "-3", "--y", "-", "--z", "--w=-4"
    ]


@pytest.mark.parametrize("value", ["-inf", "inf"])
def test_main_refuses_an_infinite_sweep_bound(capsys, value):
    two = str(DATA_DIR / "two_state.json")
    assert cli.main(["sweep", two, "--from", value, "--to", "1", "--steps", "3"]) == 2
    out = capsys.readouterr()
    assert out.err == "ValueError: sweep range must be finite\n"
    assert json.loads(out.out)["error"]["message"] == "sweep range must be finite"


def test_to_json_arrays():
    # strict JSON has no NaN or Infinity: a payload holding one is refused
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="not a finite double"):
            cli._to_json(np.array([1.0, bad]))
    assert cli._to_json(np.array([-0.0])) == "[-0]"
    # the bytes of the float lists the payloads were once built from
    matrix = np.array([[0.1, -2.0], [1e-300, 3.0]])
    assert cli._to_json(matrix) == cli._to_json([[float(v) for v in row] for row in matrix])
    assert cli._to_json(matrix) == "[[0.10000000000000001,-2],[1e-300,3]]"
    ints = np.array([3, -1, 0], dtype=np.int64)
    assert cli._to_json(ints) == cli._to_json([float(v) for v in ints]) == "[3,-1,0]"
    # an array is written in one pass, with the bytes of the element-by-element
    # path, and the first non-finite entry in row-major order is the one refused
    rng = np.random.default_rng(3)
    for arr in (
        rng.normal(size=(4, 5)) * 10.0 ** rng.integers(-300, 300, size=(4, 5)),
        np.array([-0.0, 0.0, 5e-324, -1.7976931348623157e308, 2.0**-1022]),
        rng.integers(-(2**63), 2**63 - 1, size=(3, 2, 2), dtype=np.int64),
    ):
        for view in (arr, arr.T, arr[::-1]):
            assert cli._to_json(view) == cli._to_json(view.tolist())
    mixed = np.array([[1.0, np.inf], [np.nan, -np.inf]])
    for view, first in ((mixed, "inf"), (mixed.T, "nan"), (mixed[::-1, ::-1], "-inf")):
        with pytest.raises(ValueError, match=f"^a result is {first}, which"):
            cli._to_json(view)


def _refuse_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def _forward_runs(beta):
    """The commands that read the Gibbs weights, each expected to exit 0."""
    return [
        (["forward", f"--beta={beta}"], 0, None),
        (["sweep", "--from=-3", "--to=3", "--steps=7"], 0, None),
        (["microstates", "--total=50", "--seed=3", f"--beta={beta}"], 0, None),
        (["toric", f"--beta={beta}"], 0, None),
        (["check"], 0, None),
    ]


# edge documents, each with the argvs run on it and, where the outcome is the
# point, its exit code and error type
_EDGE_DOCS = {
    "midpoint_1e200": ([[0], [1e200]], [
        (["invert", "--mean", "5e199"], 0, None),
        (["invert", "--mean", "1e200"], 3, "TargetOnBoundary"),
        (["forward", "--beta", "1e-200"], 2, "ValueError"),  # the covariance overflows
        (["forward", "--beta", "0"], 2, "ValueError"),
    ]),
    "pm_1.7e308": ([[-1.7e308], [1.7e308]], [
        (["invert", "--mean", "0"], 0, None),
        (["hull"], 0, None),
        (["forward", "--beta", "1e-200"], 2, "ValueError"),
        # at beta = -1 the second state's weight relative to the first is e^3.4e308
        (["toric", "--beta=-1"], 0, None),
        (["microstates", "--total=5", "--seed=1", "--beta=-1"], 0, None),
        (["sweep", "--from=-1", "--to=1", "--steps=3"], 0, None),
    ]),
    "pair_1e200": ([[1e200], [2e200]], [(["invert", "--mean", "1.5e200"], 0, None)]),
    # the 8x8 grid moved by 1e5: its center once fell outside a 2-vertex hull
    "grid_1e5": ([[1e5 + i, 1e5 + j] for i in range(8) for j in range(8)], [
        (["hull"], 0, None),
        (["invert", "--mean", "100003.5,100002"], 0, None),
    ]),
    # sets far from the origin: Gibbs weights formed in caller units once
    # summed to 1 + 1e-11 there, and every forward command exited 2
    "far_1d": ([[-300000], [-299999], [-299996]], _forward_runs("0.5")),
    "square_1e5": ([[1e5 + a, 1e5 + b] for a, b in ((0, 0), (1, 0), (0, 1), (1, 1))], _forward_runs("0.5,-1")),
    "two_state_1e5": ([[1e5], [1e5 + 1]], _forward_runs("0.5")),
    # the heaviest states far from the first one, near the origin and far from
    # it: weights about the first state missed a sum of 1 by 5e-11 and 5e-12,
    # and caller-unit weights failed the second. `check`'s grid puts its
    # targets on the boundary here (exit 3)
    "first_far": ([[-3e5], [0.25], [1.5]], _forward_runs("-2")[:-1]),
    "origin_first_far": ([[0], [3e5], [3e5 + 1]], _forward_runs("-1")[:-1]),
    # beta paired in the frame once overflowed where the weights are doubles:
    # its projection on this reduced set's span, and this tiny set's unit
    # coordinates times beta
    "reduced_1.7e308": ([[0, 0], [0.5, 0.5]], [
        (["forward", "--beta=1.7e308,1.7e308"], 0, None),
        (["toric", "--beta=1.7e308,1.7e308"], 0, None),
        (["check"], 0, None),
    ]),
    "tiny_pm": ([[-1e-300], [1e-300]], [
        (["forward", "--beta=-1.5e308"], 0, None),
        (["toric", "--beta=-1.5e308"], 0, None),
        (["check"], 0, None),
    ]),
    # a target so far off the span that its margin is not a double: reported
    # without a margin, as exit 2
    "diagonal": ([[0, 0], [1, 1]], [
        (["invert", "--mean", "1.7e308,-1.7e308"], 2, "TargetOutsideHull"),
    ]),
}


def _every_command(path, doc):
    """One argv of each command on a state set document."""
    pts = np.array(doc["points"], dtype=float)
    ones = ",".join(["1"] * doc["dim"])
    return [
        ["forward", path, "--beta", ones],
        ["invert", path, "--mean", ",".join(repr(float(v)) for v in pts.mean(axis=0))],
        ["hull", path],
        ["limit", path, "--direction", ones],
        ["toric", path, "--beta", ones],
        ["microstates", path, "--total", "50", "--seed", "3", "--beta", ones],
        ["check", path, "--points", "5"],
        ["sweep", path, "--from", "-2", "--to", "2", "--steps", "5"],
    ]


def _strict_json_cases(tmp_path):
    """(argv, expected exit code or None, expected error type or None): the
    golden argvs, every command on every data/ file, and the edge documents."""
    from test_cli_golden import CASES

    argvs = list(CASES.values())
    for path in sorted(DATA_DIR.glob("*.json")):
        argvs += _every_command(str(path), json.loads(path.read_text()))
    cases = [(argv, None, None) for argv in argvs]
    for name, (points, runs) in _EDGE_DOCS.items():
        doc = {"dim": len(points[0]), "points": points}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        cases += [([cmd, str(path), *args], code, kind) for (cmd, *args), code, kind in runs]
        cases += [(argv, None, None) for argv in _every_command(str(path), doc)]
    return cases


def test_every_json_stdout_is_strict_json(tmp_path, capsys):
    cases = _strict_json_cases(tmp_path)
    for argv, code, kind in cases:
        got = cli.main(argv)
        out = capsys.readouterr().out
        assert got in (0, 1, 2, 3, 4) and (code is None or got == code), argv
        if argv[0] == "sweep" and got == 0:
            cells = [c for line in out.splitlines()[1:] for c in line.split(",")]
            assert all(math.isfinite(float(c)) for c in cells), argv
            continue
        doc = json.loads(out, parse_constant=_refuse_constant)
        assert kind is None or doc["error"]["type"] == kind, argv
        if kind == "TargetOutsideHull":
            assert "margin" not in doc["error"]
    assert len(cases) > 70


def test_hull_command():
    out = payload(cli.cmd_hull(load_doc("square.json")))
    assert out["affine_dim"] == 2
    assert out["vertices"] == [0, 1, 2, 3]
    assert len(out["facets"]) == 4
    assert out["span_equations"] == []

    out = payload(cli.cmd_hull(load_doc("collinear.json")))
    assert out["affine_dim"] == 1
    assert out["vertices"] == [0, 2]
    assert len(out["span_equations"]) == 1


def test_limit_command():
    out = payload(cli.cmd_limit(load_doc("two_state.json"), "1"))
    assert out["face"] == [0]
    assert out["limit"] == [0.0]

    out = payload(cli.cmd_limit(load_doc("square.json"), "1,0"))
    assert out["face"] == [0, 2]
    assert out["limit"] == [0.0, 0.5]

    assert cli.cmd_limit(load_doc("square.json"), "0,0").exit_code == 2


@pytest.mark.parametrize(
    "points, argv, code, expected",
    [
        # a planar lattice set whose integer edge offsets would overflow
        (
            [[0, 0], [1e200, 0], [0, 1e200], [1e200, 1e200]],
            ["hull"],
            0,
            {"vertices": [0, 1, 2, 3], "facets": [
                {"normal": [-1, 0], "offset": -1e200}, {"normal": [0, -1], "offset": -1e200},
                {"normal": [0, 1], "offset": 0}, {"normal": [1, 0], "offset": 0}]},
        ),
        (
            [[0, 0], [1e200, 0], [0, 1e200], [1e200, 1e200]],
            ["invert", "--mean=1.5e200,5e199"],
            3,
            {"error": {"type": "TargetOutsideHull", "message": "target outside hull (margin -5e+199)",
                       "margin": -5e199}},
        ),
        # the same square far from the origin: its edge offsets about its first
        # point are doubles, its offsets about the origin are not
        (
            [[a, b] for a in (1e160, 1e160 + 1e150) for b in (1e160, 1e160 + 1e150)],
            ["hull"],
            0,
            {"vertices": [0, 1, 2, 3], "facets": [
                {"normal": [-1, 0], "offset": -(1e160 + 1e150)},
                {"normal": [0, -1], "offset": -(1e160 + 1e150)},
                {"normal": [0, 1], "offset": 1e160}, {"normal": [1, 0], "offset": 1e160}]},
        ),
        # a planar lattice set whose integer edge normals would overflow
        ([[-1.7e308, 0], [1.7e308, 0], [0, 1.7e308]], ["hull"], 0, {"vertices": [0, 1, 2]}),
        # pairings whose spread overflows: the tie tolerance must not
        ([[-1.7e308], [1.7e308]], ["limit", "--direction", "1"], 0,
         {"face": [0], "value": -1.7e308, "limit": [-1.7e308]}),
        ([[-1e308, 0], [1e308, 0], [0, 1]], ["limit", "--direction=-1,0"], 0,
         {"face": [1], "value": -1e308, "limit": [1e308, 0]}),
    ],
)
def test_edges_near_the_float_range(tmp_path, capsys, points, argv, code, expected):
    path = tmp_path / "set.json"
    path.write_text(json.dumps({"dim": len(points[0]), "points": points}))
    assert cli.main([argv[0], str(path), *argv[1:]]) == code
    out = json.loads(capsys.readouterr().out)
    assert {key: out.get(key) for key in expected} == expected


def test_limit_value_beyond_the_float_range_is_one_stderr_line(tmp_path, capsys):
    # the pairings overflow to -inf and inf: the face is still found, and only
    # its value is refused
    path = tmp_path / "set.json"
    path.write_text(json.dumps({"dim": 1, "points": [[-1.7e308], [1.7e308]]}))
    assert cli.main(["limit", str(path), "--direction", "10"]) == 2
    assert capsys.readouterr().err == "ValueError: a result is -inf, which is not a finite double\n"


def test_limit_of_tied_states_whose_sum_overflows(tmp_path, capsys):
    # 1.7e308 + 1.7e308 is not a double, but the barycenter of the tied pair is
    path = tmp_path / "set.json"
    path.write_text(json.dumps({"dim": 2, "points": [[1.7e308, 0], [1.7e308, 1], [0, 0]]}))
    assert cli.main(["limit", str(path), "--direction=-1,0"]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert json.loads(out.out)["face"] == [0, 1]
    assert json.loads(out.out)["limit"] == [1.7e308, 0.5]


def test_microstates_command():
    doc = load_doc("two_state.json")
    out = payload(cli.cmd_microstates(doc, total=50, seed=42, beta="1.0986122886681098"))
    assert out["generator"] == "philox4x64-10"
    assert sum(out["counts"]) == 50
    assert out["seed"] == 42
    assert out["entropy"] == pytest.approx(math.log(4) - 0.75 * math.log(3), rel=1e-12)
    again = payload(cli.cmd_microstates(doc, total=50, seed=42, beta="1.0986122886681098"))
    assert again == out
    assert cli.cmd_microstates(doc, total=0, seed=1).exit_code == 2
    # at low temperature the entropy keeps its relative precision: it is forward's, from
    # the kernel, where an xlogy over the weights was 8.6e-10 off at 20 and 5.4e-6 at 30
    for beta in ("20", "30"):
        entropy = payload(cli.cmd_microstates(doc, total=50, seed=42, beta=beta))["entropy"]
        assert entropy == payload(cli.cmd_forward(doc, beta))["entropy"]
        want = float(mp_log_z_entropy(doc["points"], [float(beta)])[1])
        assert abs(entropy - want) <= 1e-15 * want


def test_toric_command():
    out = payload(cli.cmd_toric(load_doc("square.json"), "0.6931471805599453,0.6931471805599453"))
    assert out["positive_point"] == pytest.approx([1.0, 0.5, 0.5, 0.25], rel=1e-14)
    assert out["moment"] == pytest.approx([0.2, 0.2], rel=1e-14)


def test_check_command():
    res = cli.cmd_check(load_doc("two_state.json"))
    assert res.exit_code == 0
    out = json.loads(res.payload)
    assert out["passed"] is True
    assert out["max_legendre_residual"] <= 1e-10
    assert out["max_roundtrip_error"] <= 1e-8
    assert out["grid_points"] == 100


def test_results_identical_across_runs():
    doc = load_doc("square.json")
    for build in (
        lambda: cli.cmd_forward(doc, "0.25,-1.5"),
        lambda: cli.cmd_invert(doc, "0.3,0.7"),
        lambda: cli.cmd_sweep(doc, 1, -2.0, 2.0, 9, "0.5"),
        lambda: cli.cmd_hull(doc),
        lambda: cli.cmd_check(doc),
    ):
        assert build().payload == build().payload


def test_main_reads_files_and_stdin(capsys):
    rc = cli.main(["forward", str(DATA_DIR / "two_state.json"), "--beta", "0"])
    assert rc == 0
    first = capsys.readouterr().out
    assert json.loads(first)["probs"] == [0.5, 0.5]

    rc = cli.main(["forward", str(DATA_DIR / "two_state.json"), "--beta", "0"])
    assert capsys.readouterr().out == first


def test_main_error_exits(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["forward", str(bad), "--beta", "0"]) == 2
    assert cli.main(["forward", str(tmp_path / "missing.json"), "--beta", "0"]) == 2
    capsys.readouterr()


def test_main_non_utf8_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"dim": 1, "points": [[0], [1]], "labels": ["\xff", "b"]}')
    assert cli.main(["forward", str(bad), "--beta", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cannot read input")


def test_forward_coordinate_beyond_float_range():
    # valid JSON: Python parses the integer exactly, float64 cannot hold it
    doc = json.loads('{"dim": 1, "points": [[0], [1' + "0" * 400 + ']]}')
    res = cli.cmd_forward(doc, "0")
    assert res.exit_code == 2
    err = json.loads(res.payload)["error"]
    assert err["type"] == "ValueError"
    assert "point 1" in err["message"]


def test_subprocess_byte_identical():
    cmd = [
        sys.executable,
        "-m",
        "momentgibbs",
        "forward",
        str(DATA_DIR / "four_level.json"),
        "--beta",
        "0.75",
    ]
    runs = [subprocess.run(cmd, capture_output=True, check=True) for _ in range(2)]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.startswith(b'{"schema":"moment-gibbs/v1"')


def test_check_scales_its_grid_by_the_spread():
    # on [-5, 5] the grid saturates the mean of a set 1000 wide and the solve
    # refused a target on the boundary (exit 3); over the spread it classifies
    res = cli.cmd_check({"dim": 1, "points": [[0], [1000]]})
    out = json.loads(res.payload)
    assert res.exit_code == (0 if out["passed"] else 1)
    assert out["max_legendre_residual"] <= 1e-10
    # a one-point set keeps the unscaled grid
    assert cli.cmd_check({"dim": 2, "points": [[3, 4]]}).exit_code == 0


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_main_module_runs_blas_on_one_thread():
    # `python -m momentgibbs` and the console script set one BLAS thread before numpy
    # loads, whatever the environment asks; numpy's and scipy's pools then start none
    probe = (
        "import os, momentgibbs.__main__, numpy; "
        "from momentgibbs.gibbs import _scipy_kernel; _scipy_kernel('dposv'); "
        "print(len(os.listdir('/proc/self/task')))"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, env=env, check=True)
    assert run.stdout.strip() == b"1"


def test_subprocess_exit_codes():
    base = [sys.executable, "-m", "momentgibbs"]
    two = str(DATA_DIR / "two_state.json")
    assert subprocess.run(base + ["forward", two, "--beta", "0,0"], capture_output=True).returncode == 2
    assert subprocess.run(base + ["invert", two, "--mean", "1.5"], capture_output=True).returncode == 3
    assert (
        subprocess.run(
            base + ["invert", two, "--mean", "0.25", "--max-iter", "1"], capture_output=True
        ).returncode
        == 4
    )


TWO = str(DATA_DIR / "two_state.json")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["forward", "N5000", "--beta", "0.3,-0.2"], 0),
        (["forward", TWO, "--beta", "0,0"], 2),
        (["invert", TWO, "--mean", "1.5"], 3),
        (["invert", TWO, "--mean", "0.25", "--max-iter", "1"], 4),
        (["forward", TWO], 2),  # argparse: --beta is required
    ],
)
def test_process_exit_writes_what_main_writes(tmp_path, capsys, argv, code):
    # `run` freezes the heap before the process exits; the bytes and the exit
    # code must still be those of the in-process `main`
    if "N5000" in argv:
        rng = np.random.Generator(np.random.Philox(key=16))
        big = tmp_path / "n5000.json"
        big.write_text(json.dumps({"dim": 2, "points": rng.normal(size=(5000, 2)).tolist()}))
        argv = [str(big) if a == "N5000" else a for a in argv]
    try:
        got = cli.main(argv)
    except SystemExit as exc:
        got = exc.code
    inproc = capsys.readouterr()
    # a block-buffered stdout, as in a plain pipe, must still be flushed at exit
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    run = subprocess.run([sys.executable, "-m", "momentgibbs", *argv], capture_output=True, env=env)
    assert got == run.returncode == code
    assert run.stdout == inproc.out.encode()
    assert run.stderr == inproc.err.encode()
    if code == 0:
        assert len(run.stdout) >= 100_000


_REFUSALS = {  # the flags before the count, and the refusal line
    "sweep": (["--from", "0", "--to", "1", "--steps"], "ValueError: steps must be at most 10000, got {}"),
    "check": (["--points"], "ValueError: check takes at most 1000 grid points, got {}"),
    "microstates": (["--seed", "1", "--total"], "InvalidTotal: the CLI samples at most 100000000 particles, got {}"),
}


@pytest.mark.parametrize(
    "command, count",
    [
        ("sweep", "10001"),
        ("sweep", "1000000000000"),
        ("check", "1001"),
        ("check", "1000000000000"),
        ("microstates", "100000001"),
        ("microstates", "1099511627776"),
    ],
)
def test_counts_past_their_bound_are_refused_before_any_work(capsys, command, count):
    flags, line = _REFUSALS[command]
    line = line.format(count)
    tracemalloc.start()
    try:
        code = cli.main([command, TWO, *flags, count])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr()
    assert code == 2
    assert out.err == line + "\n"
    assert json.loads(out.out)["error"]["type"] == line.split(":")[0]
    assert peak < 4 * 2**20  # a refused block of work would allocate at least 8 MiB


def test_counts_at_their_bound_are_accepted(monkeypatch):
    # the per-item kernels are stubbed, but for sweep's, which is fast on two states:
    # the bounds are under test, not the kernels
    from momentgibbs import duality, gibbs, microstates

    two = load_doc("two_state.json")
    res = cli.cmd_sweep(two, 0, 0.0, 1.0, 10_000)
    assert res.exit_code == 0 and len(res.payload.splitlines()) == 1 + 10_000

    monkeypatch.setattr(gibbs, "mean_energy", lambda A, beta: None)
    monkeypatch.setattr(duality, "legendre_residual", lambda A, beta: 0.0)
    monkeypatch.setattr(duality, "legendre_roundtrip", lambda A, target: 0.0)
    assert payload(cli.cmd_check(two, 1_000))["grid_points"] == 1_000

    def all_in_state_0(p, total, seed):
        return microstates.MicrostateCounts([total, 0], total, seed, p.parent)

    monkeypatch.setattr(microstates, "sample_counts", all_in_state_0)
    assert payload(cli.cmd_microstates(two, 10**8, 1))["counts"] == [10**8, 0]


@pytest.mark.parametrize(
    "exc, line",
    [
        # numpy raises a subclass; the line names the base type
        (type("ArrayMemoryError", (MemoryError,), {})("Unable to allocate 7.28 TiB"),
         "MemoryError: Unable to allocate 7.28 TiB"),
        (MemoryError(), "MemoryError: out of memory"),
    ],
)
def test_memory_error_is_exit_2_with_one_line(monkeypatch, capsys, exc, line):
    from momentgibbs import gibbs

    def exhausted(A, beta):
        raise exc

    monkeypatch.setattr(gibbs, "gibbs_summary", exhausted)
    assert cli.main(["forward", TWO, "--beta", "0"]) == 2
    out = capsys.readouterr()
    assert out.err == line + "\n"
    assert json.loads(out.out)["error"] == dict(zip(("type", "message"), line.split(": ")))


@pytest.mark.parametrize(
    "points, argv, code, kind",
    [
        (
            [[1e200], [2e200]],
            ["sweep", "-", "--from", "1e200", "--to", "2e200", "--steps", "2"],
            2,
            "ValueError",
        ),
        ([[1e200], [2e200]], ["forward", "-", "--beta", "1e200"], 2, "ValueError"),
        # a vertex target; the midpoint is solved since the diameter no longer overflows
        ([[0], [1e200]], ["invert", "-", "--mean", "1e200"], 3, "TargetOnBoundary"),
        # the covariance, about 2.5e399, is not a double
        ([[0], [1e200]], ["forward", "-", "--beta", "1e-200"], 2, "ValueError"),
    ],
)
def test_subprocess_stderr_is_the_diagnostic_line(points, argv, code, kind):
    # numpy's RuntimeWarnings used to reach stderr ahead of the diagnostic
    doc = json.dumps({"dim": 1, "points": points})
    run = subprocess.run(
        [sys.executable, "-m", "momentgibbs", *argv], input=doc, capture_output=True, text=True
    )
    err = json.loads(run.stdout)["error"]
    assert run.returncode == code and err["type"] == kind
    assert run.stderr == f"{err['type']}: {err['message']}\n"


_PRINT_SCIPY_MODULES = (
    "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
)


def test_cli_import_defers_scipy_linalg_and_spatial():
    probe = (
        "import sys, momentgibbs.cli; "
        "print(sorted(m for m in ('scipy.linalg', 'scipy.spatial') if m in sys.modules))"
    )
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, check=True)
    assert run.stdout.strip() == b"[]"
    for module in ("momentgibbs", "momentgibbs.cli"):
        run = subprocess.run(
            [sys.executable, "-c", f"import sys, {module}; {_PRINT_SCIPY_MODULES}"],
            capture_output=True, check=True,
        )
        assert run.stdout.strip() == b"[]", module


def test_hull_limit_toric_never_import_scipy():
    square = str(DATA_DIR / "square.json")
    argvs = [
        ["hull", square],
        ["limit", square, "--direction", "1,0"],
        ["toric", square, "--beta", "0.5,0.5"],
    ]
    probe = (
        "import sys, momentgibbs.cli as cli; "
        f"codes = [cli.main(argv) for argv in {argvs!r}]; "
        f"print(codes, file=sys.stderr); {_PRINT_SCIPY_MODULES}"
    )
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, check=True)
    assert run.stderr.strip() == b"[0, 0, 0]"
    assert run.stdout.splitlines()[-1] == b"[]"


def test_solve_and_entropy_commands_load_no_scipy_package():
    # dposv, xlogy and gammaln load from scipy's compiled modules alone
    argvs = []
    for path in sorted(DATA_DIR.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        beta = ",".join(["0.3"] * doc["dim"])
        mean = ",".join(map(repr, np.mean(doc["points"], axis=0).tolist()))
        argvs += [
            ["forward", str(path), "--beta", beta],
            ["invert", str(path), "--mean", mean],
            ["sweep", str(path), "--from", "-1", "--to", "1", "--steps", "5"],
            ["microstates", str(path), "--total", "100", "--seed", "3", "--beta", beta],
            ["check", str(path), "--points", "10"],
        ]
    probe = (
        "import sys, momentgibbs.cli as cli; "
        f"codes = [cli.main(argv) for argv in {argvs!r}]; "
        f"print(codes, file=sys.stderr); {_PRINT_SCIPY_MODULES}"
    )
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, check=True)
    assert run.stderr.strip() == str([0] * len(argvs)).encode()
    assert run.stdout.splitlines()[-1] == b"[]"


def test_hull_of_affine_dimension_three_loads_scipy_spatial(tmp_path):
    path = tmp_path / "tetrahedron.json"
    path.write_text(json.dumps({"dim": 3, "points": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
    probe = (
        "import sys, momentgibbs.cli as cli; "
        f"print(cli.main(['hull', {str(path)!r}]), file=sys.stderr); "
        "print('scipy.spatial' in sys.modules)"
    )
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, check=True)
    assert run.stderr.strip() == b"0"
    assert run.stdout.splitlines()[-1] == b"True"


def test_no_module_level_scipy_import():
    # a module-level scipy import would load it for every command again;
    # imports inside a function body load on first call and are allowed
    src = pathlib.Path(cli.__file__).resolve().parent
    found = []
    for path in sorted(src.glob("*.py")):
        pending = list(ast.parse(path.read_text(encoding="utf-8")).body)
        while pending:
            node = pending.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                names = []
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name == "scipy" or name.startswith("scipy.")
            ]
            pending.extend(ast.iter_child_nodes(node))
    assert found == []


def test_stdin_input():
    cmd = [sys.executable, "-m", "momentgibbs", "forward", "-", "--beta", "0"]
    doc = (DATA_DIR / "two_state.json").read_bytes()
    run = subprocess.run(cmd, input=doc, capture_output=True, check=True)
    assert json.loads(run.stdout)["mean"] == [0.5]


def test_cli_round_trip_on_shipped_files():
    rng = np.random.Generator(np.random.Philox(key=81))
    for name in ("two_state.json", "three_state.json", "square.json", "four_level.json"):
        doc = load_doc(name)
        dim = doc["dim"]
        beta = rng.uniform(-2.0, 2.0, size=dim)
        forward = payload(cli.cmd_forward(doc, ",".join(str(b) for b in beta)))
        inverted = payload(cli.cmd_invert(doc, ",".join(str(m) for m in forward["mean"])))
        assert np.abs(np.array(inverted["beta"]) - beta).max() <= 1e-7


def test_invert_reduced_flag_for_degenerate_span():
    out = payload(cli.cmd_invert(load_doc("collinear.json"), "0.7,0.7"))
    assert out["reduced"] is True
    assert out["beta"][0] == pytest.approx(out["beta"][1], abs=1e-12)
