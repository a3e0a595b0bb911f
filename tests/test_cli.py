import json
import math
import subprocess
import sys

import numpy as np
import pytest

import momentgibbs.cli as cli
from conftest import DATA_DIR, load_doc


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


def test_cli_import_defers_scipy_linalg_and_spatial():
    probe = (
        "import sys, momentgibbs.cli; "
        "print(sorted(m for m in ('scipy.linalg', 'scipy.spatial') if m in sys.modules))"
    )
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, check=True)
    assert run.stdout.strip() == b"[]"


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
