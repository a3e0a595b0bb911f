"""Golden CLI payloads: exit code and stdout must match tests/golden/ byte for byte.

Each case runs `cli.main(argv)` in process. A golden file holds the line
`exit <code>` followed by the exact stdout. The goldens pin the bytes that
refactors of the numerical kernels must not move; regenerate them only for a
deliberate payload change, with `PYTHONPATH=src python tests/test_cli_golden.py`.
"""

import contextlib
import io
import json
import pathlib

import numpy as np
import pytest

import momentgibbs.cli as cli
from conftest import DATA_DIR

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

def _data(name: str) -> str:
    return str(DATA_DIR / f"{name}.json")


CASES = {
    # the eight C10 invocations
    "forward_two_state": ["forward", _data("two_state"), "--beta", "0"],
    "invert_two_state": ["invert", _data("two_state"), "--mean", "0.25"],
    "sweep_four_level": ["sweep", _data("four_level"), "--from", "-10", "--to", "10", "--steps", "201"],
    "hull_square": ["hull", _data("square")],
    "limit_square": ["limit", _data("square"), "--direction", "1,0"],
    "microstates_two_state": [
        "microstates", _data("two_state"), "--total", "100", "--seed", "42", "--beta", "1.0986",
    ],
    "toric_square": ["toric", _data("square"), "--beta", "0.5,0.5"],
    "check_two_state": ["check", _data("two_state")],
    # moment image at beta = ln 2, where mean_energy(A, 2*beta) differs in the last bit
    "toric_square_ln2": ["toric", _data("square"), "--beta", "0.6931471805599453,0.6931471805599453"],
    # reduced (collinear) inversion, and a target off its affine span (exit 3)
    "invert_collinear": ["invert", _data("collinear"), "--mean", "1,1"],
    "invert_collinear_off_span": ["invert", _data("collinear"), "--mean", "1,0"],
    "invert_collinear_skewed": ["invert", _data("collinear"), "--mean", "0.5,0.5"],
    "check_collinear": ["check", _data("collinear")],
    # target on the boundary (exit 3) and an iteration cap hit (exit 4)
    "invert_two_state_boundary": ["invert", _data("two_state"), "--mean", "1"],
    "invert_two_state_capped": ["invert", _data("two_state"), "--mean", "0.25", "--max-iter", "1"],
    # zero limit direction (exit 2)
    "limit_square_zero": ["limit", _data("square"), "--direction", "0,0"],
    "check_square": ["check", _data("square")],
    "check_four_level": ["check", _data("four_level")],
}


def _render(code: int, stdout: str) -> str:
    return f"exit {code}\n{stdout}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    code = cli.main(CASES[name])
    got = _render(code, capsys.readouterr().out)
    want = (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
    assert got == want


def test_sweep_golden_rows_match_100_digit_values():
    # the golden is checked against mpmath, not only re-pinned: at beta = -10 the
    # entropy once read 2.9009376131391963e-12, 3.4e-5 off the 100-digit value.
    # At a beta such as -9.9, beta * x rounds, and exp turns a rounding of each
    # log-weight l into one of |l| u in its weight: each bound allows 4 u for the
    # first-order effect of those roundings, on top of the result's own few ulps
    from oracles import mp_log_z_entropy

    points = json.loads((DATA_DIR / "four_level.json").read_text())["points"]
    x = np.array(points, dtype=float)[:, 0]
    rows = (GOLDEN_DIR / "sweep_four_level.txt").read_text(encoding="utf-8").splitlines()[2:]
    assert len(rows) == 201 and rows[0].startswith("-10,")
    u = 2.0**-53
    for row in rows:
        beta, _, entropy, log_z = map(float, row.split(","))
        want_log_z, want_entropy = map(float, mp_log_z_entropy(points, [beta]))
        l = -beta * (x - x[np.argmin(beta * x)])
        p = np.exp(l) / np.exp(l).sum()
        spread = p @ (np.abs(l) * np.abs(l - p @ l))  # |dS| per relative rounding of each l
        assert abs(entropy - want_entropy) <= 1e-15 * abs(want_entropy) + 4 * u * spread, row
        assert abs(log_z - want_log_z) <= 1e-15 * abs(want_log_z) + 4 * u * (p @ np.abs(l)), row
    assert rows[0].split(",")[2] == "2.9010373127012783e-12"
    assert abs(float(mp_log_z_entropy(points, [-10.0])[1]) - 2.9010373127012782e-12) <= 1e-27


def _regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        (GOLDEN_DIR / f"{name}.txt").write_text(_render(code, out.getvalue()), encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
