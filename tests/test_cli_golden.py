"""Golden CLI payloads: exit code and stdout must match tests/golden/ byte for byte.

Each case runs `cli.main(argv)` in process. A golden file holds the line
`exit <code>` followed by the exact stdout. The goldens pin the bytes that
refactors of the numerical kernels must not move; regenerate them only for a
deliberate payload change, with `PYTHONPATH=src python tests/test_cli_golden.py`.
"""

import contextlib
import io
import pathlib

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


def _regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        (GOLDEN_DIR / f"{name}.txt").write_text(_render(code, out.getvalue()), encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
