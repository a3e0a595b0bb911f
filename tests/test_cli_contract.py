"""The command-line contract, checked on generated state sets and argvs.

`cli.main` runs in process, with the document on stdin. Every run must keep
the contract:

- the exit code is in {0, 1, 2, 3, 4}, and only `check` exits 1;
- a JSON payload parses as strict JSON (no NaN or Infinity), and an error
  payload names the type that stderr names;
- `sweep` prints a CSV of finite numbers, one row per step, each as wide as
  its header;
- stderr is empty, or one `Type: message` line; a flag value of the wrong
  type is argparse's refusal instead: its usage line and one error line;
- no traceback escapes;
- the same argv run twice gives the same bytes;
- an `invert` or `microstates` that exits 0 prints the `entropy` that
  `forward` prints at its printed beta; where `forward` refuses a log Z or a
  covariance beyond the float range, the entropy of `gibbs_summary` there.

Translation: for an integer set A and an integer vector c, every command gives
the same exit code on A and on A + c, `invert` with its target moved by c, and
`limit` gives the same face.
The targets are dyadic, so t + c is exact. This holds for |c| <= 2^40, with
one exception: `check` is held to it for |c| <= 2^20 only, because its round
trip compares means in caller units, and ulp(2^40) = 2.4e-4 is above its 1e-8
tolerance.

hypothesis runs derandomized with a fixed example budget, so every run draws
the same examples.
"""

import contextlib
import functools
import io
import json
import math
import re
import sys
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import momentgibbs.cli as cli
from momentgibbs.gibbs import gibbs_summary
from momentgibbs.state_space import state_set_from_json

SETTINGS = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

# values of beta, directions and sweep ends: desk-scale, so (beta, c) stays a
# double for every offset c drawn below
_REALS = ["0", "1", "-1", "0.5", "-0.25", "3", "-7.5", "1e-300", "40", "-700"]
_BAD_REALS = ["nan", "inf", "-inf", "x", "1,,", ""]
_COUNTS = {  # flag: (valid values, invalid ones: the cap plus one, nonpositive, not an integer)
    "--steps": (["2", "3", "7"], [str(cli._MAX_STEPS + 1), "1", "0", "-4", "2.5"]),
    "--points": (["1", "2", "3"], [str(cli._MAX_POINTS + 1), "0", "-1", "x"]),
    "--total": (["1", "7", "50"], [str(cli._MAX_TOTAL + 1), "0", "-3", str(2**63), "1e3"]),
}
_ERROR_LINE = re.compile(r"[A-Za-z]\w*: .+")
# `main` builds its parser on each call, which takes most of a small run's time
# in process; one parser parses every argv the same way
_PARSER = functools.cache(cli._build_parser)


def _run(argv, text):
    """(exit code, stdout, stderr, whether argparse refused) of one in-process run."""
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), mock.patch.object(
            cli, "_build_parser", _PARSER
        ):
            try:
                code, refused = cli.main(argv), False
            except SystemExit as exc:  # argparse's refusal of a flag value
                code, refused = exc.code, True
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue(), refused


def _refuse_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def _check_contract(argv, doc, twice=True):
    """Run argv on doc (twice, unless told otherwise), assert the contract, and
    return the exit code and stdout."""
    text = json.dumps(doc)
    first = _run(argv, text)
    assert not twice or _run(argv, text) == first, argv
    code, out, err, refused = first
    assert code in (0, 1, 2, 3, 4) and (code != 1 or argv[0] == "check"), (argv, code)
    assert "Traceback" not in err, argv
    lines = err.splitlines()
    if refused:
        assert code == 2 and out == "", argv
        assert lines[0].startswith("usage: momentgibbs ") and len(lines) >= 2, argv
        assert lines[-1].startswith(f"momentgibbs {argv[0]}: error: "), argv
        return code, out
    assert lines == [] if code in (0, 1) else len(lines) == 1 and _ERROR_LINE.fullmatch(lines[0]), argv
    assert out.endswith("\n"), argv
    if argv[0] == "sweep" and code == 0:
        header, *rows = out.splitlines()
        width = len(header.split(","))
        assert width == doc["dim"] + 3 and len(rows) == int(_flag(argv, "--steps")), argv
        for row in rows:
            cells = row.split(",")
            assert len(cells) == width and all(math.isfinite(float(c)) for c in cells), argv
        return code, out
    assert out.count("\n") == 1, argv
    payload = json.loads(out, parse_constant=_refuse_constant)
    assert payload["schema"] == cli.SCHEMA, argv
    if code >= 2:
        assert payload["error"]["type"] == lines[0].split(":")[0], argv
    if argv[0] in ("invert", "microstates") and code == 0:
        beta = re.search(r'"beta":\[([^]]*)\]', out)[1]
        f_code, f_out, f_err, _ = _run(["forward", "-", f"--beta={beta}"], text)
        if f_code == 0:
            want = _entropy_text(f_out)
        else:
            assert f_code == 2 and f_err.endswith("which is not a finite double\n"), (argv, f_err)
            want = cli._fmt(gibbs_summary(state_set_from_json(doc), payload["beta"]).entropy)
        assert _entropy_text(out) == want, (argv, beta)
    return code, out


def _entropy_text(out):
    return re.search(r'"entropy":([^,}]*)', out)[1]


def _flag(argv, name):
    return next(a.split("=", 1)[1] for a in argv if a.startswith(name + "="))


def _vector(draw, n, reals=_REALS):
    """A comma-list for an n-vector: mostly valid, sometimes of the wrong length
    or with an entry that is not a finite real."""
    kind = draw(st.sampled_from(["valid"] * 6 + ["length", "bad"]))
    if kind == "length":
        n = draw(st.sampled_from([n - 1, n + 1])) if n > 1 else n + 1
    values = draw(st.lists(st.sampled_from(reals), min_size=n, max_size=n))
    if kind == "bad":  # in place of an entry, or one past the last
        i = draw(st.integers(0, n))
        values[i : i + 1] = [draw(st.sampled_from(_BAD_REALS))]
    return ",".join(values)


def _count(draw, flag):
    valid, invalid = _COUNTS[flag]
    return f"{flag}={draw(st.sampled_from(valid * 3 + invalid))}"


def _target(draw, pts):
    """An exact dyadic point: inside the hull, at a vertex, past the bounding
    box, or off the span of a reduced set; moved by c it stays exact."""
    kind = draw(st.sampled_from(["inside"] * 3 + ["vertex", "outside"]))
    if kind == "vertex":
        return pts[draw(st.integers(0, len(pts) - 1))]
    if kind == "outside":
        return pts.max(axis=0) + 1.0
    weights = np.array(draw(st.lists(st.integers(1, 64), min_size=len(pts), max_size=len(pts))), float)
    scale = 2.0 ** math.ceil(math.log2(weights.sum()))
    weights[0] += scale - weights.sum()  # weights summing to a power of two: an exact mean
    return (weights / scale) @ pts


def _argvs(draw, pts):
    """One argv per command for a set with these points, each a function of the
    translation c (only `invert`'s target moves)."""
    d = pts.shape[1]
    target = _target(draw, pts)
    mean_tail = draw(st.sampled_from([[], [], ["--tol=1e-12"], ["--tol=0"], ["--max-iter=1"], ["--max-iter=0"]]))
    sweep = [f"--axis={draw(st.sampled_from([0, d - 1, d, -1]))}"]
    sweep += [f"--from={draw(st.sampled_from(_REALS))}", f"--to={draw(st.sampled_from(_REALS))}"]
    sweep += [_count(draw, "--steps")]
    if draw(st.booleans()):
        sweep.append(f"--fixed={_vector(draw, d - 1)}")
    seed = draw(st.sampled_from(["0", "1", str(2**64 - 1), str(2**64), "-1"]))
    micro = [_count(draw, "--total"), f"--seed={seed}"]
    if draw(st.booleans()):
        micro.append(f"--beta={_vector(draw, d)}")
    fixed = {
        "forward": [f"--beta={_vector(draw, d)}"],
        "sweep": sweep,
        "hull": [],
        "limit": [f"--direction={_vector(draw, d)}"],
        "microstates": micro,
        "toric": [f"--beta={_vector(draw, d)}"],
        "check": [_count(draw, "--points")],
    }

    def argvs(c):
        moved = ",".join(repr(float(v)) for v in target + c)
        runs = {cmd: [cmd, "-", *tail] for cmd, tail in fixed.items()}
        runs["invert"] = ["invert", "-", f"--mean={moved}", *mean_tail]
        return runs

    return argvs


@st.composite
def _integer_sets(draw):
    """Distinct integer points of affine dimension up to 3; some mapped into a
    larger ambient space (a reduced set, with fewer points than coordinates
    when there are few points)."""
    d = draw(st.integers(1, 3))
    rows = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * d), min_size=1, max_size=8, unique=True))
    pts = np.array(rows, dtype=float)
    if draw(st.booleans()):
        m = d + draw(st.integers(1, 3))
        embed = np.array(draw(st.lists(st.integers(-2, 2), min_size=d * m, max_size=d * m)), float)
        pts = np.unique(pts @ embed.reshape(d, m), axis=0)
    return pts


@SETTINGS
@given(st.data())
def test_integer_translates_keep_the_contract_and_the_exit_codes(data):
    pts = data.draw(_integer_sets())
    size = data.draw(st.sampled_from([2**10, 2**20, 2**40]))
    c = np.array(data.draw(st.lists(st.integers(-size, size), min_size=pts.shape[1], max_size=pts.shape[1])), float)
    argvs = _argvs(data.draw, pts)
    runs = {}
    for shift, twice in ((0 * c, True), (c, False)):  # the runs on A + c once each, to save time
        doc = {"dim": pts.shape[1], "points": (pts + shift).tolist()}
        for cmd, argv in argvs(shift).items():
            code, out = _check_contract(argv, doc, twice)
            face = json.loads(out)["face"] if cmd == "limit" and code == 0 else None
            runs.setdefault(cmd, []).append((code, face))
    for cmd, (at_a, at_b) in runs.items():
        if not (cmd == "check" and np.abs(c).max() > 2**20):
            assert at_a == at_b, (cmd, argvs(c)[cmd], pts.tolist(), c.tolist())


@settings(SETTINGS, max_examples=20)
@given(st.data())
def test_scaled_and_irregular_documents_keep_the_contract(data):
    kind = data.draw(st.sampled_from(["scaled", "scaled", "duplicate", "labels", "dim7"]))
    if kind == "dim7":
        pts = np.vstack([np.zeros(7), np.eye(7), np.ones((1, 7))])
    else:
        pts = data.draw(_integer_sets())
    if kind == "scaled":  # 2^-1000 to 2^1000, then an integer offset up to 2^40
        pts = np.ldexp(pts, data.draw(st.integers(-1000, 1000)))
        pts = pts + data.draw(st.sampled_from([0.0, 1.0, -(2.0**20), 2.0**40]))
    doc = {"dim": pts.shape[1], "points": pts.tolist()}
    if kind == "duplicate":
        doc["points"].append(doc["points"][data.draw(st.integers(0, len(pts) - 1))])
    if kind == "labels":  # distinct, the first one again in place of the last, or one too many
        labels = [f"s{i}" for i in range(len(pts))]
        variant = data.draw(st.sampled_from(["distinct", "repeated", "extra"]))
        doc["labels"] = {"distinct": labels, "repeated": labels[:-1] + labels[:1], "extra": labels + ["x"]}[variant]
    reals = _REALS + ["1e300", "-1e300"]
    for argv in _argvs(data.draw, pts)(0.0).values():
        if argv[0] in ("forward", "toric", "limit") and data.draw(st.booleans()):
            argv[2] = argv[2].split("=")[0] + "=" + _vector(data.draw, pts.shape[1], reals)
        _check_contract(argv, doc)


def test_counts_at_their_caps_keep_the_contract():
    # run once each: sweep at its cap takes most of a second. microstates at its
    # cap samples 10^8 particles; its bound is tested with a stubbed sampler in
    # test_cli.py
    argvs = (["sweep", "-", "--from=-1", "--to=1", f"--steps={cli._MAX_STEPS}"],
             ["check", "-", f"--points={cli._MAX_POINTS}"])
    for argv in argvs:
        assert _check_contract(argv, {"dim": 1, "points": [[0]]}, twice=False)[0] == 0
