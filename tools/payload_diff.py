"""Byte and ulp report of the CLI payloads of two trees, over one argv corpus.

    python tools/payload_diff.py --base REV
    python tools/payload_diff.py --digest

Run it from anywhere inside a momentgibbs checkout. `--base` exports REV with
`git archive` (local git only) into a temporary directory. It then runs the
corpus through `cli.main` in process, in one subprocess per tree: first REV's
src/, then this checkout's. Every case whose exit code, stdout or stderr
differs is printed. For JSON and CSV payloads the report names each moved
field and its distance in ulps, and integer fields such as `iterations` with
both values. A vector entry's distance is also given in ulps of the vector's
largest entry. A scalar that sits near zero is read in a stated scale instead,
as a fraction of it: `check`'s `max_legendre_residual` and `max_roundtrip_error`
in their payload's `residual_tolerance` and `roundtrip_tolerance`, and
`invert`'s `grad_norm` in the default `grad_tol`. A summary per command closes
the report. The exit code is 0 when every case gives the same bytes, and 1
otherwise.

The corpus is generated, and every document goes to `cli.main` on stdin:
- the golden argvs of tests/test_cli_golden.py;
- every command on every data/ file, as tests/test_cli.py runs them;
- the edge documents of tests/test_cli.py, and those below: duplicates, NaN,
  10**400, non-UTF-8 bytes, d = 7, the `limit` overflow sets, a span target
  next to a far point and the same set moved by 2^40, and a `sweep` whose
  first failing step is not in its first block of rows;
- for each of the benchmark seeds in SEEDS: the `cli-small` and `cli-large`
  argvs of perfbench/workloads.py, and `invert` on its `invert-hull` lattice
  sets (affine dimension 2 to 6, N up to 1600), one argv per target.

The first three parts run in about a second. `--digest` prints the sha256 of
their exit codes and output on this checkout, the value
tests/test_payload_digest.py pins.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import pickle
import struct
import subprocess
import sys
import tempfile
import warnings
from collections import defaultdict
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (7, 11)  # the benchmark seeds whose workload argvs join the corpus

# edge documents beyond tests/test_cli.py's, as (document bytes, argvs after "-")
_EXTRA_DOCS = {
    "duplicates": (b'{"dim":1,"points":[[0],[1],[0]]}', [["forward", "--beta=1"], ["hull"]]),
    "nan": (b'{"dim":1,"points":[[NaN],[1]]}', [["forward", "--beta=1"]]),
    "ten_to_400": (b'{"dim":1,"points":[[0],[1' + b"0" * 400 + b"]]}", [["forward", "--beta=1"]]),
    "not_utf8": (b'{"dim":1,"points":[[0],[1]],"labels":["\xff","a"]}', [["hull"]]),
    "dim7": (
        json.dumps({"dim": 7, "points": [[0] * 7] + [[int(i == j) for j in range(7)] for i in range(7)]}).encode(),
        [["hull"], ["invert", "--mean=" + ",".join(["0.125"] * 7)], ["forward", "--beta=" + ",".join(["1"] * 7)]],
    ),
    "limit_pairings_overflow": (
        b'{"dim":2,"points":[[1e308,-1e308],[0,1],[5e307,-5e307]]}', [["limit", "--direction=10,10"]],
    ),
    "limit_pm_1.7e308": (b'{"dim":1,"points":[[-1.7e308],[1.7e308]]}', [["limit", "--direction=10"]]),
    "limit_barycenter_overflow": (
        b'{"dim":2,"points":[[1.7e308,0],[1.7e308,1],[0,0]]}', [["limit", "--direction=-1,0"]],
    ),
    "span_point": (b'{"dim":4,"points":[[0,0,0,0]]}', [["invert", "--mean=1,1,1,1"]]),
    "span_point_2^29": (b'{"dim":4,"points":[[0,0,0,536870912]]}', [["invert", "--mean=1,1,1,536870913"]]),
    "limit_ties": (
        b'{"dim":2,"points":[[0,4],[1,3],[2,2],[3,1],[4,0],[0,0]]}',
        [["limit", "--direction=-0.3333333333333333,-0.3333333333333333"]],
    ),
    "limit_ties_2^40": (
        json.dumps({"dim": 2, "points": [[x + 2**40, y + 2**40] for x, y in
                                         [[0, 4], [1, 3], [2, 2], [3, 1], [4, 0], [0, 0]]]}).encode(),
        [["limit", "--direction=-0.3333333333333333,-0.3333333333333333"]],
    ),
    # 300 states at 1e300: log Z = -(beta, x_h) + ... overflows once beta passes about
    # 1.8e8, at step 1200 of 2000, past the first block of rows
    "sweep_fails_late": (
        json.dumps({"dim": 1, "points": [[1e300 * (1 + k / 1000)] for k in range(300)]}).encode(),
        [["sweep", "--from=0", "--to=3e8", "--steps=2000"]],
    ),
}


def _from_file(label: str, argv: list, path: str) -> tuple:
    """A case reading argv's input file from stdin: (label, argv with "-", bytes)."""
    return label, [argv[0], "-", *argv[2:]], Path(path).read_bytes()


def fast_corpus() -> list:
    """(label, argv, stdin bytes) of the golden argvs, every command on every data/
    file and the edge documents: about a second in process."""
    for path in (str(ROOT / "tests"), str(ROOT / "src")):  # the tests import the package
        if path not in sys.path:
            sys.path.insert(0, path)
    from test_cli import _EDGE_DOCS, _every_command
    from test_cli_golden import CASES

    cases = [_from_file(f"golden/{name}", argv, argv[1]) for name, argv in sorted(CASES.items())]
    for path in sorted((ROOT / "data").glob("*.json")):
        for argv in _every_command(str(path), json.loads(path.read_text())):
            cases.append(_from_file(f"data/{path.name}", argv, str(path)))
    for name, (points, runs) in _EDGE_DOCS.items():
        doc = {"dim": len(points[0]), "points": points}
        data = json.dumps(doc).encode()
        argvs = [[cmd, "-", *args] for (cmd, *args), _, _ in runs] + _every_command("-", doc)
        cases += [(f"edge/{name}", argv, data) for argv in argvs]
    for name, (data, runs) in _EXTRA_DOCS.items():
        cases += [(f"edge/{name}", [cmd, "-", *args], data) for cmd, *args in runs]
    return cases


def corpus(workdir: Path) -> list:
    """`fast_corpus` and, for each of SEEDS, the benchmark's CLI argvs and one
    `invert` per `invert-hull` target."""
    cases = fast_corpus()
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    for seed in SEEDS:
        for workload in ("cli-small", "cli-large", "invert-hull"):
            spec = workloads.make_spec(workload, seed, ROOT, workdir / f"{workload}-{seed}")
            label = f"{workload}/{seed}"
            if workload == "invert-hull":
                for op in spec["ops"]:
                    mean = ",".join(repr(float(v)) for v in op["target"])
                    path = spec["sets"][op["set"]]
                    cases.append(_from_file(f"{label}/{op['set']}", ["invert", path, f"--mean={mean}"], path))
                continue
            seen = set()
            for op in spec["ops"]:
                if (key := tuple(op["argv"])) not in seen:
                    seen.add(key)
                    cases.append(_from_file(f"{label}/{op['set']}", op["argv"], op["argv"][1]))
    return cases


def run_cases(cli, cases: list) -> list:
    """(exit code, stdout, stderr) of `cli.main` on each case, in this process.
    A warning is appended to stderr as one line, whatever the warning filters;
    argparse's refusal is its SystemExit code."""
    parser = functools.cache(cli._build_parser)
    results = []
    for _, argv, data in cases:
        out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
        sys.stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings(record=True) as caught, \
                    mock.patch.object(cli, "_build_parser", parser):
                warnings.simplefilter("always")
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
        finally:
            sys.stdin = stdin
        lines = [f"warning: {w.category.__name__}: {w.message}\n" for w in caught]
        results.append((code, out.getvalue(), err.getvalue() + "".join(lines)))
    return results


def digest(cases: list, results: list) -> str:
    """sha256 over each case's label, argv, exit code, stdout and stderr."""
    h = hashlib.sha256()
    for (label, argv, _), (code, out, err) in zip(cases, results):
        h.update(json.dumps([label, argv, code, out, err]).encode())
    return h.hexdigest()


def _ordinal(x: float) -> int:
    """Doubles in order as integers: adjacent doubles differ by 1, and +0 is -0."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)


def ulps(a: float, b: float) -> int:
    return abs(_ordinal(a) - _ordinal(b))


def _number_diff(path: str, a, b, moved: list, scale: float = 0.0, stated=None) -> None:
    """Append (field, change, ulps, (distance, unit) or None). The distance is in ulps
    of `scale`, the largest entry of a vector, whose entries near zero move by many of
    their own ulps and few of it; or a fraction of the `stated` (name, value) scale."""
    if isinstance(a, int) and isinstance(b, int):
        moved.append((path, f"{a} -> {b}", None, None))
        return
    a, b = float(a), float(b)
    if stated:
        name, value = stated
        measure = (abs(a - b) / value, f"of {name}")
    elif scale > max(abs(a), abs(b)):
        measure = (abs(a - b) / math.ulp(scale), "ulps of the largest entry")
    else:
        measure = None
    moved.append((path, f"{a!r} -> {b!r}", ulps(a, b), measure))


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


# fields read as a fraction of a sibling field of their payload
_SIBLING_SCALES = {
    "max_legendre_residual": "residual_tolerance",
    "max_roundtrip_error": "roundtrip_tolerance",
}


def _stated_scale(key: str, payload: dict):
    """(name, value) of the scale that the payload's scalar `key` is read in, or None:
    `check`'s maxima in their sibling tolerances, `invert`'s `grad_norm` in the default
    `grad_tol`."""
    if key == "grad_norm":
        from momentgibbs.moment_solver import SolveOptions

        return "grad_tol", SolveOptions().grad_tol
    sibling = _SIBLING_SCALES.get(key)
    if sibling and _is_number(payload.get(sibling)) and payload[sibling] > 0:
        return sibling, float(payload[sibling])
    return None


def _json_diff(path: str, a, b, moved: list, scale: float = 0.0, stated=None) -> None:
    """Append a (field, change, ulps, (distance, unit)) for every leaf where a and b
    differ; the ulps and the distance are None where they do not apply."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for key in a:
            _json_diff(f"{path}.{key}" if path else key, a[key], b[key], moved, stated=_stated_scale(key, a))
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        if all(map(_is_number, a + b)):
            scale = max(map(abs, a + b), default=0.0)
        for i, (x, y) in enumerate(zip(a, b)):
            _json_diff(f"{path}[{i}]", x, y, moved, scale)
    elif _is_number(a) and _is_number(b):
        if a != b or math.copysign(1, a) != math.copysign(1, b):
            _number_diff(path, a, b, moved, scale, stated)
    elif a != b:
        moved.append((path or "payload", f"{json.dumps(a)[:60]} -> {json.dumps(b)[:60]}", None, None))


def _csv_diff(a: str, b: str, moved: list) -> bool:
    """The cells of two CSV tables with one header, or False if they are not both that."""
    rows_a, rows_b = a.splitlines(), b.splitlines()
    if not (rows_a and rows_b and rows_a[0] == rows_b[0] and len(rows_a) == len(rows_b)):
        return False
    header = rows_a[0].split(",")
    for i, (x, y) in enumerate(zip(rows_a[1:], rows_b[1:])):
        cells_x, cells_y = x.split(","), y.split(",")
        if len(cells_x) != len(header) or len(cells_y) != len(header):
            return False
        for name, u, v in zip(header, cells_x, cells_y):
            if u != v:
                try:
                    _number_diff(f"row {i}.{name}", float(u), float(v), moved)
                except ValueError:
                    moved.append((f"row {i}.{name}", f"{u} -> {v}", None, None))
    return True


def field_diff(a: str, b: str) -> list:
    """(field, change, ulps, (distance, unit)) of two stdouts: JSON leaves, CSV cells,
    or the first differing line."""
    moved: list = []
    try:
        _json_diff("", json.loads(a), json.loads(b), moved)
        return moved
    except ValueError:
        pass
    if _csv_diff(a, b, moved):
        return moved
    for i, (x, y) in enumerate(zip(a.splitlines() + [""], b.splitlines() + [""])):
        if x != y:
            return [(f"line {i}", f"{x[:60]!r} -> {y[:60]!r}", None, None)]
    return []


def _field_name(path: str) -> str:
    """A field without its indices: beta[1] and beta[0] are both beta."""
    return path.split("[")[0] if not path.startswith("row ") else path.split(".", 1)[1]


def report(cases: list, base: list, head: list, out=sys.stdout) -> int:
    """Print every differing case and a summary per command; the count of differing
    cases. A vector entry's distance counts in ulps of the vector's largest entry, a
    scalar with a stated scale as a fraction of it."""
    per_cmd = defaultdict(lambda: [0, 0])  # command: [cases, byte-identical]
    fields = defaultdict(lambda: [0, None, "ulps"])  # (command, field): [cases, most, unit]
    exits = defaultdict(int)
    differing = 0
    for (label, argv, _), b, h in zip(cases, base, head):
        stats = per_cmd[argv[0]]
        stats[0] += 1
        if b == h:
            stats[1] += 1
            continue
        differing += 1
        print(f"{label}: {' '.join(argv)}", file=out)
        if b[0] != h[0]:
            exits[(argv[0], b[0], h[0])] += 1
            print(f"  exit {b[0]} -> {h[0]}", file=out)
        if b[2] != h[2]:
            print(f"  stderr {b[2].strip()[:100]!r} -> {h[2].strip()[:100]!r}", file=out)
        moved = field_diff(b[1], h[1])
        for path, change, dist, measure in moved:
            note = "" if dist is None else f" ({dist} ulps" + ("" if measure is None else ", %.3g %s" % measure) + ")"
            print(f"  {path}: {change}{note}", file=out)
            if dist is not None:
                entry = fields[(argv[0], _field_name(path))]
                entry[1] = max(entry[1] or 0, dist if measure is None else measure[0])
                if measure and measure[1].startswith("of "):  # a stated scale: one per field
                    entry[2] = measure[1]
        for name in {_field_name(path) for path, *_ in moved}:
            fields[(argv[0], name)][0] += 1
    print(f"\n{len(cases)} cases, {differing} with different bytes", file=out)
    for cmd, (total, same) in sorted(per_cmd.items()):
        print(f"  {cmd}: {same} of {total} byte-identical", file=out)
        for (c, name), (n, most, unit) in sorted(fields.items()):
            if c == cmd:
                size = "" if most is None else f", at most {most:.3g} {unit}"
                print(f"    {name}: moved in {n} cases{size}", file=out)
        for (c, old, new), n in sorted(exits.items()):
            if c == cmd:
                print(f"    exit {old} -> {new}: {n} cases", file=out)
    moved = sum(n for (_, name), (n, *_) in fields.items() if name.endswith("iterations"))
    print(f"  iteration counts moved in {moved} cases", file=out)
    return differing


def _run_tree(src: Path, corpus_path: Path, out_path: Path) -> None:
    """Run the pickled corpus on the package under src in a fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    subprocess.run(
        [sys.executable, __file__, "--run", str(src), str(corpus_path), str(out_path)],
        env=env, check=True,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git revision to compare this checkout with")
    parser.add_argument("--digest", action="store_true", help="print the digest of the fast corpus here")
    parser.add_argument("--run", nargs=3, metavar=("SRC", "CORPUS", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.run:  # a child: one tree's package on the corpus
        src, corpus_path, out_path = args.run
        sys.path.insert(0, src)
        import momentgibbs.cli as cli

        cases = pickle.loads(Path(corpus_path).read_bytes())
        Path(out_path).write_bytes(pickle.dumps(run_cases(cli, cases)))
        return 0
    if args.digest:
        sys.path.insert(0, str(ROOT / "src"))
        import momentgibbs.cli as cli

        cases = fast_corpus()
        print(digest(cases, run_cases(cli, cases)))
        return 0
    if not args.base:
        parser.error("give --base REV or --digest")

    archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.base, "src"], capture_output=True)
    if archive.returncode:
        parser.error(archive.stderr.decode().strip())
    rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", args.base],
                         check=True, capture_output=True, text=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="payload-diff-") as tmp:
        tmp = Path(tmp)
        (tmp / "base").mkdir()
        subprocess.run(["tar", "-x", "-C", str(tmp / "base")], input=archive.stdout, check=True)
        cases = corpus(tmp / "sets")
        (tmp / "corpus.pkl").write_bytes(pickle.dumps(cases))
        results = []
        for src, name in ((tmp / "base" / "src", "base.pkl"), (ROOT / "src", "head.pkl")):
            _run_tree(src, tmp / "corpus.pkl", tmp / name)
            results.append(pickle.loads((tmp / name).read_bytes()))
    print(f"base {rev} against the checkout at {ROOT}, seeds {SEEDS}")
    return 1 if report(cases, *results) else 0

if __name__ == "__main__":
    sys.exit(main())
