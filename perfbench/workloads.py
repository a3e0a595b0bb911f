"""The benchmark's three workloads, as seeded specs of the ops they run.

`make_spec` writes a workload's generated state sets into a work directory
and returns the op list as plain JSON data. The worker process reads only
that spec and those files, so the program under test sees nothing but the
generated inputs.

cli-small   fresh `python -m momentgibbs` per op on the repo's data/ sets:
            interpreter start and imports are nearly the whole op.
cli-large   the same loop on generated sets of N = 4000-5000, where JSON
            parsing, StateSet checks, the Gibbs kernel, sampling and %.17g
            output take a real share. No command enumerates a hull beyond
            an interval.
invert-hull in-process `invert_mean_energy` on sets of affine dimension
            2-6, where hull enumeration and the facet merge dominate.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import gen

WORKLOADS = ("cli-small", "cli-large", "invert-hull")

# the acceptance gate's C10 invocations; the two-state mean 0.25 means
# p(excited) / p(ground) = 1/3, so its beta is ln 3
C10 = [
    (["forward", "two_state.json", "--beta", "0"], None),
    (["invert", "two_state.json", "--mean", "0.25"], [math.log(3.0)]),
    (["sweep", "four_level.json", "--from", "-10", "--to", "10", "--steps", "201"], None),
    (["hull", "square.json"], None),
    (["limit", "square.json", "--direction", "1,0"], None),
    (["microstates", "two_state.json", "--total", "100", "--seed", "42", "--beta", "1.0986"], None),
    (["toric", "square.json", "--beta", "0.5,0.5"], None),
    (["check", "two_state.json"], None),
]
OTHER_DATA = ("three_state.json", "four_level.json", "square.json", "collinear.json")

SWEEP_STEPS = 2001  # the roadmap's cmd_sweep figure
MICRO_TOTAL = 1_000_000
# beta_digits_min is a minimum over solves, and its spread between seeds
# falls as a run holds more distinct solves; both CLI mixes stay short
# enough that every argv runs at least twice in a run
INVERTS_PER_SET = 4
LARGE_INVERTS_PER_SET = 5
TARGETS_PER_SET = 2  # a repeated set lets a hull cache show
# invert-hull gives its five classes equal shares of the ops, interleaved in
# blocks of ten. The classes' solve times are well apart (h3 < h2 < h4 < h5 <
# h6r), so the median op falls in the middle of h4 and the 90th percentile in
# the middle of h6r, not on a boundary between classes. Ten sets per class
# keep the class medians steady from seed to seed.
SETS_PER_CLASS = 10
INVERT_BLOCKS = 10


def _op(argv, path: str, set_name: str, beta=None, beta_true=None) -> dict:
    return {
        "cmd": argv[0],
        "argv": [argv[0], path, *argv[2:]],
        "set": set_name,
        "beta": None if beta is None else [float(v) for v in beta],
        "beta_true": None if beta_true is None else [float(v) for v in beta_true],
    }


def _write_set(workdir: Path, name: str, points: np.ndarray) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(gen.to_doc(points)))
    return str(path)


def _cli_small(seed: int, root: Path) -> dict:
    data = root / "data"
    sets = {name: str(data / name) for name in sorted({a[1] for a, _ in C10} | set(OTHER_DATA))}
    ops = []
    for argv, beta_true in C10:
        beta = [float(v) for v in argv[3].split(",")] if argv[0] in ("forward", "toric") else None
        ops.append(_op(argv, sets[argv[1]], argv[1], beta, beta_true))
    rng = np.random.default_rng([seed, 1])
    for name in OTHER_DATA:
        pts = np.array(json.loads((data / name).read_text())["points"], dtype=float)
        beta = gen.random_beta(rng, pts)
        ops.append(_op(["forward", name, f"--beta={gen.csv(beta)}"], sets[name], name, beta))
        for _ in range(INVERTS_PER_SET):
            beta_true = gen.random_beta(rng, pts)
            target = gen.csv(gen.gibbs_mean(pts, beta_true))
            ops.append(
                _op(["invert", name, f"--mean={target}"], sets[name], name,
                    beta_true=gen.span_projection(pts, beta_true))
            )
    return {"kind": "cli", "sets": sets, "ops": ops}


def _cli_large(seed: int, workdir: Path) -> dict:
    pts = {name: gen.make_set(seed, name, cls) for name, cls in gen.CLI_LARGE.items()}
    sets = {name: _write_set(workdir, name, p) for name, p in pts.items()}
    rng = np.random.default_rng([seed, 2])

    def beta(name):
        return gen.random_beta(rng, pts[name])

    def sweep(name):
        reach = 2.0 / gen.spread(pts[name])
        held = beta(name)[1:]
        argv = ["sweep", name, f"--from={-reach!r}", f"--to={reach!r}",
                "--steps", str(SWEEP_STEPS)]
        if held.size:
            argv.append(f"--fixed={gen.csv(held)}")
        return _op(argv, sets[name], name)

    def invert(name):
        b = beta(name)
        argv = ["invert", name, f"--mean={gen.csv(gen.gibbs_mean(pts[name], b))}"]
        return _op(argv, sets[name], name, beta_true=gen.span_projection(pts[name], b))

    def with_beta(cmd, name, *extra):
        b = beta(name)
        return _op([cmd, name, f"--beta={gen.csv(b)}", *extra], sets[name], name, b)

    direction = rng.normal(size=3)
    others = [
        sweep("plane"),
        with_beta("forward", "space"),
        with_beta("toric", "plane"),
        with_beta("microstates", "space", "--total", str(MICRO_TOTAL),
                  "--seed", str(int(rng.integers(2**32)))),
        _op(["limit", "space", f"--direction={gen.csv(direction)}"], sets["space"], "space"),
        sweep("line"),
        with_beta("forward", "line-reduced"),
        with_beta("toric", "space"),
    ]
    inverts = [invert(name) for _ in range(LARGE_INVERTS_PER_SET) for name in ("line", "line-reduced")]
    ops = []  # inverts interleaved, one first so even a one-op run measures beta digits
    for k, op in enumerate(inverts):
        ops += [op, *others[k:k + 1]]
    return {"kind": "cli", "sets": sets, "ops": ops}


def _invert_hull(seed: int, workdir: Path) -> dict:
    rng = np.random.default_rng([seed, 3])
    sets = {}
    queues = []  # per class, its ops: each set's second target after all first ones
    for cls_name, cls in gen.INVERT_HULL.items():
        points = {}
        for k in range(SETS_PER_CLASS):
            name = f"{cls_name}-{k}"
            points[name] = gen.make_set(seed, name, cls)
            sets[name] = _write_set(workdir, name, points[name])
        queues.append([
            {
                "cmd": "invert",
                "set": name,
                "target": gen.gibbs_mean(pts, b).tolist(),
                "beta_true": gen.span_projection(pts, b).tolist(),
            }
            for _ in range(TARGETS_PER_SET)
            for name, pts in points.items()
            for b in [gen.random_beta(rng, pts)]
        ])
    per_block = SETS_PER_CLASS * TARGETS_PER_SET // INVERT_BLOCKS
    ops = []  # every stretch of the cycle has the class shares
    for block in range(INVERT_BLOCKS):
        for queue in queues:
            ops += queue[block * per_block:(block + 1) * per_block]
    return {"kind": "inprocess", "sets": sets, "ops": ops}


def make_spec(workload: str, seed: int, root: Path, workdir: Path) -> dict:
    """Generate the inputs of one workload run; the same seed gives the same spec."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "cli-small":
        spec = _cli_small(seed, root)
    elif workload == "cli-large":
        spec = _cli_large(seed, workdir)
    elif workload == "invert-hull":
        spec = _invert_hull(seed, workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    spec["workload"] = workload
    spec["seed"] = seed
    return spec
