"""Per-layer numbers for the traced run, and the one-off roadmap probe.

    python perfbench/layers.py SEED WORK_DIR OUT_JSON
    PYTHONPATH=src python perfbench/layers.py --roadmap SEED

The first form is what `run.py --trace 1` starts. It times the cold start
(bare interpreter, `import momentgibbs.cli`, scipy's share of that import)
from fresh processes, then installs the tracer and calls each layer on one
seeded set per size class: the cli-large "line" set (d=1, N=5000) and one
set of each invert-hull class, which include the roadmap rows N=1600 d=2
and N=500 d=3. Every timing comes from the spans. Every `convex_hull` call
on a set must report the same facet count; a set where they differ is a
failure of the traced run. It also runs `cli.main` in process on both CLI
mixes. It writes every per-layer metric, the per-set table, the failures
and the cold-start figures to OUT_JSON.

The second form runs the same traced per-set loop on the roadmap's rows
N=500 d=3, N=1600 d=2 and N=2000 d=5, then times `cmd_check` on an N=4000
d=2 set and a 2001-step `cmd_sweep` at N=4000, under a 3 GiB address-space
limit, and prints the table. It is a one-off: no workload runs it, because
the N=2000 d=5 hull alone takes seconds and gigabytes.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import gen
import tracing
import workloads

REPS = 3  # calls per layer and set; each figure is their median
COLD_REPS = 5
MICRO_TOTAL = 100_000
ROOT = Path(__file__).resolve().parent.parent
PROBE_SETS = {"line": gen.CLI_LARGE["line"], **gen.INVERT_HULL}


def cold_start() -> dict:
    """Median wall times of fresh interpreters, in ms."""

    def wall(args):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, check=True)
        return (time.perf_counter() - start) * 1e3, proc.stderr

    interp = statistics.median(wall(["-c", "pass"])[0] for _ in range(COLD_REPS))
    full = statistics.median(wall(["-c", "import momentgibbs.cli"])[0] for _ in range(COLD_REPS))
    scipy = statistics.median(
        scipy_import_ms(wall(["-X", "importtime", "-c", "import momentgibbs.cli"])[1])
        for _ in range(COLD_REPS)
    )
    return {"interp_ms": interp, "import_ms": full - interp, "import_scipy_ms": scipy}


def scipy_import_ms(importtime_log: str) -> float:
    """Cumulative time of the outermost scipy imports in an -X importtime log."""
    entries = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, int(cumulative), name.strip()))
    total = 0
    stack: list[tuple[int, bool]] = []  # (depth, inside scipy) of open ancestors
    for depth, cumulative, name in reversed(entries):  # parents first
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            total += cumulative
        stack.append((depth, inside or is_scipy))
    return total / 1e3


class Spans:
    """Queries over a tracer's spans: durations and self times in ms."""

    def __init__(self, spans):
        self.spans = spans
        self.own = tracing.self_times(spans)

    def select(self, name, op_prefix, top=False):
        return [
            i for i, (n, _, _, parent, op) in enumerate(self.spans)
            if n == name and str(op).startswith(op_prefix) and (parent < 0 or not top)
        ]

    def ms(self, i):
        _, start, end, _, _ = self.spans[i]
        return (end - start) / 1e6

    def median(self, name, op_prefix, top=True):
        return statistics.median(self.ms(i) for i in self.select(name, op_prefix, top))

    def children_ms(self, i, names):
        return sum(self.ms(j) for j, s in enumerate(self.spans) if s[3] == i and s[0] in names)


def probe_sets(seed: int, classes: dict):
    rng = np.random.default_rng([seed, 4])
    for name, cls in classes.items():
        pts = gen.make_set(seed, f"probe-{name}", cls)
        beta = gen.random_beta(rng, pts)
        target = gen.gibbs_mean(pts, gen.random_beta(rng, pts))
        yield name, cls, gen.to_doc(pts), beta, target


def trace_sets(tracer: tracing.Tracer, seed: int, classes: dict) -> tuple[list, dict, int]:
    """Call every layer REPS times on one seeded set per class.

    The tracer must be installed; each call's op id is "<set>/<rep>". Returns
    the sets, the facet count of every `convex_hull` call per set, and the
    total Newton iterations of the sets' last reps.
    """
    from momentgibbs import duality, gibbs, microstates, moment_solver, polytope, state_space, toric

    sets = list(probe_sets(seed, classes))
    facets: dict[str, list[int]] = {}
    iterations = 0
    for name, _, doc, beta, target in sets:
        facets[name] = []
        for rep in range(REPS):
            tracer.op = f"{name}/{rep}"
            A = state_space.state_set_from_json(doc)
            hull = polytope.convex_hull(A)
            facets[name].append(len(hull.facets))
            polytope.interior_margin(hull, target)
            report = moment_solver.invert_mean_energy(A, target)
            gibbs.gibbs_summary(A, beta)
            toric.moment_of_beta(A, beta)
            duality.legendre_residual(A, beta)
            duality.legendre_roundtrip(A, target)
            microstates.sample_counts(gibbs.gibbs_distribution(A, beta), MICRO_TOTAL, seed)
        iterations += report.iterations
    return sets, facets, iterations


def facet_failures(facets: dict) -> list[str]:
    """One failure per set whose hull calls disagree on the facet count."""
    return [f"{name}: facet counts {counts} differ between calls"
            for name, counts in facets.items() if len(set(counts)) > 1]


def set_rows(q: Spans, sets: list, facets: dict) -> list[dict]:
    """The per-set table: the medians over a set's reps, from the spans."""
    rows = []
    for name, cls, *_ in sets:
        op = f"{name}/"
        inverts = q.select("moment_solver.invert_mean_energy", op, top=True)
        invert_ms = [q.ms(i) for i in inverts]
        hull_in = [q.children_ms(i, {"polytope.convex_hull"}) for i in inverts]
        margin_in = [q.children_ms(i, {"polytope.interior_margin"}) for i in inverts]
        rows.append({
            "set": name, "n": cls.n, "dim": cls.dim, "ambient": cls.ambient,
            "facets": facets[name][0],
            "build_json_ms": q.median("state_space.state_set_from_json", op),
            "build_array_ms": q.median("state_space.new_state_set", op, top=False),
            "hull_ms": q.median("polytope.convex_hull", op, top=False),
            "margin_ms": q.median("polytope.interior_margin", op),
            "invert_ms": statistics.median(invert_ms),
            "invert_self_ms": statistics.median(
                t - h - m for t, h, m in zip(invert_ms, hull_in, margin_in)),
            "invert_hull_ms": sum(hull_in), "invert_total_ms": sum(invert_ms),
            "forward_ms": q.median("gibbs.gibbs_summary", op),
            "toric_ms": q.median("toric.moment_of_beta", op),
            "residual_ms": q.median("duality.legendre_residual", op),
            "roundtrip_ms": q.median("duality.legendre_roundtrip", op),
            "sample_ms": q.median("microstates.sample_counts", op),
        })
    return rows


def layer_probe(seed: int, work_dir: Path) -> dict:
    from momentgibbs import cli, polytope, state_space

    heaviest = list(probe_sets(seed, {"h6r": gen.INVERT_HULL["h6r"]}))[0]
    A = state_space.state_set_from_json(heaviest[2])
    tracemalloc.start()
    polytope.convex_hull(A)
    hull_peak = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()

    tracer = tracing.Tracer()
    tracer.install()
    sets, facets, iterations = trace_sets(tracer, seed, PROBE_SETS)

    payload_bytes = []
    for workload in ("cli-small", "cli-large"):
        spec = workloads.make_spec(workload, seed, ROOT, work_dir / workload)
        for k, op in enumerate(spec["ops"]):
            tracer.op = f"cli/{workload}/{k}"
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                cli.main(op["argv"])
            payload_bytes.append(len(out.getvalue().encode()))

    q = Spans(tracer.spans)
    rows = set_rows(q, sets, facets)

    def mean(key):
        return statistics.fmean(r[key] for r in rows)

    cmd_spans = [i for i, s in enumerate(q.spans) if s[0].startswith("cli.cmd_")]
    states = sum(r["n"] for r in rows)
    metrics = {
        "cli.main_ms": (statistics.fmean(q.ms(i) for i in q.select("cli.main", "cli/")), "ms"),
        "cli.serialize_ms": (statistics.fmean(q.own[i] for i in cmd_spans), "ms"),
        "cli.payload_bytes": (statistics.fmean(payload_bytes), "bytes"),
        "state_space.build_ms": (mean("build_json_ms"), "ms"),
        "state_space.states": (states, "count"),
        **{f"polytope.hull_ms.d{r['dim']}": (r["hull_ms"], "ms") for r in rows},
        "polytope.facets": (sum(r["facets"] for r in rows), "count"),
        "polytope.hull_peak_mib": (hull_peak, "MiB"),
        "polytope.margin_ms": (mean("margin_ms"), "ms"),
        "moment_solver.invert_ms": (mean("invert_ms"), "ms"),
        "moment_solver.iterations": (iterations, "count"),
        "moment_solver.self_ms": (mean("invert_self_ms"), "ms"),
        "moment_solver.hull_share": (
            sum(r["invert_hull_ms"] for r in rows) / sum(r["invert_total_ms"] for r in rows),
            "ratio",
        ),
        "gibbs.summary_ms": (mean("forward_ms"), "ms"),
        "gibbs.ns_per_state": (sum(r["forward_ms"] for r in rows) * 1e6 / states, "ns"),
        "toric.moment_ms": (mean("toric_ms"), "ms"),
        "microstates.sample_ms": (mean("sample_ms"), "ms"),
        "microstates.draws_per_s": (MICRO_TOTAL * 1e3 / mean("sample_ms"), "1/s"),
        "duality.residual_ms": (mean("residual_ms"), "ms"),
        "duality.roundtrip_ms": (mean("roundtrip_ms"), "ms"),
        **{f"self_ms.{layer}": (ms, "ms") for layer, ms in tracing.layer_self_ms(q.spans).items()},
    }
    return {
        "metrics": metrics,
        "table": rows,
        "failures": facet_failures(facets),
        "hull_share_base_ms": sum(r["invert_total_ms"] for r in rows),
        "spans": len(q.spans),
    }


def print_table(result: dict) -> None:
    cols = ["set", "n", "dim", "facets", "build_json_ms", "build_array_ms", "hull_ms",
            "invert_ms", "forward_ms"]
    print("  ".join(f"{c:>14}" for c in cols), file=sys.stderr)
    for r in result["table"]:
        cells = [f"{r[c]:14.4g}" if isinstance(r[c], float) else f"{r[c]:>14}" for c in cols]
        print("  ".join(cells), file=sys.stderr)
    print(f"moment_solver.hull_share base: {result['hull_share_base_ms']:.4g} ms of invert",
          file=sys.stderr)
    for failure in result["failures"]:
        print(f"  FAILED {failure}", file=sys.stderr)


def roadmap(seed: int) -> None:
    """Roadmap item 1's rows, cold start and CLI figures, printed once."""
    limit = 3 * 2**30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    from momentgibbs import cli

    print(json.dumps(cold_start()), file=sys.stderr)
    tracer = tracing.Tracer()
    tracer.install()
    sets, facets, _ = trace_sets(tracer, seed, {
        "N=500 d=3": gen.INVERT_HULL["h3"],
        "N=1600 d=2": gen.INVERT_HULL["h2"],
        "N=2000 d=5": gen.ROADMAP_HEAVY,
    })
    rows = set_rows(Spans(tracer.spans), sets, facets)
    tracer.uninstall()
    print_table({
        "table": rows,
        "failures": facet_failures(facets),
        "hull_share_base_ms": sum(r["invert_total_ms"] for r in rows),
    })
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS {peak:.0f} MB", file=sys.stderr)

    cls = gen.SizeClass(2, 4000, 2, 3.0, "the roadmap's cmd_check and cmd_sweep figures")
    doc = gen.to_doc(gen.make_set(seed, "roadmap-check", cls))
    for label, call in {
        "cmd_check N=4000 d=2": lambda: cli.cmd_check(doc),
        "cmd_sweep N=4000 d=2 2001 steps": lambda: cli.cmd_sweep(doc, 0, -1.0, 1.0, 2001),
    }.items():
        start = time.perf_counter()
        result = call()
        ms = (time.perf_counter() - start) * 1e3
        print(label, json.dumps({"ms": ms, "exit_code": result.exit_code}), file=sys.stderr)


def main(argv: list[str]) -> int:
    if argv and argv[0] == "--roadmap":
        roadmap(int(argv[1]))
        return 0
    seed, work_dir, out_path = int(argv[0]), Path(argv[1]), Path(argv[2])
    result = {"cold_start": cold_start()}
    result.update(layer_probe(seed, work_dir))
    for key, value in result["cold_start"].items():
        result["metrics"][f"cli.{key}"] = (value, "ms")
    print_table(result)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
