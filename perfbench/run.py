"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a momentgibbs checkout. The seed generates the
inputs; the program under test receives only those. The workload runs in a
fresh worker process with BLAS threads capped at the cores this process
may use. Set-up (interpreter start, imports, building the state sets) is
timed from outside SETUP_REPEATS times, in as many fresh workers, and
reported as the median. The worker in the middle runs the timed ops, so the
set-up samples come from both ends of the run and a slow phase of the
machine at one end moves the median less.

With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
worker runs each op twice in a row, untraced and traced, and a separate
process measures each layer (see layers.py); the metrics are the per-layer
ones plus the tracing overhead, the median gap within those pairs. A human-readable report goes to stderr and the
full record, with the machine description, to .perfbench/<run>/report.json.
The last stdout line is {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 9
TIMED_WORKER = SETUP_REPEATS // 2
CORES = len(os.sched_getaffinity(0))
THREAD_VARS = {
    var: str(CORES)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
}
os.environ.update(THREAD_VARS)  # before numpy loads, here and in every child

import workloads  # noqa: E402  (needs the thread cap above)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(spec_path: Path, seconds: float, trace: bool, out_dir: Path):
    """Set-up times of SETUP_REPEATS fresh workers and the timed one's result."""
    setups = []
    for i in range(SETUP_REPEATS):
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(), cwd=ROOT,
        )
        try:
            line = proc.stdout.readline()
            setups.append(perf_counter() - start)
            if line.strip() != "ready":
                raise RuntimeError(f"worker set-up failed (exit {proc.wait()})")
            timed = i == TIMED_WORKER
            proc.stdin.write(f"go {seconds!r} {int(trace)} {out_dir}\n" if timed else "quit\n")
            proc.stdin.close()
            code = proc.wait(timeout=seconds * 2 + 90)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0:
            raise RuntimeError(f"worker exited with code {code}")
    with open(out_dir / "result.json", encoding="utf-8") as fh:
        return setups, json.load(fh)


def run_layers(seed: int, out_dir: Path) -> dict:
    out_path = out_dir / "layers.json"
    subprocess.run(
        [sys.executable, str(HERE / "layers.py"), str(seed), str(out_dir / "inputs"), str(out_path)],
        env=child_env(), cwd=ROOT, check=True, timeout=150,
    )
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(setups: list[float], result: dict) -> dict:
    lat = result["latencies_ms"]
    n = result["attempted"]
    digits = result["beta_digits"]
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "ops_per_s": (len(lat) / result["wall_s"], "1/s", len(lat)),
        "op_p50_ms": (statistics.median(lat), "ms", len(lat)),
        "op_p90_ms": (p90(lat), "ms", len(lat)),
        "ok_ratio": ((n - result["failed"]) / n, "ratio", n),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", 1),
        "beta_digits_min": (min(digits) if digits else 0.0, "digits", len(digits)),
    }


def per_layer(result: dict, layers: dict) -> dict:
    untraced, with_spans = result["latencies_ms"], result["traced_latencies_ms"]
    metrics = {name: (value, unit, 1) for name, (value, unit) in layers["metrics"].items()}
    metrics["trace.overhead_ms"] = (
        statistics.median(t - u for u, t in zip(untraced, with_spans)), "ms", len(with_spans)
    )
    metrics["trace.spans_per_op"] = (result["spans"] / len(with_spans), "count", len(with_spans))
    return metrics


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = dirty = None
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True).stdout

        commit = git("rev-parse", "HEAD").strip() or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no").strip())
    return {
        "cores": CORES,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_vars": THREAD_VARS,
        "git_commit": commit,
        "git_dirty": dirty,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/momentgibbs/cli.py", "data/two_state.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"not a momentgibbs checkout: {ROOT} lacks {', '.join(missing)}", file=sys.stderr)
        return 2

    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    spec = workloads.make_spec(args.workload, args.seed, ROOT, out_dir / "inputs")
    spec_path = out_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))

    setups, result = run_worker(spec_path, args.seconds, bool(args.trace), out_dir)
    if args.trace:
        layers = run_layers(args.seed, out_dir)
        metrics = per_layer(result, layers)
        # each probe set is one more checked op: its facet count must repeat
        result["attempted"] += len(layers["table"])
        result["failed"] += len(layers["failures"])
        result["failures"] += [{"op": "layer probe", "reason": r} for r in layers["failures"]]
    else:
        layers = None
        metrics = end_to_end(setups, result)

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "setup_s": setups,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "result": result, "layers": layers,
    }
    (out_dir / "report.json").write_text(json.dumps(report, indent=1))

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{result['attempted']} ops, {result['failed']} failed, "
          f"exit codes {result['exit_codes'] or '-'}, "
          f"set reuse share {result['set_reuse_share']:.3f}", file=sys.stderr)
    for failure in result["failures"]:
        print(f"  FAILED {failure}", file=sys.stderr)
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:28} {value:14.6g} {unit:7} n={n}", file=sys.stderr)
    if layers:
        print(f"  layer self ms over the traced ops: {result['layer_self_ms']}", file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
