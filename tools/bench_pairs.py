"""Paired benchmark runs of a base revision and this checkout, with verdicts.

    python tools/bench_pairs.py --base REV --pairs N --first-seed S --seconds T \\
        [--workload W ...] [--claim W:METRIC ...] [--label L] [--note TEXT]

Run it from anywhere inside a momentgibbs checkout. It exports REV with `git
archive` (local git only) into a temporary directory. Pair i uses seed S + i;
within a pair each workload runs `perfbench/run.py --trace 0` once in each
tree, each tree with its own harness: even pairs run the base first, odd pairs
this checkout. The runs go to BENCH_<label>.json at the root of the checkout,
in the format of the earlier BENCH files (machine, command, parent, change,
runs, summary), and the summary is printed as the Markdown table CHANGES.md
uses.

For each workload and each end-to-end metric of BENCHMARK.json the summary
gives the parent's median and quartiles (inclusive method), the change's
median, the median over pairs of change / parent, the pairs the change won
(strictly better) and a verdict against the metric's bound:
- "worse beyond bound" when the change's median is worse than the parent's by
  more than the bound, relative to the parent's median;
- "unresolved" when the parent's quartile spread, relative to its median, is
  wider than the bound, so a change of that size could not be told apart,
  unless every run of the change reads better than every run of the parent;
- "within bound" otherwise.
A claimed metric (--claim) is also judged as a gain: "claim met" needs the
change to win at least 9 pairs in 10 and to beat the parent's median by more
than the parent's quartile spread.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLAIM_WIN_SHARE = 0.9  # a claimed gain must win at least this share of the pairs


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True).stdout


def export(rev: str, dest: Path) -> None:
    """The tree of `rev` under dest, from `git archive`."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one `perfbench/run.py` run in tree, as JSON."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"{' '.join(argv[1:])} in {tree} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _verdict(spec: dict, parent: list, change: list, won: int, claimed: bool) -> str:
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1, q3 = _quartiles(parent)
    higher = spec["better"] == "higher"
    if claimed:
        gain = med_c - med_p if higher else med_p - med_c
        if won >= CLAIM_WIN_SHARE * len(parent) and gain > q3 - q1:
            return "claim met"
        return f"claim not met: {won}/{len(parent)} pairs won, median gain {gain:.4g} against a quartile spread of {q3 - q1:.4g}"
    if med_p == 0:
        return "within bound" if med_c == med_p else "unresolved: the parent's median is 0"
    worse = (med_p - med_c if higher else med_c - med_p) / abs(med_p)
    spread = (q3 - q1) / abs(med_p)
    if worse > spec["bound"]:
        return f"worse beyond bound ({worse:.0%} against {spec['bound']:.0%})"
    if spread > spec["bound"] and not (min(change) > max(parent) if higher else max(change) < min(parent)):
        return f"unresolved: the parent's spread ({spread:.0%}) is wider than the bound"
    return "within bound"


def summarize(runs: list, metrics: list, claims: set = frozenset()) -> dict:
    """Per workload and metric (BENCHMARK.json's end-to-end specs): the parent's
    median and quartiles, the change's median, the median pair ratio change /
    parent, the pairs the change won and the verdict. `claims` holds the
    (workload, metric) pairs judged as a claimed gain."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r
        pairs = [p for _, p in sorted(pairs.items()) if len(p) == 2]
        table = {}
        for spec in metrics:
            name = spec["name"]
            parent = [p["parent"]["metrics"][name] for p in pairs]
            change = [p["change"]["metrics"][name] for p in pairs]
            sign = 1 if spec["better"] == "higher" else -1
            won = sum(sign * (c - b) > 0 for b, c in zip(parent, change))
            ratios = [c / b for b, c in zip(parent, change) if b]
            q1, q3 = _quartiles(parent)
            table[name] = {
                "parent_median": statistics.median(parent),
                "parent_q1": q1,
                "parent_q3": q3,
                "change_median": statistics.median(change),
                "median_pair_ratio": statistics.median(ratios) if ratios else None,
                "change_better": f"{won}/{len(pairs)}",
                "verdict": _verdict(spec, parent, change, won, (workload, name) in claims),
            }
        summary[workload] = {
            "seeds": [p["parent"]["seed"] for p in pairs],
            "seconds": pairs[0]["parent"]["seconds"] if pairs else None,
            "pairs": len(pairs),
            "metrics": table,
        }
    return summary


def table(summary: dict) -> str:
    """The summary as the Markdown table of CHANGES.md."""
    lines = [
        "| workload | metric | parent median [q1, q3] | change median | median pair ratio | change better | verdict |",
        "| --- | --- | --- | --- | --- | --- | --- |",
    ]
    for workload, entry in summary.items():
        for name, m in entry["metrics"].items():
            ratio = "-" if m["median_pair_ratio"] is None else f"{m['median_pair_ratio']:.3f}"
            lines.append(
                f"| {workload} | `{name}` | {m['parent_median']:.4g} [{m['parent_q1']:.4g}, {m['parent_q3']:.4g}] "
                f"| {m['change_median']:.4g} | {ratio} | {m['change_better']} | {m['verdict']} |"
            )
    return "\n".join(lines)


def machine(note: str | None) -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    out = {
        "platform": platform.platform(),
        "processor": platform.processor(),
        "cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_model": cpu,
    }
    if note:
        out["note"] = note
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare this checkout with")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workload", action="append", help="a workload to run (default: every one)")
    parser.add_argument("--claim", action="append", default=[], metavar="W:METRIC",
                        help="judge this workload's metric as a claimed gain")
    parser.add_argument("--label", default="pairs", help="the output is BENCH_<label>.json")
    parser.add_argument("--note", help="a note on the machine or the runs, kept in the file")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    claims = {tuple(c.split(":", 1)) for c in args.claim}
    parent = _git("rev-parse", args.base).strip()
    head = _git("rev-parse", "HEAD").strip()
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no").strip())
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        base = Path(tmp)
        export(parent, base)
        for pair in range(args.pairs):
            seed = args.first_seed + pair
            sides = [("parent", base), ("change", ROOT)]
            for workload in workloads:
                for k, (side, tree) in enumerate(sides if pair % 2 == 0 else sides[::-1]):
                    out = run_once(tree, workload, seed, args.seconds)
                    runs.append({
                        "workload": workload, "seed": seed, "pair": pair, "side": side,
                        "first": k == 0, "seconds": args.seconds, "correct": out["correct"],
                        "attempted": out["attempted"], "failed": out["failed"],
                        "metrics": {name: m["value"] for name, m in out["metrics"].items()},
                    })
                    print(f"pair {pair} {workload} {side}: "
                          f"ops_per_s {runs[-1]['metrics'].get('ops_per_s', math.nan):.4g}", file=sys.stderr)
    summary = summarize(runs, bench["end_to_end"], claims)
    record = {
        "machine": machine(args.note),
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0 "
                   "in each tree; even pairs run the parent first",
        "parent": parent,
        "change": head + (" with uncommitted changes" if dirty else ""),
        "claim": sorted(":".join(c) for c in claims) or None,
        "runs": runs,
        "summary": summary,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(table(summary))
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
