"""The summary of tools/bench_pairs.py on synthetic runs: no benchmark is run."""

import sys

import pytest

from conftest import ROOT

sys.path.insert(0, str(ROOT / "tools"))
import bench_pairs  # noqa: E402

METRICS = [
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    {"name": "op_p50_ms", "better": "lower", "bound": 0.25},
    {"name": "ok_ratio", "better": "higher", "bound": 0.01},
]


def _runs(workload, parent, change):
    """Pairs of runs with the given metric dicts, sides alternating first."""
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        for side, metrics in (("parent", p), ("change", c)):
            runs.append({"workload": workload, "seed": 100 + pair, "pair": pair, "side": side,
                         "first": (side == "parent") == (pair % 2 == 0), "seconds": 1.0,
                         "correct": True, "attempted": 10, "failed": 0, "metrics": metrics})
    return runs


def test_summary_medians_ratios_and_verdicts():
    ops_p = [100.0, 98, 102, 101, 99, 100, 103, 97, 100, 100]
    ops_c = [v * 1.2 for v in ops_p]  # a 20% gain in every pair
    p50_p = [10.0, 11, 9, 10, 10, 12, 8, 10, 10, 10]
    p50_c = [v * 1.4 for v in p50_p]  # 40% slower: beyond the 0.25 bound
    runs = _runs("fast", [{"ops_per_s": o, "op_p50_ms": q, "ok_ratio": 1.0} for o, q in zip(ops_p, p50_p)],
                 [{"ops_per_s": o, "op_p50_ms": q, "ok_ratio": 1.0} for o, q in zip(ops_c, p50_c)])
    # a workload whose parent spreads more widely than the bound
    scattered = [1.0, 2.0, 1.0, 2.0]
    runs += _runs("wide", [{"ops_per_s": v, "op_p50_ms": 1.0, "ok_ratio": 1.0} for v in scattered],
                  [{"ops_per_s": v, "op_p50_ms": 1.0, "ok_ratio": 0.5} for v in scattered])
    runs.append({**runs[-1], "pair": 9, "side": "change"})  # a pair with one side is left out

    summary = bench_pairs.summarize(runs, METRICS, {("fast", "ops_per_s")})
    fast = summary["fast"]
    assert fast["pairs"] == 10 and fast["seeds"] == list(range(100, 110)) and fast["seconds"] == 1.0
    ops = fast["metrics"]["ops_per_s"]
    assert ops["parent_median"] == 100.0 and ops["change_median"] == pytest.approx(120.0)
    assert (ops["parent_q1"], ops["parent_q3"]) == (99.25, 100.75)
    assert ops["median_pair_ratio"] == pytest.approx(1.2)
    assert ops["change_better"] == "10/10" and ops["verdict"] == "claim met"
    p50 = fast["metrics"]["op_p50_ms"]
    assert p50["change_better"] == "0/10" and p50["median_pair_ratio"] == pytest.approx(1.4)
    assert p50["verdict"] == "worse beyond bound (40% against 25%)"
    assert fast["metrics"]["ok_ratio"]["verdict"] == "within bound"
    assert fast["metrics"]["ok_ratio"]["change_better"] == "0/10"  # a tie is not a win

    wide = summary["wide"]
    assert wide["pairs"] == 4
    assert wide["metrics"]["ops_per_s"]["verdict"] == "unresolved: the parent's spread (67%) is wider than the bound"
    assert wide["metrics"]["ok_ratio"]["verdict"] == "worse beyond bound (50% against 1%)"
    # a wide parent spread is no obstacle when every change run reads better
    apart = _runs("apart", [{"ops_per_s": v} for v in scattered], [{"ops_per_s": 2.5} for _ in scattered])
    assert bench_pairs.summarize(apart, METRICS[:1])["apart"]["metrics"]["ops_per_s"]["verdict"] == "within bound"

    # the same gain, judged as a claim, fails when it wins too few pairs
    flat = _runs("flat", [{"ops_per_s": v} for v in ops_p], [{"ops_per_s": v} for v in ops_p[1:] + ops_p[:1]])
    claim = bench_pairs.summarize(flat, METRICS[:1], {("flat", "ops_per_s")})["flat"]["metrics"]["ops_per_s"]
    assert claim["verdict"].startswith("claim not met: 4/10 pairs won")

    lines = bench_pairs.table(summary).splitlines()
    assert lines[0].startswith("| workload | metric | parent median [q1, q3] |")
    assert len(lines) == 2 + 2 * len(METRICS)
    assert lines[2] == "| fast | `ops_per_s` | 100 [99.25, 100.8] | 120 | 1.200 | 10/10 | claim met |"
