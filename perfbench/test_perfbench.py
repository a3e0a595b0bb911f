"""Smoke tests of the benchmark itself. No timing is asserted anywhere.

They check that the generator and the workload specs are deterministic per
seed, that span self times add up, and that a short run of the benchmark
prints every metric BENCHMARK.json names, with its unit.
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import layers  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

CLASSES = {**gen.CLI_LARGE, **gen.INVERT_HULL, "roadmap": gen.ROADMAP_HEAVY}


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_generator_is_deterministic_per_seed(name):
    cls = CLASSES[name]
    a = gen.make_set(7, name, cls)
    assert np.array_equal(a, gen.make_set(7, name, cls))
    assert not np.array_equal(a, gen.make_set(8, name, cls))
    assert a.shape == (cls.n, cls.ambient)
    assert len(np.unique(a, axis=0)) == cls.n
    assert np.linalg.matrix_rank(a - a[0]) == cls.dim


def test_targets_lie_on_the_span_and_betas_project():
    pts = gen.make_set(3, "h6r", gen.INVERT_HULL["h6r"])
    rng = np.random.default_rng(0)
    beta = gen.random_beta(rng, pts)
    proj = gen.span_projection(pts, beta)
    # the annihilator component changes no Gibbs weight, so no mean
    assert np.allclose(gen.gibbs_mean(pts, beta), gen.gibbs_mean(pts, proj), rtol=0, atol=1e-9)
    assert np.allclose(gen.span_projection(pts, proj), proj, rtol=0, atol=1e-12)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_spec_is_deterministic_per_seed(workload, tmp_path):
    def spec(seed, sub):
        s = workloads.make_spec(workload, seed, ROOT, tmp_path / sub)
        files = {name: Path(p).read_text() for name, p in s["sets"].items()}
        return json.dumps(s["ops"]).replace(str(tmp_path / sub), ""), files

    assert spec(5, "a") == spec(5, "b")
    assert spec(5, "a")[0] != spec(6, "c")[0]


def test_self_times_subtract_children():
    spans = [("cli.main", 0, 10_000_000, -1, 0), ("gibbs.f", 2_000_000, 5_000_000, 0, 0),
             ("gibbs.g", 6_000_000, 7_000_000, 0, 0)]
    assert tracing.self_times(spans) == [6.0, 3.0, 1.0]
    assert tracing.layer_self_ms(spans)["gibbs"] == 4.0


def test_scipy_share_counts_outermost_scipy_imports_once():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:        50 |        150 |   scipy.linalg",
        "import time:        10 |         10 |   numpy.foo",
        "import time:        20 |        180 |     momentgibbs.polytope",
        "import time:        30 |        300 | momentgibbs",
    ])
    assert layers.scipy_import_ms(log) == 0.15


def test_cli_check_counts_a_raise_as_a_failed_op():
    work = worker.CliWorkload.__new__(worker.CliWorkload)
    work.cli = types.SimpleNamespace(main=lambda argv: 1 / 0)
    reason, digits = work._check_argv({"cmd": "hull", "argv": ["hull", "x.json"]}, b"")
    assert reason.startswith("ZeroDivisionError") and digits is None


def test_probe_facet_counts_repeat_for_a_seed():
    classes = {name: gen.INVERT_HULL[name] for name in ("h3", "h4")}
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            _, facets, _ = layers.trace_sets(tracer, 2, classes)
        finally:
            tracer.uninstall()
        assert layers.facet_failures(facets) == []
        counts.append(facets)
    assert counts[0] == counts[1]
    assert layers.facet_failures({"h4": [400, 401, 400]}) != []


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize(("workload", "trace"), [
    ("invert-hull", 0), ("cli-small", 0), ("invert-hull", 1),
])
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    out = _run(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())
