"""The workload process: set-up, one client in a closed loop, then checks.

    python perfbench/worker.py SPEC_JSON

Set-up is interpreter start, the package imports and building every state
set of the spec once. The worker then prints "ready" and reads one line
from stdin: "quit" ends it, and "go SECONDS TRACE OUT_DIR" runs the ops in
order, cycling, each after the previous one completed, until SECONDS of
wall time have passed. With TRACE=1 each op runs twice in a row, untraced
and traced in alternating order, and the median gap within those pairs is
the tracing overhead. Checks run after the loop, outside the timed window. The
result goes to OUT_DIR/result.json and the spans to OUT_DIR/spans.json.

A cli op is a fresh `python -m momentgibbs` process. An op fails when it
raises, exits non-zero or fails a check:

* every op: stdout byte-identical to the first run of the same argv, and
  to the payload of `cli.main` run in this process on the same argv;
* forward: |entropy - (beta, mean) - log_z| of the payload <= 1e-10;
* toric: the moment equals the Gibbs mean at 2*beta;
* invert: beta within 1e-6 relative of the generating beta, after
  projecting that beta onto the span of the points.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import subprocess
import sys
import time
from pathlib import Path

import tracing

RESIDUAL_TOL = 1e-10
TORIC_TOL = 1e-9  # relative to 1 + the largest coordinate
BETA_REL_TOL = 1e-6
DIGITS_CAP = 17.0  # an exact beta would give infinitely many digits
MAX_LISTED_FAILURES = 20

HERE = Path(__file__).resolve().parent


def beta_digits(beta, beta_true) -> float:
    """-log10 of the relative error of beta, capped at 17 digits."""
    err = math.dist(beta, beta_true) / math.hypot(*beta_true)
    return min(DIGITS_CAP, -math.log10(err)) if err > 0 else DIGITS_CAP


def load_sets(spec: dict) -> dict:
    """Every state set of the spec, built once from its JSON file."""
    from momentgibbs import state_space

    sets = {}
    for name, path in spec["sets"].items():
        with open(path, encoding="utf-8") as fh:
            sets[name] = state_space.state_set_from_json(json.load(fh))
    return sets


class CliWorkload:
    """Ops are fresh CLI processes; checks compare against the library."""

    def __init__(self, spec: dict):
        from momentgibbs import cli, gibbs

        self.cli, self.gibbs = cli, gibbs
        self.ops = spec["ops"]
        self.sets = load_sets(spec)
        self.spans: list = []

    def run_op(self, i: int, op: dict, traced: bool, out_dir: Path) -> dict:
        if traced:
            spans_path = out_dir / "child_spans.json"
            cmd = [sys.executable, str(HERE / "tracing.py"), str(spans_path), "--", *op["argv"]]
        else:
            cmd = [sys.executable, "-m", "momentgibbs", *op["argv"]]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True)
        ms = (time.perf_counter() - start) * 1e3
        if traced:
            base = len(self.spans)
            for name, s, e, parent, _ in json.loads(spans_path.read_text()):
                self.spans.append((name, s, e, parent + base if parent >= 0 else -1, i))
        return {"code": proc.returncode, "stdout": proc.stdout, "ms": ms}

    def check(self, records: list[dict]) -> None:
        first: dict[int, bytes] = {}
        for rec in records:
            first.setdefault(rec["spec"], rec["stdout"])
        counts = {k: sum(r["spec"] == k for r in records) for k in first}
        verdicts = {}
        for k, ref in first.items():
            op = self.ops[k]
            if counts[k] == 1:  # compare with a second, untimed run
                again = subprocess.run(
                    [sys.executable, "-m", "momentgibbs", *op["argv"]], capture_output=True
                )
                if again.stdout != ref:
                    verdicts[k] = ("stdout differs between two runs of the same argv", None)
                    continue
            verdicts[k] = self._check_argv(op, ref)
        for rec in records:
            reason, digits = verdicts[rec["spec"]]
            if rec["code"] != 0:
                reason = f"exit code {rec['code']}"
            elif rec["stdout"] != first[rec["spec"]]:
                reason = "stdout differs between two runs of the same argv"
            rec["reason"], rec["digits"] = reason, digits

    def _check_argv(self, op: dict, stdout: bytes):
        """(failure reason or None, beta digits or None) for one argv."""
        try:
            return self._compare(op, stdout)
        except Exception as exc:  # any raise is a failed op, recorded by type
            return f"{type(exc).__name__}: {exc}", None

    def _compare(self, op: dict, stdout: bytes):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(op["argv"])
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
        if code != 0:
            return f"in-process exit code {code}", None
        if out.getvalue().encode() != stdout:
            return "stdout differs from the in-process payload", None
        cmd = op["cmd"]
        if cmd not in ("forward", "toric", "invert"):
            return None, None
        payload = json.loads(stdout)
        A = self.sets[op["set"]]
        if cmd == "forward":
            beta = op["beta"]
            residual = (payload["entropy"] - sum(b * m for b, m in zip(beta, payload["mean"]))
                        - payload["log_z"])
            if not abs(residual) <= RESIDUAL_TOL:
                return f"legendre residual {residual:.3g} above {RESIDUAL_TOL:g}", None
            return None, None
        if cmd == "toric":
            want = self.gibbs.mean_energy(A, [2.0 * b for b in op["beta"]])
            gap = max(abs(a - b) for a, b in zip(payload["moment"], want))
            tol = TORIC_TOL * (1.0 + float(abs(A.points).max()))
            if not gap <= tol:
                return f"toric moment is {gap:.3g} from the mean at 2*beta", None
            return None, None
        digits = beta_digits(payload["beta"], op["beta_true"])
        if digits < -math.log10(BETA_REL_TOL):
            return f"beta has only {digits:.2f} correct digits", digits
        return None, digits

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class InProcessWorkload:
    """Ops are `invert_mean_energy` calls on state sets built at set-up."""

    def __init__(self, spec: dict):
        from momentgibbs import moment_solver

        self.solver = moment_solver
        self.ops = spec["ops"]
        self.sets = load_sets(spec)
        self.tracer = tracing.Tracer()
        self.spans = self.tracer.spans

    def run_op(self, i: int, op: dict, traced: bool, out_dir: Path) -> dict:
        if traced:
            self.tracer.op = i
            self.tracer.install()
        A = self.sets[op["set"]]
        start = time.perf_counter()
        try:
            report = self.solver.invert_mean_energy(A, op["target"])
            rec = {"beta": report.beta.components.tolist(), "converged": report.converged}
        except Exception as exc:  # any raise is a failed op, recorded by type
            rec = {"error": f"{type(exc).__name__}: {exc}"}
        rec["ms"] = (time.perf_counter() - start) * 1e3
        if traced:
            self.tracer.uninstall()
        return rec

    def check(self, records: list[dict]) -> None:
        for rec in records:
            rec["digits"] = None
            if "error" in rec:
                rec["reason"] = rec.pop("error")
                continue
            op = self.ops[rec["spec"]]
            rec["digits"] = beta_digits(rec.pop("beta"), op["beta_true"])
            if not rec["converged"]:
                rec["reason"] = "report says not converged"
            elif rec["digits"] < -math.log10(BETA_REL_TOL):
                rec["reason"] = f"beta has only {rec['digits']:.2f} correct digits"
            else:
                rec["reason"] = None

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_loop(work, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Run ops in spec order, cycling, one at a time, for `seconds`.

    With `trace`, each op runs twice in a row, untraced and traced, so the
    two latency lists pair up op by op. The order alternates from pair to
    pair, so caches warmed by the first run favour neither side.
    """
    ops = work.ops
    modes = (False, True) if trace else (False,)
    records = []
    start = time.perf_counter()
    while not records or time.perf_counter() - start < seconds:
        pair = len(records) // len(modes)
        k = pair % len(ops)
        for traced in modes if pair % 2 == 0 else modes[::-1]:
            rec = work.run_op(len(records), ops[k], traced, out_dir)
            rec["spec"], rec["traced"] = k, traced
            records.append(rec)
    wall = time.perf_counter() - start
    work.check(records)

    failures = [
        {"op": i, "cmd": ops[r["spec"]]["cmd"], "set": ops[r["spec"]]["set"], "reason": r["reason"]}
        for i, r in enumerate(records) if r["reason"]
    ]
    codes: dict[str, int] = {}
    for r in records:
        if "code" in r:
            codes[str(r["code"])] = codes.get(str(r["code"]), 0) + 1
    used: set = set()
    reused = 0
    for r in records:
        name = ops[r["spec"]]["set"]
        reused += name in used
        used.add(name)
    untraced = [r["ms"] for r in records if not r["traced"]]
    digits = [r["digits"] for r in records if r["digits"] is not None]
    result = {
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures[:MAX_LISTED_FAILURES],
        "exit_codes": codes,
        "wall_s": wall,
        "latencies_ms": untraced,
        "peak_rss_mb": work.peak_rss_mb(),
        "beta_digits": digits,
        "set_reuse_share": reused / len(records),
    }
    if trace:
        traced_ms = [r["ms"] for r in records if r["traced"]]
        result["traced_latencies_ms"] = traced_ms
        result["spans"] = len(work.spans)
        result["layer_self_ms"] = tracing.layer_self_ms(work.spans)
        with open(out_dir / "spans.json", "w", encoding="utf-8") as fh:
            json.dump(work.spans, fh)
    return result


def main(argv: list[str]) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        spec = json.load(fh)
    work = (CliWorkload if spec["kind"] == "cli" else InProcessWorkload)(spec)
    print("ready", flush=True)
    words = sys.stdin.readline().split()
    if not words or words[0] != "go":
        return 0
    seconds, trace, out_dir = float(words[1]), words[2] == "1", Path(words[3])
    result = run_loop(work, seconds, trace, out_dir)
    with open(out_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
