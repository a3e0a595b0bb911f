"""Span tracing of momentgibbs from outside the package.

`Tracer.install` replaces every public function of the package's layer
modules with a wrapper that records one span per call, in each module that
holds a reference to it (so `moment_solver.convex_hull` and
`polytope.convex_hull` are the same wrapper). No program file changes.

A span is (name, start_ns, end_ns, parent, op): `name` is
"<layer>.<function>", `parent` the index of the enclosing span or -1, and
`op` the id the caller set on the tracer for the op in progress. Spans stay
in memory until the caller writes them out.

Run as a script, this file is the traced CLI child:

    python perfbench/tracing.py SPANS_OUT -- <momentgibbs CLI arguments>

It runs `momentgibbs.cli.main` with the tracer installed, writes the spans
as JSON to SPANS_OUT and exits with the command's exit code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

PACKAGE = "momentgibbs"
LAYERS = (
    "cli",
    "state_space",
    "polytope",
    "moment_solver",
    "gibbs",
    "duality",
    "toric",
    "microstates",
)


class Tracer:
    """Records spans for calls into the package's public functions."""

    def __init__(self):
        self.spans: list = []
        self.op = None
        self._stack: list[int] = []
        self._wrappers: dict = {}
        self._replaced: list = []  # (module, attribute, original function)

    def install(self) -> None:
        modules = [importlib.import_module(PACKAGE)]
        modules += [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        prefix = PACKAGE + "."
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith(prefix):
                    continue
                layer = obj.__module__[len(prefix):]
                if layer not in LAYERS:
                    continue
                self._replaced.append((module, attr, obj))
                setattr(module, attr, self._wrap(f"{layer}.{obj.__name__}", obj))

    def uninstall(self) -> None:
        """Put the original functions back; the recorded spans stay."""
        for module, attr, original in reversed(self._replaced):
            setattr(module, attr, original)
        self._replaced.clear()

    def _wrap(self, name: str, fn):
        if fn in self._wrappers:
            return self._wrappers[fn]
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)

        self._wrappers[fn] = traced
        return traced


def self_times(spans) -> list[float]:
    """Self time of each span in ms: its duration minus its children's."""
    out = [(end - start) / 1e6 for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= (end - start) / 1e6
    return out


def layer_self_ms(spans) -> dict[str, float]:
    """Total self time per layer, in ms, over the given spans."""
    totals = {layer: 0.0 for layer in LAYERS}
    for span, own in zip(spans, self_times(spans)):
        totals[span[0].split(".", 1)[0]] += own
    return totals


def _child(argv: list[str]) -> int:
    out_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracing.py SPANS_OUT -- <momentgibbs arguments>")
    from momentgibbs import cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1:]))
