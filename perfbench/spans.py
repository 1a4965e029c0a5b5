"""Spans and per-task results recorded around prbench's public functions.

The benchmark drives prbench through its CLI, so the calls into each module
happen inside the package.  The recorder replaces each public function at
the module attribute its caller looks it up by, which leaves the program's
files untouched.  The wrappers always collect the per-task results that the
reference check needs; they record timed spans only while `tracing` is on.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index of the enclosing span, -1 at top level
    task: str
    size: Any = None  # the call's work, in the unit its metric divides by

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9


class Recorder:
    def __init__(self):
        self.tracing = False
        self.spans: list[Span] = []
        self.results: dict[str, list] = {}
        self.task = ""
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Callable]] = []

    def begin_task(self, task_id: str) -> None:
        self.task = task_id
        self.results = {}

    def patch(self, module, attr: str, name: str, size=None, result=None) -> None:
        """Wrap `module.attr`; the span is called `name`.

        `size(args, out)` gives the call's work for the span; `result` is a
        (key, extract) pair whose extract(out) is appended to the task's
        results under key.
        """
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            if self.tracing:
                index = len(self.spans)
                parent = self._stack[-1] if self._stack else -1
                span = Span(name, 0, 0, parent, self.task)
                self.spans.append(span)
                self._stack.append(index)
                span.start_ns = time.perf_counter_ns()
                try:
                    out = original(*args, **kwargs)
                finally:
                    span.end_ns = time.perf_counter_ns()
                    self._stack.pop()
                if size is not None:
                    span.size = size(args, out)
            else:
                out = original(*args, **kwargs)
            if result is not None:
                key, extract = result
                self.results.setdefault(key, []).append(extract(out))
            return out

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def instrument(recorder: Recorder) -> None:
    """Wrap the public calls of rng, model, spectral, solvers, diagnostics,
    cdp and harness where the CLI path reaches them."""
    from prbench import cdp, diagnostics, harness, rng

    def steps(trace):
        return [trace.status.value, trace.n_steps, float(trace.dist[-1])]

    def power_iters(report):
        return report.power_iters_used

    def run_size(args, trace):
        return (args[0].n, args[0].m, trace.n_steps)

    def loo_steps(bundle):
        return bundle.dist_main.shape[0] * (bundle.proximity.shape[0] - 1)

    recorder.patch(rng, "normal_rows", "rng.normal_rows", size=lambda a, out: out.size)
    recorder.patch(rng, "normals", "rng.normals", size=lambda a, out: out.size)
    recorder.patch(harness, "sample_ensemble", "model.sample_ensemble")
    recorder.patch(harness, "spectral_init", "spectral.spectral_init",
                   size=lambda a, out: out.power_iters_used,
                   result=("power_iters", power_iters))
    recorder.patch(harness, "run", "solvers.run", size=run_size, result=("runs", steps))
    recorder.patch(diagnostics, "run", "solvers.run", size=run_size, result=("runs", steps))
    recorder.patch(harness, "loo_run", "diagnostics.loo_run",
                   size=lambda a, out: loo_steps(out), result=("loo_steps", loo_steps))
    recorder.patch(cdp, "cdp_run", "cdp.cdp_run",
                   result=("cdp_status", lambda trace: trace.status.value))
    recorder.patch(cdp, "cdp_spectral_init", "cdp.spectral_init",
                   size=lambda a, out: out.power_iters_used,
                   result=("cdp_power_iters", power_iters))
    recorder.patch(cdp, "cdp_gradient", "cdp.cdp_gradient")
    recorder.patch(harness, "write_trace", "harness.write_trace",
                   size=lambda a, out: len(a[1].iters))


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration less the time its direct children cover."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_ns[span.parent] += span.end_ns - span.start_ns
    return [(s.end_ns - s.start_ns - c) * 1e-9 for s, c in zip(spans, child_ns)]
