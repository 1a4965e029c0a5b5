"""Benchmark for prbench: two CLI workloads timed end to end and by layer.

    python3 perfbench/run.py --workload {sweep,headtohead} \
        --seed N --seconds S --trace {0,1}

One process, one client, a closed loop: each task is a `prbench.cli.main`
call started when the previous one returned.  A pass runs the workload's
whole task set in an order drawn from the seed.  The pass count follows
from `--seconds` and the workload's nominal pass length, so a run lasts
about `--seconds` and every run does the same work.  Every task's output is
checked against reference.json.

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates
untraced and traced passes, prints the per-layer metrics from the traced
ones, and writes the spans to .perfbench_out/.  Program outputs go to a
temporary directory under .perfbench_work/, removed at the end.  The last
line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # set-up time counts from here in a fresh process

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from dataclasses import asdict

import benchenv  # pins the BLAS thread count; must precede numpy
import workloads
from spans import Recorder, instrument, self_seconds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
SPAN_DIR = os.path.join(ROOT, ".perfbench_out")
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_SAMPLES = 3
TAIL_BEYOND = 10
SETUP_TIMEOUT_S = 60

END_TO_END = {
    "wall_s": "s", "task_ms_p50": "ms", "task_ms_tail": "ms",
    "setup_s": "s", "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "rng.normal_rows.ns_per_value": "ns",
    "rng.small_draw.us": "us",
    "model.sample_ensemble.s": "s",
    "spectral.spectral_init.s": "s",
    "spectral.power_iters": "count",
    "spectral.us_per_power_iter": "us",
    "objective.gradient_kernel.us": "us",
    "objective.gradient_kernel.gflops": "GFLOP/s",
    "objective.gradient_kernel.bytes": "B_computed",
    "solvers.run.s": "s",
    "solvers.iters": "count",
    "solvers.us_per_iter": "us",
    "solvers.overhead_us_per_iter": "us",
    "diagnostics.loo_run.s": "s",
    "diagnostics.loo_steps": "count",
    "diagnostics.us_per_loo_step": "us",
    "cdp.cdp_run.s": "s",
    "cdp.cdp_gradient.ms": "ms",
    "cdp.fft_calls": "count",
    "cdp.us_per_fft": "us",
    "cdp.spectral_init.s": "s",
    "cdp.power_iters": "count",
    "harness.write_trace.s": "s",
    "harness.csv_bytes": "count",
    "harness.write_trace.us_per_row": "us",
    "trace.overhead_s": "s",
}


class BenchmarkError(Exception):
    """The benchmark itself cannot produce a valid result."""


def import_prbench():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import prbench.cdp
        import prbench.cli
        import prbench.objective
    except ImportError as exc:
        raise BenchmarkError(f"cannot import prbench from {src}: {exc}") from exc
    if not os.path.abspath(prbench.__file__).startswith(src + os.sep):
        raise BenchmarkError(f"prbench was imported from {prbench.__file__}, not {src}")
    return prbench


def measure_setup(workload: str) -> list[float]:
    """Set-up times of fresh processes: import prbench, build the inputs."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        probe_dir = tempfile.mkdtemp(prefix="setup-", dir=WORK_ROOT)
        try:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--setup-probe", probe_dir],
                capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False,
            )
        finally:
            shutil.rmtree(probe_dir, ignore_errors=True)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


class Runner:
    def __init__(self, pb, workload: str, reference: dict):
        self.pb = pb
        self.workload = workload
        self.reference = reference
        self.recorder = Recorder()
        self.failures: list[tuple[str, str]] = []

    def run(self, task, check=True):
        """Run one task; returns its Outcome, or None when it raised.

        A task whose output disagrees with its reference still returns its
        Outcome, with `error` set: its latency was measured all the same.

        Unchecked tasks are the small warm-up and probe tasks, which have
        no reference; their failure is a benchmark error.
        """
        try:
            outcome = workloads.run_task(
                task, self.recorder, self.pb.cli.main, self.pb.cdp.fft_call_count)
        except Exception as exc:  # a task that raises is a failed task, not a crash
            if not check:
                raise BenchmarkError(f"small {task.argv[0]} task raised {exc!r}") from exc
            self.failures.append((task.id, f"{type(exc).__name__}: {exc}"))
            return None
        if not check:
            if outcome.summary["exit"] not in (0, 1):
                raise BenchmarkError(
                    f"small {task.argv[0]} task exited {outcome.summary['exit']}")
            return outcome
        ref = self.reference.get(task.id)
        if ref is None:
            raise BenchmarkError(f"no reference for {self.workload} task {task.id}")
        bad = workloads.mismatches(outcome.summary, ref)
        if bad:
            detail = ", ".join(f"{k}={outcome.summary.get(k)!r} (ref {ref.get(k)!r})"
                               for k in bad)
            self.failures.append((task.id, detail))
            outcome.error = detail
        return outcome

    def probe(self, tasks):
        """Trace the small tasks into a span list of their own."""
        recorder = self.recorder
        workload_spans, recorder.spans = recorder.spans, []
        recorder.tracing = True
        try:
            outcomes = [self.run(task, check=False) for task in tasks]
        finally:
            recorder.tracing = False
            probe_spans, recorder.spans = recorder.spans, workload_spans
        return probe_spans, outcomes


def pass_counts(outcomes) -> Counter:
    """The counts that must repeat exactly from pass to pass of the same code."""
    counts = Counter()
    for o in outcomes:
        s = o.summary
        counts["solvers.iters"] += sum(r[1] for r in s.get("runs", []))
        counts["spectral.power_iters"] += sum(s.get("power_iters", []))
        counts["diagnostics.loo_steps"] += sum(s.get("loo_steps", []))
        counts["cdp.fft_calls"] += s["fft_calls"]
        counts["cdp.power_iters"] += sum(s.get("cdp_power_iters", []))
        counts["harness.csv_bytes"] += o.csv_bytes
    return counts


def check_counts(passes) -> None:
    """Every pass ran the same tasks, so every exact count must agree."""
    first = None
    for _, outcomes in passes:
        if any(o is None or o.error for o in outcomes):
            return  # failed tasks are reported through `failed`
        counts = pass_counts(outcomes)
        if first is None:
            first = counts
        elif counts != first:
            raise BenchmarkError(f"exact counts differ between passes: {first} vs {counts}")


def time_kernel(objective, n: int, m: int) -> float:
    """Median seconds of one bare gradient_kernel call at shape (n, m)."""
    import numpy as np

    gen = np.random.default_rng(0)
    rows = gen.standard_normal((m, n))
    x = gen.standard_normal(n)
    y = (rows @ gen.standard_normal(n)) ** 2
    kernel = objective.gradient_kernel
    start = time.perf_counter()
    kernel(rows, y, x, m)
    reps = max(1, int(1e-3 / max(time.perf_counter() - start, 1e-7)))
    blocks = []
    for _ in range(15):
        start = time.perf_counter()
        for _ in range(reps):
            kernel(rows, y, x, m)
        blocks.append((time.perf_counter() - start) / reps)
    return statistics.median(blocks)


def kernel_bytes(n: int, m: int) -> int:
    """Bytes one gradient_kernel call moves, computed from the array sizes:
    the m x n matrix once per GEMV, and x, y, the projections and the result
    once each; temporaries are not counted."""
    return 8 * (2 * m * n + 2 * m + 2 * n)


def layer_metrics(spans, outcomes, passes: int, kernel_s: dict) -> dict:
    """Per-layer figures of one set of spans; a layer without spans is absent."""
    by_name = defaultdict(list)
    for span, own in zip(spans, self_seconds(spans)):
        by_name[span.name].append((span, own))
    counts = pass_counts(outcomes)

    def total(name):
        return sum(span.seconds for span, _ in by_name[name])

    def mean(name):
        return total(name) / len(by_name[name])

    def size(name):
        return sum(span.size for span, _ in by_name[name])

    def per_pass(name):
        return counts[name] // passes  # check_counts makes every pass equal

    out = {"harness.csv_bytes": per_pass("harness.csv_bytes")}
    if by_name["rng.normal_rows"]:
        out["rng.normal_rows.ns_per_value"] = total("rng.normal_rows") / size("rng.normal_rows") * 1e9
    if by_name["rng.normals"]:
        out["rng.small_draw.us"] = mean("rng.normals") * 1e6
    if by_name["model.sample_ensemble"]:
        out["model.sample_ensemble.s"] = mean("model.sample_ensemble")
    if by_name["spectral.spectral_init"]:
        out["spectral.spectral_init.s"] = mean("spectral.spectral_init")
        out["spectral.power_iters"] = per_pass("spectral.power_iters")
        out["spectral.us_per_power_iter"] = (
            total("spectral.spectral_init") / size("spectral.spectral_init") * 1e6)
    runs = [span.size for span, _ in by_name["solvers.run"]]
    if runs:
        iters = sum(steps for _, _, steps in runs)
        kernel = sum(steps * kernel_s[(n, m)] for n, m, steps in runs)
        flops = sum(steps * 4 * n * m for n, m, steps in runs)
        moved = sum(steps * kernel_bytes(n, m) for n, m, steps in runs)
        us_per_iter = total("solvers.run") / iters * 1e6
        out["objective.gradient_kernel.us"] = kernel / iters * 1e6
        out["objective.gradient_kernel.gflops"] = flops / kernel / 1e9
        out["objective.gradient_kernel.bytes"] = moved / iters
        out["solvers.run.s"] = mean("solvers.run")
        out["solvers.iters"] = per_pass("solvers.iters")
        out["solvers.us_per_iter"] = us_per_iter
        out["solvers.overhead_us_per_iter"] = us_per_iter - kernel / iters * 1e6
    if by_name["diagnostics.loo_run"]:
        own = sum(o for _, o in by_name["diagnostics.loo_run"])
        out["diagnostics.loo_run.s"] = mean("diagnostics.loo_run")
        out["diagnostics.loo_steps"] = per_pass("diagnostics.loo_steps")
        out["diagnostics.us_per_loo_step"] = own / size("diagnostics.loo_run") * 1e6
    if by_name["cdp.cdp_run"]:
        out["cdp.cdp_run.s"] = mean("cdp.cdp_run")
        out["cdp.cdp_gradient.ms"] = mean("cdp.cdp_gradient") * 1e3
        out["cdp.fft_calls"] = per_pass("cdp.fft_calls")
        out["cdp.us_per_fft"] = total("cdp.cdp_run") / counts["cdp.fft_calls"] * 1e6
        out["cdp.spectral_init.s"] = mean("cdp.spectral_init")
        out["cdp.power_iters"] = per_pass("cdp.power_iters")
    if by_name["harness.write_trace"]:
        out["harness.write_trace.s"] = mean("harness.write_trace")
        out["harness.write_trace.us_per_row"] = (
            total("harness.write_trace") / size("harness.write_trace") * 1e6)
    return out


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest order statistic with
    TAIL_BEYOND samples above it.  When that would not lie above the median
    (fewer than 2 * TAIL_BEYOND + 1 samples) the tail is the maximum."""
    ordered = sorted(latencies)
    beyond = TAIL_BEYOND if len(ordered) > 2 * TAIL_BEYOND else 0
    rank = len(ordered) - beyond
    return ordered[rank - 1], 100.0 * rank / len(ordered), beyond


def bench(args, pb) -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        captured = json.load(fh)
    reference = captured["workloads"][args.workload]
    env = benchenv.describe()
    print(f"env: {json.dumps(env, sort_keys=True)}")
    if env["blas_runtime"] != captured["env"]["blas_runtime"]:
        # another BLAS kernel may round differently than the reference run did
        print(f"note: reference captured with {captured['env']['blas_runtime']}")
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    runner = Runner(pb, args.workload, reference)
    try:
        inputs = workloads.build_inputs(args.workload, workdir)
        setup = [] if args.trace else measure_setup(args.workload)
        instrument(runner.recorder)
        try:
            for task in inputs.small:
                runner.run(task, check=False)
            passes = run_passes(args, runner, inputs.tasks)
            if args.trace:
                probe_spans, probe_outcomes = runner.probe(inputs.small)
        finally:
            runner.recorder.restore()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_counts(passes)

    measured = [o for _, outcomes in passes for o in outcomes]
    attempted = len(measured)
    failed = sum(o is None or bool(o.error) for o in measured)
    print(f"passes: {len(passes)} ({sum(t for t, _ in passes)} traced), "
          f"tasks per pass: {len(inputs.tasks)}")
    for task_id, reason in runner.failures[:20]:
        print(f"FAILED {task_id}: {reason}")
    print(f"check: correct={failed == 0} attempted={attempted} failed={failed} "
          f"fail_frac={failed / attempted:.6g}")

    if args.trace:
        spans = runner.recorder.spans
        metrics, sources = traced_metrics(pb, passes, spans, probe_spans, probe_outcomes)
        write_spans(args, env, spans, probe_spans)
    else:
        metrics, sources = untraced_metrics(passes, setup)
    units = END_TO_END if not args.trace else PER_LAYER
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}{sources.get(name, '')}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def write_spans(args, env, spans, probe_spans) -> None:
    os.makedirs(SPAN_DIR, exist_ok=True)
    path = os.path.join(SPAN_DIR, f"spans_{args.workload}_seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "env": env,
                   "spans": [asdict(s) for s in spans],
                   "small_task_spans": [asdict(s) for s in probe_spans]},
                  fh)
    print(f"spans: {len(spans)} + {len(probe_spans)} from the small tasks, "
          f"written to {os.path.relpath(path, ROOT)}")


def run_passes(args, runner, tasks):
    """Closed loop over whole passes; trace mode alternates untraced/traced.

    The pass count is fixed before the first pass, not by the clock, so a
    slow spell of the machine cannot change how many samples a run takes,
    and with it the rank its tail percentile sits at.
    """
    order = random.Random(args.seed)
    passes = []
    for index in range(workloads.pass_count(args.workload, args.seconds, args.trace)):
        traced = bool(args.trace) and index % 2 == 1
        sequence = list(tasks)
        order.shuffle(sequence)
        runner.recorder.tracing = traced
        outcomes = [runner.run(task) for task in sequence]
        runner.recorder.tracing = False
        passes.append((traced, outcomes))
    return passes


def untraced_metrics(passes, setup):
    good = [[o for o in outcomes if o is not None] for _, outcomes in passes]
    latencies = [o.latency_s for outcomes in good for o in outcomes]
    if not latencies:
        raise BenchmarkError("every task raised; no latency to report")
    value, pct, beyond = tail(latencies)
    metrics = {
        "wall_s": statistics.median(sum(o.latency_s for o in outcomes) for outcomes in good),
        "task_ms_p50": statistics.median(latencies) * 1e3,
        "task_ms_tail": value * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    sources = {
        "wall_s": f" (median of {len(good)} passes)",
        "task_ms_p50": f" ({len(latencies)} tasks)",
        "task_ms_tail": f" (p{pct:.1f} of {len(latencies)} tasks, {beyond} beyond)",
        "setup_s": f" (median of {len(setup)} fresh processes)",
    }
    return metrics, sources


def traced_metrics(pb, passes, spans, probe_spans, probe_outcomes):
    """Per-layer figures from the traced passes; a layer the workload's own
    tasks never reach is timed on the small tasks instead."""
    traced = [outcomes for is_traced, outcomes in passes if is_traced]
    untraced = [outcomes for is_traced, outcomes in passes if not is_traced]
    shapes = {span.size[:2] for span in spans + probe_spans if span.name == "solvers.run"}
    kernel_s = {shape: time_kernel(pb.objective, *shape) for shape in sorted(shapes)}
    own = layer_metrics(spans, [o for p in traced for o in p if o is not None],
                        len(traced), kernel_s)
    probe = layer_metrics(probe_spans, probe_outcomes, 1, kernel_s)
    walls = [statistics.median(sum(o.latency_s for o in p if o is not None) for p in group)
             for group in (traced, untraced)]
    metrics, sources = {}, {}
    for name in PER_LAYER:
        if name == "trace.overhead_s":
            metrics[name] = walls[0] - walls[1]
            sources[name] = f" (traced wall {walls[0]:.6g} s - untraced wall {walls[1]:.6g} s)"
        elif name in own:
            metrics[name] = own[name]
        else:
            metrics[name] = probe[name]
            sources[name] = " (from the small tasks)"
    return metrics, sources


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR",
                        help="time import and input building in this fresh process, then exit")
    args = parser.parse_args(argv)
    try:
        pb = import_prbench()
        if args.setup_probe:
            workloads.build_inputs(args.workload, args.setup_probe)
            print(f"{time.perf_counter() - _STARTED:.9f}")
            return 0
        os.makedirs(WORK_ROOT, exist_ok=True)
        try:
            result = bench(args, pb)
        finally:
            try:
                os.rmdir(WORK_ROOT)
            except OSError:
                pass  # another run is using it
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
