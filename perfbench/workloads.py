"""The benchmark's workloads: fixed task sets run through `prbench.cli.main`.

Each workload's task set is fixed and drawn from its acceptance criterion,
so every task has a reference captured from the code (reference.json), and
a run does the same work whatever its seed.  The seed orders the tasks of
each pass.  A task is one CLI call; its output files are parsed into a summary
that is compared with the reference.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("sweep", "headtohead")
METHODS = ("gd", "polyak", "nesterov")
# relative tolerance on float summaries; ROADMAP item 2 sets it for traces
REL_TOL = 1e-12

SWEEP_N = (10, 50, 100)
SWEEP_M = (200, 500, 1000)
# One sweep seed makes a 5 s pass, so a run makes many and its tail
# percentile falls among many samples of the slowest cell (n=100, m=200).
SWEEP_SEEDS = range(1)
H2H_N = 256  # the largest C07 size, m = theory_m(256) = 14196
H2H_SEEDS = range(3)
CDP_SIZE, CDP_MASKS = 64, 12  # the C11 image and mask count, for the small cdp task
# A pass's length, near its median over ten runs on a 2-core VM (OpenBLAS
# 0.3.31, Python 3.11).  A run makes as many passes as fit in `--seconds` at
# these lengths, so every run with the same `--seconds` does the same work,
# however fast the machine is just then.
PASS_SECONDS = {"sweep": 5.0, "headtohead": 15.0}


@dataclass
class Task:
    id: str
    argv: list[str]
    csv_paths: list[str]
    parse: Callable[[], dict]


@dataclass
class Inputs:
    tasks: list[Task]
    small: list[Task]


def _read_csv(path: str) -> tuple[list[list[str]], dict[str, str]]:
    """Data rows (header dropped) and `# key=value` comments of an output CSV."""
    rows, comments = [], {}
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                for item in line[2:].replace(":", "").split():
                    key, _, value = item.partition("=")
                    comments[key] = value
            else:
                rows.append(line.split(","))
    return rows, comments


def _sweep_parse(path: str) -> Callable[[], dict]:
    def parse():
        rows, comments = _read_csv(path)
        return {"status": comments["status"], "n_steps": int(rows[-1][0]),
                "final_dist": float(rows[-1][1])}
    return parse


def _h2h_parse(path: str, seed: int) -> Callable[[], dict]:
    def parse():
        _, comments = _read_csv(path)
        return {"status_a": comments["status_a"], "status_b": comments["status_b"],
                "slope": float(comments[f"slope_seed_{seed}"])}
    return parse


def _loo_parse(path: str) -> Callable[[], dict]:
    def parse():
        rows, comments = _read_csv(path)
        return {"max_proximity": max(float(r[1]) for r in rows),
                "within_threshold": int(comments["within_threshold"])}
    return parse


def _cdp_parse(path: str) -> Callable[[], dict]:
    def parse():
        rows, _ = _read_csv(path)
        return {"n_steps": int(rows[-1][1]), "final_rel_err": float(rows[-1][2])}
    return parse


def _write_config(path: str, lines: list[str]) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _sweep_task(workdir, cfg, n, m, method, seed, tag="") -> Task:
    out = os.path.join(workdir, f"sweep{tag}")
    trace = os.path.join(out, f"n{n}_m{m}_{method}_spectral_s{seed}.csv")
    return Task(
        id=f"n{n}_m{m}_{method}_s{seed}",
        argv=["sweep", "--config", cfg, "--n_list", str(n), "--m_list", str(m),
              "--seed_list", str(seed), "--methods", method, "--out", out],
        csv_paths=[trace, os.path.join(out, "summary.csv")],
        parse=_sweep_parse(trace),
    )


def _h2h_task(workdir, cfg, n, seed, tag="") -> Task:
    out = os.path.join(workdir, f"headtohead{tag}_s{seed}.csv")
    return Task(
        id=f"s{seed}",
        argv=["headtohead", "--config", cfg, "--n_list", str(n),
              "--seed_list", str(seed), "--out", out],
        csv_paths=[out], parse=_h2h_parse(out, seed),
    )


def _loo_task(workdir, cfg, n, m, method, seed, iters, tag="") -> Task:
    out = os.path.join(workdir, f"loo{tag}_{method}_s{seed}.csv")
    return Task(
        id=f"{method}_s{seed}",
        argv=["loo", "--config", cfg, "--n_list", str(n), "--m_list", str(m),
              "--seed_list", str(seed), "--methods", method,
              "--max_iters", str(iters), "--loo_budget_iters", str(iters), "--out", out],
        csv_paths=[out], parse=_loo_parse(out),
    )


def _cdp_task(workdir, cfg, method, seed, iters, tag="") -> Task:
    out = os.path.join(workdir, f"cdp{tag}_{method}_s{seed}")
    errors = os.path.join(out, "errors.csv")
    return Task(
        id=f"{method}_s{seed}",
        argv=["cdp", "--config", cfg, "--methods", method, "--seed_list", str(seed),
              "--cdp_iters", str(iters), "--out", out],
        csv_paths=[errors], parse=_cdp_parse(errors),
    )


def build_inputs(workload: str, workdir: str) -> Inputs:
    """Write the config files and the CDP image, and list the tasks.

    `small` holds one small task per CLI command; the run uses them as its
    warm-up, and the traced run times with them the layers its own tasks
    do not reach.
    """
    from prbench import cdp, pgm

    image = os.path.join(workdir, "image.pgm")
    pgm.write_pgm(image, cdp.synthetic_image(CDP_SIZE, CDP_SIZE))
    real_cfg = _write_config(os.path.join(workdir, "real.cfg"), [
        "init=spectral", "tol=1e-7", "max_iters=10000", "method_a=gd", "method_b=polyak",
    ])
    cdp_cfg = _write_config(os.path.join(workdir, "cdp.cfg"), [
        f"image={image}", f"mask_count={CDP_MASKS}",
    ])
    small = [
        _sweep_task(workdir, real_cfg, 50, 500, "gd", 0, tag="_small"),
        _h2h_task(workdir, real_cfg, 32, 0, tag="_small"),
        _loo_task(workdir, real_cfg, 20, 40, "polyak", 0, 50, tag="_small"),
        _cdp_task(workdir, cdp_cfg, "gd", 0, 20, tag="_small"),
    ]
    if workload == "sweep":
        tasks = [_sweep_task(workdir, real_cfg, n, m, method, seed)
                 for n in SWEEP_N for m in SWEEP_M for method in METHODS
                 for seed in SWEEP_SEEDS]
    elif workload == "headtohead":
        tasks = [_h2h_task(workdir, real_cfg, H2H_N, seed) for seed in H2H_SEEDS]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    for task in tasks + small:
        for path in task.csv_paths:
            os.makedirs(os.path.dirname(path), exist_ok=True)
    return Inputs(tasks=tasks, small=small)


def pass_count(workload: str, seconds: float, traced: bool) -> int:
    """Passes in a run; a traced run needs an untraced and a traced one."""
    return max(2 if traced else 1, int(seconds / PASS_SECONDS[workload]))


@dataclass
class Outcome:
    latency_s: float
    summary: dict
    csv_bytes: int
    error: str = ""  # why the output disagrees with its reference


def run_task(task: Task, recorder, cli_main, fft_call_count) -> Outcome:
    """One closed-loop CLI call, timed; outputs are parsed after the clock stops."""
    recorder.begin_task(task.id)
    fft_before = fft_call_count()
    start = time.perf_counter()
    code = cli_main(list(task.argv))
    latency = time.perf_counter() - start
    summary = {"exit": code, "fft_calls": fft_call_count() - fft_before}
    summary.update(recorder.results)
    summary.update(task.parse())
    csv_bytes = sum(os.path.getsize(path) for path in task.csv_paths)
    return Outcome(latency, summary, csv_bytes)


def _same(got, ref) -> bool:
    if isinstance(got, list) and isinstance(ref, list):
        return len(got) == len(ref) and all(_same(g, r) for g, r in zip(got, ref))
    if type(got) is float and type(ref) is float:
        return (math.isnan(got) and math.isnan(ref)) or math.isclose(
            got, ref, rel_tol=REL_TOL, abs_tol=0.0)
    return type(got) is type(ref) and got == ref


def mismatches(summary: dict, reference: dict) -> list[str]:
    """Keys whose values differ: discrete values exactly, floats to REL_TOL."""
    keys = sorted(set(summary) | set(reference))
    return [k for k in keys
            if k not in summary or k not in reference or not _same(summary[k], reference[k])]
