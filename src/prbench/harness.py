"""Experiment harness: flat-file configuration, sweep drivers, CSV emitters.

Every output is a deterministic function of the configuration.  One writer,
`_write_csv`, emits every table, and each table declares its header beside
one %-format string for its rows: `%.17g` for floats, so traces round-trip
exactly (nan, inf and -0.0 print as `format` prints them), `%d` for ints and
for booleans (1/0), and `%s` for names.  Terminal metadata rides in trailing
`# key=value` comment lines.
"""

from __future__ import annotations

import math
import os
import statistics
import typing
from dataclasses import dataclass

import numpy as np

from . import cdp as cdp_mod
from .diagnostics import QUAD_L, QUAD_MU, concentration_report, loo_run, quadratic_oracle
from .model import observe, random_ground_truth, sample_ensemble, sample_unit_sphere
from .pgm import read_pgm, write_pgm
from .ric import loo_threshold
from .solvers import (
    IterationTrace,
    Method,
    SolverParams,
    Status,
    default_params,
    override_params,
    run,
    theory_params,
)
from .spectral import random_init, spectral_init

TRACE_COLUMNS = (
    "iter", "dist", "cost", "grad_norm", "max_incoherence",
    "loc_ok", "inc_ok", "paired_norm", "contraction_ratio",
)
_TRACE_ROW = "%d,%.17g,%.17g,%.17g,%.17g,%d,%d,%.17g,%.17g"
# trace rows converted to Python values at a time by `write_trace`
_TRACE_BLOCK = 1024

# head-to-head slope fits use the iterates with tol <= dist <= FIT_FLOOR
FIT_FLOOR = 0.5


@dataclass
class ExperimentConfig:
    n_list: tuple[int, ...] = (10,)
    m_list: tuple[int, ...] = ()  # empty: use the 10 n log n rule
    seed_list: tuple[int, ...] = (0,)
    methods: tuple[str, ...] = ("gd", "polyak", "nesterov")
    init: str = "spectral"
    eta: float | None = None
    beta: float | None = None
    tol: float = 1e-7
    max_iters: int = 10_000
    out: str = "out.csv"
    # head-to-head and slope fits
    method_a: str = "gd"
    method_b: str = "polyak"
    # leave-one-out budget
    loo_budget_m: int = 256
    loo_budget_iters: int = 500
    # coded diffraction
    image: str = ""  # empty: synthetic test image
    mask_count: int = 12
    cdp_iters: int = 140
    cdp_size: int = 64


_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)


def _parse_value(name: str, text: str):
    """`text` as the type of field `name`: tuples split on commas, and an
    optional float is unset when empty."""
    text = text.strip()
    target = _FIELD_TYPES[name]
    if typing.get_origin(target) is tuple:
        item = typing.get_args(target)[0]
        return tuple(item(t.strip()) for t in text.split(",") if t.strip())
    if target == float | None:
        return None if text == "" else float(text)
    return target(text)


def parse_config(text: str) -> dict[str, str]:
    """Split flat key=value text into raw {key: value text}; blank lines and
    # comments are ignored, and a later line for a key wins."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value
    return values


def make_config(values: dict[str, str]) -> ExperimentConfig:
    """The defaults with the raw values applied, parsed and checked once."""
    for key in values:
        if key not in _FIELD_TYPES:
            raise ValueError(f"unknown config key {key!r}")
    parsed = {}
    for key, text in values.items():
        try:
            parsed[key] = _parse_value(key, text)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from exc
    cfg = ExperimentConfig(**parsed)
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    for name in ("n_list", "seed_list", "methods"):
        if not getattr(cfg, name):
            raise ValueError(f"{name} must be nonempty")
    # step, momentum, max_iters and tol go through the rule the commands
    # use; every method is checked, so a bad beta is rejected even where
    # only gradient descent (which ignores it) runs, and a bad name is
    # reported with its key
    named = [("methods", m) for m in cfg.methods] + [
        ("method_a", cfg.method_a), ("method_b", cfg.method_b)] + [("", m) for m in Method]
    for key, name in named:
        try:
            method = Method(name)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from exc
        override_params(SolverParams(method, eta=1.0), cfg.eta, cfg.beta,
                        max_iters=cfg.max_iters, tol=cfg.tol)
    if cfg.init not in ("spectral", "random"):
        raise ValueError(f"init must be spectral or random, got {cfg.init!r}")
    for seed in cfg.seed_list:
        if not 0 <= seed < 2**64:
            raise ValueError(f"seeds must lie in [0, 2**64), got {seed}")
    # range checks run before any command writes output; a one-pixel image
    # has n = 1, where the log n step-size defaults are undefined
    minimums = [("n_list", n, 2) for n in cfg.n_list] + [("m_list", m, 1) for m in cfg.m_list]
    minimums += [(name, getattr(cfg, name), low) for name, low in (
        ("mask_count", 1), ("cdp_size", 2), ("cdp_iters", 0), ("loo_budget_m", 1),
        ("loo_budget_iters", 0))]
    for name, value, low in minimums:
        if not value >= low:
            raise ValueError(f"{name} must be at least {low}, got {value}")
    # here, not in cdp_problem: the synthetic image is built before that runs
    if cfg.cdp_size ** 2 > cdp_mod.MAX_PIXELS:
        raise ValueError(f"cdp_size must be at most {math.isqrt(cdp_mod.MAX_PIXELS)}, "
                         f"got {cfg.cdp_size}")
    # a tol at or above the floor leaves the slope fit window empty
    if not cfg.tol < FIT_FLOOR:
        raise ValueError(f"tol must be below the slope fit floor {FIT_FLOOR}, got {cfg.tol}")
    # a repeated size or seed would be run, written and counted twice
    for name in ("n_list", "methods", "seed_list"):
        _check_distinct(name, getattr(cfg, name))


def _check_distinct(name: str, values) -> None:
    if len(set(values)) < len(values):
        raise ValueError(f"{name} must be distinct, got {','.join(map(str, values))}")


def theory_m(n: int) -> int:
    """Sample count m = round(10 n log n) for the theory-regime experiments."""
    return int(round(10.0 * n * math.log(n)))


def _sample_count(cfg: ExperimentConfig, n: int, idx: int = 0) -> int:
    """m for the idx-th signal size: the matching `m_list` entry if there is
    one, else the theory-regime rule."""
    return cfg.m_list[idx] if idx < len(cfg.m_list) else theory_m(n)


def _write_csv(path, header, row_format, rows, comments=()):
    """Write `header`, then `row_format % row` per row tuple, then comments.

    `%d` is only for columns that hold ints or booleans: it raises on nan and
    truncates a non-integral float, so any other number takes `%.17g`.
    """
    line = row_format + "\n"
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            fh.writelines(line % row for row in rows)
            for comment in comments:
                fh.write(f"# {comment}\n")
    except OSError as exc:
        raise OSError(f"cannot write output file {path}: {exc}") from exc


def _problem(n: int, m: int, seed: int, init: str):
    """The seed's one instance: ensemble, target x_star, observations, start."""
    ens = sample_ensemble(m, n, seed)
    x_star = random_ground_truth(n, seed)
    y = observe(ens, x_star)
    x0 = spectral_init(ens, y).x0 if init == "spectral" else random_init(n, seed)
    return ens, x_star, y, x0


def _traces(cfg: ExperimentConfig, n: int, m: int, seed: int, methods, rule):
    """Each method run on the seed's one instance, with the parameters
    `rule(n, ||x0||, method)` under the config's overrides."""
    ens, x_star, y, x0 = _problem(n, m, seed, cfg.init)
    norm_x0 = float(np.linalg.norm(x0))
    return [
        run(ens, y, x0, override_params(rule(n, norm_x0, method), cfg.eta, cfg.beta,
                                        max_iters=cfg.max_iters, tol=cfg.tol), x_star)
        for method in methods
    ]


def write_trace(path: str, trace: IterationTrace) -> None:
    columns = (
        trace.iters, trace.dist, trace.cost, trace.grad_norm,
        trace.max_incoherence, trace.loc_ok, trace.inc_ok,
        trace.paired_norm, trace.contraction_ratio,
    )
    # Python ints, floats and bools format faster than numpy scalars; one
    # block of rows is converted at a time
    rows = (
        row
        for lo in range(0, len(trace.iters), _TRACE_BLOCK)
        for row in zip(*(column[lo:lo + _TRACE_BLOCK].tolist() for column in columns))
    )
    _write_csv(path, TRACE_COLUMNS, _TRACE_ROW, rows,
               comments=[f"status={trace.status.value}"])


def cmd_run(cfg: ExperimentConfig) -> int:
    n, seed, method = cfg.n_list[0], cfg.seed_list[0], cfg.methods[0]
    m = _sample_count(cfg, n)
    write_trace(cfg.out, _traces(cfg, n, m, seed, (method,), default_params)[0])
    return 0


def headtohead_slope(cfg: ExperimentConfig, n: int, m: int, seed: int):
    """Run methods a and b from the same start; returns (rows, slope, statuses).

    Both arms use the rate-analysis defaults under the eta and beta
    overrides of `solvers.override_params`.  The rows are the pairs
    (log dist_a(t), log dist_b(t)) over the t where both distances lie in
    [tol, FIT_FLOOR], and the slope is their least-squares fit (nan for
    fewer than two pairs).
    """
    trace_a, trace_b = _traces(cfg, n, m, seed, (cfg.method_a, cfg.method_b), theory_params)
    statuses = (trace_a.status, trace_b.status)
    if not (trace_a.converged and trace_b.converged):
        return [], math.nan, statuses
    t_max = min(trace_a.dist.shape[0], trace_b.dist.shape[0])
    da, db = trace_a.dist[:t_max], trace_b.dist[:t_max]
    keep = (da >= cfg.tol) & (da <= FIT_FLOOR) & (db >= cfg.tol) & (db <= FIT_FLOOR)
    log_a, log_b = np.log(da[keep]), np.log(db[keep])
    rows = [(seed, int(t), la, lb) for t, la, lb in zip(np.flatnonzero(keep), log_a, log_b)]
    slope = float(np.polyfit(log_a, log_b, 1)[0]) if len(rows) >= 2 else math.nan
    return rows, slope, statuses


def cmd_headtohead(cfg: ExperimentConfig) -> int:
    n = cfg.n_list[0]
    m = _sample_count(cfg, n)
    all_rows, comments, slopes = [], [], []
    for seed in cfg.seed_list:
        rows, slope, statuses = headtohead_slope(cfg, n, m, seed)
        all_rows.extend(rows)
        comments.append(
            f"seed_{seed}: status_a={statuses[0].value} status_b={statuses[1].value}"
        )
        if math.isfinite(slope):
            comments.append(f"slope_seed_{seed}={slope:.17g}")
            slopes.append(slope)
    if slopes:
        comments.append(f"mean_slope={statistics.fmean(slopes):.17g}")
    _write_csv(cfg.out, ("seed", "iter", "log_dist_a", "log_dist_b"), "%d,%d,%.17g,%.17g",
               all_rows, comments=comments)
    return 0


def cmd_slopes(cfg: ExperimentConfig) -> int:
    if len(cfg.n_list) < 3:
        raise ValueError("slope experiments need at least three n values")
    if len(cfg.m_list) > len(cfg.n_list):
        raise ValueError(f"m_list: slopes reads one m per n, got {len(cfg.m_list)} m "
                         f"for {len(cfg.n_list)} n")
    rows = []
    for idx, n in enumerate(cfg.n_list):
        m = _sample_count(cfg, n, idx)
        slopes = []
        for seed in cfg.seed_list:
            _, slope, _ = headtohead_slope(cfg, n, m, seed)
            if math.isfinite(slope):
                slopes.append(slope)
        mean_slope = statistics.fmean(slopes) if slopes else math.nan
        reference = math.sqrt(math.log(n))
        ok = math.isfinite(mean_slope) and abs(mean_slope - reference) <= 0.3 * reference
        rows.append((n, m, len(slopes), mean_slope, reference, ok))
    all_fit = all(row[2] == len(cfg.seed_list) for row in rows)
    means = [row[3] for row in sorted(rows)]
    monotone = all(a <= b for a, b in zip(means, means[1:]))
    _write_csv(cfg.out, ("n", "m", "seeds", "mean_slope", "sqrt_log_n", "ok"),
               "%d,%d,%d,%.17g,%.17g,%d", rows,
               comments=[f"every_seed_fit={int(all_fit)}", f"means_monotone={int(monotone)}"])
    return 0 if all_fit and monotone and all(row[-1] for row in rows) else 1


def sweep_cell(cfg: ExperimentConfig, n: int, m: int, out_dir=None):
    """Every method run on each seed's instance of the (n, m) cell; returns
    one summary row per method, in `cfg.methods` order."""
    runs = [_traces(cfg, n, m, seed, cfg.methods, default_params) for seed in cfg.seed_list]
    rows = []
    for method, traces in zip(map(Method, cfg.methods), zip(*runs)):
        for seed, trace in zip(cfg.seed_list, traces):
            if out_dir is not None:
                name = f"n{n}_m{m}_{method.value}_{cfg.init}_s{seed}.csv"
                write_trace(os.path.join(out_dir, name), trace)
        iters = [trace.n_steps if trace.converged else math.inf for trace in traces]
        median_iters = statistics.median(iters)
        rows.append((
            n, m, method.value, cfg.init, len(cfg.seed_list),
            sum(trace.converged for trace in traces),
            sum(trace.status is Status.DIVERGED for trace in traces),
            median_iters if math.isfinite(median_iters) else math.nan,
        ))
    return rows


def momentum_dominates(cfg: ExperimentConfig, rows) -> bool:
    """Whether one cell's `sweep_cell` rows pass: where GD's median is
    finite, each momentum method run with beta > 0 has a smaller median, and
    two such medians lie within 10% of the larger.  At n <= 7 the default
    beta clamps to 0, so such a cell is not judged."""
    medians = {Method(row[2]): row[-1] for row in rows}
    gd = medians.pop(Method.GD, math.nan)
    # beta does not depend on the start's norm
    momentum = [median for method, median in medians.items()
                if override_params(default_params(rows[0][0], 1.0, method),
                                   cfg.eta, cfg.beta).beta > 0]
    if not (math.isfinite(gd) and momentum):
        return True
    return (all(median < gd for median in momentum)
            and max(momentum) - min(momentum) <= 0.1 * max(momentum))


def cmd_sweep(cfg: ExperimentConfig) -> int:
    # `slopes` may give several n the same m, a sweep's grid may not
    _check_distinct("m_list", cfg.m_list)
    os.makedirs(cfg.out, exist_ok=True)
    rows, dominates = [], True
    for n in cfg.n_list:
        m_values = cfg.m_list if cfg.m_list else (theory_m(n),)
        for m in m_values:
            cell = sweep_cell(cfg, n, m, out_dir=cfg.out)
            dominates = momentum_dominates(cfg, cell) and dominates
            rows.extend(cell)
    # median_iters is nan for a cell with no converged seed and x.5 for an
    # even seed count, so it is a float column
    _write_csv(
        os.path.join(cfg.out, "summary.csv"),
        ("n", "m", "method", "init", "seeds", "converged", "diverged", "median_iters"),
        "%d,%d,%s,%s,%d,%d,%d,%.17g", rows, comments=[f"momentum_dominates={int(dominates)}"],
    )
    return 0 if dominates else 1


def cmd_loo(cfg: ExperimentConfig) -> int:
    n, seed = cfg.n_list[0], cfg.seed_list[0]
    m = _sample_count(cfg, n)
    # the O(m^2 n T) cost guard: m is refused before anything is sampled,
    # and the step count is clamped to the budget
    if m > cfg.loo_budget_m:
        raise ValueError(f"leave-one-out budget allows m <= {cfg.loo_budget_m}, got {m}")
    method = cfg.methods[0]
    ens, x_star, y, x0 = _problem(n, m, seed, cfg.init)
    params = override_params(
        default_params(n, float(np.linalg.norm(x0)), method), cfg.eta, cfg.beta,
        max_iters=min(cfg.max_iters, cfg.loo_budget_iters), tol=cfg.tol,
    )
    proximity = loo_run(ens, y, x0, params, x_star).proximity
    threshold = loo_threshold(n)
    rows = [(t, p, threshold, p <= threshold) for t, p in enumerate(proximity)]
    within = all(row[-1] for row in rows)
    _write_csv(cfg.out, ("iter", "proximity", "threshold", "ok"), "%d,%.17g,%.17g,%d", rows,
               comments=[f"within_threshold={int(within)}"])
    return 0 if within else 1


def cmd_oracle(cfg: ExperimentConfig) -> int:
    kappa = QUAD_L / QUAD_MU
    # the textbook rate plus a slack
    bounds = {
        Method.GD: 1.0 - 1.0 / kappa + 0.005,
        Method.POLYAK: (math.sqrt(kappa) - 1.0) / (math.sqrt(kappa) + 1.0) + 0.02,
        Method.NESTEROV: 1.0 - 1.0 / math.sqrt(kappa) + 0.02,
    }
    rows = []
    for method in (Method.GD, Method.POLYAK, Method.NESTEROV):
        measured = quadratic_oracle(method)
        rows.append((method.value, measured, bounds[method], measured < bounds[method]))
    below_gd = all(row[1] < rows[0][1] for row in rows[1:])
    _write_csv(cfg.out, ("method", "measured_ratio", "bound", "ok"), "%s,%.17g,%.17g,%d", rows,
               comments=[f"momentum_below_gd={int(below_gd)}"])
    return 0 if below_gd and all(row[-1] for row in rows) else 1


def cmd_concentration(cfg: ExperimentConfig) -> int:
    n = cfg.n_list[0]
    m = _sample_count(cfg, n)
    rows = [(seed, *concentration_report(sample_ensemble(m, n, seed),
                                         sample_unit_sphere(n, seed)))
            for seed in cfg.seed_list]
    _write_csv(
        cfg.out,
        ("seed", "max_row_norm", "row_bound", "row_ok",
         "max_projection", "proj_bound", "proj_ok"),
        "%d,%.17g,%.17g,%d,%.17g,%.17g,%d", rows,
    )
    return 0 if all(row[3] and row[6] for row in rows) else 1


def cmd_cdp(cfg: ExperimentConfig) -> int:
    if cfg.image:
        image = read_pgm(cfg.image)
    else:
        image = cdp_mod.synthetic_image(cfg.cdp_size, cfg.cdp_size)
    problem = cdp_mod.cdp_problem(image, cfg.mask_count, cfg.seed_list[0])
    # every run finishes before the output directory exists, so a failed
    # command leaves nothing behind
    traces = [cdp_mod.cdp_run(problem, method, cfg.cdp_iters, eta=cfg.eta, beta=cfg.beta)
              for method in cfg.methods]
    os.makedirs(cfg.out, exist_ok=True)
    for trace in traces:
        write_pgm(
            os.path.join(cfg.out, f"recovered_{trace.method.value}.pgm"),
            np.abs(trace.recovered),
        )
    rows = [(trace.method.value, t, err)
            for trace in traces for t, err in enumerate(trace.rel_err)]
    finals = {trace.method: float(trace.rel_err[-1]) for trace in traces}
    comments = [f"final_{m.value}={v:.17g}" for m, v in finals.items()]
    comments += [f"status_{trace.method.value}={trace.status.value}" for trace in traces]
    gd = finals.get(Method.GD)
    ok = gd is None or all(err < gd for m, err in finals.items() if m is not Method.GD)
    # a diverged method fails the run whether or not GD ran beside it
    none_diverged = all(trace.status is not Status.DIVERGED for trace in traces)
    # one forward and one inverse transform per mask in every step of every method
    parity = all(calls == 2 * cfg.mask_count
                 for trace in traces for calls in trace.fft_calls_per_iter)
    comments += [f"accelerated_below_gd={int(ok)}", f"none_diverged={int(none_diverged)}",
                 f"fft_parity={int(parity)}"]
    _write_csv(os.path.join(cfg.out, "errors.csv"), ("method", "iter", "rel_err"), "%s,%d,%.17g",
               rows, comments=comments)
    return 0 if ok and none_diverged and parity else 1


# each command: its function, the keys it reads, and the list keys it reads
# one value of; `cli.main` checks the user's flags and file against them
_RUN_KEYS = ("n_list", "m_list", "seed_list", "methods", "init", "eta", "beta", "tol",
             "max_iters", "out")
_PAIR_KEYS = ("n_list", "m_list", "seed_list", "init", "eta", "beta", "tol", "max_iters",
              "out", "method_a", "method_b")
_ONE_RUN = ("n_list", "m_list", "seed_list", "methods")
COMMANDS = {
    "run": (cmd_run, _RUN_KEYS, _ONE_RUN),
    "sweep": (cmd_sweep, _RUN_KEYS, ()),
    "headtohead": (cmd_headtohead, _PAIR_KEYS, ("n_list", "m_list")),
    "slopes": (cmd_slopes, _PAIR_KEYS, ()),
    "loo": (cmd_loo, _RUN_KEYS + ("loo_budget_m", "loo_budget_iters"), _ONE_RUN),
    "oracle": (cmd_oracle, ("out",), ()),
    "cdp": (cmd_cdp, ("seed_list", "methods", "eta", "beta", "out", "image", "mask_count",
                      "cdp_iters", "cdp_size"), ("seed_list",)),
    "concentration": (cmd_concentration, ("n_list", "m_list", "seed_list", "out"),
                      ("n_list", "m_list")),
}
