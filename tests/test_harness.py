import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from prbench import cdp, cli, harness, objective
from prbench.harness import (
    ExperimentConfig,
    headtohead_slope,
    make_config,
    parse_config,
    theory_m,
)
from prbench.pgm import read_pgm, write_pgm
from prbench.solvers import IterationTrace, Status

from reference import _fmt


class TestConfig:
    def test_parse_list_float_and_string_keys(self):
        text = (
            "n_list=10, 50\nm_list=200,500\nseed_list=0,1,2\nmethods=gd,polyak\n"
            "eta=0.01\ntol=1e-5\nout=d\ninit=random\n"
        )
        assert make_config(parse_config(text)) == ExperimentConfig(
            n_list=(10, 50), m_list=(200, 500), seed_list=(0, 1, 2),
            methods=("gd", "polyak"), eta=0.01, tol=1e-5, out="d", init="random",
        )

    def test_parse_ignores_comments_and_blanks(self):
        values = parse_config("# hello\n\nn_list=4,8\nn_list=5\n")
        assert values == {"n_list": "5"}
        assert make_config(values).n_list == (5,)

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown config key 'bogus'"):
            make_config(parse_config("bogus=1\n"))

    def test_malformed_line(self):
        with pytest.raises(ValueError, match="line 2: expected key=value"):
            parse_config("n_list=4\njust words\n")

    def test_overrides(self):
        cfg = make_config({"tol": "1e-5", "methods": "gd"})
        assert cfg.tol == 1e-5
        assert cfg.methods == ("gd",)

    def test_invalid_method_rejected(self):
        with pytest.raises(ValueError):
            make_config({"methods": "newton"})

    def test_theory_m(self):
        assert theory_m(64) == int(round(640 * math.log(64)))


class TestCmdRun:
    def cfg(self, tmp_path, **kw):
        base = dict(n_list=(10,), m_list=(200,), seed_list=(0,),
                    methods=("gd",), out=str(tmp_path / "trace.csv"))
        base.update(kw)
        return ExperimentConfig(**base)

    def test_smoke_columns_and_status(self, tmp_path):
        cfg = self.cfg(tmp_path)
        assert harness.cmd_run(cfg) == 0
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0] == "iter,dist,cost,grad_norm,max_incoherence,loc_ok,inc_ok,paired_norm,contraction_ratio"
        assert len(lines) > 2
        assert lines[-1] == "# status=converged"

    def test_rerun_byte_identical(self, tmp_path):
        cfg_a = self.cfg(tmp_path, out=str(tmp_path / "a.csv"))
        cfg_b = self.cfg(tmp_path, out=str(tmp_path / "b.csv"))
        harness.cmd_run(cfg_a)
        harness.cmd_run(cfg_b)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_unwritable_path_names_path(self, tmp_path):
        bad = str(tmp_path / "no_such_dir" / "t.csv")
        with pytest.raises(OSError, match="no_such_dir"):
            harness.cmd_run(self.cfg(tmp_path, out=bad))


class TestCallOrder:
    # the bench records each `harness.run` result as the call returns, and
    # its reference lists them in this order: runs must not overlap or reorder
    @pytest.fixture
    def calls(self, monkeypatch):
        events, run = [], harness.run

        def recorded(*args, **kwargs):
            method = args[3].method.value
            events.append(("start", method))
            trace = run(*args, **kwargs)
            events.append(("end", method))
            return trace

        monkeypatch.setattr(harness, "run", recorded)
        return events

    @staticmethod
    def serial(methods):
        return [(event, m) for m in methods for event in ("start", "end")]

    def test_headtohead_runs_a_then_b(self, calls):
        cfg = ExperimentConfig(n_list=(10,), method_a="polyak", method_b="gd")
        headtohead_slope(cfg, 10, 200, 0)
        assert calls == self.serial(["polyak", "gd"])

    def test_sweep_cell_runs_methods_in_order_per_seed(self, calls):
        cfg = ExperimentConfig(seed_list=(0, 1), methods=("nesterov", "gd", "polyak"))
        harness.sweep_cell(cfg, 10, 200)
        assert calls == self.serial(["nesterov", "gd", "polyak"] * 2)


class TestHeadToHead:
    def test_self_comparison_slope_one(self, tmp_path):
        cfg = ExperimentConfig(
            n_list=(16,), seed_list=(0,), method_a="gd", method_b="gd",
            out=str(tmp_path / "h.csv"),
        )
        _, slope, statuses = headtohead_slope(cfg, 16, theory_m(16), 0)
        assert slope == pytest.approx(1.0, abs=1e-6)

    def test_accelerated_slope_above_one(self, tmp_path):
        cfg = ExperimentConfig(n_list=(32,), seed_list=(0, 1))
        slopes = [headtohead_slope(cfg, 32, theory_m(32), s)[1] for s in (0, 1)]
        assert all(s > 1.0 for s in slopes)

    def test_cmd_writes_pairs_and_slope(self, tmp_path):
        out = tmp_path / "h.csv"
        cfg = ExperimentConfig(n_list=(16,), seed_list=(0,), out=str(out))
        assert harness.cmd_headtohead(cfg) == 0
        text = out.read_text()
        assert text.splitlines()[0] == "seed,iter,log_dist_a,log_dist_b"
        assert "# mean_slope=" in text

    def test_nonconvergence_reported_without_slope(self, tmp_path):
        out = tmp_path / "h.csv"
        cfg = ExperimentConfig(
            n_list=(16,), m_list=(48,), seed_list=(0,), max_iters=50,
            out=str(out),
        )
        assert harness.cmd_headtohead(cfg) == 0
        text = out.read_text()
        assert "status_a=max_iters" in text
        assert "slope_seed" not in text

    def test_output_across_blas_thread_counts(self, tmp_path):
        # importing prbench pins OpenBLAS to one thread, so the bytes do not
        # depend on OPENBLAS_NUM_THREADS: unset, 1 and 2 give one file.  At
        # n=128 and m=6211, one and two OpenBLAS threads sum the products in
        # different orders, so without the pin the values would differ
        src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.pop("OPENBLAS_NUM_THREADS", None)
        outputs = []
        for threads in ({}, {"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"}):
            out = tmp_path / f"h{len(outputs)}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "prbench.cli", "headtohead", "--n_list", "128",
                 "--seed_list", "0", "--out", str(out)],
                env=dict(env, **threads), capture_output=True, text=True, check=False,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert b"# seed_0: status_a=converged status_b=converged\n" in outputs[0]
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_split_products_keep_the_bytes(self, tmp_path):
        # the two-thread products of `objective.project` and
        # `objective.project_t` give the bits of one call: the output
        # equals that of a run whose floors are out of reach, so that every
        # product is serial.  Both floors sit at `project`'s, which the
        # 6211 x 128 ensemble passes
        src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = ("import sys; from prbench import cli, objective; "
                "objective.SPLIT_MIN_VALUES = objective.SPLIT_T_MIN_VALUES = int(sys.argv[1]); "
                "sys.exit(cli.main(sys.argv[2:]))")
        outputs = []
        for floor in (objective.SPLIT_MIN_VALUES, 2**62):
            out = tmp_path / f"h{floor}.csv"
            proc = subprocess.run(
                [sys.executable, "-c", code, str(floor), "headtohead", "--n_list", "128",
                 "--seed_list", "0", "--out", str(out)],
                env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
                check=False,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert theory_m(128) * 128 >= objective.SPLIT_MIN_VALUES
        assert outputs[0] == outputs[1]


class TestSlopes:
    def test_requires_three_sizes(self, tmp_path):
        cfg = ExperimentConfig(n_list=(16, 32), out=str(tmp_path / "s.csv"))
        with pytest.raises(ValueError, match="three"):
            harness.cmd_slopes(cfg)

    def test_rows_and_reference(self, tmp_path):
        # every mean lies in its band, but n=24's (1.611) is below n=16's (1.662)
        out = tmp_path / "s.csv"
        cfg = ExperimentConfig(n_list=(16, 24, 32), seed_list=(0,), out=str(out))
        assert harness.cmd_slopes(cfg) == 1
        lines = out.read_text().splitlines()
        assert lines[0] == "n,m,seeds,mean_slope,sqrt_log_n,ok"
        refs = [float(line.split(",")[4]) for line in lines[1:4]]
        assert refs == [pytest.approx(math.sqrt(math.log(n))) for n in (16, 24, 32)]
        assert all(line.endswith(",1") for line in lines[1:4])
        assert lines[4:] == ["# every_seed_fit=1", "# means_monotone=0"]

    def test_a_seed_without_slope_fails(self, tmp_path, monkeypatch):
        def slope(cfg, n, m, seed):
            return [], math.nan if seed == 1 else math.sqrt(math.log(n)), ()

        monkeypatch.setattr(harness, "headtohead_slope", slope)
        out = tmp_path / "s.csv"
        cfg = ExperimentConfig(n_list=(16, 24, 32), seed_list=(0, 1), out=str(out))
        assert harness.cmd_slopes(cfg) == 1
        lines = out.read_text().splitlines()
        assert all(line.endswith(",1") for line in lines[1:4])
        assert lines[4:] == ["# every_seed_fit=0", "# means_monotone=1"]

    @pytest.mark.parametrize("factor, code", [(1.29, 0), (1.31, 1), (0.71, 0), (0.69, 1)])
    def test_band_boundary(self, tmp_path, monkeypatch, factor, code):
        # every seed's slope at factor * sqrt(log n): inside the 30% band,
        # then just past it on either side
        def slope(cfg, n, m, seed):
            return [], factor * math.sqrt(math.log(n)), ()

        monkeypatch.setattr(harness, "headtohead_slope", slope)
        out = tmp_path / "s.csv"
        cfg = ExperimentConfig(n_list=(16, 24, 32), seed_list=(0, 1), out=str(out))
        assert harness.cmd_slopes(cfg) == code
        lines = out.read_text().splitlines()
        assert [line[-1] for line in lines[1:4]] == [str(1 - code)] * 3
        assert lines[4:] == ["# every_seed_fit=1", "# means_monotone=1"]


class TestSweep:
    def test_grid_outputs(self, tmp_path):
        out = tmp_path / "sweep"
        cfg = ExperimentConfig(
            n_list=(10,), m_list=(200, 300), seed_list=(0, 1),
            methods=("gd", "polyak"), out=str(out),
        )
        assert harness.cmd_sweep(cfg) == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0] == "n,m,method,init,seeds,converged,diverged,median_iters"
        assert len(lines) == 6
        assert lines[-1] == "# momentum_dominates=1"
        assert (out / "n10_m200_gd_spectral_s0.csv").exists()
        assert (out / "n10_m300_polyak_spectral_s1.csv").exists()

    def test_momentum_beats_gd_in_summary(self, tmp_path):
        out = tmp_path / "sweep2"
        cfg = ExperimentConfig(
            n_list=(10,), m_list=(200,), seed_list=(0, 1, 2),
            methods=("gd", "polyak"), out=str(out),
        )
        assert harness.cmd_sweep(cfg) == 0
        assert (out / "summary.csv").read_text().endswith("\n# momentum_dominates=1\n")

    @pytest.mark.parametrize("argv, medians, code", [
        # heavy ball far above GD; then both below GD, but not within 10%
        (["--n_list", "10", "--m_list", "200", "--beta", "0.99"], ["577", "2828", "726"], 1),
        (["--n_list", "10", "--m_list", "200", "--beta", "0.95"], ["577", "559", "345"], 1),
        # at n=7 the default momentum clamps to 0: three GD runs, not judged
        (["--n_list", "7", "--m_list", "100"], ["417"] * 3, 0),
    ])
    def test_dominance_rule(self, tmp_path, argv, medians, code):
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--seed_list", "0", "--out", str(out)] + argv) == code
        lines = (out / "summary.csv").read_text().splitlines()
        assert [line.split(",")[-1] for line in lines[1:4]] == medians
        assert lines[4:] == [f"# momentum_dominates={1 - code}"]

    @pytest.mark.parametrize("momentum, dominates", [
        # two momentum medians within 10% of the larger pass, one past it fails
        ((90, 81), True), ((90, 80.9), False), ((81, 90), True), ((80.9, 90), False),
        # a momentum median must lie strictly below GD's
        ((100, 91), False), ((91, 100), False),
    ])
    def test_dominance_boundary(self, momentum, dominates):
        # hand-built `sweep_cell` rows at n=100, where both momentum methods
        # run with beta > 0, and a GD median of 100
        rows = [(100, 1000, method, "spectral", 5, 5, 0, median)
                for method, median in zip(("gd", "polyak", "nesterov"), (100, *momentum))]
        assert harness.momentum_dominates(ExperimentConfig(), rows) is dominates


class TestWrappedCommands:
    def test_oracle(self, tmp_path):
        out = tmp_path / "oracle.csv"
        cfg = ExperimentConfig(out=str(out))
        assert harness.cmd_oracle(cfg) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "method,measured_ratio,bound,ok"
        assert float(lines[1].split(",")[1]) == pytest.approx(0.99, abs=0.005)
        assert lines[4:] == ["# momentum_below_gd=1"]

    def test_oracle_momentum_above_gd_fails(self, tmp_path, monkeypatch):
        # within every bound, but heavy ball and Nesterov no faster than GD
        monkeypatch.setattr(harness, "quadratic_oracle", lambda method: 0.5)
        out = tmp_path / "oracle.csv"
        assert harness.cmd_oracle(ExperimentConfig(out=str(out))) == 1
        lines = out.read_text().splitlines()
        assert all(line.endswith(",1") for line in lines[1:4])
        assert lines[4:] == ["# momentum_below_gd=0"]

    # each method's textbook rate at kappa = 100 plus its slack
    ORACLE_BOUNDS = {"gd": 0.995, "polyak": 9 / 11 + 0.02, "nesterov": 0.92}

    @pytest.mark.parametrize("over", [None, "gd", "polyak", "nesterov"])
    def test_oracle_bound_boundary(self, tmp_path, monkeypatch, over):
        # every ratio 1e-3 below its method's bound passes; one 1e-3 above
        # fails that method's row and the command
        def ratio(method):
            return self.ORACLE_BOUNDS[method.value] + (1e-3 if method.value == over else -1e-3)

        monkeypatch.setattr(harness, "quadratic_oracle", ratio)
        out = tmp_path / "oracle.csv"
        assert harness.cmd_oracle(ExperimentConfig(out=str(out))) == (over is not None)
        rows = [line.split(",") for line in out.read_text().splitlines()[1:4]]
        assert [row[0] for row in rows] == list(self.ORACLE_BOUNDS)
        assert [float(row[2]) for row in rows] == pytest.approx(
            list(self.ORACLE_BOUNDS.values()), abs=1e-12)
        assert [row[3] for row in rows] == ["0" if row[0] == over else "1" for row in rows]

    def test_concentration(self, tmp_path):
        out = tmp_path / "conc.csv"
        cfg = ExperimentConfig(n_list=(100,), m_list=(1000,), seed_list=(0, 1),
                               out=str(out))
        assert harness.cmd_concentration(cfg) == 0
        assert len(out.read_text().splitlines()) == 3

    def test_loo(self, tmp_path):
        out = tmp_path / "loo.csv"
        cfg = ExperimentConfig(
            n_list=(16,), m_list=(32,), seed_list=(1,), methods=("polyak",),
            max_iters=60, out=str(out),
        )
        code = harness.cmd_loo(cfg)
        lines = out.read_text().splitlines()
        assert lines[0] == "iter,proximity,threshold,ok"
        assert lines[1].startswith("0,0,")
        assert code in (0, 1)

    def test_loo_failed_flag_exits_one(self, tmp_path):
        # under-sampled cell whose early proximity is known to break the
        # threshold; the failed flag must surface as exit code 1.  This and
        # TestCli.test_failed_flag_exits_one_via_cli carry the m=256 violation
        # (seed 4: proximity 1.3286 > 1.0730 at t=3) that acceptance
        # criterion 8, which runs at m = n log n, does not check
        out = tmp_path / "loo_fail.csv"
        cfg = ExperimentConfig(
            n_list=(100,), m_list=(256,), seed_list=(4,), methods=("polyak",),
            max_iters=60, out=str(out),
        )
        assert harness.cmd_loo(cfg) == 1
        assert "within_threshold=0" in out.read_text()

    def test_cdp(self, tmp_path):
        out = tmp_path / "cdp"
        cfg = ExperimentConfig(
            seed_list=(0,), methods=("gd", "polyak"), cdp_size=8,
            mask_count=3, cdp_iters=5, out=str(out),
        )
        code = harness.cmd_cdp(cfg)
        assert code in (0, 1)
        lines = (out / "errors.csv").read_text().splitlines()
        assert lines[0] == "method,iter,rel_err"
        assert (out / "recovered_gd.pgm").exists()
        assert (out / "recovered_polyak.pgm").exists()
        assert any(l.startswith("# accelerated_below_gd=") for l in lines)
        assert lines[-5:-3] == ["# status_gd=max_iters", "# status_polyak=max_iters"]
        assert lines[-2:] == ["# none_diverged=1", "# fft_parity=1"]

    def test_cdp_fft_parity_failure_exits_one(self, tmp_path, monkeypatch):
        # a gradient that spends one transform more than 2 mask_count
        original = cdp.cdp_gradient

        def wasteful(z, y, masks):
            cdp._forward(z, masks[:1])
            return original(z, y, masks)

        monkeypatch.setattr(cdp, "cdp_gradient", wasteful)
        out = tmp_path / "cdp"
        assert cli.main(["cdp", "--cdp_size", "8", "--mask_count", "3", "--cdp_iters", "5",
                         "--out", str(out)]) == 1
        lines = (out / "errors.csv").read_text().splitlines()
        assert lines[-3:] == ["# accelerated_below_gd=1", "# none_diverged=1", "# fft_parity=0"]


def reference_csv(header, rows, comments=()) -> str:
    """A table as one `_fmt` call per value writes it."""
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    lines += [f"# {comment}" for comment in comments]
    return "".join(line + "\n" for line in lines)


class TestRowFormats:
    """Each table's row format writes the bytes of the per-value formatter."""

    def assert_trace_matches(self, path, trace):
        harness.write_trace(str(path), trace)
        rows = zip(
            trace.iters, trace.dist, trace.cost, trace.grad_norm,
            trace.max_incoherence, trace.loc_ok, trace.inc_ok,
            trace.paired_norm, trace.contraction_ratio,
        )
        expected = reference_csv(harness.TRACE_COLUMNS, rows, [f"status={trace.status.value}"])
        # compared as lists of lines, which pytest reports quickly on failure
        assert path.read_text().split("\n") == expected.split("\n")

    def test_overflow_trace(self, tmp_path):
        ens, x_star, y, x0 = harness._problem(10, 60, 0, "spectral")
        params = harness.default_params(10, float(np.linalg.norm(x0)), "gd")
        trace = harness.run(ens, y, x0, harness.override_params(params, 1e300, None), x_star)
        # row 1 holds inf, nan and a finite value above 1e300
        assert trace.dist[1] == math.inf and math.isnan(trace.grad_norm[1])
        assert 1e300 < trace.max_incoherence[1] < math.inf
        self.assert_trace_matches(tmp_path / "t.csv", trace)

    def test_trace_spans_blocks(self, tmp_path):
        # two and a half row blocks, with a value that changes on every row
        size = 5 * harness._TRACE_BLOCK // 2
        floats = np.sqrt(np.arange(size) + 0.5)
        flags = np.arange(size) % 3 == 0
        trace = IterationTrace(
            iters=np.arange(size), dist=floats, cost=-floats, grad_norm=floats[::-1].copy(),
            max_incoherence=floats * 0.1, loc_ok=flags, inc_ok=~flags,
            paired_norm=floats ** 2, contraction_ratio=1.0 / floats,
            status=Status.CONVERGED, sign=1.0,
        )
        self.assert_trace_matches(tmp_path / "t.csv", trace)

    @given(st.lists(st.tuples(st.floats(), st.booleans()), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_trace_special_values(self, tmp_path, values):
        special = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308]
        floats = np.array([v for v, _ in values] + special)
        flags = np.array([flag for _, flag in values] + [True, False] * 3 + [True])
        trace = IterationTrace(
            iters=np.arange(floats.size), dist=floats, cost=-floats,
            grad_norm=floats[::-1].copy(), max_incoherence=floats * 0.1,
            loc_ok=flags, inc_ok=~flags, paired_norm=floats, contraction_ratio=floats,
            status=Status.MAX_ITERS, sign=1.0,
        )
        self.assert_trace_matches(tmp_path / "t.csv", trace)

    @pytest.mark.parametrize("argv", [
        ["run", "--n_list", "10", "--m_list", "60", "--eta", "1e300"],
        # n=50 has cells with no converged seed (nan) beside x.5 medians at n=10
        ["sweep", "--n_list", "10,50", "--m_list", "200", "--seed_list", "0,1",
         "--init", "random", "--max_iters", "1000"],
        ["headtohead", "--n_list", "16", "--seed_list", "0,1"],
        ["slopes", "--n_list", "16,24,32", "--seed_list", "0"],
        ["loo", "--n_list", "16", "--m_list", "32", "--seed_list", "1",
         "--methods", "polyak", "--max_iters", "60"],
        ["oracle"],
        ["concentration", "--n_list", "100", "--m_list", "1000", "--seed_list", "0,1"],
        ["cdp", "--cdp_size", "8", "--mask_count", "3", "--cdp_iters", "10"],
    ])
    def test_every_table(self, tmp_path, monkeypatch, argv):
        tables = []
        original = harness._write_csv

        def spy(path, header, row_format, rows, comments=()):
            rows = list(rows)
            tables.append((path, header, rows, list(comments)))
            original(path, header, row_format, rows, comments)

        monkeypatch.setattr(harness, "_write_csv", spy)
        assert cli.main(argv + ["--out", str(tmp_path / "out")]) in (0, 1)
        assert tables
        for path, header, rows, comments in tables:
            with open(path, encoding="utf-8") as fh:
                assert fh.read() == reference_csv(header, rows, comments)
        if argv[0] == "sweep":
            medians = [row[-1] for row in tables[-1][2]]
            assert any(math.isnan(v) for v in medians)
            assert any(v % 1 == 0.5 for v in medians)


class TestSharedInstance:
    """Every method of a command runs on the one instance drawn for its seed."""

    @staticmethod
    def counting(monkeypatch, module, name):
        calls = []
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
        return calls

    def test_sweep_starts_once_per_cell_and_seed(self, tmp_path, monkeypatch):
        calls = self.counting(monkeypatch, harness, "spectral_init")
        common = dict(n_list=(10,), m_list=(100, 200), seed_list=(0, 1))
        methods = ("gd", "polyak", "nesterov")
        both = tmp_path / "all"
        assert harness.cmd_sweep(ExperimentConfig(methods=methods, out=str(both), **common)) == 0
        assert sorted(ens.m for ens, _ in calls) == [100, 100, 200, 200]
        summary = (both / "summary.csv").read_text().splitlines()
        assert len(list(both.glob("n*.csv"))) == 12
        # a three-method sweep writes the bytes of three single-method sweeps
        for method in methods:
            single = tmp_path / method
            harness.cmd_sweep(ExperimentConfig(methods=(method,), out=str(single), **common))
            traces = sorted(single.glob("n*.csv"))
            assert len(traces) == 4
            for trace in traces:
                assert trace.read_bytes() == (both / trace.name).read_bytes()
            rows = (single / "summary.csv").read_text().splitlines()
            assert rows[1:-1] == [row for row in summary[1:-1] if row.split(",")[2] == method]

    def test_cdp_starts_once(self, tmp_path, monkeypatch):
        calls = self.counting(monkeypatch, cdp, "cdp_spectral_init")
        common = dict(seed_list=(0,), cdp_size=8, mask_count=3, cdp_iters=5)
        methods = ("gd", "polyak", "nesterov")
        both = tmp_path / "all"
        harness.cmd_cdp(ExperimentConfig(methods=methods, out=str(both), **common))
        assert len(calls) == 1
        lines = (both / "errors.csv").read_text().splitlines()
        for method in methods:
            single = tmp_path / method
            harness.cmd_cdp(ExperimentConfig(methods=(method,), out=str(single), **common))
            own = [line for line in (single / "errors.csv").read_text().splitlines()
                   if line.startswith(method + ",")]
            assert own and own == [line for line in lines if line.startswith(method + ",")]
            image = f"recovered_{method}.pgm"
            assert (single / image).read_bytes() == (both / image).read_bytes()

    def test_instances_are_read_only(self):
        # every method runs on the same arrays, so none may write them
        ens, x_star, y, _ = harness._problem(10, 60, 0, "spectral")
        masks = cdp.cdp_problem(cdp.synthetic_image(8, 8), 3, 0).masks
        for array in (ens.rows, x_star, y, masks):
            assert not array.flags.writeable


class TestCli:
    def test_usage_error_exit_two(self, capsys):
        assert cli.main(["run", "--bogus"]) == 2
        assert "prbench" in capsys.readouterr().err

    def test_unknown_key_exit_two(self, capsys):
        assert cli.main(["run", "--frobnicate", "1"]) == 2

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["run", "--config"]])
    def test_usage_error_returns_two_with_one_line(self, capsys, argv):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("prbench: ")

    @pytest.mark.parametrize("argv", [["-h"], ["run", "--help"]])
    def test_help_prints_usage_line_and_returns_zero(self, capsys, argv):
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        assert all(name in out for name in cli.COMMANDS)

    def test_run_via_cli(self, tmp_path):
        out = tmp_path / "cli.csv"
        code = cli.main([
            "run", "--n_list", "10", "--m_list", "200", "--seed_list", "0",
            "--methods", "gd", "--out", str(out),
        ])
        assert code == 0
        assert out.exists()

    def test_config_file_with_override(self, tmp_path):
        conf = tmp_path / "exp.cfg"
        out = tmp_path / "from_file.csv"
        conf.write_text(
            "n_list=10\nm_list=200\nseed_list=0\nmethods=gd\n"
            f"out={out}\n"
        )
        assert cli.main(["run", "--config", str(conf)]) == 0
        assert out.exists()

    def test_flag_overrides_out_of_range_file_value(self, tmp_path):
        # flags are applied over the file before the one check
        conf = tmp_path / "exp.cfg"
        out = tmp_path / "trace.csv"
        conf.write_text("n_list=1\nmethods=gd\n")
        code = cli.main(["run", "--config", str(conf), "--n_list", "10",
                         "--m_list", "50", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("iter,dist,")

    def test_experiment_key_exits_two(self, tmp_path, capsys):
        # the subcommand picks the experiment; there is no experiment key
        conf = tmp_path / "exp.cfg"
        out = tmp_path / "trace.csv"
        conf.write_text("experiment=run\nn_list=10\nm_list=50\n")
        assert cli.main(["run", "--config", str(conf), "--out", str(out)]) == 2
        assert "unknown config key 'experiment'" in capsys.readouterr().err
        assert not out.exists()

    def test_io_error_exit_two(self, tmp_path, capsys):
        bad = str(tmp_path / "missing_dir" / "x.csv")
        code = cli.main([
            "run", "--n_list", "10", "--m_list", "200", "--out", bad,
        ])
        assert code == 2
        assert "missing_dir" in capsys.readouterr().err

    def test_unreadable_config_names_the_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        assert cli.main(["run", "--config", str(missing)]) == 2
        assert capsys.readouterr().err == (f"prbench: config: cannot read {missing}: [Errno 2] "
                                           f"No such file or directory: '{missing}'\n")

    def test_oracle_via_cli(self, tmp_path):
        out = tmp_path / "o.csv"
        assert cli.main(["oracle", "--out", str(out)]) == 0

    def test_degenerate_spectrum_exits_two(self, tmp_path, capsys):
        # an all-black image annihilates the CDP power iterate
        image = tmp_path / "black.pgm"
        write_pgm(str(image), np.zeros((8, 8)))
        out = tmp_path / "cdp"
        code = cli.main(["cdp", "--image", str(image), "--mask_count", "2",
                         "--cdp_iters", "2", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "prbench: operator annihilated the iterate\n"
        assert not out.exists()

    def test_failed_flag_exits_one_via_cli(self, tmp_path):
        # the m=256, seed 4 leave-one-out violation, pinned here and in
        # TestWrappedCommands.test_loo_failed_flag_exits_one because
        # acceptance criterion 8 runs at m = n log n and does not check it
        out = tmp_path / "loo.csv"
        code = cli.main([
            "loo", "--n_list", "100", "--m_list", "256", "--seed_list", "4",
            "--methods", "polyak", "--max_iters", "60", "--out", str(out),
        ])
        assert code == 1

    def test_init_failure_mid_sweep_keeps_finished_cells(self, tmp_path, capsys):
        # the n=100 cell's power iteration fails after the n=10 cell is
        # written: a finished cell's traces stay, and only a complete sweep
        # writes summary.csv
        out = tmp_path / "sweep"
        code = cli.main(["sweep", "--n_list", "10,100", "--m_list", "100", "--seed_list", "0",
                         "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "prbench: power iteration did not converge in 1000 iterations "
            "(last residual 7.623e-10)\n"
        )
        assert sorted(os.listdir(out)) == [
            f"n10_m100_{method}_spectral_s0.csv" for method in ("gd", "nesterov", "polyak")
        ]

    @pytest.mark.parametrize("argv", [
        ["loo", "--n_list", "20", "--m_list", "300"],
        ["loo", "--n_list", "16", "--m_list", "32", "--loo_budget_m", "31"],
    ])
    def test_capability_error_exits_two(self, tmp_path, capsys, argv):
        code = cli.main(argv + ["--out", str(tmp_path / "loo.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("prbench: leave-one-out budget")
        assert "Traceback" not in err

    def test_loo_clamps_iterations_to_budget(self, tmp_path):
        out = tmp_path / "loo.csv"
        code = cli.main([
            "loo", "--n_list", "16", "--m_list", "32", "--seed_list", "1",
            "--methods", "polyak", "--max_iters", "1000", "--loo_budget_iters", "5",
            "--out", str(out),
        ])
        assert code in (0, 1)
        rows = [line for line in out.read_text().splitlines()[1:] if not line.startswith("#")]
        assert [int(row.split(",")[0]) for row in rows] == list(range(6))

    @pytest.mark.parametrize("argv", [
        ["run", "--seed_list", "-1"],
        ["run", "--seed_list", "18446744073709551616"],
        # the oracle has one setting, C03's kappa = 100, so neither is a key
        ["oracle", "--kappa", "100"],
        ["sweep", "--n_list", "1", "--m_list", "5"],
        ["sweep", "--n_list", "4", "--m_list", "0"],
        ["cdp", "--cdp_size", "0"],
        ["cdp", "--cdp_size", "1"],
        ["cdp", "--mask_count", "0"],
        ["cdp", "--cdp_iters", "-1"],
        ["run", "--tol", "0"],
        ["run", "--max_iters", "-1"],
        ["oracle", "--oracle_steps", "10000"],
        ["oracle", "--n_list", "1"],
        ["sweep", "--eta", "-1"],
        ["sweep", "--eta", "nan"],
        ["sweep", "--eta", "inf"],
        ["sweep", "--beta", "1.5"],
        ["sweep", "--c1", "0"],
        ["cdp", "--cdp_size", "300"],
        ["cdp", "--image", "no_such_dir/missing.pgm"],
        ["headtohead", "--n_list", "16", "--seed_list", "0", "--tol", "0.5"],
        ["headtohead", "--n_list", "16", "--seed_list", "0", "--fit_floor", "0.5"],
        ["cdp", "--methods", "gd,gd", "--cdp_size", "8", "--mask_count", "2",
         "--cdp_iters", "2"],
        ["sweep", "--methods", "gd,gd", "--n_list", "10", "--m_list", "50"],
        ["sweep", "--n_list", "10", "--m_list", "100", "--seed_list", "0,0", "--methods", "gd"],
        ["headtohead", "--n_list", "16", "--seed_list", "1,1"],
        ["run", "--init", "zeros"],
        ["loo", "--n_list", "16", "--m_list", "32", "--loo_budget_m", "-1"],
        ["run", "--n_list", "10", "--m_list", "50", "--loo_budget_iters", "-1"],
        # past the config's checks: a one-pixel image has n = 1, where the
        # log n step-size defaults are undefined, and the concentration
        # bounds need n >= 3
        ["cdp", "--image", "one_pixel.pgm"],
        ["concentration", "--n_list", "2"],
        # a 16384 x 2^40 ensemble is 128 PiB, more than any 64-bit address
        # space holds: numpy's MemoryError comes at once and touches no page
        ["run", "--n_list", "1099511627776", "--m_list", "16384"],
    ])
    def test_out_of_range_input_exits_two(self, tmp_path, monkeypatch, capsys, argv):
        # rejected before any output exists
        monkeypatch.chdir(tmp_path)
        (tmp_path / "one_pixel.pgm").write_text("P2\n1 1\n255\n200\n")
        out = tmp_path / "out"
        code = cli.main(argv + ["--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("prbench: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv, key", [
        # a repeated size: the same cell or slope row run and written twice
        (["sweep", "--n_list", "10,10", "--m_list", "60,60", "--methods", "gd"], "n_list"),
        (["sweep", "--n_list", "10", "--m_list", "60,60", "--methods", "gd"], "m_list"),
        (["slopes", "--n_list", "16,16,16"], "n_list"),
        # more values than the command reads, from a flag or the file
        (["run", "--n_list", "10,20", "--m_list", "200"], "n_list"),
        (["run", "--n_list", "10", "--m_list", "200,300"], "m_list"),
        (["run", "--n_list", "10", "--m_list", "200", "--seed_list", "0,1"], "seed_list"),
        (["run", "--n_list", "10", "--m_list", "200", "--methods", "gd,polyak"], "methods"),
        (["run", "--config", "two_seeds.cfg", "--n_list", "10", "--m_list", "200"],
         "seed_list"),
        (["loo", "--n_list", "16", "--m_list", "32", "--seed_list", "0,1"], "seed_list"),
        (["loo", "--n_list", "16", "--m_list", "32", "--methods", "gd,polyak"], "methods"),
        (["headtohead", "--n_list", "16,32", "--seed_list", "0"], "n_list"),
        (["headtohead", "--n_list", "16", "--m_list", "400,500", "--seed_list", "0"],
         "m_list"),
        (["concentration", "--n_list", "10,20", "--m_list", "100"], "n_list"),
        (["concentration", "--n_list", "10", "--m_list", "100,200"], "m_list"),
        (["cdp", "--seed_list", "0,1", "--cdp_size", "8", "--mask_count", "2",
          "--cdp_iters", "2"], "seed_list"),
        (["slopes", "--n_list", "8,12,16", "--m_list", "100,100,100,100"], "m_list"),
        # a flag the command does not read
        (["oracle", "--methods", "gd", "--seed_list", "0,1", "--n_list", "10,20"], "methods"),
        (["cdp", "--n_list", "10,20", "--m_list", "5,6"], "n_list"),
        (["run", "--method_a", "nesterov"], "method_a"),
        # a flag given twice, `--config` included
        (["run", "--n_list", "10", "--n_list", "20", "--m_list", "200"], "n_list"),
        (["run", "--n_list", "10", "--m_list", "200", "--out", "a.csv"], "out"),
        (["run", "--config", "two_seeds.cfg", "--config", "two_seeds.cfg"], "config"),
    ])
    def test_repeated_or_unread_value_exits_two(self, tmp_path, monkeypatch, capsys, argv,
                                                key):
        # refused, naming the key, before any output exists
        monkeypatch.chdir(tmp_path)
        (tmp_path / "two_seeds.cfg").write_text("seed_list=0,1\n")
        out = tmp_path / "out"
        assert cli.main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"prbench: {key}")
        assert not out.exists()

    @pytest.mark.parametrize("argv, key", [
        (["run", "--n_list", "1e3"], "n_list"),
        (["run", "--max_iters", "1.5"], "max_iters"),
        (["run", "--tol", "abc"], "tol"),
        (["run", "--methods", "foo"], "methods"),
        (["headtohead", "--method_b", "bar"], "method_b"),
    ])
    def test_unparsable_value_names_its_key(self, tmp_path, capsys, argv, key):
        assert cli.main(argv + ["--out", str(tmp_path / "t.csv")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"prbench: {key}: ")

    def test_config_file_may_hold_other_commands_keys(self, tmp_path):
        # one file may serve several commands: sweep reads no method_a
        conf = tmp_path / "shared.cfg"
        conf.write_text("method_a=gd\nmethod_b=polyak\n")
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", str(conf), "--n_list", "10", "--m_list", "60",
                         "--methods", "gd", "--out", str(out)]) == 0
        assert (out / "summary.csv").exists()

    def test_diverging_cdp_warns_nothing(self, tmp_path):
        # overflow is how a diverging run shows itself; it is not a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["cdp", "--cdp_size", "8", "--mask_count", "2",
                             "--cdp_iters", "40", "--eta", "1e6",
                             "--out", str(tmp_path / "cdp")])
        assert code == 1

    def test_cdp_fails_when_methods_diverge_without_gd(self, tmp_path):
        # no GD to compare against: the diverged statuses alone fail the run
        out = tmp_path / "cdp"
        code = cli.main(["cdp", "--eta", "1000", "--methods", "polyak,nesterov",
                         "--mask_count", "4", "--cdp_size", "16", "--out", str(out)])
        assert code == 1
        lines = (out / "errors.csv").read_text().splitlines()
        assert "# status_polyak=diverged" in lines
        assert "# status_nesterov=diverged" in lines
        assert "# final_nesterov=inf" in lines
        assert "# accelerated_below_gd=1" in lines
        assert lines[-2] == "# none_diverged=0"

    def test_out_of_range_graymap_exits_two(self, tmp_path, capsys):
        image = tmp_path / "hot.pgm"
        image.write_bytes(b"P5\n2 2\n100\n\x00\x10\x20\xc8")
        out = tmp_path / "cdp"
        code = cli.main(["cdp", "--image", str(image), "--mask_count", "2",
                         "--cdp_iters", "2", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"prbench: {image}: ")
        assert not out.exists()

    def test_cdp_size_checked_before_the_image_is_built(self, tmp_path, monkeypatch, capsys):
        def unreachable(*args):
            raise AssertionError("the synthetic image was built")

        monkeypatch.setattr(cdp, "synthetic_image", unreachable)
        code = cli.main(["cdp", "--cdp_size", "257", "--out", str(tmp_path / "cdp")])
        assert code == 2
        assert capsys.readouterr().err == "prbench: cdp_size must be at most 256, got 257\n"

    def test_cdp_non_square_image(self, tmp_path):
        # 12 rows by 20 columns: a transposed image anywhere on the path
        # changes the header, the read-back shape or the error rows
        image = tmp_path / "rect.pgm"
        image.write_bytes(b"P5\n20 12\n255\n"
                          + bytes((7 * i + 3 * (i // 20)) % 256 for i in range(240)))
        out = tmp_path / "cdp"
        code = cli.main(["cdp", "--image", str(image), "--mask_count", "4", "--cdp_iters", "5",
                         "--seed_list", "2", "--out", str(out)])
        assert code in (0, 1)
        methods = ("gd", "polyak", "nesterov")
        for method in methods:
            recovered = out / f"recovered_{method}.pgm"
            assert recovered.read_bytes().startswith(b"P5\n20 12\n255\n")
            assert read_pgm(recovered).shape == (12, 20)
        problem = cdp.cdp_problem(read_pgm(image), 4, 2)
        expected = [(method, t, float(err)) for method in methods
                    for t, err in enumerate(cdp.cdp_run(problem, method, 5).rel_err)]
        lines = (out / "errors.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
        assert [(m, int(t), float(err)) for m, t, err in rows] == expected

    def test_cdp_gd_keeps_zero_beta_under_override(self, tmp_path):
        common = ["cdp", "--methods", "gd,polyak", "--cdp_size", "8",
                  "--mask_count", "4", "--cdp_iters", "5"]
        assert cli.main(common + ["--out", str(tmp_path / "plain")]) in (0, 1)
        assert cli.main(common + ["--beta", "0.3", "--out", str(tmp_path / "beta")]) in (0, 1)

        def gd_rows(out):
            lines = (out / "errors.csv").read_text().splitlines()
            return [line for line in lines if line.startswith("gd,")]

        assert gd_rows(tmp_path / "beta")
        assert gd_rows(tmp_path / "beta") == gd_rows(tmp_path / "plain")


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    command=st.sampled_from(sorted(cli.COMMANDS) + ["bogus"]),
    n_list=st.lists(st.integers(2, 8), min_size=1, max_size=3),
    m_list=st.lists(st.integers(1, 30), min_size=1, max_size=3),
    max_iters=st.integers(0, 30),
    seed=st.integers(-2, 2**64),
    methods=st.lists(st.sampled_from(["gd", "polyak", "nesterov"]),
                     min_size=1, max_size=2, unique=True),
    init=st.sampled_from(["spectral", "random"]),
    cdp_size=st.integers(1, 8),
    mask_count=st.integers(1, 3),
    cdp_iters=st.integers(0, 5),
    eta=st.sampled_from([None, "nan", "inf", "-1", "0", "1e-3", "0.5", "1", "1.5"]),
    beta=st.sampled_from([None, "nan", "inf", "-1", "0", "1e-3", "0.5", "1", "1.5"]),
    drop_last=st.booleans(),
    every_flag=st.booleans(),
)
def test_cli_fuzz_exit_contract(tmp_path, command, n_list, m_list, max_iters, seed,
                                methods, init, cdp_size, mask_count, cdp_iters, eta, beta,
                                drop_last, every_flag):
    # every input ends in exit 0, 1 or 2; an escaping exception fails the test
    def joined(values):
        return ",".join(str(v) for v in values)

    with tempfile.TemporaryDirectory(dir=tmp_path) as tmp:
        flags = {
            "n_list": joined(n_list), "m_list": joined(m_list), "max_iters": str(max_iters),
            "seed_list": str(seed), "methods": joined(methods), "init": init,
            "cdp_size": str(cdp_size), "mask_count": str(mask_count),
            "cdp_iters": str(cdp_iters), "out": os.path.join(tmp, "out"),
            # None leaves the command's default step or momentum in place
            "eta": eta, "beta": beta,
        }
        # the flags the command reads, so that it runs, or every flag, which
        # each command refuses for the ones it does not read; oracle reads
        # only `out`, nothing to draw, and each of its runs takes 0.2 s
        every = every_flag or command in ("bogus", "oracle")
        keys = flags if every else cli.COMMANDS[command][1]
        argv = [command]
        for key, value in flags.items():
            if key in keys and value is not None:
                argv += [f"--{key}", value]
        if drop_last:
            argv = argv[:-1]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
