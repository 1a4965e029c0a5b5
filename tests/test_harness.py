import contextlib
import io
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from prbench import cli, harness
from prbench.harness import (
    ExperimentConfig,
    headtohead_slope,
    make_config,
    parse_config,
    theory_m,
)
from prbench.pgm import write_pgm


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


class TestSlopes:
    def test_requires_three_sizes(self, tmp_path):
        cfg = ExperimentConfig(n_list=(16, 32), out=str(tmp_path / "s.csv"))
        with pytest.raises(ValueError, match="three"):
            harness.cmd_slopes(cfg)

    def test_rows_and_reference(self, tmp_path):
        out = tmp_path / "s.csv"
        cfg = ExperimentConfig(n_list=(16, 24, 32), seed_list=(0,), out=str(out))
        code = harness.cmd_slopes(cfg)
        lines = out.read_text().splitlines()
        assert lines[0] == "n,m,seeds,mean_slope,sqrt_log_n,ok"
        assert len(lines) == 4
        refs = [float(line.split(",")[4]) for line in lines[1:]]
        assert refs == [pytest.approx(math.sqrt(math.log(n))) for n in (16, 24, 32)]
        assert all(math.isfinite(float(line.split(",")[3])) for line in lines[1:])
        assert code in (0, 1)


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
        assert len(lines) == 5
        assert (out / "n10_m200_gd_spectral_s0.csv").exists()
        assert (out / "n10_m300_polyak_spectral_s1.csv").exists()

    def test_momentum_beats_gd_in_summary(self, tmp_path):
        out = tmp_path / "sweep2"
        cfg = ExperimentConfig(
            n_list=(10,), m_list=(200,), seed_list=(0, 1, 2),
            methods=("gd", "polyak"), out=str(out),
        )
        harness.cmd_sweep(cfg)
        rows = (out / "summary.csv").read_text().splitlines()[1:]
        medians = {row.split(",")[2]: float(row.split(",")[7]) for row in rows}
        assert medians["polyak"] < medians["gd"]


class TestWrappedCommands:
    def test_oracle(self, tmp_path):
        out = tmp_path / "oracle.csv"
        cfg = ExperimentConfig(kappa=100.0, out=str(out))
        assert harness.cmd_oracle(cfg) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "method,measured_ratio,bound,ok"
        assert len(lines) == 4
        measured = {l.split(",")[0]: float(l.split(",")[1]) for l in lines[1:]}
        assert measured["gd"] == pytest.approx(0.99, abs=0.005)
        assert measured["polyak"] <= 9 / 11 + 0.02
        assert measured["nesterov"] <= 0.92
        assert all(l.endswith(",1") for l in lines[1:])

    def test_concentration(self, tmp_path):
        out = tmp_path / "conc.csv"
        cfg = ExperimentConfig(n_list=(100,), m_list=(1000,), seed_list=(0, 1),
                               out=str(out))
        assert harness.cmd_concentration(cfg) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert all(l.split(",")[3] == "1" and l.split(",")[6] == "1"
                   for l in lines[1:])

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

    def test_oracle_via_cli(self, tmp_path):
        out = tmp_path / "o.csv"
        assert cli.main(["oracle", "--out", str(out)]) == 0

    @pytest.mark.parametrize("argv, code", [
        (["--kappa", "1e4"], 0),
        (["--kappa", "1e17", "--oracle_steps", "100"], 1),
    ])
    def test_oracle_bound_never_exceeds_one(self, tmp_path, argv, code):
        # near rate 1 the rate plus its slack exceeds 1; the cap keeps the
        # flag from passing heavy ball's ratio 1.014 at kappa = 1e17
        out = tmp_path / "oracle.csv"
        assert cli.main(["oracle"] + argv + ["--out", str(out)]) == code
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert all(float(bound) <= 1.0 for _, _, bound, _ in rows)
        assert all(ok == "0" for _, ratio, _, ok in rows if float(ratio) >= 1.0)

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
        ["oracle", "--kappa", "0"],
        ["sweep", "--n_list", "1", "--m_list", "5"],
        ["sweep", "--n_list", "4", "--m_list", "0"],
        ["cdp", "--cdp_size", "0"],
        ["cdp", "--cdp_size", "1"],
        ["cdp", "--mask_count", "0"],
        ["cdp", "--cdp_iters", "-1"],
        ["run", "--tol", "0"],
        ["run", "--max_iters", "-1"],
        ["oracle", "--oracle_steps", "1"],
        ["oracle", "--n_list", "1"],
        ["sweep", "--eta", "-1"],
        ["sweep", "--eta", "nan"],
        ["sweep", "--eta", "inf"],
        ["sweep", "--beta", "1.5"],
        ["sweep", "--c1", "0"],
        ["cdp", "--cdp_size", "300"],
        ["cdp", "--image", "no_such_dir/missing.pgm"],
        ["headtohead", "--n_list", "16", "--seed_list", "0", "--fit_floor", "-1"],
        ["headtohead", "--n_list", "16", "--seed_list", "0", "--fit_floor", "1e-7"],
        ["cdp", "--methods", "gd,gd", "--cdp_size", "8", "--mask_count", "2",
         "--cdp_iters", "2"],
        ["sweep", "--methods", "gd,gd", "--n_list", "10", "--m_list", "50"],
        ["sweep", "--n_list", "10", "--m_list", "100", "--seed_list", "0,0", "--methods", "gd"],
        ["headtohead", "--n_list", "16", "--seed_list", "1,1"],
        ["oracle", "--kappa", "inf", "--oracle_steps", "100"],
        ["loo", "--n_list", "16", "--m_list", "32", "--loo_budget_m", "-1"],
        ["run", "--n_list", "10", "--m_list", "50", "--loo_budget_iters", "-1"],
    ])
    def test_out_of_range_input_exits_two(self, tmp_path, capsys, argv):
        # rejected while validating the config, before any output exists
        out = tmp_path / "out"
        code = cli.main(argv + ["--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("prbench: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv, key", [
        (["--n_list", "1e3"], "n_list"),
        (["--max_iters", "1.5"], "max_iters"),
        (["--tol", "abc"], "tol"),
    ])
    def test_unparsable_value_names_its_key(self, tmp_path, capsys, argv, key):
        assert cli.main(["run"] + argv + ["--out", str(tmp_path / "t.csv")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"prbench: {key}: ")

    def test_diverging_cdp_warns_nothing(self, tmp_path):
        # overflow is how a diverging run shows itself; it is not a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["cdp", "--cdp_size", "8", "--mask_count", "2",
                             "--cdp_iters", "40", "--eta", "1e6",
                             "--out", str(tmp_path / "cdp")])
        assert code in (0, 1)

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
    oracle_steps=st.integers(2, 50),
    seed=st.integers(-2, 2**64),
    kappa=st.integers(-1, 200),
    methods=st.lists(st.sampled_from(["gd", "polyak", "nesterov"]),
                     min_size=1, max_size=2, unique=True),
    init=st.sampled_from(["spectral", "random"]),
    cdp_size=st.integers(1, 8),
    mask_count=st.integers(1, 3),
    cdp_iters=st.integers(0, 5),
    eta=st.sampled_from([None, "nan", "inf", "-1", "0", "1e-3", "0.5", "1", "1.5"]),
    beta=st.sampled_from([None, "nan", "inf", "-1", "0", "1e-3", "0.5", "1", "1.5"]),
    drop_last=st.booleans(),
)
def test_cli_fuzz_exit_contract(tmp_path, command, n_list, m_list, max_iters,
                                oracle_steps, seed, kappa, methods, init,
                                cdp_size, mask_count, cdp_iters, eta, beta, drop_last):
    # every input ends in exit 0, 1 or 2; an escaping exception fails the test
    def joined(values):
        return ",".join(str(v) for v in values)

    with tempfile.TemporaryDirectory(dir=tmp_path) as tmp:
        argv = [
            command, "--n_list", joined(n_list), "--m_list", joined(m_list),
            "--max_iters", str(max_iters), "--oracle_steps", str(oracle_steps),
            "--seed_list", str(seed), "--kappa", str(kappa),
            "--methods", joined(methods), "--init", init,
            "--cdp_size", str(cdp_size), "--mask_count", str(mask_count),
            "--cdp_iters", str(cdp_iters), "--out", os.path.join(tmp, "out"),
        ]
        # None leaves the command's default step or momentum in place
        for key, value in (("--eta", eta), ("--beta", beta)):
            if value is not None:
                argv += [key, value]
        if drop_last:
            argv = argv[:-1]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
