import contextlib
import io
import math
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from prbench import cli, harness
from prbench.harness import (
    ExperimentConfig,
    apply_overrides,
    headtohead_slope,
    parse_config,
    serialize_config,
    theory_m,
)


class TestConfig:
    def test_round_trip_idempotent(self):
        cfg = ExperimentConfig(
            experiment="sweep", n_list=(10, 50), m_list=(200, 500),
            seed_list=(0, 1, 2), methods=("gd", "polyak"), eta=0.01, out="d",
        )
        text = serialize_config(cfg)
        assert parse_config(text) == cfg
        assert serialize_config(parse_config(text)) == text

    def test_parse_ignores_comments_and_blanks(self):
        cfg = parse_config("# hello\n\nn_list=4,8\nexperiment=run\n")
        assert cfg.n_list == (4, 8)

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config("bogus=1\n")

    def test_malformed_line(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_config("just words\n")

    def test_overrides(self):
        cfg = apply_overrides(ExperimentConfig(), {"tol": "1e-5", "methods": "gd"})
        assert cfg.tol == 1e-5
        assert cfg.methods == ("gd",)

    def test_invalid_method_rejected(self):
        with pytest.raises(ValueError):
            apply_overrides(ExperimentConfig(), {"methods": "newton"})

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
            "experiment=run\nn_list=10\nm_list=200\nseed_list=0\nmethods=gd\n"
            f"out={out}\n"
        )
        assert cli.main(["run", "--config", str(conf)]) == 0
        assert out.exists()

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
        ["loo", "--n_list", "16", "--m_list", "32", "--loo_budget_m", "-1"],
    ])
    def test_capability_error_exits_two(self, tmp_path, capsys, argv):
        code = cli.main(argv + ["--out", str(tmp_path / "loo.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("prbench: leave-one-out budget")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["run", "--seed_list", "-1"],
        ["run", "--seed_list", "18446744073709551616"],
        ["oracle", "--kappa", "0"],
    ])
    def test_out_of_range_input_exits_two(self, tmp_path, capsys, argv):
        code = cli.main(argv + ["--out", str(tmp_path / "out.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("prbench: ")

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


@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from(["run", "loo", "oracle", "concentration"]),
    n=st.integers(1, 8),
    m=st.integers(1, 30),
    max_iters=st.integers(0, 30),
    oracle_steps=st.integers(0, 50),
    seed=st.integers(-2, 2**64),
    kappa=st.integers(-1, 200),
    method=st.sampled_from(["gd", "polyak", "nesterov"]),
    init=st.sampled_from(["spectral", "random"]),
)
def test_cli_fuzz_exit_contract(command, n, m, max_iters, oracle_steps, seed, kappa,
                                method, init):
    # every input ends in exit 0, 1 or 2; an escaping exception fails the test
    with tempfile.TemporaryDirectory() as tmp:
        argv = [
            command, "--n_list", str(n), "--m_list", str(m),
            "--max_iters", str(max_iters), "--oracle_steps", str(oracle_steps),
            "--seed_list", str(seed), "--kappa", str(kappa), "--methods", method,
            "--init", init, "--out", os.path.join(tmp, "out.csv"),
        ]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
