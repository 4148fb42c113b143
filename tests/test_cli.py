"""Front-end tests: argument handling, CSV output, determinism, exit codes."""

import argparse
import collections
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pdm_osc
from pdm_osc import output, thermo
from pdm_osc.cli import _temperature_grid, build_parser, main
from pdm_osc.oscillator import SystemParams, make_state, radial_overlap, radial_wavefunction
from pdm_osc.output import SeriesTable, format_float
from pdm_osc.specfun import QuadratureSpec, integrate


def read(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return fh.read()


def data_rows(text):
    rows = [line for line in text.strip().splitlines() if not line.startswith("#")]
    header, body = rows[0], rows[1:]
    return header.split(","), [[float(c) for c in line.split(",")] for line in body]


class TestSpectrumCommand:
    def test_values(self, tmp_path, capsys):
        rc = main(["spectrum", "--alpha", "1", "--k", "-0.5", "--m", "0",
                   "--n-max", "1", "--out", str(tmp_path)])
        assert rc == 0
        header, body = data_rows(read(tmp_path / "spectrum_m0.csv"))
        assert header[0].startswith("n_r")
        assert body[0][1] == pytest.approx(1.6180339887498949, abs=1e-12)
        assert body[1][1] == pytest.approx(5.8541019662496847, abs=1e-12)

    def test_flat_ladder_column(self, tmp_path):
        main(["spectrum", "--alpha", "1", "--k", "0", "--m", "0",
              "--n-max", "3", "--out", str(tmp_path)])
        _, body = data_rows(read(tmp_path / "spectrum_m0.csv"))
        assert [row[1] for row in body] == [1.0, 3.0, 5.0, 7.0]

    def test_metadata_echo(self, tmp_path):
        main(["spectrum", "--alpha", "2", "--k", "-0.25", "--lam", "2",
              "--m", "1", "--out", str(tmp_path)])
        text = read(tmp_path / "spectrum_m1.csv")
        assert "# alpha: 2" in text
        assert "# k_list: -0.25" in text
        assert "# lam: 2" in text
        assert "# delta_sq_list: -0.5" in text  # k = delta_sq / lam echo
        assert "# command: spectrum" in text

    def test_multiple_k_columns(self, tmp_path):
        main(["spectrum", "--k-list", "-0.1,-0.3", "--m", "0", "--n-max", "2",
              "--out", str(tmp_path)])
        header, body = data_rows(read(tmp_path / "spectrum_m0.csv"))
        assert len(header) == 3
        assert len(body) == 3


class TestThermoCommand:
    def test_single_point_stdout(self, capsys):
        rc = main(["thermo", "--T", "10", "--k", "-0.3", "--m", "1", "--strategy", "direct"])
        assert rc == 0
        out = capsys.readouterr().out
        fields = dict(part.split("=") for part in out.split())
        import pdm_osc as p

        pr = p.SystemParams(alpha=1.0, k=-0.3)
        res = p.evaluate(p.ThermoInput.from_temperature(pr, 1, 10.0))
        assert float(fields["Z"]) == pytest.approx(res.z, rel=1e-15)
        assert float(fields["U"]) == pytest.approx(res.u, rel=1e-15)
        assert float(fields["C"]) == pytest.approx(res.c, rel=1e-15)
        assert float(fields["F"]) == pytest.approx(res.f, rel=1e-15)
        assert float(fields["S"]) == pytest.approx(res.s, rel=1e-15)

    def test_grid_writes_five_tables(self, tmp_path):
        rc = main(["thermo", "--k", "-0.3", "--m", "1", "--T-min", "1", "--T-max", "10",
                   "--T-count", "5", "--T-spacing", "linear", "--out", str(tmp_path)])
        assert rc == 0
        for q in ("Z", "U", "C", "F", "S"):
            assert (tmp_path / f"thermo_m1_{q}.csv").exists()
        header, body = data_rows(read(tmp_path / "thermo_m1_Z.csv"))
        assert len(body) == 5

    def test_log_spacing_grid(self, tmp_path):
        rc = main(["thermo", "--k", "-0.3", "--m", "1", "--T-min", "1", "--T-max", "100",
                   "--T-count", "3", "--T-spacing", "log", "--out", str(tmp_path)])
        assert rc == 0
        _, body = data_rows(read(tmp_path / "thermo_m1_Z.csv"))
        assert [row[0] for row in body] == pytest.approx([1.0, 10.0, 100.0])

    def test_auto_spacing_above_one_is_linear(self, tmp_path):
        rc = main(["thermo", "--k", "-0.3", "--m", "1", "--T-min", "2", "--T-max", "10",
                   "--T-count", "5", "--out", str(tmp_path)])
        assert rc == 0
        _, body = data_rows(read(tmp_path / "thermo_m1_Z.csv"))
        assert [row[0] for row in body] == pytest.approx([2.0, 4.0, 6.0, 8.0, 10.0])

    @pytest.mark.parametrize("args, field", [
        (["--out", "newdir"], "out"), (["--format=svg"], "format"), (["--T-min=0.5"], "T_min"),
        (["--T-max=9"], "T_max"), (["--T-count=7"], "T_count"), (["--T-spacing=log"], "T_spacing"),
        (["--strategy=paper", "--variant=both"], "variant"), (["T_count = 7"], "T_count")])
    def test_single_point_refuses_options_it_does_not_read(self, tmp_path, capsys, monkeypatch,
                                                           args, field):
        """--T writes no file and reads no grid: the grid and file options,
        as flags or config keys, and variant=both are refused, and no
        directory is made."""
        monkeypatch.chdir(tmp_path)
        if "=" in args[0] and not args[0].startswith("--"):
            (tmp_path / "run.cfg").write_text(args[0] + "\n", encoding="utf-8")
            args = ["--config", "run.cfg"]
        assert main(["thermo", "--T=1", "--k=-0.1"] + args) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config-error field={field} reason=")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert not (tmp_path / "newdir").exists()

    def test_paper_point_survives_display_overflow(self, capsys):
        """Z is ~1e-182 at this large-|m| point; every value prints finite."""
        rc = main(["thermo", "--strategy", "paper", "--k", "-0.001", "--m", "40", "--T", "0.1"])
        assert rc == 0
        fields = dict(part.split("=") for part in capsys.readouterr().out.split())
        assert all(math.isfinite(float(fields[q])) for q in "ZUCFS")
        assert float(fields["Z"]) == pytest.approx(1.06e-182, rel=1e-2)

    @pytest.mark.parametrize("args", [["--T", "0.001", "--k=-1e-6", "--N", "100000"],
                                      ["--T", "0.1", "--k=-0.1"]])
    def test_paper_point_where_z_underflows(self, capsys, args):
        """Z underflows to 0; U, C, F and S still print finite."""
        rc = main(["thermo", "--strategy", "paper", "--m", "40"] + args)
        assert rc == 0
        fields = dict(part.split("=") for part in capsys.readouterr().out.split())
        assert float(fields["Z"]) == 0.0
        assert all(math.isfinite(float(fields[q])) for q in "UCFS")

    @pytest.mark.parametrize("strategy", ["direct", "paper", "poisson"])
    def test_single_point_beta_out_of_range(self, capsys, strategy):
        """At T = 1e-300 beta**2 overflows: every strategy refuses with one
        line that names beta, and prints no quantities."""
        rc = main(["thermo", f"--strategy={strategy}", "--T=1e-300", "--k=-0.1"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: beta must be positive with a finite square, got ")
        assert captured.err.count("\n") == 1

    def test_paper_composite_overflow_refused(self, capsys):
        """(E_{N+1} - E_0)^2 overflows at alpha = 1e200: the closed form
        refuses with the same line as the pipeline, which names alpha and
        kb, before any array step can warn."""
        rc = main(["thermo", "--strategy=paper", "--alpha=1e200", "--T=1e-100", "--k=-0.1"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: Boltzmann moments out of range at alpha=1e+200, "
                                "kb=1.0: (E_{N+1} - E_0)^2 is not finite\n")

    @pytest.mark.parametrize("strategy", ["direct", "paper", "poisson"])
    @pytest.mark.parametrize("args, where", [
        (["--alpha=1e306", "--T=1"], "alpha=1e+306, kb=1.0, beta in [1.0, 1.0]"),
        (["--kb=1e308", "--T=1"], "alpha=1.0, kb=1e+308, beta in [1e-308, 1e-308]"),
        (["--alpha=1e305", "--T=0.001"], "alpha=1e+305, kb=1.0, beta in [1000.0, 1000.0]")])
    def test_weights_out_of_range_refused(self, capsys, strategy, args, where):
        """A spectrum, 746/beta or beta (E_N - E_0) that is not finite: every
        strategy refuses with one typed line that names alpha, kb and beta,
        before any array step can warn (a RuntimeWarning is an error here,
        and would change the line)."""
        rc = main(["thermo", f"--strategy={strategy}", "--k=-0.1"] + args)
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: Boltzmann weights out of range at {where}: "
                                "E_0..E_N, 746/beta or beta (E_N - E_0) is not finite\n")

    @pytest.mark.parametrize("alpha", ["1e152", "1e154", "1e200", "1e300"])
    def test_poisson_moments_out_of_range_refused(self, capsys, alpha):
        """E_0..E_{N+1} and the weights are finite, but (E_{N+1} - E_0)^2,
        which M_2 and the clipped upper limit need, is not: both
        summation-formula strategies refuse with one line that names alpha
        and kb."""
        for strategy in ("paper", "poisson"):
            rc = main(["thermo", f"--strategy={strategy}", f"--alpha={alpha}", "--T=1",
                       "--k=-0.1"])
            assert rc == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error: Boltzmann moments out of range at "
                                    f"alpha={float(alpha)!r}, kb=1.0: "
                                    "(E_{N+1} - E_0)^2 is not finite\n")

    @pytest.mark.parametrize("alpha", ["1e152", "1e154"])
    def test_direct_variance_out_of_range_refused(self, capsys, alpha):
        """The direct sum's two-pass variance squares E - <E>, up to
        E_{L-1} - E_0 over the L levels it builds (L = 120 of 501 here):
        where that square is not finite, it refuses with one line that names
        alpha and kb, and no array step warns."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["thermo", f"--alpha={alpha}", "--T=1", "--k=-0.1"])
        assert rc == 1 and caught == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: Boltzmann moments out of range at "
                                f"alpha={float(alpha)!r}, kb=1.0: "
                                "(E_{119} - E_0)^2 is not finite\n")

    @pytest.mark.parametrize("strategy, alpha, n", [
        ("poisson", "1e150", "500"), ("poisson", "1e151", "500"), ("direct", "1e150", "100000")])
    def test_large_alpha_below_moment_overflow(self, capsys, strategy, alpha, n):
        """Below the moment checks' range a huge alpha still gives a point:
        the direct sum's variance squares E - <E> only up to E_95 - E_0, as
        it builds 96 of the 100,001 levels, and that square is finite."""
        rc = main(["thermo", f"--strategy={strategy}", f"--alpha={alpha}", f"--N={n}",
                   "--T=1", "--k=-0.1"])
        assert rc == 0
        fields = dict(part.split("=") for part in capsys.readouterr().out.split())
        assert all(math.isfinite(float(fields[q])) for q in "ZUCFS")

    def test_paper_zero_two_z_refused(self, capsys):
        """At beta = 1e-300 every weight is 1: the closed form's M_0 is a sum
        of nonnegative terms, so Z is finite and, like every other value,
        within the summation formula's error model of the direct sum's 501
        (there |f'(0)|/12 ~ 1e-300)."""
        series = thermo.sweep(SystemParams(1.0, -0.1), 1, 500, [1e-300],
                              thermo.Strategy.PAPER_CLOSED_FORM)
        assert series.z[0] == pytest.approx(501.0, rel=1e-14)
        assert series.c[0] == 0.0 and series.s[0] == pytest.approx(math.log(501.0), rel=1e-14)
        values = {}
        for strategy in ("paper", "direct"):
            rc = main(["thermo", f"--strategy={strategy}", "--T=1e300", "--k=-0.1"])
            assert rc == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            values[strategy] = dict(part.split("=") for part in captured.out.split())
        paper, direct = ({q: float(v[q]) for q in "ZUCFS"} for v in values.values())
        assert paper["Z"] == direct["Z"] == pytest.approx(501.0, rel=1e-14)
        assert paper["F"] == pytest.approx(direct["F"], rel=1e-14)
        assert paper["S"] == pytest.approx(direct["S"], rel=1e-14)
        # U carries the formula's first-order error: (E'(N+1) - E'(0))/12 over
        # a mean of ~17,288, here about 2e-6 relative
        assert paper["U"] == pytest.approx(direct["U"], rel=1e-5)

    @pytest.mark.parametrize("alpha", ["1e100", "1e130", "1e150"])
    def test_paper_large_alpha_within_error_model(self, capsys, alpha):
        """Huge alpha below the moments check: beta E'(0) is huge, every level
        above E_0 carries no weight, and the summation formula keeps half the
        ground state's. U and F equal the direct sum's; S is -ln 2 against 0,
        and C is the formula's 4/(beta E'(0)), near 0, against 0. u^3 h(u)
        does not underflow on the way (RuntimeWarning is an error here)."""
        values = {}
        for strategy in ("paper", "direct"):
            rc = main(["thermo", f"--strategy={strategy}", f"--alpha={alpha}", "--T=1",
                       "--k=-0.1"])
            assert rc == 0
            values[strategy] = {q: float(v) for q, v in (
                part.split("=") for part in capsys.readouterr().out.split())}
        paper, direct = values["paper"], values["direct"]
        assert paper["U"] == pytest.approx(direct["U"], rel=1e-15)
        assert paper["F"] == pytest.approx(direct["F"], rel=1e-15)
        assert paper["S"] == pytest.approx(-math.log(2.0), rel=1e-14) and direct["S"] == 0.0
        assert paper["C"] == pytest.approx(4.0 / (2.0 * float(alpha)), rel=1e-12, abs=0.0)

    def test_single_point_non_finite_quantity_named(self, capsys, monkeypatch):
        """A non-finite quantity at one T is refused as a table cell would be."""
        real_sweep = thermo.sweep

        def sweep_with_nan_c(*args, **kw):
            series = real_sweep(*args, **kw)
            series.c[:] = math.nan
            return series

        monkeypatch.setattr(thermo, "sweep", sweep_with_nan_c)
        rc = main(["thermo", "--T=1", "--k-list=-0.1,-0.2"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: non-finite value nan at row 0 column 'C(k=-0.10000000000000001) [kb]'\n"

    def test_paper_strategy_both_variants(self, tmp_path):
        rc = main(["thermo", "--k", "-0.3", "--m", "1", "--strategy", "paper",
                   "--variant", "both", "--T-min", "5", "--T-max", "10",
                   "--T-count", "3", "--T-spacing", "linear", "--out", str(tmp_path)])
        assert rc == 0
        header, _ = data_rows(read(tmp_path / "thermo_m1_Z.csv"))
        assert len(header) == 3  # T plus two variant columns
        assert any("corrected" in h for h in header)
        assert any("verbatim" in h for h in header)


class TestFiguresCommand:
    def test_default_k_list_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["figures", "--m", "1", "--T-count", "60", "--out"]
        assert main(args + [str(out1)]) == 0
        assert main(args + [str(out2)]) == 0
        for q in ("Z", "U", "C", "F", "S"):
            b1 = read(out1 / f"figures_m1_{q}.csv").encode()
            b2 = read(out2 / f"figures_m1_{q}.csv").encode()
            assert b1 == b2
        header, _ = data_rows(read(out1 / "figures_m1_Z.csv"))
        assert len(header) == 4  # T plus three default k columns

    def test_svg_output(self, tmp_path):
        rc = main(["figures", "--m", "1", "--T-count", "24", "--format", "both",
                   "--out", str(tmp_path)])
        assert rc == 0
        svg = read(tmp_path / "figures_m1_C.svg")
        assert svg.startswith("<svg")
        assert "polyline" in svg


class TestWavefunctionCommand:
    def test_samples(self, tmp_path):
        rc = main(["wavefunction", "--k", "-0.5", "--m", "1", "--n-max", "2",
                   "--r-count", "50", "--out", str(tmp_path)])
        assert rc == 0
        header, body = data_rows(read(tmp_path / "wavefunction_m1.csv"))
        assert len(header) == 4
        assert len(body) == 50

    def test_needs_single_k(self, tmp_path, capsys):
        rc = main(["wavefunction", "--k-list", "-0.5,-0.3", "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("k, code", [("0", 1), ("0.001", 1), ("-1e-8", 0)])
    def test_bound_regime_edges(self, tmp_path, capsys, k, code):
        # k >= 0 has no bound states: a typed refusal, and no CSV
        out = tmp_path / "out"
        rc = main(["wavefunction", f"--k={k}", "--m", "1", "--n-max", "1", "--out", str(out)])
        assert rc == code
        assert (out / "wavefunction_m1.csv").exists() == (code == 0)
        if code:
            assert "k < 0 < lam" in capsys.readouterr().err


    def test_normalization_beyond_double_range(self, tmp_path):
        # log_norm = -1470: the normalization exp(735) overflows, U does not
        out = tmp_path / "out"
        rc = main(["wavefunction", "--k=-1e-12", "--m", "60", "--n-max", "0",
                   "--out", str(out)])
        assert rc == 0
        _, body = data_rows(read(out / "wavefunction_m60.csv"))
        assert all(math.isfinite(row[1]) for row in body)

    def test_grid_follows_the_states_as_k_approaches_zero(self, tmp_path):
        # r_max is 1e6 at k = -1e-12, while the state peaks near r = 7.75
        out = tmp_path / "out"
        assert main(["wavefunction", "--k=-1e-12", "--m", "60", "--n-max", "0",
                     "--out", str(out)]) == 0
        _, body = data_rows(read(out / "wavefunction_m60.csv"))
        assert any(row[1] != 0.0 for row in body)
        # at k = -1e-6 (r_max = 1000) the grid holds all but 1e-10 of every
        # state's norm, and resolves the m = 40 ground state
        assert main(["wavefunction", "--k=-1e-6", "--m", "40", "--n-max", "3",
                     "--out", str(out)]) == 0
        _, body = data_rows(read(out / "wavefunction_m40.csv"))
        r_hi = body[-1][0] + 0.5 * (body[1][0] - body[0][0])
        ground = [abs(row[1]) for row in body]
        assert sum(u > 0.01 * max(ground) for u in ground) >= 20
        p = SystemParams(alpha=1.0, k=-1e-6)
        for n in range(4):
            wf = radial_wavefunction(p, make_state(p, n, 40))
            inside = integrate(lambda r, _: wf.value(r) ** 2 * r / (1.0 + p.delta_sq * r * r),
                               QuadratureSpec(0.0, r_hi, rel_tol=1e-12, abs_tol=1e-15)).value
            assert inside >= (1.0 - 1e-10) * radial_overlap(p, 40, n, n)


class TestConfigHandling:
    def test_config_file_and_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 2.0\nk = -0.25\nm = 1  # comment\n", encoding="utf-8")
        rc = main(["spectrum", "--config", str(cfg), "--alpha", "3.0",
                   "--n-max", "1", "--out", str(tmp_path)])
        assert rc == 0
        text = read(tmp_path / "spectrum_m1.csv")
        assert "# alpha: 3" in text      # CLI beats config
        assert "# k_list: -0.25" in text  # config beats default

    def test_bad_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpha 2.0\n", encoding="utf-8")
        rc = main(["spectrum", "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config-error")
        assert "\n" == err[-1] and err.count("\n") == 1  # single line

    def test_repeated_config_key_refused(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 2\n# alpha = 5\nalpha = 3\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("config-error field=alpha "
                                           "reason=repeated on lines 1 and 3\n")
        assert not out.exists()

    def test_hash_inside_a_value_is_kept(self, tmp_path, capsys):
        """'#' starts a comment at the start of a line or after whitespace
        only: a value may contain one."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"out = {tmp_path / 'runs#1'}\nn_max = 1\t# note\n  # k = 5\n",
                       encoding="utf-8")
        assert main(["spectrum", "--config", str(cfg)]) == 0
        _, body = data_rows(read(tmp_path / "runs#1" / "spectrum_m1.csv"))
        assert len(body) == 2
        assert not (tmp_path / "runs").exists()

    def test_invalid_alpha(self, capsys):
        rc = main(["spectrum", "--alpha", "-1"])
        assert rc == 2
        assert "field=alpha" in capsys.readouterr().err

    def test_k_and_k_list_conflict(self, capsys):
        rc = main(["spectrum", "--k", "-0.5", "--k-list", "-0.1,-0.2"])
        assert rc == 2
        assert "field=k" in capsys.readouterr().err

    def test_repeated_k_rejected(self, tmp_path, capsys):
        rc = main(["thermo", "--k-list=-0.1,-0.1", "--T-count", "4", "--out", str(tmp_path)])
        assert rc == 2
        assert "field=k_list" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, field", [
        ("--T=nan", "T"), ("--T=inf", "T"), ("--T-max=inf", "T_max"), ("--T-min=nan", "T_min"),
        ("--kb=inf", "kb"), ("--k=nan", "k"), ("--alpha=inf", "alpha"), ("--lam=-inf", "lam"),
        ("--k-list=-0.1,nan", "k_list")])
    def test_non_finite_option_rejected(self, tmp_path, capsys, flag, field):
        rc = main(["thermo", flag, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config-error field={field} reason=")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_config_value_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = nan\n", encoding="utf-8")
        assert main(["thermo", "--config", str(cfg), "--T=1"]) == 2
        assert capsys.readouterr().err.startswith("config-error field=k reason=")

    def test_bad_T_grid(self, capsys):
        rc = main(["thermo", "--T-min", "5", "--T-max", "1"])
        assert rc == 2
        assert "field=T_grid" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key", [("spectrum", "alpah"), ("spectrum", "N"),
                                              ("wavefunction", "config")])
    def test_config_key_not_an_option_refused(self, tmp_path, capsys, command, key):
        """A config key the command does not read is an error, not a value
        stored and then ignored."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 2\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"config-error field={key} "
                                           f"reason=not an option of {command}\n")
        assert not out.exists()

    @pytest.mark.parametrize("line, reason", [
        ("strategy = PAPER_CLOSED_FORM", "must be direct, paper or poisson"),
        ("T_spacing = cubic", "must be linear, log or auto")])
    def test_config_value_outside_choices_refused(self, tmp_path, capsys, line, reason):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        assert main(["thermo", "--config", str(cfg), "--T=1"]) == 2
        field = line.split(" ")[0]
        assert capsys.readouterr().err == f"config-error field={field} reason={reason}\n"


def _auto_grid_reference(t_min, t_max, count):
    """The auto grid's log-then-linear formula for T_min < 1 < T_max, count >= 4."""
    n_log = max(count // 5, 2)
    ratio = (1.0 / t_min) ** (1.0 / n_log)
    step = (t_max - 1.0) / (count - n_log - 1)
    return [t_min * ratio**i for i in range(n_log)] + [1.0 + i * step for i in range(count - n_log)]


@settings(max_examples=300, deadline=None)
@given(t_min=st.floats(0.01, 20.0), factor=st.floats(1.01, 1000.0),
       count=st.integers(2, 3000), spacing=st.sampled_from(["auto", "linear", "log"]))
def test_temperature_grid_shape(t_min, factor, count, spacing):
    """Every grid has T_count points from T_min to T_max, strictly increasing.

    Grid ends within 1e-6 of T=1 are left out: there the auto grid's log or
    linear part is narrower than its points' spacing can resolve in doubles.
    """
    t_max = t_min * factor
    assume(abs(t_min - 1.0) > 1e-6 and abs(t_max - 1.0) > 1e-6)
    cfg = {"T_min": t_min, "T_max": t_max, "T_count": count, "T_spacing": spacing}
    grid = _temperature_grid(cfg)
    assert len(grid) == count
    assert grid[0] == t_min
    assert grid[-1] == pytest.approx(t_max, rel=1e-10)
    assert all(b > a for a, b in zip(grid, grid[1:]))
    if spacing == "auto" and count >= 4 and t_min < 1.0 < t_max:
        assert grid == _auto_grid_reference(t_min, t_max, count)


def test_public_surface():
    """The package exports exactly the union of its modules' public names,
    each of which resolves, and none of the deleted single-quantity
    wrappers or kernels."""
    from pdm_osc import nu, oscillator, specfun

    modules = (thermo, specfun, oscillator, nu)
    assert all(hasattr(pdm_osc, name) for name in pdm_osc.__all__)
    assert len(set(pdm_osc.__all__)) == len(pdm_osc.__all__)
    assert set(pdm_osc.__all__) == {"__version__"}.union(*(m.__all__ for m in modules))
    deleted = {"partition_direct", "partition_paper", "partition_poisson_independent",
               "average_energy", "heat_capacity", "free_energy", "entropy", "erf",
               "hyp2f1_terminating_magnitude"}
    for namespace in (pdm_osc,) + modules:
        assert not deleted & set(vars(namespace))


class TestValidateCommand:
    def test_quick_passes(self, capsys):
        rc = main(["validate", "--quick"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "quantization_roundtrip" in out

    def test_negative_control_names_ode_residual(self, capsys):
        rc = main(["validate", "--quick", "--inject-energy-perturbation"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "FAILED: ode_residual" in captured.err


COMMANDS = ("spectrum", "wavefunction", "thermo", "figures", "validate")


def parse_with_every_option(argv, capsys):
    """Exit code, stdout and stderr of parsing argv with the parser that has
    every subcommand's options, as main would report them."""
    try:
        build_parser().parse_args(argv)
        code = None
    except SystemExit as exc:
        code = 2 if exc.code else 0
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParser:
    """main builds only its subcommand's options; what a user sees is the
    same as with every option built."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_subcommand_help(self, command, capsys):
        expected = parse_with_every_option([command, "--help"], capsys)
        assert (main([command, "--help"]),) + tuple(capsys.readouterr()) == expected
        assert expected[1].startswith(f"usage: pdm-osc {command} ")

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], [], ["bogus"],
                                      ["thermo", "--bogus"], ["--bogus", "thermo"],
                                      ["--k-list=-0.1,-0.2"], ["-1", "thermo"]])
    def test_top_level_and_errors(self, argv, capsys):
        expected = parse_with_every_option(argv, capsys)
        assert (main(argv),) + tuple(capsys.readouterr()) == expected
        assert expected[0] is not None

    @pytest.mark.parametrize("argv", [["thermo", "--k-list", "-0.1,-0.2", "--T=1"],
                                      ["figures", "--T-count", "5", "--format=both"],
                                      ["wavefunction", "--r-count=3"],
                                      ["validate", "--quick"], ["spectrum", "--m", "2"]])
    def test_same_namespace(self, argv):
        assert build_parser(argv).parse_args(argv) == build_parser().parse_args(argv)

    def test_one_option_set_built(self, monkeypatch, capsys):
        """main adds the options of its own subcommand only; the full parser
        adds each subcommand's (besides --help)."""
        calls = collections.Counter()
        add_argument = argparse.ArgumentParser.add_argument

        def counting(parser, *flags, **kw):
            if flags != ("-h", "--help"):
                calls[parser.prog] += 1
            return add_argument(parser, *flags, **kw)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
        assert main(["thermo", "--T=1", "--k=-0.1"]) == 0
        assert calls == {"pdm-osc": 1, "pdm-osc thermo": 17}
        calls.clear()
        build_parser()
        per_command = {"spectrum": 10, "wavefunction": 11, "thermo": 17, "figures": 16,
                       "validate": 2}
        assert calls == {"pdm-osc": 1, **{f"pdm-osc {c}": n for c, n in per_command.items()}}

    @pytest.mark.parametrize("argv", [["validate", "--alpha=1"], ["spectrum", "--N=5"],
                                      ["wavefunction", "--strategy=paper"],
                                      ["thermo", "--n-max=3", "--T=1"]])
    def test_option_a_command_does_not_read_is_refused(self, argv, tmp_path, monkeypatch,
                                                       capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: pdm-osc ")
        assert err.endswith(f"pdm-osc: error: unrecognized arguments: {argv[1]}\n")
        assert list(tmp_path.iterdir()) == []


def readme_commands():
    """The pdm-osc command lines of README's "Command line" block, with
    backslash continuations joined, as argument lists."""
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    text = read(readme).split("## Command line\n", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("pdm-osc ")]


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_parses(argv):
    assert argv[0] in COMMANDS
    build_parser().parse_args(argv)


@pytest.mark.parametrize("argv", [["thermo", "--strategy=direct", "--T=1", "--k=-0.1"],
                                  ["validate", "--quick"],
                                  ["figures", "--format", "both", "--T-count", "50"],
                                  ["wavefunction", "--k=-0.2", "--n-max", "3"]])
def test_cold_start_imports(argv, tmp_path):
    """A command in a fresh interpreter imports none of numpy.ma, scipy,
    mpmath, fractions or decimal: each would cost every run of the command
    its import time."""
    src = os.path.dirname(os.path.dirname(pdm_osc.__file__))
    forbidden = ("numpy.ma", "scipy", "mpmath", "fractions", "decimal")
    code = ("import sys\n"
            "from pdm_osc.cli import main\n"
            f"rc = main({argv!r})\n"
            f"print(rc, [m for m in {forbidden!r} if m in sys.modules])\n")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True, cwd=tmp_path)
    assert proc.stdout.splitlines()[-1] == "0 []"


def reference_csv(table):
    """The per-cell renderer: one format_float call per cell."""
    lines = [f"# {key}: {value}" for key, value in table.metadata]
    lines.append(",".join([table.x_label] + [name for name, _ in table.columns]))
    for i, xv in enumerate(table.x):
        cells = [format_float(float(xv))] + [format_float(float(col[i])) for _, col in table.columns]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def reference_polylines(table, width=720, height=480):
    """The points of each polyline, one f-string per point."""
    ml, mr, mt, mb = 70, 20, 20, 50
    pw, ph = width - ml - mr, height - mt - mb
    xs = [float(v) for v in table.x]
    ys = [float(v) for _, col in table.columns for v in col]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad
    return [" ".join(f"{ml + (x - x0) / (x1 - x0) * pw:.2f},"
                     f"{mt + ph - (float(y) - y0) / (y1 - y0) * ph:.2f}"
                     for x, y in zip(xs, col))
            for _, col in table.columns]


# subnormals, signed zeros, the ends of the double range
EDGE_CELLS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3.0, 1e308, -1e308,
              1.7976931348623157e308, -1.7976931348623157e308, 1.0 / 3.0, 1e-300, 1e22]

AS_LIST, AS_ARRAY = (lambda a: a.tolist()), (lambda a: a)


def random_finite_doubles(seed, n):
    """Finite doubles from uniformly random bit patterns."""
    v = np.frombuffer(np.random.default_rng(seed).bytes(8 * n), dtype=np.float64)
    return v[np.isfinite(v)]


class TestSeriesTable:
    @pytest.mark.parametrize("kind", [AS_LIST, AS_ARRAY])
    def test_block_rendering_matches_per_cell_reference(self, kind):
        cells = np.concatenate([EDGE_CELLS, random_finite_doubles(11, 6000)])
        rows = cells.size // 3
        x, a, b = cells[:3 * rows].reshape(3, rows)
        table = SeriesTable(x_label="x", y_label="y", x=kind(x),
                            columns=[("a", kind(a)), ("b", kind(b))], metadata=[("key", "val")])
        assert table.to_csv() == reference_csv(table)

    def test_polyline_matches_per_point_reference(self):
        rng = np.random.default_rng(5)
        x = np.sort(rng.uniform(0.1, 50.0, 300))
        tables = [
            SeriesTable(x_label="x", y_label="y", x=x,
                        columns=[("a", rng.normal(size=300) * 1e3), ("b", np.full(300, 2.5)),
                                 ("c", np.exp(rng.uniform(-700.0, 700.0, 300)))]),
            # a flat column and a single point stretch the degenerate ranges
            SeriesTable(x_label="x", y_label="y", x=x, columns=[("a", np.full(300, -1.0))]),
            SeriesTable(x_label="x", y_label="y", x=[3.0], columns=[("a", [7.0]), ("b", [5e-324])]),
        ]
        for table in tables:
            svg = table.to_svg()
            assert re.findall(r'<polyline points="([^"]*)"', svg) == reference_polylines(table)
            as_lists = SeriesTable(x_label="x", y_label="y", x=list(map(float, table.x)),
                                   columns=[(n, list(map(float, c))) for n, c in table.columns])
            assert as_lists.to_svg() == svg

    @settings(max_examples=200, deadline=None)
    @given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40),
           floats=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                           max_size=40))
    def test_renderer_matches_formatter_on_any_double(self, bits, floats):
        """Doubles from raw bit patterns and from hypothesis's floats, which
        favour the edges of the range: CSV cells, polyline points, and '.2f'
        on every pattern, NaN and infinities included."""
        raw = np.array(bits, dtype=np.uint64).view(np.float64)
        cells = np.concatenate([raw[np.isfinite(raw)], floats])
        table = SeriesTable(x_label="x", y_label="y", x=cells, columns=[("a", cells[::-1])])
        assert table.to_csv() == reference_csv(table)
        # 0 and 1 keep the y range from collapsing onto one huge value
        ys = np.concatenate([np.clip(cells, -1e300, 1e300), [0.0, 1.0]])
        plot = SeriesTable(x_label="x", y_label="y", x=np.arange(float(ys.size)),
                           columns=[("a", ys)])
        assert re.findall(r'<polyline points="([^"]*)"', plot.to_svg()) == reference_polylines(plot)
        points = np.concatenate([raw, floats])
        assert output._render([points, points[::-1]], ".2f", b", ") == "".join(
            f"{a:.2f},{b:.2f} " for a, b in zip(points.tolist(), points[::-1].tolist()))

    def test_table_of_many_blocks(self):
        """More than three blocks of the kinds of cells the commands write:
        log-uniform magnitudes of both signs, short decimals and integers."""
        rng = np.random.default_rng(7)
        rows = 7000
        x = np.linspace(0.0, 50.0, rows)
        signed = np.exp(rng.uniform(-700.0, 700.0, rows)) * rng.choice([-1.0, 1.0], rows)
        short = np.rint(rng.uniform(-1e6, 1e6, rows)) / 10.0 ** rng.integers(0, 6, rows)
        integers = rng.integers(-10**17, 10**17, rows).astype(float)
        table = SeriesTable(x_label="x", y_label="y", x=x,
                            columns=[("a", signed), ("b", short), ("c", integers)])
        assert 4 * rows > 3 * output._BLOCK
        assert table.to_csv() == reference_csv(table)
        plot = SeriesTable(x_label="x", y_label="y", x=x, columns=[("b", short)])
        assert re.findall(r'<polyline points="([^"]*)"', plot.to_svg()) == reference_polylines(plot)

    @pytest.mark.parametrize("rows", [4 * 1365, 4 * 1365 + 17])
    def test_written_bytes_equal_joined_text(self, tmp_path, rows):
        """write_csv and write_svg put on disk the bytes to_csv and to_svg
        join: over four blocks and more (1,365 three-cell rows or 2,048
        points to a block), with the last block full or short, and with
        cells Python's formatter writes (0.0, exact ties and fractions
        within 1e-6 of a half) on each side of every block boundary."""
        per_block = output._BLOCK // 3
        x = np.linspace(0.0, 50.0, rows)
        a = np.exp(np.random.default_rng(2).uniform(-30.0, 30.0, rows))
        b = a[::-1].copy()
        x[per_block - 1::per_block], a[per_block - 1::per_block] = 0.0, 1234567890123456.25
        b[per_block::per_block] = 0.422973611418032  # 17 digits, then 500000225
        assert output._layout_g(np.array([0.0, 1234567890123456.25, 0.422973611418032]),
                                output._tables())[1].all()
        table = SeriesTable(x_label="x", y_label="y", x=x, columns=[("a", a), ("b", b)],
                            metadata=[("key", "val")])
        table.write_csv(str(tmp_path / "t.csv"))
        table.write_svg(str(tmp_path / "t.svg"))
        assert (tmp_path / "t.csv").read_bytes() == table.to_csv().encode()
        assert (tmp_path / "t.svg").read_bytes() == table.to_svg().encode()
        assert table.to_csv() == reference_csv(table)
        # a polyline drops its last separator, whatever the last block's length
        for n in (2 * 2048, 3 * 2048 + 1, 2048 - 1):
            p = np.linspace(-50.0, 50.0, n)
            p[2047::2048], p[2048::2048] = 0.125, 0.1250000001
            cols = [p, p[::-1]]
            assert b"".join(output._blocks(cols, ".2f", b", ", last_sep=False)).decode() == (
                output._render(cols, ".2f", b", ")[:-1])
        assert output._layout_f(np.array([0.125, 0.1250000001]), output._tables())[1].all()

    def test_write_csv_memory_flat_in_rows(self, tmp_path):
        """Writing a 200,000 x 7 table, a 27 MB file, allocates a few blocks
        above its columns: the file's text is never whole in memory."""
        rng = np.random.default_rng(3)
        x = np.linspace(0.1, 50.0, 200_000)
        table = SeriesTable(x_label="x", y_label="y", x=x,
                            columns=[(f"c{j}", rng.normal(size=x.size) * 10.0 ** j)
                                     for j in range(6)])
        tracemalloc.start()
        try:
            table.write_csv(str(tmp_path / "t.csv"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (tmp_path / "t.csv").stat().st_size > 25e6
        assert peak < 4e6

    @pytest.mark.parametrize("value, text", [
        (0.0, "0"), (-0.0, "-0"), (5e-324, "4.9406564584124654e-324"),
        (-2.2250738585072014e-308 / 3.0, "-7.4169128616906696e-309"),
        (1e16, "10000000000000000"), (1e17, "1e+17"), (99999999999999999.0, "1e+17"),
        (1e-4, "0.0001"), (1e-5, "1.0000000000000001e-05"),
        (1234567890123456.25, "1234567890123456.2")])
    def test_csv_cell_edges(self, value, text):
        """Signed zeros, subnormals, the ends of fixed notation and a tie."""
        table = SeriesTable(x_label="x", y_label="y", x=[value], columns=[("a", [value])])
        assert table.to_csv() == reference_csv(table) == f"x,a\n{text},{text}\n"

    @pytest.mark.parametrize("value, text", [
        (0.125, "0.12"), (2.675, "2.67"), (-0.001, "-0.00"), (-0.0, "-0.00"),
        (0.375, "0.38"), (9999999999999.996, "10000000000000.00")])
    def test_point_edges(self, value, text):
        """'.2f' ties round half to even, the sign of a value that rounds to
        zero stays, and rounding may add an integer digit."""
        assert output._render([np.array([value])], ".2f", b" ") == f"{value:.2f} " == text + " "

    def test_tie_is_left_to_python_formatter(self):
        """A fraction within 1e-6 of a half, here an exact tie, is flagged for
        Python's formatter, and the text of the table stays byte-exact."""
        v = np.array([1234567890123456.25, 0.5, 1234567890123456.0])
        _, slow = output._layout_g(v.copy(), output._tables())
        assert slow.tolist() == [True, False, False]
        table = SeriesTable(x_label="x", y_label="y", x=v, columns=[("a", -v)])
        assert table.to_csv() == reference_csv(table)
        assert "\n1234567890123456.2,-1234567890123456.2\n" in table.to_csv()
        _, slow = output._layout_f(np.array([0.125, 2.675, 0.25]), output._tables())
        assert slow.tolist() == [True, True, False]

    @pytest.mark.parametrize("kind", [AS_LIST, AS_ARRAY])
    def test_non_finite_reported_in_order(self, kind):
        """The first non-finite cell of the first column that has one, the
        columns in order and x last."""
        nan, inf = math.nan, math.inf
        x = np.array([0.0, nan, 2.0, 3.0])
        cols = {"a": np.array([1.0, 2.0, 3.0, 4.0]), "b": np.array([1.0, 2.0, -inf, nan]),
                "c": np.array([nan, 1.0, 1.0, inf])}
        expected = [("b", "non-finite value -inf at row 2 column 'b'"),
                    ("c", "non-finite value nan at row 0 column 'c'"),
                    (None, "non-finite value nan at row 1 column 'x'")]
        for fixed, message in expected:
            table = SeriesTable(x_label="x", y_label="y", x=kind(x),
                                columns=[(name, kind(col)) for name, col in cols.items()])
            for render in (table.to_csv, table.to_svg):
                with pytest.raises(ValueError) as err:
                    render()
                assert str(err.value) == message
            if fixed:
                cols[fixed] = np.ones(4)

    @pytest.mark.parametrize("kind", [AS_LIST, AS_ARRAY])
    def test_zero_rows_render_header_only(self, kind):
        table = SeriesTable(x_label="x", y_label="y", x=kind(np.empty(0)),
                            columns=[("a", kind(np.empty(0)))], metadata=[("key", "val")])
        assert table.to_csv() == "# key: val\nx,a\n"

    def test_nan_rejected_with_location(self):
        table = SeriesTable(
            x_label="x", y_label="y", x=[0.0, 1.0],
            columns=[("a", [1.0, math.nan])],
        )
        with pytest.raises(ValueError) as err:
            table.to_csv()
        assert "row 1" in str(err.value)
        assert "'a'" in str(err.value)

    def test_ragged_rejected(self):
        table = SeriesTable(x_label="x", y_label="y", x=[0.0, 1.0], columns=[("a", [1.0])])
        with pytest.raises(ValueError):
            table.to_csv()

    def test_invalid_table_leaves_no_file(self, tmp_path):
        table = SeriesTable(x_label="x", y_label="y", x=[0.0, 1.0], columns=[("a", [1.0])])
        for write, name in ((table.write_csv, "t.csv"), (table.write_svg, "t.svg")):
            with pytest.raises(ValueError):
                write(str(tmp_path / name))
            assert not (tmp_path / name).exists()

    def test_flat_range_above_two_to_53(self, tmp_path):
        """A flat x or y range at |v| >= 2^53, where adding 1 is lost, is
        widened relative to v, from the API and from the CLI."""
        for x, y in (([1e20], [1.0]), ([0.0, 1.0], [-1e20, -1e20])):
            svg = SeriesTable(x_label="x", y_label="y", x=x, columns=[("a", y)]).to_svg()
            assert "polyline" in svg and "nan" not in svg and "inf" not in svg
        rc = main(["spectrum", "--alpha", "1e20", "--k=-0.5", "--n-max", "0",
                   "--format", "svg", "--out", str(tmp_path)])
        assert rc == 0
        assert read(tmp_path / "spectrum_m1.svg").startswith("<svg")

    @staticmethod
    def assert_finite_svg(svg):
        """Every coordinate of an SVG is a finite number, and no tick label
        reads inf or nan (a label of DBL_MAX to 4 digits, 1.798e+308, would
        itself parse as inf)."""
        coords = re.findall(r'(?:x|y|x1|y1|x2|y2)="([^"]+)"', svg)
        points = [v for pts in re.findall(r'points="([^"]+)"', svg)
                  for v in re.split(r"[ ,]+", pts)]
        assert coords and points
        assert all(math.isfinite(float(v)) for v in coords + points)
        assert "inf" not in svg and "nan" not in svg

    def test_range_wider_than_a_quarter_of_double_max(self, tmp_path):
        """Energies up to ~7e307: the tick step (y1 - y0)/4 * j, the pad and
        the maps stay finite, and so does every coordinate and tick label."""
        rc = main(["spectrum", "--alpha", "1e307", "--k=-0.5", "--n-max", "3",
                   "--format", "svg", "--out", str(tmp_path)])
        assert rc == 0
        self.assert_finite_svg(read(tmp_path / "spectrum_m1.svg"))

    def test_range_wider_than_double_max(self):
        """y1 - y0 itself overflows: no RuntimeWarning (an error here), and
        the ticks run from -DBL_MAX to DBL_MAX."""
        svg = SeriesTable(x_label="x", y_label="y", x=[0.0, 1.0],
                          columns=[("a", [-1.7e308, 1.7e308])]).to_svg()
        self.assert_finite_svg(svg)
        assert ">-1.798e+308<" in svg and ">1.798e+308<" in svg

    def test_flat_range_near_double_max(self):
        """A flat range within 2^-40 of DBL_MAX cannot widen upwards; it
        widens downwards, on either axis, and renders finite."""
        top = sys.float_info.max
        for v in (top, top * (1.0 - 2.0**-41), -top):
            svg = SeriesTable(x_label="x", y_label="y", x=[v], columns=[("a", [v])]).to_svg()
            self.assert_finite_svg(svg)

    def test_float_formatting_roundtrip(self):
        value = 1.0 / 3.0
        table = SeriesTable(x_label="x", y_label="y", x=[value], columns=[("a", [value * 7])])
        _, body = data_rows(table.to_csv())
        assert body[0][0] == value
        assert body[0][1] == value * 7

    def test_newline_endings(self):
        table = SeriesTable(x_label="x", y_label="y", x=[0.0], columns=[("a", [1.0])],
                            metadata=[("key", "val")])
        text = table.to_csv()
        assert "\r" not in text
        assert text.endswith("\n")
