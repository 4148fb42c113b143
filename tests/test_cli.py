"""Front-end tests: argument handling, CSV output, determinism, exit codes."""

import argparse
import ast
import collections
import errno
import hashlib
import importlib.util
import math
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pdm_osc
from pdm_osc import cli, output, thermo
from pdm_osc.cli import _temperature_grid, build_parser, main
from pdm_osc.oscillator import RadialFamily, SystemParams, radial_overlaps
from pdm_osc.output import SeriesTable, format_float
from pdm_osc.specfun import QuadratureSpec, integrate

import box


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

    def test_terms_beyond_double_range_refused(self, tmp_path, capsys):
        """At alpha = 1e308, k = -1e308, E_0, E'(0) and q = -2k are not
        finite: one line naming alpha and k, where a NaN cell was named
        before, with no warning and no file."""
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["spectrum", "--alpha=1e308", "--k=-1e308", f"--out={out}"])
        assert rc == 1 and caught == []
        assert capsys.readouterr() == ("", "error: alpha=1e+308, k=-1e+308, m=1: E_0, E'(0) or "
                                           "q = -2k is not finite in double precision\n")
        assert not out.exists()


def formula_points(capsys, args):
    """The single point of each summation-formula strategy at the thermo
    options args, run with every warning an error: {strategy: {quantity:
    value}}."""
    points = {}
    for strategy in ("paper", "poisson"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["thermo", f"--strategy={strategy}"] + args)
        assert rc == 0
        points[strategy] = {q: float(value) for q, value in
                            (part.split("=") for part in capsys.readouterr().out.split())}
    return points


class TestThermoCommand:
    def test_single_point_stdout(self, capsys):
        """`--T` prints the one-point sweep at beta = 1/(kb T); T <= 0 is refused."""
        import pdm_osc as p

        for kb in (1.0, 2.0):
            rc = main(["thermo", "--T", "10", "--k", "-0.3", "--m", "1", "--strategy", "direct",
                       f"--kb={kb}"])
            assert rc == 0
            out = capsys.readouterr().out
            fields = dict(part.split("=") for part in out.split())
            pr = p.SystemParams(alpha=1.0, k=-0.3, kb=kb)
            series = p.sweep(pr, 1, 500, [1.0 / (kb * 10.0)])
            for q in "ZUCFS":
                assert float(fields[q]) == pytest.approx(getattr(series, q.lower()).item(),
                                                         rel=1e-15)
        assert main(["thermo", "--T", "0", "--k", "-0.3"]) == 2
        assert capsys.readouterr().err == "config-error field=T reason=must be positive\n"

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

    @pytest.mark.parametrize("argv, message", [
        (["thermo", "--T=1", "--k=-0.1", f"--N={n}"],
         f"truncation_n must be >= 0 and below 2**53, got {n}") for n in (2**63 - 1, 2**64)
    ] + [(["spectrum", f"--m={10**400}"], f"m={10**400}: m^2 is not finite in double precision")],
        ids=["N=2**63-1", "N=2**64", "m=10**400"])
    def test_integer_beyond_doubles_refused(self, tmp_path, capsys, monkeypatch, argv, message):
        """An N from 2**53 on, where the levels stop being exact doubles, and
        an m whose square is not a finite double are refused with one line
        naming them, before any output."""
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    def test_bug_is_a_traceback_not_a_refusal(self, monkeypatch):
        """An exception outside the refusal family is a bug: main lets it
        through instead of printing it and exiting 1."""
        def broken_sweep(*args, **kwargs):
            raise TypeError("injected")

        monkeypatch.setattr(thermo, "sweep", broken_sweep)
        with pytest.raises(TypeError, match="injected"):
            main(["thermo", "--T=1", "--k=-0.1"])

    def test_os_failure_exits_1(self, tmp_path, capsys):
        """An output directory that cannot be made is an OS failure: one
        error line and exit 1."""
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        assert main(["thermo", "--k=-0.1", "--T-count=2", f"--out={blocker / 'out'}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

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
        """(E_{N+1} - E_0)^2 overflows at alpha = 1e200, T = 1e-100, where
        both summation-formula strategies refused before. No moment squares
        it: the closed form takes each product with f(X) by the weight first,
        and the pipeline squares d only up to its clipped upper limit. Both
        give the point, with every warning an error, the same U and the same
        C (0: beta E'(0) is 4e300, so every excited weight is 0.0)."""
        points = formula_points(capsys, ["--alpha=1e200", "--T=1e-100", "--k=-0.1"])
        assert points["poisson"]["U"] == points["paper"]["U"]
        assert points["poisson"]["C"] == pytest.approx(points["paper"]["C"], rel=1e-9, abs=0.0)

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
        """E_0..E_{N+1} and the weights are finite but (E_{N+1} - E_0)^2 is
        not, where both summation-formula strategies refused before. Neither
        needs that square now: both give the point, with every warning an
        error and the same U, and their C agree within 1e-9. At 1e300 the
        pipeline's integrals lie near 1/(beta E'(0)) = 5e-301: only its
        relative tolerance may decide when they converge."""
        points = formula_points(capsys, [f"--alpha={alpha}", "--T=1", "--k=-0.1"])
        assert points["poisson"]["U"] == points["paper"]["U"]
        assert points["poisson"]["C"] == pytest.approx(points["paper"]["C"], rel=1e-9, abs=0.0)

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

    @pytest.mark.parametrize("grid", [["--T=1e153"],
                                      ["--T-min=1e153", "--T-max=2e153", "--T-count=2"]])
    def test_poisson_integral_out_of_range_refused(self, tmp_path, capsys, grid):
        """Outside the box, d(u)^2 may be finite while the integral of d^2 f
        over [0, u], which reaches u d(u)^2 / 3, overflows: the pipeline
        warned and refused a C of inf at one point, and spun 4,000
        refinements to an error bound of nan on the grid. It now refuses
        where u d(u)^2 (u = N + 1 here), which bounds that integral as f <= 1
        and d increases, is not finite: one line naming alpha and kb, before
        any array step can warn."""
        out = tmp_path / "out"
        argv = ["thermo", "--strategy=poisson", "--alpha=3.16e150", "--k=-0.1", *grid]
        assert main(argv + [f"--out={out}"] * (len(grid) > 1)) == 1
        assert capsys.readouterr() == ("", "error: Boltzmann moments out of range at "
                                           "alpha=3.16e+150, kb=1.0: 501.0 (E_{501.0} - E_0)^2 "
                                           "is not finite\n")
        assert not out.exists()

    @pytest.mark.parametrize("strategy, alpha, n", [
        ("poisson", "1e150", "500"), ("poisson", "1e151", "500"), ("direct", "1e150", "100000")])
    def test_large_alpha_below_moment_overflow(self, capsys, strategy, alpha, n):
        """A huge alpha still gives a point: the pipeline squares d only up
        to its clipped upper limit, and the direct sum's variance squares
        E - <E> only up to E_95 - E_0, as it builds 96 of the 100,001
        levels, and that square is finite."""
        rc = main(["thermo", f"--strategy={strategy}", f"--alpha={alpha}", f"--N={n}",
                   "--T=1", "--k=-0.1"])
        assert rc == 0
        fields = dict(part.split("=") for part in capsys.readouterr().out.split())
        assert all(math.isfinite(float(fields[q])) for q in "ZUCFS")

    @pytest.mark.parametrize("alpha", ["1e9", "1e10", "1e20", "1e100"])
    def test_poisson_large_alpha_matches_closed_form(self, capsys, alpha):
        """The pipeline integrates the excitation d itself, not E - E_0,
        which over f's support is a few ulp of E_0 or less at this alpha:
        it exits 0 with every warning an error, and its C is within 1e-9
        of the closed form's (the formula's 4/(beta E'(0)) = 2/alpha)."""
        points = formula_points(capsys, ["--T=1", "--k=-0.1", "--m=1", f"--alpha={alpha}"])
        assert points["poisson"]["C"] == pytest.approx(points["paper"]["C"], rel=1e-9, abs=0.0)
        assert points["paper"]["C"] == pytest.approx(2.0 / float(alpha), rel=1e-8)

    @pytest.mark.parametrize("lam", ["1e200", "-1e200"])
    def test_verbatim_boundary_term_vanishes(self, capsys, lam):
        """At |lam| = 1e200 the verbatim boundary level lies about 1e200
        above E_0, where its term 0.5 exp(-beta dv) (beta dv)^j is exactly
        0, as at lam = 1e100: the point prints the lam = 1e100 values, and
        the (beta dv)^2 that overflows never meets the 0 (no warning)."""
        printed = {}
        for value in (lam, "1e100"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rc = main(["thermo", "--strategy=paper", "--variant=verbatim", "--T=1",
                           "--k=-0.1", f"--lam={value}"])
            assert rc == 0
            printed[value] = capsys.readouterr()
        assert printed[lam] == printed["1e100"] and printed[lam].err == ""

    @pytest.mark.parametrize("args", [["--lam=1e308", "--T=0.1"], ["--lam=-1e308", "--T=0.01"],
                                      ["--lam=1e308", "--m=3", "--T=1"]])
    def test_verbatim_boundary_out_of_range_refused(self, capsys, args):
        """Where beta (d_t - a_t - E_0), the verbatim boundary level over
        kb T, is not finite (it overflows, or d_t is inf - inf), the point
        refuses with one line that names lam, before any array step warns."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["thermo", "--strategy=paper", "--variant=verbatim", "--k=-0.1"] + args)
        assert rc == 1
        captured = capsys.readouterr()
        lam = float(args[0].split("=")[1])
        assert captured.out == ""
        assert captured.err == (f"error: verbatim boundary level out of range at lam={lam!r}: "
                                "beta (d_t - a_t - E_0) is not finite\n")

    def test_paper_k_zero_refused(self, capsys):
        """At k = 0 the closed form's erfcx arguments are not finite: the
        paper point refuses with one typed line, before any array step."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["thermo", "--strategy=paper", "--k=0", "--T=1"])
        assert rc == 1
        assert capsys.readouterr() == ("", "error: the closed form needs k < 0 (erf arguments "
                                           "become imaginary otherwise)\n")

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

    def test_underflow_root_beyond_double_range(self, capsys):
        """At k = -1e10 and T = 1e300 every weight of the 11 levels is 1 to
        within 1e-287, and the root of beta d(x) = 746 lies near 1e146,
        where D^2 + 4 q 746/beta overflows. With no warning, every strategy
        gives Z = 11, S = ln 11 and C = 0, and the pipeline and the closed
        form give U below the direct sum's by the summation formula's whole
        error for the quadratic d, T1/M_0 = q/6 (R3 = 0; q = -2k)."""
        values = {}
        for strategy in ("poisson", "paper", "direct"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rc = main(["thermo", f"--strategy={strategy}", "--k=-1e10", "--T=1e300",
                           "--N=10"])
            assert rc == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            values[strategy] = {q: float(v) for q, v in
                                (part.split("=") for part in captured.out.split()) if q in "ZUCS"}
        for strategy, got in values.items():
            assert got["Z"] == pytest.approx(11.0, rel=1e-11)
            assert got["S"] == pytest.approx(math.log(11.0), rel=1e-11)
            assert got["C"] == 0.0
            if strategy != "direct":
                assert values["direct"]["U"] - got["U"] == pytest.approx(2e10 / 6.0, rel=1e-6)

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
    @pytest.mark.parametrize("argv, field", [
        (["wavefunction", f"--r-count={2**63 - 1}"], "r_count"),
        (["wavefunction", "--r-count=10000001"], "r_count"),
        (["thermo", f"--T-count={2**63 - 1}"], "T_count")])
    def test_grid_of_more_than_ten_million_rows_refused(self, tmp_path, capsys, argv, field):
        """A T or r grid has 2 to 10**7 rows; numpy's arange of 2**63 - 1
        points is empty, which wavefunction met with an untyped ValueError."""
        out = tmp_path / "out"
        assert main(argv + [f"--out={out}"]) == 2
        assert capsys.readouterr().err == (f"config-error field={field} "
                                           "reason=must be in [2, 10000000]\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, n_max", [("spectrum", 2**63 - 1),
                                                ("wavefunction", 10**6 + 1), ("spectrum", -1)])
    def test_n_max_outside_the_jacobi_cap_refused(self, tmp_path, capsys, command, n_max):
        """n_max lies in [0, JACOBI_DEGREE_CAP]: beyond it, spectrum wrote a
        header without rows, and wavefunction refused only after its
        O(n_max |m|) log-norm loop."""
        out = tmp_path / "out"
        assert main([command, f"--n-max={n_max}", f"--out={out}"]) == 2
        assert capsys.readouterr().err == ("config-error field=n_max "
                                           "reason=must be in [0, 1000000]\n")
        assert not out.exists()

    def test_log_norm_terms_beyond_the_cap_refused(self, tmp_path, capsys):
        """(n_max + 1)|m| log-norm terms above the Jacobi degree cap are
        refused before the first, in well under a second: m = 1e8 ran past
        a 5 s timeout."""
        out = tmp_path / "out"
        start = time.perf_counter()
        rc = main(["wavefunction", "--k=-0.1", "--m=100000000", "--n-max=0", f"--out={out}"])
        assert time.perf_counter() - start < 1.0
        assert rc == 1
        assert capsys.readouterr() == ("", "error: m=100000000, n_max=0: the log-norms sum "
                                           "(n_max + 1)|m| = 100000000 terms, above the cap "
                                           "1000000\n")
        assert not out.exists()

    def test_grid_that_misses_a_state_refused(self, tmp_path, capsys):
        """At |m| = 1e6 the state z^(|m|/2) (1 - z)^((1 + s)/2) peaks within
        1.1e-5 of z = 1, past the grid's last sample, and every sample
        underflows to 0: one line naming k, m and n_max, and no file."""
        out = tmp_path / "out"
        rc = main(["wavefunction", "--k=-0.1", "--m=1000000", "--n-max=0", f"--out={out}"])
        assert rc == 1
        assert capsys.readouterr() == ("", "error: k=-0.1, m=1000000, n_max=0: every r sample "
                                           "of state n=0 is exactly 0; the grid misses where "
                                           "it lives\n")
        assert not out.exists()

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


    @pytest.mark.parametrize("argv", [
        ["--k=-1e-300"], ["--k=-0.1", "--lam=1e-300"], ["--k=-1e300"],
        ["--alpha=1e300", "--k=-0.1"], ["--k=-0.1", "--lam=1e300"], ["--k=-1e-150"],
        ["--alpha=1e150", "--k=-0.1"]])
    def test_parameters_beyond_double_range_refused(self, tmp_path, capsys, argv):
        # s, the turning radius or the recurrence overflows (or a term
        # underflows to 0): one typed line, and no RuntimeWarning, which would
        # fail here before the refusal
        out = tmp_path / "out"
        assert main(["wavefunction", *argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: alpha=") and "lam=" in err
        assert "is not finite in double precision" in err
        assert not out.exists()

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
        family = RadialFamily(p, 40, 3)
        for n in range(4):
            inside = integrate(lambda r, _: family.values(r, n) ** 2 * r
                               / (1.0 + p.delta_sq * r * r),
                               QuadratureSpec(0.0, r_hi, rel_tol=1e-12, abs_tol=1e-15)).value
            assert inside >= (1.0 - 1e-10) * radial_overlaps(p, [(40, n, n)])[0]


def files_under(out):
    """Each file under the directory out, by name, as bytes."""
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


class TestRowBlocks:
    """Table commands sweep, check and write a block of cli._ROW_BLOCK rows
    at a time: blocks of 7 rows write the bytes one block writes, and a
    refusal in a late block gives one block's text and leaves no file."""

    @pytest.mark.parametrize("argv", [
        ["figures", "--m=1", "--T-count=40", "--format=both"],
        *(["thermo", f"--strategy={strategy}", "--variant=both", "--k-list=-0.1,-0.3",
           "--T-min=0.05", "--T-max=20", "--T-count=33", "--format=both"]
          for strategy in ("direct", "paper", "poisson")),
        ["wavefunction", "--k=-0.2", "--m=2", "--n-max=3", "--r-count=30", "--format=both"],
        # every sample of the first 15 rows underflows to 0
        ["wavefunction", "--k=-0.1", "--m=300", "--n-max=1", "--format=both"],
        ["spectrum", "--k-list=-0.1,-0.2", "--n-max=15", "--format=both"]])
    def test_blocks_of_seven_rows_write_the_same_bytes(self, tmp_path, capsys, monkeypatch,
                                                      argv):
        """CSV and SVG (whose axes a first pass finds before a second writes
        the polylines), the last block short, and the auto T grid's log and
        linear parts in different blocks."""
        assert main(argv + [f"--out={tmp_path / 'one'}"]) == 0
        monkeypatch.setattr(cli, "_ROW_BLOCK", 7)
        assert main(argv + [f"--out={tmp_path / 'seven'}"]) == 0
        one, seven = files_under(tmp_path / "one"), files_under(tmp_path / "seven")
        assert len(one) == (10 if argv[0] in ("figures", "thermo") else 2) and one == seven
        printed = capsys.readouterr().out.splitlines()
        names = [os.path.relpath(line, tmp_path / "one") for line in printed[:len(one)]]
        assert printed == ([str(tmp_path / "one" / name) for name in names]
                           + [str(tmp_path / "seven" / name) for name in names])
        assert sorted(names) == list(one)

    def test_sweeps_of_one_block_and_of_many(self, tmp_path, monkeypatch):
        """A grid of one block makes one sweep per series over the whole
        grid, for CSV and SVG alike; a longer one sweeps each series at the
        grid's two ends, then once per block for CSV and once more per block
        for SVG."""
        real_sweep, lengths = thermo.sweep, []

        def counted(params, m, n, betas, *args):
            lengths.append(len(betas))
            return real_sweep(params, m, n, betas, *args)

        monkeypatch.setattr(thermo, "sweep", counted)
        argv = ["figures", "--T-count=40", "--format=both", f"--out={tmp_path}"]
        assert main(argv) == 0
        assert lengths == [40] * 3
        lengths.clear()
        monkeypatch.setattr(cli, "_ROW_BLOCK", 7)
        assert main(argv) == 0
        assert lengths == [2] * 3 + [7, 7, 7] * 5 + [5] * 3 + ([7] * 5 + [5]) * 3

    def test_late_block_refusal_leaves_nothing(self, tmp_path, capsys, monkeypatch):
        """A non-finite cell found after the files are begun is refused as
        one block refuses it: the first in the tables' order (C before S,
        though S's comes first in row order), with its row in the grid. No
        file, no directory and no path is left."""
        real_sweep = thermo.sweep

        def sweep_with_nans(params, m, n, betas, *args):
            series = real_sweep(params, m, n, betas, *args)
            temps = 1.0 / (params.kb * np.asarray(betas))
            series.s[(temps > 10.0) & (temps < 20.0)] = math.nan
            series.c[temps > 40.0] = math.nan
            return series

        monkeypatch.setattr(thermo, "sweep", sweep_with_nans)
        argv = ["thermo", "--k-list=-0.1,-0.2", "--T-count=40", "--format=both"]
        grid = _temperature_grid({"T_min": 0.1, "T_max": 50.0, "T_count": 40,
                                  "T_spacing": "auto"})
        row = next(i for i, t in enumerate(grid) if t > 40.0)
        assert row > 7 and any(10.0 < t < 20.0 for t in grid[:row])
        for block in (cli._ROW_BLOCK, 7):
            monkeypatch.setattr(cli, "_ROW_BLOCK", block)
            out = tmp_path / "a" / "b"
            assert main(argv + [f"--out={out}"]) == 1
            assert capsys.readouterr() == ("", f"error: non-finite value nan at row {row} "
                                               "column 'C(k=-0.10000000000000001) [kb]'\n")
            assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out", ["file/out", "new/deeper/../../file/out"])
    def test_out_under_a_regular_file_leaves_nothing(self, tmp_path, capsys, out):
        """--out under a regular file: one error line and exit 1. Through
        "..", the writer first makes new and new/deeper, then fails under
        the file; it removes both, as it removes the files it began."""
        (tmp_path / "file").write_bytes(b"")
        argv = ["thermo", "--k=-0.1", "--T-count=40", "--format=both", f"--out={tmp_path / out}"]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: [Errno {errno.ENOTDIR}] Not a directory: "
                                           f"'{tmp_path / out}'\n")
        assert [path.name for path in tmp_path.iterdir()] == ["file"]

    def test_full_disk_on_a_later_write_leaves_nothing(self, tmp_path, capsys, monkeypatch):
        """An OSError(ENOSPC) on the third write to a .part file, a block
        after the heads: one error line, exit 1, and neither the .part
        files nor the directory made for them remain."""
        writes = []

        class FullDisk:
            """A .part file whose third write finds the disk full."""

            def __init__(self, fh):
                self.fh, self.name = fh, fh.name

            def write(self, data):
                writes.append(self.name)
                if len(writes) == 3:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return self.fh.write(data)

            def writelines(self, lines):
                self.write(b"".join(lines))

            def close(self):
                self.fh.close()

        monkeypatch.setattr(output, "open", lambda path, mode: FullDisk(open(path, mode)),
                            raising=False)
        monkeypatch.setattr(cli, "_ROW_BLOCK", 7)
        out = tmp_path / "a" / "b"
        assert main(["spectrum", "--k=-0.1", "--n-max=30", "--format=both", f"--out={out}"]) == 1
        assert capsys.readouterr() == ("", f"error: [Errno {errno.ENOSPC}] "
                                           f"{os.strerror(errno.ENOSPC)}\n")
        assert len(writes) == 3 and all(name.endswith(".part") for name in writes)
        assert list(tmp_path.iterdir()) == []

    def test_range_refusal_of_a_long_grid_names_its_ends(self, tmp_path, capsys, monkeypatch):
        """A grid longer than one block is swept at its two ends first, so a
        range refusal names the whole grid's betas, as one block does, and
        comes before any file is begun (block 0 alone would name its own)."""
        argv = ["thermo", "--alpha=1e305", "--k=-0.1", "--T-min=0.001", "--T-max=1",
                "--T-count=40", f"--out={tmp_path / 'out'}"]
        errors = []
        for block in (cli._ROW_BLOCK, 7):
            monkeypatch.setattr(cli, "_ROW_BLOCK", block)
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and not (tmp_path / "out").exists()
            errors.append(captured.err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("error: Boltzmann weights out of range at alpha=1e+305, "
                                    "kb=1.0, beta in [1.0")

    def test_missed_state_after_many_blocks_leaves_nothing(self, tmp_path, capsys,
                                                           monkeypatch):
        """The missed-state check gathers every block before it refuses."""
        monkeypatch.setattr(cli, "_ROW_BLOCK", 7)
        out = tmp_path / "out"
        assert main(["wavefunction", "--k=-0.1", "--m=1000000", "--n-max=0",
                     f"--out={out}"]) == 1
        assert capsys.readouterr() == ("", "error: k=-0.1, m=1000000, n_max=0: every r sample "
                                           "of state n=0 is exactly 0; the grid misses where "
                                           "it lives\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["thermo", "--k=-0.1", "--N=1", "--T-count=200000"],
                                      ["wavefunction", "--k=-0.1", "--n-max=6",
                                       "--r-count=200000"]])
    def test_memory_flat_in_rows(self, tmp_path, argv):
        """200,000 rows (a 39 MB and a 26 MB CSV) allocate under 64 columns
        of one block of rows: the whole grid's columns took 26 and 21 MB."""
        assert main(argv[:2] + [f"--out={tmp_path}"]) == 0  # one-off allocations
        tracemalloc.start()
        try:
            assert main(argv + [f"--out={tmp_path}"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(path.stat().st_size for path in tmp_path.iterdir()) > 25e6
        assert peak < 64 * 8 * cli._ROW_BLOCK


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

    def test_config_file_not_utf8_refused(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xff alpha = 2\n")
        assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config-error field=config reason=cannot read {cfg}: 'utf-8' codec")
        assert err.count("\n") == 1 and not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("command", ["spectrum", "thermo"])
    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_nonpositive_kb_refused(self, tmp_path, capsys, command, value):
        """kb <= 0 is refused as a configuration error, from a flag or a
        config key, as alpha <= 0 is."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"kb = {value}\n", encoding="utf-8")
        out = tmp_path / "out"
        for source in ([f"--kb={value}"], ["--config", str(cfg)]):
            assert main([command, *source, "--out", str(out)]) == 2
            assert capsys.readouterr().err == "config-error field=kb reason=must be positive\n"
        assert not out.exists()

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


@settings(max_examples=300)
@given(t_min=box.TEMPERATURE, factor=st.floats(1.01, 1000.0),
       count=st.integers(2, 3000), spacing=st.sampled_from(["auto", "linear", "log"]))
def test_temperature_grid_shape(t_min, factor, count, spacing):
    """Every grid has T_count points from T_min to T_max, strictly increasing.

    T_min is a temperature of the box; the span T_max / T_min and the
    count are the grid options' own, not quantities of the box. Grid ends
    within 1e-6 of T=1 are left out: there the auto grid's log or linear
    part is narrower than its points' spacing can resolve in doubles.
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
    wrappers, kernels, test-only oracles or class members (dotted). The
    refusal family is declared in `errors` alone: every exception class of
    the package is a PdmOscError there, and each but the base keeps a
    ValueError or RuntimeError base."""
    from pdm_osc import cli, errors, nu, oscillator, specfun, validate

    modules = (thermo, specfun, oscillator, nu, errors)
    assert all(hasattr(pdm_osc, name) for name in pdm_osc.__all__)
    assert len(set(pdm_osc.__all__)) == len(pdm_osc.__all__)
    assert set(pdm_osc.__all__) == {"__version__"}.union(*(m.__all__ for m in modules))
    deleted = {"partition_direct", "partition_paper", "partition_poisson_independent",
               "average_energy", "heat_capacity", "free_energy", "entropy", "erf",
               "hyp2f1_terminating_magnitude", "hyp2f1_terminating", "PoleError", "erfcx",
               "mass", "total_wavefunction", "_TWO_PI", "radial_overlap",
               "SystemParams.from_delta", "RadialWavefunction.radial_weight",
               "build_solution", "NUSolution", "ThermoInput", "ThermoResult", "evaluate",
               "levels", "_series", "ThermoSeries.__getitem__", "ThermoSeries.__len__",
               "_log", "_libm", "_z", "QuantumState", "make_state", "_check_energy",
               "RadialWavefunction", "radial_wavefunction"}
    for namespace in (pdm_osc,) + modules:
        for name in deleted:
            head, *members = name.split(".")
            found = vars(namespace).get(head)
            for member in members:
                found = getattr(found, member, None)
            assert found is None, f"{namespace.__name__}.{name}"
    family = [vars(errors)[name] for name in errors.__all__]
    assert family[0] is errors.PdmOscError
    assert all(issubclass(cls, (ValueError, RuntimeError)) for cls in family[1:])
    for namespace in modules + (cli, output, validate):
        for value in vars(namespace).values():
            if isinstance(value, type) and issubclass(value, Exception):
                assert issubclass(value, errors.PdmOscError), value
                assert value.__module__ == "pdm_osc.errors", value


def test_every_raise_is_a_refusal():
    """Every raise statement of the package raises, by name, a class of the
    refusal family."""
    from pdm_osc import errors

    package = os.path.dirname(pdm_osc.__file__)
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        for node in ast.walk(ast.parse(read(os.path.join(package, name)))):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                cls = vars(errors).get(getattr(exc, "id", None))
                assert isinstance(cls, type) and issubclass(cls, errors.PdmOscError), \
                    f"{name}:{node.lineno}"


def test_readme_library_block_runs(capsys):
    """README's "Library" python block runs as written."""
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    text = read(readme).split("## Library\n", 1)[1]
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert "poisson" in capsys.readouterr().out


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


def bench_workloads():
    """bench/workloads.py, the benchmark's list of commands, as a module."""
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def option_values(option):
    """Values for option: mostly of its type and within its choices, and
    some that argparse refuses (bad numbers, bad choices) or reads apart
    ("-inf", "-", "--k")."""
    odd = st.sampled_from(["", "x", "-", "--", "-x", "--k", "-.5", "-inf", "-1=3", "a=b", " 7 "])
    if option.choices:
        good = st.sampled_from(option.choices)
    elif option.kind is int:
        good = st.one_of(st.integers(-10**6, 10**6).map(str), st.just("1_000"))
    elif option.kind is float:
        good = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                         st.sampled_from(["inf", "nan", "1e-3"]))
    else:
        good = st.sampled_from(["-0.1,-0.2", "runs", "runs#1", "a=b", ""])
    bad = st.sampled_from(["bogus", "1.5"])
    return st.one_of(*[good] * 8, bad, odd)


@st.composite
def argvs(draw):
    """A command (now and then a token that is not one), then its own
    options in full, each once, and now and then a repeat or any option of
    _OPTIONS abbreviated, with "_" for "-" or unknown; as --name=value,
    --name value or a bare flag; with "--", help, --version and a negative
    number mixed in."""
    command = draw(st.sampled_from(COMMANDS * 6 + ("bogus", "--help", "-1")))
    own = [o for o in cli._OPTIONS if command in o.commands] or list(cli._OPTIONS)
    options = draw(st.lists(st.sampled_from(own), unique_by=lambda o: o.name, max_size=5))
    argv = [command]
    for option in options:
        flag = "--" + option.name.replace("_", "-")
        if draw(st.integers(0, 9)) == 0:
            option = draw(st.sampled_from(cli._OPTIONS))
            flag = draw(st.sampled_from([flag, "--" + option.name.replace("_", "-")[:4],
                                         "--" + option.name, "--bogus"]))
        value = draw(option_values(option))
        if option.kind is bool:
            form = "bare" if draw(st.integers(0, 3)) else draw(st.sampled_from(["=", "separate"]))
        else:
            form = draw(st.sampled_from(["=", "separate"] * 6 + ["bare"]))
        argv += {"=": [f"{flag}={value}"], "separate": [flag, value], "bare": [flag]}[form]
        if draw(st.integers(0, 14)) == 0:
            argv.append(draw(st.sampled_from(["--", "-h", "--help", "--version", "-1", flag])))
    return argv


class TestParser:
    """main reads a plain argv without argparse, into the namespace argparse
    gives; every other argv goes to the parser with every option built, so
    what a user sees is argparse's."""

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
        assert cli._plain_args(argv) == build_parser().parse_args(argv)

    @settings(max_examples=200)
    @given(argv=argvs())
    def test_plain_argv_matches_argparse(self, argv):
        """On any argv drawn from _OPTIONS the plain path gives None or the
        namespace of the parser with every option built, value for value."""
        plain = cli._plain_args(argv)
        if plain is not None:
            # repr tells nan from nan and -0.0 from 0.0, as == does not
            parsed = build_parser().parse_args(argv)
            assert repr(sorted(vars(plain).items())) == repr(sorted(vars(parsed).items()))

    @pytest.mark.parametrize("argv", [
        ["thermo", "--k=-0.1", "--k=-0.2"], ["thermo", "--alp=2"], ["thermo", "--T_min=2"],
        ["thermo", "--T-min", "-inf"], ["thermo", "--T-min=-inf", "--"], ["thermo", "-h"],
        ["validate", "--quick=1"], ["thermo", "--T-count=2.5"], ["thermo", "--format=pdf"],
        ["thermo", "--k"], ["thermo", "--version"], ["--version"], []])
    def test_other_argv_left_to_argparse(self, argv):
        assert cli._plain_args(argv) is None

    def test_plain_argv_builds_no_parser(self, monkeypatch):
        """main builds no ArgumentParser on a plain argv: on each of the
        benchmark's commands (the commands themselves stubbed out) and on a
        real single-point run. The full parser adds each subcommand's
        options (besides --help)."""
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(parser, *args, **kw):
            built.append(kw.get("prog"))
            init(parser, *args, **kw)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert main(["thermo", "--T=1", "--k=-0.1"]) == 0
        for name in ("cmd_tables", "cmd_thermo", "cmd_wavefunction", "cmd_validate"):
            monkeypatch.setattr(cli, name, lambda *args: 0)
        workloads = bench_workloads()
        commands = [c.argv for w in workloads.WORKLOADS for c in workloads.commands(w, 0)]
        assert len(commands) == 14
        for argv in commands:
            assert main(list(argv)) == 0
        assert built == []
        calls = collections.Counter()
        add_argument = argparse.ArgumentParser.add_argument

        def adding(parser, *flags, **kw):
            if flags != ("-h", "--help"):
                calls[parser.prog] += 1
            return add_argument(parser, *flags, **kw)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", adding)
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


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def header_argv(path):
    """The argv a CSV's `#` header names: its command, then each header key
    that is an option of that command, as --key=value, and T_grid as its four
    options."""
    meta = dict(line[2:].split(": ", 1) for line in read(path).splitlines()
                if line.startswith("# "))
    command = meta.pop("command")
    options = {option.name for option in cli._OPTIONS if command in option.commands}
    argv = [command] + [f"--{key.replace('_', '-')}={value}" for key, value in meta.items()
                        if key in options]
    if "T_grid" in meta:
        argv += [f"--T-{part}" for part in meta["T_grid"].split()]
    return argv


def seed0_table_commands():
    """The benchmark's seed-0 commands that write CSV tables, by name."""
    workloads = bench_workloads()
    return [pytest.param(c.argv, id=c.name) for w in workloads.WORKLOADS
            for c in workloads.commands(w, 0) if c.kind in ("table", "wavefunction")]


@pytest.mark.parametrize("argv", seed0_table_commands())
def test_csv_header_reruns_its_command(argv, tmp_path, monkeypatch):
    """Each seed-0 table command, rebuilt from the header of one of its CSVs
    alone, writes the same CSV bytes."""
    monkeypatch.chdir(tmp_path)
    assert main(list(argv)) == 0
    written = sorted(tmp_path.glob("*/*.csv"))
    rebuilt = header_argv(written[0])
    assert cli._plain_args(rebuilt) is not None
    assert main(rebuilt + ["--out=rebuilt"]) == 0
    assert [path.name for path in sorted(tmp_path.glob("rebuilt/*.csv"))] == \
        [path.name for path in written]
    for path in written:
        # digests, as a failing comparison of whole files would be diffed line by line
        assert digest(tmp_path / "rebuilt" / path.name) == digest(path), path.name


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


def digits_17g(x):
    """The class of format(x, '.17g'), the exponent of fixed notation or
    None for the e-form, and the trailing zeros of its 17 digits."""
    mantissa, _, exponent = format(abs(x), ".17g").partition("e")
    whole, _, part = mantissa.partition(".")
    digits = (whole + part).lstrip("0")
    e = len(whole) - 1 if whole != "0" else len(digits) - len(part) - 1
    return None if exponent else e, 17 - len(digits.rstrip("0"))


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

    @settings(max_examples=200)
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
                                output._tables(), np.empty(3 * output._WIDEST, np.uint8))[1].all()
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
        assert output._layout_f(np.array([0.125, 0.1250000001]), output._tables(),
                                np.empty(2 * output._WIDEST, np.uint8))[1].all()

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
        assert peak < 2e6

    def test_write_svg_memory_flat_in_rows(self, tmp_path):
        """Writing a plot of six 200,000-point polylines, a 17 MB file, maps
        and renders each block of points as it comes: no mapped column (1.6
        MB) is ever whole in memory, nor is the file's text."""
        rng = np.random.default_rng(3)
        x = np.linspace(0.1, 50.0, 200_000)
        table = SeriesTable(x_label="x", y_label="y", x=x,
                            columns=[(f"c{j}", rng.normal(size=x.size) * 10.0 ** j)
                                     for j in range(6)])
        tracemalloc.start()
        try:
            table.write_svg(str(tmp_path / "t.svg"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (tmp_path / "t.svg").stat().st_size > 15e6
        assert peak < 1.5e6

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

    def test_csv_cells_of_every_class_and_trailing_zero_count(self):
        """A cell of each sign with each count of trailing zeros, 0 to 16, in
        its 17 digits, in each class: fixed notation with exponent -4 to 16,
        and the e-form; each class in blocks of its own and all in one. And
        10**k with both its neighbours for |k| <= 30, where log10 may
        misplace the exponent."""
        found = {}
        for e in [*range(-4, 17), None]:
            for tz in range(17):
                for i in range(1, 200):
                    # n = 17 - tz digits, the first and the last nonzero
                    n, lead = 17 - tz, str(i % 9 + 1)
                    digits = lead + f"{str(7 ** i)[:n - 2]:3<{n - 2}}" + lead if n > 1 else lead
                    exponent = e if e is not None else (-5, 17, -9, 23, -120, 120)[i % 6]
                    x = float(f"{digits}e{exponent - 16 + tz}")
                    if digits_17g(x) == (e, tz):
                        found[e, tz] = x
                        break
        assert len(found) == 22 * 17
        for e in [*range(-4, 17), None]:
            cells = np.array([x for (c, _), x in found.items() if c == e])
            for block in (cells, -cells, np.concatenate([cells, -cells])):
                assert output._render([block], ".17g", b"\n") == "".join(
                    f"{x:.17g}\n" for x in block.tolist())
        powers = np.array([float(f"1e{k}") for k in range(-30, 31)])
        cells = np.concatenate([list(found.values()), powers, np.nextafter(powers, 0.0),
                                np.nextafter(powers, np.inf)])
        cells = np.concatenate([cells, -cells])
        assert output._render([cells, cells[::-1]], ".17g", b",\n") == "".join(
            f"{a:.17g},{b:.17g}\n" for a, b in zip(cells.tolist(), cells[::-1].tolist()))

    def test_point_blocks_of_every_width(self):
        """'.2f' blocks whose widest cell has 1 to 13 integer digits, each
        with the rounding carries that add a digit at the top of its width
        (9.996 to 10.00), alone and one after another in one column."""
        rng = np.random.default_rng(1)
        assert output._render([np.array([9.996, 99999.996])], ".2f", b" ") == "10.00 100000.00 "
        blocks = []
        for n in range(1, 14):
            top = 10.0 ** n
            block = np.concatenate([rng.uniform(-top, top, 60), [top - 0.004, 0.0, -0.001],
                                    np.round(rng.uniform(0.0, top, 20)) - 0.004])
            blocks.append(np.resize(block, output._BLOCK))
            for cols, seps in (([block], " "), ([block, block[::-1]], ", ")):
                assert output._render(cols, ".2f", seps.encode()) == "".join(
                    f"{a:.2f}{sep}" for row in zip(*[c.tolist() for c in cols])
                    for a, sep in zip(row, seps))
        mixed = np.concatenate(blocks[::-1] + blocks[1::2])
        assert output._render([mixed], ".2f", b" ") == "".join(f"{a:.2f} " for a in mixed.tolist())

    def test_tie_is_left_to_python_formatter(self):
        """A fraction within 1e-6 of a half, here an exact tie, is flagged for
        Python's formatter, and the text of the table stays byte-exact."""
        v = np.array([1234567890123456.25, 0.5, 1234567890123456.0])
        buf = np.empty(3 * output._WIDEST, np.uint8)
        _, slow = output._layout_g(v.copy(), output._tables(), buf)
        assert slow.tolist() == [True, False, False]
        table = SeriesTable(x_label="x", y_label="y", x=v, columns=[("a", -v)])
        assert table.to_csv() == reference_csv(table)
        assert "\n1234567890123456.2,-1234567890123456.2\n" in table.to_csv()
        _, slow = output._layout_f(np.array([0.125, 2.675, 0.25]), output._tables(), buf)
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
