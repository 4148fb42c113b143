"""Front-end tests: argument handling, CSV output, determinism, exit codes."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pdm_osc import thermo
from pdm_osc.cli import _temperature_grid, main
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
        inp = p.ThermoInput.from_temperature(pr, 1, 10.0)
        assert float(fields["Z"]) == pytest.approx(p.partition_direct(inp).z, rel=1e-15)
        assert float(fields["U"]) == pytest.approx(p.average_energy(inp), rel=1e-15)
        assert float(fields["C"]) == pytest.approx(p.heat_capacity(inp), rel=1e-15)
        assert float(fields["F"]) == pytest.approx(p.free_energy(inp), rel=1e-15)
        assert float(fields["S"]) == pytest.approx(p.entropy(inp), rel=1e-15)

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
