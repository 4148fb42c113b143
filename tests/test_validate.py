"""The batched routes of the self-validation suite against the scalar routes
they replace: one quadrature per overlap group, one residual call per state,
one closed-form sweep per point of the stencil, one Euler-Maclaurin model
per k, one plateau scan per sweep; and checks that fail on a NaN or a
perturbed direct sum."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdm_osc import thermo, validate
from pdm_osc.oscillator import (
    RadialFamily,
    SystemParams,
    _turning_radius,
    energy,
    ode_residual,
    radial_overlaps,
    spectrum_terms,
)
from pdm_osc.specfun import QuadratureSpec, central_diff, integrate

import box
from test_acceptance import _em_first_order_model
from test_oscillator import assert_bits_equal


def scalar_overlap(params, m, n1, n2):
    """One single-row integrate() call with the scalar integrand
    U_n1(r) U_n2(r) r / (1 + delta_sq r^2), each U from its own family,
    breakpoints at the outer turning radius and its doublings."""
    w1, w2 = (RadialFamily(params, m, n) for n in (n1, n2))
    d2 = params.delta_sq
    upper = params.r_max * (1.0 - 1e-10)
    breakpoints = []
    r = max(_turning_radius(params, n, m) for n in (n1, n2))
    while r < upper:
        breakpoints.append(r)
        r *= 2.0
    spec = QuadratureSpec(0.0, upper, rel_tol=1e-10, abs_tol=1e-13,
                          breakpoints=tuple(breakpoints))
    return integrate(lambda r, _: w1.values(r, n1) * w2.values(r, n2) * r / (1.0 + d2 * r * r),
                     spec).value


def fixture_triples():
    """Every (m, n1, n2) that the normalization and orthogonality checks
    integrate."""
    norms = [(m, n, n) for n, m in validate.FIXTURE_STATES]
    pairs = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    return norms + [(m, n1, n2) for m in (0, 1, 2) for n1, n2 in pairs]


class TestRadialOverlaps:
    @pytest.mark.parametrize("alpha,k", validate.FIXTURE_PARAM_SETS)
    def test_fixture_triples_equal_single_row_calls(self, alpha, k):
        p = SystemParams(alpha, k)
        triples = fixture_triples()
        batched = radial_overlaps(p, triples)
        assert batched.tolist() == [scalar_overlap(p, *t) for t in triples]

    @settings(max_examples=25)
    @given(k=box.K, triples=st.lists(st.tuples(box.M, box.DEGREE, box.DEGREE),
                                     min_size=1, max_size=4))
    def test_random_triples_equal_single_row_calls(self, k, triples):
        p = SystemParams(1.0, k)
        assert radial_overlaps(p, triples).tolist() == [scalar_overlap(p, *t) for t in triples]

    def test_no_triples_give_an_empty_array(self):
        assert radial_overlaps(SystemParams(1.0, -0.3), []).shape == (0,)


class TestPerRowBreakpoints:
    def test_refuses_bad_rows(self):
        with pytest.raises(ValueError, match="lower < breakpoints < upper"):
            QuadratureSpec([0.0, 0.0], [4.0, 4.0], breakpoints=[[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError, match="lower < breakpoints < upper"):
            QuadratureSpec([0.0, 0.0], [4.0, 4.0], breakpoints=[[1.0, 2.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="one row per interval"):
            QuadratureSpec([0.0, 0.0, 0.0], [4.0, 4.0, 4.0], breakpoints=[[1.0], [2.0]])
        with pytest.raises(ValueError, match="one row per interval"):
            QuadratureSpec([0.0, 0.0], [4.0, 4.0], breakpoints=[[1.0]])
        with pytest.raises(ValueError, match="one row per interval"):
            QuadratureSpec(0.0, 4.0, breakpoints=[[1.0, 2.0]])

    def test_each_row_as_if_alone(self):
        # a narrow peak per row, found only through that row's breakpoints
        centres = np.array([6.3, 40.0, 250.0])
        uppers = [100.0, 200.0, 1000.0]
        cuts = np.array([[5.0, 8.0], [35.0, 45.0], [200.0, 300.0]])

        def peaks(c):
            return lambda x, rows: np.exp(-(((x - c[rows, None]) / 0.1) ** 2))

        batch = integrate(peaks(centres), QuadratureSpec([0.0] * 3, uppers, breakpoints=cuts))
        for i in range(3):
            alone = integrate(peaks(centres[i:i + 1]),
                              QuadratureSpec(0.0, uppers[i], breakpoints=tuple(cuts[i])))
            assert batch.value[i] == alone.value
            assert batch.error_bound[i] == alone.error_bound
            assert batch.row_refinements[i] == alone.row_refinements
        assert batch.value == pytest.approx(math.sqrt(math.pi) * 0.1, rel=1e-10)


class TestArrayResidual:
    @pytest.mark.parametrize("alpha,k", validate.FIXTURE_PARAM_SETS)
    def test_array_matches_scalar_path(self, alpha, k):
        p = SystemParams(alpha, k)
        rs = p.r_max * (0.02 + 0.96 * np.arange(50) / 49)
        for n, m in validate.FIXTURE_STATES:
            eigen = ode_residual(p, n, m, rs)
            assert eigen.shape == rs.shape
            scalar = [ode_residual(p, n, m, r) for r in rs.tolist()]
            assert eigen == pytest.approx(scalar, rel=0, abs=1e-10)
            shifted = energy(p, n, m) + 0.05
            off = ode_residual(p, n, m, rs, energy_override=shifted)
            scalar = [ode_residual(p, n, m, r, energy_override=shifted) for r in rs.tolist()]
            assert off == pytest.approx(scalar, rel=1e-6, abs=0)

    def test_array_outside_domain_refused(self):
        p = SystemParams(1.0, -0.5)
        with pytest.raises(ValueError):
            ode_residual(p, 0, 0, np.array([0.5, p.r_max]))
        with pytest.raises(ValueError):
            ode_residual(p, 0, 0, np.array([0.0, 0.5]))


class TestStencilReferences:
    @pytest.mark.parametrize("k", [-0.1, -0.3])
    def test_array_stencil_equals_scalar_route(self, k):
        """The per-beta route the check used before it was batched: one
        central_diff per quantity and beta over one-point closed forms."""
        p = SystemParams(1.0, k)
        betas = np.array([0.05, 0.1, 0.5])
        series, u_ref, c_ref, s_ref = validate._stencil_references(p, betas)

        def point(b, quantity):
            return getattr(thermo.sweep(p, 1, 500, [b], thermo.Strategy.PAPER_CLOSED_FORM),
                           quantity).item()

        def stencil(quantity, g=lambda x: x):
            """g of the quantity at each stencil point, one one-point sweep each."""
            return np.vectorize(lambda b: g(point(b, quantity)), otypes=[float])

        for i, beta in enumerate(betas.tolist()):
            h = 1e-3 * beta
            assert u_ref[i] == -central_diff(stencil("z", math.log), beta, 1, h)
            assert c_ref[i] == -beta * beta * central_diff(stencil("u"), beta, 1, h)
            assert s_ref[i] == beta * beta * central_diff(stencil("f"), beta, 1, h)
            assert (series.u[i], series.c[i], series.s[i]) == tuple(
                point(beta, q) for q in ("u", "c", "s"))


@pytest.mark.parametrize("k, m, n, betas", [
    (-0.1, 1, 500, [0.01, 0.2, 1.0, 15.0]),
    (-0.3, 3, 20, [0.01, 0.2, 1.0, 15.0]),
    (-1e-8, 0, 100_000, [2.995e-8, 0.01, 0.2, 1.0, 15.0]),
], ids=["-0.1-1-500", "-0.3-3-20", "-1e-08-0-100000"])
def test_em_terms_over_betas(k, m, n, betas):
    """The triangulation's T1 (signed) and bound on |R3| over an array of
    betas are, at each beta, those of the acceptance suite's scalar
    Euler-Maclaurin model, written without pdm_osc; the sign change of f'''
    lies inside (0, N+1) at the first beta and outside it at the last."""
    p = SystemParams(1.0, k)
    _, slope, q = spectrum_terms(p, m)
    x_star = (np.sqrt(6.0 * q / np.array(betas)) - slope) / (2.0 * q)
    assert 0.0 < x_star[0] < n + 1.0 and not 0.0 < x_star[-1] < n + 1.0
    t1, r3_bound = validate._em_terms(p, m, n, np.array(betas))
    for i, beta in enumerate(betas):
        _, want_t1, want_bound = _em_first_order_model(1.0, k, m, n, beta)
        assert t1[i] == pytest.approx(want_t1, rel=1e-12)
        assert r3_bound[i] == pytest.approx(want_bound, rel=1e-9)


def patch_direct_z(monkeypatch, change):
    """Make every direct series that thermo.sweep returns carry change(Z)."""
    real = thermo.sweep

    def sweep(params, m, n, betas, strategy=thermo.Strategy.DIRECT_SUM, variant="corrected"):
        series = real(params, m, n, betas, strategy, variant)
        if strategy is not thermo.Strategy.DIRECT_SUM:
            return series
        return dataclasses.replace(series, z=change(series.z))

    monkeypatch.setattr(thermo, "sweep", sweep)


def test_triangulation_fails_on_a_direct_sum_off_by_1e_5(monkeypatch):
    """Negative control: a direct Z off by 1e-5 relative departs from T1 by
    16 times the remainder bound at k = -1e-8, beta = 0.02."""
    patch_direct_z(monkeypatch, lambda z: z * (1.0 + 1e-5))
    result = validate.check_strategy_triangulation()
    assert not result.passed
    assert "departs from T1" in result.detail and "k=-1e-08, beta=0.02" in result.detail


class TestNaNFailsCheck:
    """A NaN anywhere in a check's arrays fails the check; the loops these
    checks replaced dropped a NaN unless it came last."""

    def test_ode_checks(self, monkeypatch):
        real = validate.ode_residual

        def nan_in_first_state(p, n_r, m, rs, energy_override=None):
            rows = real(p, n_r, m, rs, energy_override=energy_override)
            rows[0, 0] = math.nan
            return rows

        monkeypatch.setattr(validate, "ode_residual", nan_in_first_state)
        for check in (validate.check_ode_residual, validate.check_ode_sensitivity):
            result = check()
            assert not result.passed and "nan" in result.detail

    def test_quantization_roundtrip(self, monkeypatch):
        real = validate.nu.quantization_residual

        def nan_at_ground_state(c, n):
            residuals = real(c, n) + 0.0 * n
            residuals[0, 0] = math.nan
            return residuals

        monkeypatch.setattr(validate.nu, "quantization_residual", nan_at_ground_state)
        result = validate.check_quantization_roundtrip()
        assert not result.passed and "nan" in result.detail

    def test_strategy_triangulation(self, monkeypatch):
        patch_direct_z(monkeypatch, lambda z: np.where(np.arange(z.size) == 1, math.nan, z))
        result = validate.check_strategy_triangulation()
        assert not result.passed and "nan" in result.detail

    @pytest.mark.parametrize("rows, failed", [([0], {"normalization"}),
                                              ([-1], {"orthogonality"}),
                                              ([0, -1], {"normalization", "orthogonality"})])
    def test_overlaps(self, monkeypatch, rows, failed):
        """The two overlap checks read one batch: a NaN in a norm row fails
        normalization, one in a cross row orthogonality, each with "nan" in
        its detail, and the other check still passes."""
        real = validate.radial_overlaps

        def nan_in_rows(p, triples):
            values = real(p, triples)
            values[rows] = math.nan
            return values

        monkeypatch.setattr(validate, "radial_overlaps", nan_in_rows)
        results = validate.check_overlaps()
        assert [r.name for r in results] == ["normalization", "orthogonality"]
        for result in results:
            assert result.passed == (result.name not in failed)
            assert ("nan" in result.detail) == (result.name in failed)


def test_figure_plateaus_equal_the_plateau_scan(monkeypatch):
    """For each figure (m, k), the plateau that figure_properties reads from
    its one sweep over the figure grid and the lattice is
    find_heat_capacity_plateau(p, m, 500), result for result."""
    expected = [thermo.find_heat_capacity_plateau(SystemParams(1.0, k), m, 500)
                for m in (1, 2) for k in validate.FIGURE_K_LIST]
    real, seen = thermo.plateau_from_lattice, []

    def recorded(c):
        seen.append(real(c))
        return seen[-1]

    monkeypatch.setattr(thermo, "plateau_from_lattice", recorded)
    assert validate.check_figure_properties().passed
    assert None not in expected and seen == expected


@pytest.mark.parametrize("strategy", [thermo.Strategy.DIRECT_SUM,
                                      thermo.Strategy.PAPER_CLOSED_FORM])
def test_sweeps_equal_the_sweep_of_each_grid(strategy):
    """validate._sweeps cuts one sweep over the grids into one series per
    grid, each equal to the sweep of its grid alone in every field, every
    array and every diagnostic bit for bit."""
    p = SystemParams(1.0, -0.1)
    grids = (np.array([0.02, 0.2]), 1.0 / np.linspace(5.0, 50.0, 4), np.array([1.0]))
    parts = validate._sweeps(p, 1, grids, strategy)
    assert len(parts) == len(grids)
    for part, grid in zip(parts, grids):
        alone = thermo.sweep(p, 1, 500, grid, strategy)
        for field in dataclasses.fields(alone):
            got, want = getattr(part, field.name), getattr(alone, field.name)
            if isinstance(want, np.ndarray):
                assert_bits_equal(got, want)
            elif isinstance(want, dict):
                assert got.keys() == want.keys()
                for key in want:
                    assert_bits_equal(got[key], want[key])
            else:
                assert got == want
