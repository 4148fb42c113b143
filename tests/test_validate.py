"""The batched routes of the self-validation suite against the scalar routes
they replace: one quadrature per overlap group, one residual call per state,
one closed-form sweep per stencil offset, one truncation estimate per k."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdm_osc import thermo, validate
from pdm_osc.oscillator import (
    SystemParams,
    _turning_radius,
    energy,
    make_state,
    ode_residual,
    radial_overlaps,
    radial_wavefunction,
)
from pdm_osc.specfun import QuadratureSpec, central_diff, integrate


def scalar_overlap(params, m, n1, n2):
    """One single-row integrate() call with the scalar integrand
    w1(r) w2(r) r / (1 + delta_sq r^2), breakpoints at the outer turning
    radius and its doublings."""
    w1 = radial_wavefunction(params, make_state(params, n1, m))
    w2 = radial_wavefunction(params, make_state(params, n2, m))
    d2 = params.delta_sq
    upper = params.r_max * (1.0 - 1e-10)
    breakpoints = []
    r = max(_turning_radius(params, w.state) for w in (w1, w2))
    while r < upper:
        breakpoints.append(r)
        r *= 2.0
    spec = QuadratureSpec(0.0, upper, rel_tol=1e-10, abs_tol=1e-13,
                          breakpoints=tuple(breakpoints))
    return integrate(lambda r, _: w1.value(r) * w2.value(r) * r / (1.0 + d2 * r * r),
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

    @settings(max_examples=25, deadline=None)
    @given(k=st.floats(-0.5, -1e-3),
           triples=st.lists(st.tuples(st.integers(-6, 6), st.integers(0, 6), st.integers(0, 6)),
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
            state = make_state(p, n, m)
            eigen = ode_residual(p, state, rs)
            assert eigen.shape == rs.shape
            scalar = [ode_residual(p, state, r) for r in rs.tolist()]
            assert eigen == pytest.approx(scalar, rel=0, abs=1e-10)
            shifted = state.energy + 0.05
            off = ode_residual(p, state, rs, energy_override=shifted)
            scalar = [ode_residual(p, state, r, energy_override=shifted) for r in rs.tolist()]
            assert off == pytest.approx(scalar, rel=1e-6, abs=0)

    def test_array_outside_domain_refused(self):
        p = SystemParams(1.0, -0.5)
        state = make_state(p, 0, 0)
        with pytest.raises(ValueError):
            ode_residual(p, state, np.array([0.5, p.r_max]))
        with pytest.raises(ValueError):
            ode_residual(p, state, np.array([0.0, 0.5]))


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

        for i, beta in enumerate(betas.tolist()):
            h = 1e-3 * beta
            assert u_ref[i] == -central_diff(lambda b: math.log(point(b, "z")), beta, 1, h)
            assert c_ref[i] == -beta * beta * central_diff(lambda b: point(b, "u"), beta, 1, h)
            assert s_ref[i] == beta * beta * central_diff(lambda b: point(b, "f"), beta, 1, h)
            assert (series.u[i], series.c[i], series.s[i]) == tuple(
                point(beta, q) for q in ("u", "c", "s"))


@pytest.mark.parametrize("k, m, n", [(-0.1, 1, 500), (-0.3, 3, 20), (-1e-8, 0, 100_000)])
def test_em_error_bound_over_betas(k, m, n):
    """The triangulation's truncation estimate over an array of betas is the
    scalar |f'(N+1) - f'(0)| / 12 at each beta, f = exp(-beta E(x)), with E'
    the three-point one-sided difference, exact for the quadratic E."""
    p = SystemParams(1.0, k)
    betas = np.array([0.01, 0.2, 1.0, 15.0])
    slope = lambda x: (-3.0 * energy(p, x, m) + 4.0 * energy(p, x + 1.0, m)
                       - energy(p, x + 2.0, m)) / 2.0
    for beta, got in zip(betas.tolist(), validate._em_error_bound(p, m, n, betas).tolist()):
        f_prime = lambda x: -beta * slope(x) * math.exp(-beta * energy(p, x, m))
        assert got == pytest.approx(abs(f_prime(n + 1.0) - f_prime(0.0)) / 12.0, rel=1e-9)


class TestNaNFailsCheck:
    """A NaN anywhere in a check's arrays fails the check; the loops these
    checks replaced dropped a NaN unless it came last."""

    def test_ode_checks(self, monkeypatch):
        real = validate.ode_residual

        def nan_in_first_state(p, states, rs, energy_override=None):
            rows = real(p, states, rs, energy_override=energy_override)
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
