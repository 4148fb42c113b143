"""Canonical-ensemble tests: three partition strategies, U/C/F/S, reports."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdm_osc import thermo
from pdm_osc.cli import _resolve, _temperature_grid, _thermo_tables, build_parser
from pdm_osc.oscillator import NonPhysicalError, SystemParams, energy, excitation, spectrum_terms
from pdm_osc.specfun import IntegrationError, QuadratureSpec, central_diff, integrate
from pdm_osc.thermo import (
    Strategy,
    compare_strategies,
    find_heat_capacity_plateau,
    paper_z_coefficients,
    sweep,
    _spine,
)
from pdm_osc.validate import strictly_decreasing_resolvable

PHYS = SystemParams(alpha=1.0, k=-0.3)
FIG_KS = (-0.1, -0.2, -0.3)

# the documented parameter space: k in [-5, -1e-8] drawn log-uniformly in |k|,
# |m| <= 60, N <= 1e5
EDGE_K = st.floats(-8.0, math.log10(5.0)).map(lambda u: -(10.0**u))
EDGE_M = st.integers(-60, 60)
EDGE_N = st.integers(1, 100_000)


def em_error_bound(p: SystemParams, m: int, n: int, beta: float) -> float:
    """First-order summation formula truncation: |f'(N+1) - f'(0)| / 12."""
    am = abs(m)
    hyp = math.hypot(p.alpha, p.k)
    e = lambda x: (2 * x + am + 1) * hyp - p.k * (2 * x * x + m * m / 2 + (2 * x + 1) * (am + 1))
    ep = lambda x: 2 * hyp - p.k * (4 * x + 2 * (am + 1))
    n1 = n + 1.0
    return abs(-beta * ep(n1) * math.exp(-beta * e(n1)) + beta * ep(0.0) * math.exp(-beta * e(0.0))) / 12.0


def one_dimensional_sums(d, beta):
    """sum w, the mean <d> and the variance <(d - <d>)^2>, with
    w = exp(-beta d), as uncut 1-D sums over the whole excitation vector d;
    then U = E_0 + <d>."""
    w = np.exp(-beta * d)
    sw = float(w.sum())
    mean = float((d * w).sum()) / sw
    return sw, mean, float(((d - mean) ** 2 * w).sum()) / sw


def summation_formula_oracle(params: SystemParams, m: int, n: int, beta: float,
                             verbatim: bool = False):
    """U, C and S (kb = 1) of the first-order summation formula at 60 digits.

    The moments about E_0, M_j = [d(0)^j f(0) - d(N+1)^j f(N+1)]/2
    + int_0^{N+1} d^j f dx with d = E - E_0 and f = exp(-beta d), come from
    the spectrum formula alone and mpmath's tanh-sinh quadrature, which also
    certifies each integral to 1e-40. verbatim puts the boundary term at the
    paper's verbatim level d_t - a_t instead of at E_0. The integrals stop
    where beta d = 300, if that comes before N + 1: what they drop is below
    1e-120 of each moment. Then U = E_0 + M_1/M_0,
    C = beta^2 (M_2/M_0 - (M_1/M_0)^2) and S = ln M_0 + beta M_1/M_0.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        k, b, am = mpmath.mpf(params.k), mpmath.mpf(beta), abs(m)
        hyp = mpmath.sqrt(mpmath.mpf(params.alpha) ** 2 + k * k)
        e = lambda y: (2 * y + am + 1) * hyp - k * (
            2 * y * y + m * m / mpmath.mpf(2) + (2 * y + 1) * (am + 1))
        e0 = e(0)
        shifted = lambda x: e(x) - e0
        d1 = shifted(n + 1)
        d0 = 0
        if verbatim:
            lam = mpmath.mpf(params.lam)
            d_t = am * mpmath.sqrt(lam**2 + mpmath.mpf(params.alpha) ** 2) - lam * m * m / 2
            d0 = d_t - (k * (am + 1) - hyp) - e0
        # the root of beta d(x) = 300, with d(x) = x (E'(0) + q x), q = -2k
        slope, q = 2 * hyp - 2 * k * (am + 1), -2 * k
        upper = min(n + 1, 600 / b / (slope + mpmath.sqrt(slope**2 + 1200 * q / b)))

        def moment(j):
            ends = (d0**j * mpmath.exp(-b * d0) - d1**j * mpmath.exp(-b * d1)) / 2
            value, error = mpmath.quad(lambda x: shifted(x) ** j * mpmath.exp(-b * shifted(x)),
                                       [0, upper], error=True)
            assert error <= 1e-40 * value
            return ends + value

        m0, m1, m2 = (moment(j) for j in range(3))
        return (float(e0 + m1 / m0), float(b * b * (m2 / m0 - (m1 / m0) ** 2)),
                float(mpmath.log(m0) + b * m1 / m0))


class TestSweepArguments:
    """sweep checks every argument at entry, whatever the grid and strategy."""

    def test_validation(self):
        for strategy in Strategy:
            with pytest.raises(ValueError, match="beta must be positive"):
                sweep(PHYS, 1, 500, [0.0], strategy)
            with pytest.raises(ValueError, match="truncation_n must be >= 0"):
                sweep(PHYS, 1, -1, [1.0], strategy)

    def test_positive_k_needs_opt_in(self):
        p = SystemParams(alpha=1.0, k=0.5, exploratory=True)
        for strategy in Strategy:
            with pytest.raises(NonPhysicalError, match="k > 0") as refused:
                sweep(p, 1, 500, [1.0], strategy)
            assert "accept_truncation" not in str(refused.value)

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_empty_grid_checks_n_and_k(self, strategy):
        """An empty grid is no reason to skip the checks on N and k."""
        with pytest.raises(NonPhysicalError, match="k > 0"):
            sweep(SystemParams(alpha=1.0, k=0.5, exploratory=True), 1, 500, [], strategy)
        with pytest.raises(ValueError, match="truncation_n must be >= 0"):
            sweep(SystemParams(alpha=1.0, k=-0.1), 1, -3, [], strategy)

    @pytest.mark.parametrize("strategy", [Strategy.DIRECT_SUM, Strategy.POISSON_PIPELINE])
    def test_unknown_variant_refused_by_every_strategy(self, strategy):
        """direct and poisson do not read variant, but refuse a name that is
        not one of the closed form's two readings."""
        with pytest.raises(ValueError, match="variant must be 'corrected' or 'verbatim'"):
            sweep(PHYS, 1, 500, [1.0], strategy, "bogus")

    def test_empty_paper_grid_refuses_unknown_variant(self):
        with pytest.raises(ValueError, match="variant must be 'corrected' or 'verbatim'"):
            sweep(PHYS, 1, 500, [], Strategy.PAPER_CLOSED_FORM, "bogus")


class TestTemperatureToBeta:
    """A temperature enters the thermodynamics as beta = 1/(kb T)."""

    def test_from_temperature(self):
        args = build_parser().parse_args(
            ["thermo", "--k", "-0.3", "--m", "1", "--kb", "2", "--T-min", "5",
             "--T-max", "10", "--T-count", "2", "--T-spacing", "linear"])
        tables = _thermo_tables(_resolve(args, "thermo"), "thermo", np.array([5.0, 10.0]))
        series = sweep(SystemParams(alpha=1.0, k=-0.3, kb=2.0), 1, 500, [1.0 / 10.0, 1.0 / 20.0])
        for table, q in zip(tables, "zucfs"):
            (_, column), = table.columns
            np.testing.assert_allclose(column, getattr(series, q), rtol=1e-15)


class TestPartitionDirect:
    def test_geometric_ladder(self):
        p = SystemParams(alpha=1.0, k=0.0, exploratory=True)
        betas = (0.05, 0.1, 0.5, 1.0)
        for beta, z in zip(betas, sweep(p, 1, 500, betas).z.tolist()):
            geometric = math.exp(-2 * beta) / (1.0 - math.exp(-2 * beta))
            assert z == pytest.approx(geometric, rel=1e-10)

    def test_reference_value(self):
        # frozen from a 128-term compensated (fsum) summation; the tail beyond
        # term 128 is below 1e-300 at beta = 1
        assert sweep(PHYS, 1, 500, [1.0]).z.item() == pytest.approx(0.0597456318176708,
                                                                    rel=1e-14)

    def test_against_fsum_oracle(self):
        oracle = math.fsum(math.exp(-energy(PHYS, n, 1)) for n in range(128))
        assert sweep(PHYS, 1, 500, [1.0]).z.item() == pytest.approx(oracle, rel=1e-14)

    def test_single_term(self):
        assert sweep(PHYS, 1, 0, [0.7]).z.item() == pytest.approx(
            math.exp(-0.7 * energy(PHYS, 0, 1)), rel=1e-14
        )

    def test_log_domain_extreme_beta(self):
        log_z = sweep(PHYS, 1, 500, [1000.0]).log_z.item()
        assert math.isfinite(log_z)
        assert log_z == pytest.approx(-1000.0 * energy(PHYS, 0, 1), rel=1e-12)

    def test_tail_diagnostic(self):
        diag = sweep(PHYS, 1, 500, [1.0]).diagnostics
        assert diag["tail_ratio"].item() < 1e-300  # ~exp(-151000)
        # an uncut sum reports w_N / sum w
        w = np.exp(-1e-3 * excitation(PHYS, np.arange(11.0), 1))
        diag = sweep(PHYS, 1, 10, [1e-3]).diagnostics
        assert diag["n_terms"].item() == 11
        assert diag["tail_ratio"].item() == w[-1] / w.sum()

    def test_cut_work_count(self, monkeypatch):
        """Each beta sums only a short prefix of the levels, and every weight
        it drops is exactly 0.0; where none underflows it sums all N+1. A
        series builds only the levels its longest cut reaches."""
        p = SystemParams(alpha=1.0, k=-0.1)
        betas = [1e-4] + list(np.geomspace(0.02, 1e3, 40))
        d = excitation(p, np.arange(100_001.0), 1)
        diag = sweep(p, 1, 100_000, betas).diagnostics
        for beta, n_terms, tail in zip(betas, diag["n_terms"].tolist(),
                                       diag["tail_ratio"].tolist()):
            assert n_terms <= (8192 if beta < 0.02 else 1024)
            assert not np.any(np.exp(-beta * d[n_terms:]))
            assert tail == 0.0
        diag = sweep(SystemParams(alpha=1.0, k=-1e-6), 1, 100_000, [1e-4]).diagnostics
        assert diag["n_terms"].item() == 100_001
        assert diag["tail_ratio"].item() > 0.0
        # a cut whose last kept weight is not 0 still reports w_N / sum w = 0
        d = excitation(PHYS, np.arange(1001.0), 1)
        beta = 735.0 / d[119]
        series = sweep(PHYS, 1, 1000, [beta])
        e0 = spectrum_terms(PHYS, 1)[0]
        assert series.diagnostics["n_terms"].item() == 120
        assert math.exp(-beta * d[119]) / math.exp(series.log_z.item() + beta * e0) > 0.0
        assert series.diagnostics["tail_ratio"].item() == 0.0
        built = []

        def recording(params, n_r, m):
            # the array call builds a series' spectrum; number calls find its cut
            d = excitation(params, n_r, m)
            if np.ndim(d):
                built.append(d)
            return d

        monkeypatch.setattr(thermo, "excitation", recording)
        temps = _temperature_grid({"T_min": 0.1, "T_max": 50.0, "T_count": 500,
                                   "T_spacing": "auto"})
        for k in FIG_KS:
            sweep(SystemParams(alpha=1.0, k=k), 1, 100_000, [1.0 / t for t in temps])
        edge = SystemParams(alpha=1.0, k=-1e-6)
        sweep(edge, 40, 100_000, [1e3])
        sweep(edge, 40, 100_000, [1e-4])
        assert [spectrum.size for spectrum in built] == [776, 384, 384, 96, 100_001]
        assert built[-1].tolist() == excitation(edge, np.arange(100_001.0), 40).tolist()
        # k > 0 is refused before any level is built
        with pytest.raises(NonPhysicalError):
            sweep(SystemParams(alpha=1.0, k=0.5, exploratory=True), 1, 100_000, [1e-4])
        assert len(built) == 5


class TestPaperCoefficients:
    def test_d_vanishes_at_m0(self):
        for variant in ("corrected", "verbatim"):
            assert paper_z_coefficients(PHYS, 0, 500, variant).d_t == 0.0

    def test_a_coefficient_value(self):
        p = SystemParams(alpha=1.0, k=-0.5)
        co = paper_z_coefficients(p, 1, 500)
        assert co.a_t == pytest.approx(-0.5 * 2.0 - math.sqrt(1.25), rel=1e-14)
        assert co.a_t == pytest.approx(-2.1180339887498949, abs=1e-12)

    def test_rejects_nonnegative_k(self):
        p = SystemParams(alpha=1.0, k=0.0, exploratory=True)
        with pytest.raises(NonPhysicalError):
            paper_z_coefficients(p, 1, 500)

    def test_variant_name_checked(self):
        with pytest.raises(ValueError):
            paper_z_coefficients(PHYS, 1, 500, "fixed")

    @settings(max_examples=200, deadline=None)
    @given(k=EDGE_K, m=EDGE_M, n=EDGE_N)
    def test_coefficients_are_spectrum_values(self, k, m, n):
        """a_t - d_t = -E_0 (corrected d_t), c_t = E_{N+1}, a_t = -E'(0)/2,
        b_t = E'(N+1)/2, (a_t^2 - alpha^2)/2k = -E_0 and
        (b_t^2 - alpha^2)/2k = -E_{N+1}, each to the roundoff of its terms,
        for the paper's literal a_t, b_t and c_t expressions and for the
        coefficients paper_z_coefficients takes from the spectrum.

        E' is the three-point one-sided difference, exact for the quadratic E.
        """
        p = SystemParams(alpha=1.0, k=k)
        co = paper_z_coefficients(p, m, n)
        s, am = math.hypot(1.0, k), abs(m)
        literal = dataclasses.replace(
            co, a_t=k * (am + 1.0) - s, b_t=-(3.0 + am + 2.0 * n) * k + s,
            c_t=(2.0 * n + am + 3.0) * s - k * (
                2.0 * n**2 + m * m / 2.0 + 6.0 * n + 5.0 + 2.0 * n * am + 3.0 * am))
        e = lambda x: energy(p, x, m)
        e0, e1 = e(0.0), e(n + 1.0)

        def slope(x):
            return (-3.0 * e(x) + 4.0 * e(x + 1.0) - e(x + 2.0)) / 2.0, 8.0 * e(x + 2.0)

        def close(lhs, rhs, scale):
            assert abs(lhs - rhs) <= 1e-14 * scale

        d0, scale0 = slope(0.0)
        d1, scale1 = slope(n + 1.0)
        for c in (literal, co):
            close(c.a_t - c.d_t, -e0, e0)
            close(c.c_t, e1, e1)
            close(c.a_t, -d0 / 2.0, scale0)
            close(c.b_t, d1 / 2.0, scale1)
            # the squares cancel as k -> 0-, so compare before dividing by 2k
            close(c.a_t**2 - 1.0, -2.0 * k * e0, c.a_t**2 + 1.0)
            close(c.b_t**2 - 1.0, -2.0 * k * e1, c.b_t**2 + 1.0)


class TestPartitionPaper:
    def test_both_variants_reported(self):
        corrected, verbatim = (sweep(PHYS, 1, 500, [0.2], Strategy.PAPER_CLOSED_FORM, v)
                               for v in ("corrected", "verbatim"))
        assert (corrected.variant, verbatim.variant) == ("corrected", "verbatim")
        default = sweep(PHYS, 1, 500, [0.2], Strategy.PAPER_CLOSED_FORM)
        assert default.variant == "corrected"
        assert default.z.item() == corrected.z.item()
        assert corrected.z.item() != verbatim.z.item()

    def test_variants_coincide_at_m0(self):
        corrected, verbatim = (sweep(PHYS, 0, 500, [0.2], Strategy.PAPER_CLOSED_FORM, v)
                               for v in ("corrected", "verbatim"))
        assert corrected.z.item() == verbatim.z.item()

    def test_high_temperature_agreement(self):
        """Best closed-form variant within 5% of the direct sum on T in [5, 50]."""
        for k in FIG_KS:
            p = SystemParams(alpha=1.0, k=k)
            comp = compare_strategies(p, 1, 500, [1.0 / t for t in np.linspace(5.0, 50.0, 10)])
            assert comp.max_rel_paper_best <= 0.05

    def test_large_beta_sign_and_monotonicity(self):
        betas = (2.0, 3.0, 5.0)
        zs = sweep(PHYS, 1, 500, betas, Strategy.PAPER_CLOSED_FORM).z.tolist()
        zd = sweep(PHYS, 1, 500, betas).z.tolist()
        assert all(z > 0 for z in zs)
        assert all(b < a for a, b in zip(zs, zs[1:]))  # decreasing in beta
        assert all(b < a for a, b in zip(zd, zd[1:]))

    def test_no_spurious_nonpositive_flag(self):
        for variant in ("corrected", "verbatim"):
            series = sweep(PHYS, 1, 500, (0.05, 0.5, 5.0), Strategy.PAPER_CLOSED_FORM, variant)
            assert "nonpositive_z" not in series.diagnostics


class TestPartitionPoisson:
    def test_constant_integrand_formula_is_exact(self):
        """Degenerate harness: for f == c the summation formula gives (N+1) c."""
        n_max, c = 37, 0.8127
        f = lambda x, _=None: np.full(np.shape(x), c)
        integral = integrate(f, QuadratureSpec(0.0, n_max + 1.0)).value
        total = 0.5 * (f(0.0) - f(n_max + 1.0)) + integral
        assert total == pytest.approx((n_max + 1) * c, rel=1e-13)

    def test_matches_closed_form_to_quadrature_accuracy(self):
        """Same formula through independent algebra: agreement certifies the
        erf manipulations inside the closed form."""
        for k in (-0.1, -0.3):
            p = SystemParams(alpha=1.0, k=k)
            betas = (0.05, 0.2, 1.0)
            zps = sweep(p, 1, 500, betas, Strategy.POISSON_PIPELINE).z.tolist()
            zcs = sweep(p, 1, 500, betas, Strategy.PAPER_CLOSED_FORM, "corrected").z.tolist()
            for zp, zc in zip(zps, zcs):
                assert zp == pytest.approx(zc, rel=1e-9)

    def test_direct_sum_gap_matches_truncation_bound(self):
        """The pipeline differs from the direct sum by the predicted
        first-order truncation error of the summation formula (within 2x)."""
        for k in FIG_KS:
            p = SystemParams(alpha=1.0, k=k)
            betas = (0.01, 0.05, 0.1, 0.5, 1.0)
            gaps = np.abs(sweep(p, 1, 500, betas).z
                          - sweep(p, 1, 500, betas, Strategy.POISSON_PIPELINE).z)
            for beta, gap in zip(betas, gaps.tolist()):
                assert gap <= 2.0 * em_error_bound(p, 1, 500, beta) + 1e-12

    def test_quadrature_diagnostics_present(self):
        diag = sweep(PHYS, 1, 500, [0.1], Strategy.POISSON_PIPELINE).diagnostics
        assert (diag["quadrature_evaluations"].item()
                == 15 + 30 * diag["quadrature_refinements"].item())
        # relative to each integral, worst over f, (E - E_0) f, (E - E_0)^2 f
        assert 0.0 < diag["quadrature_error_bound"].item() <= 1e-11

    def test_large_n_integral_not_falsely_zero(self):
        """At N = 1e5 the integrand's support, width ~ (beta |k|)^(-1/2), is
        far narrower than [0, N+1]; the quadrature must still find it
        (`thermo --T 10 --k -0.3 --m 1 --N 100000 --strategy poisson`)."""
        beta = 1.0 / (PHYS.kb * 10.0)
        z = sweep(PHYS, 1, 100_000, [beta], Strategy.POISSON_PIPELINE).z.item()
        gap = abs(z - sweep(PHYS, 1, 100_000, [beta]).z.item())
        assert gap <= 2.0 * em_error_bound(PHYS, 1, 100_000, beta) + 1e-12
        assert z == pytest.approx(
            sweep(PHYS, 1, 100_000, [beta], Strategy.PAPER_CLOSED_FORM).z.item(), rel=1e-12)


class TestAverageEnergy:
    def test_ground_state_limit(self):
        assert sweep(PHYS, 1, 500, [500.0]).u.item() == pytest.approx(energy(PHYS, 0, 1),
                                                                      abs=1e-10)

    def test_ladder_closed_form(self):
        p = SystemParams(alpha=1.0, k=0.0, exploratory=True)
        betas = (0.05, 0.2, 1.0)
        for beta, u in zip(betas, sweep(p, 1, 500, betas).u.tolist()):
            assert u == pytest.approx(2.0 + 2.0 / (math.exp(2.0 * beta) - 1.0), rel=1e-10)

    def test_closed_form_matches_difference_quotient(self):
        for beta in (0.05, 0.1, 0.5):
            def log_z(b):
                return math.log(
                    sweep(PHYS, 1, 500, [b], Strategy.PAPER_CLOSED_FORM, "corrected").z.item()
                )

            expected = -central_diff(log_z, beta, 1, h=1e-3 * beta)
            u = sweep(PHYS, 1, 500, [beta], Strategy.PAPER_CLOSED_FORM).u.item()
            assert u == pytest.approx(expected, rel=1e-6)

    def test_strategies_converge_at_small_beta(self):
        beta = 0.005
        vals = [sweep(PHYS, 1, 500, [beta], s).u.item() for s in Strategy]
        assert max(vals) - min(vals) <= 0.02 * abs(vals[0])


class TestHeatCapacity:
    @settings(max_examples=60, deadline=None)
    @given(beta=st.floats(0.01, 50.0), k=st.sampled_from(FIG_KS))
    def test_direct_nonnegative(self, beta, k):
        p = SystemParams(alpha=1.0, k=k)
        assert sweep(p, 1, 500, [beta]).c.item() >= 0.0

    def test_ladder_equipartition(self):
        p = SystemParams(alpha=1.0, k=0.0, exploratory=True)
        c = sweep(p, 1, 500, [1.0 / (p.kb * 100.0)]).c.item()
        assert c == pytest.approx(1.0, abs=0.01)

    def test_plateau_exists_per_k(self):
        for k in FIG_KS:
            p = SystemParams(alpha=1.0, k=k)
            plateau = find_heat_capacity_plateau(p, 1, 500)
            assert plateau is not None
            assert plateau.variation < 0.01
            # saturation toward the quadratic-spectrum equipartition value
            assert 0.4 < plateau.value < 0.8

    @pytest.mark.parametrize("m, k", [(1, -0.1), (2, -0.3)])
    def test_plateau_lattice_matches_window_loop(self, m, k):
        """The scan's one sweep over the lattice T_i = 0.5 2^(i/24) gives the
        PlateauResult, bit for bit, of a loop that sweeps each window's nine
        lattice temperatures T_{i+3j} alone; each window ends at 2 T_i."""
        temps = 0.5 * np.exp2(np.arange(319) / 24.0)
        assert temps[294] <= 2500.0 < temps[295]
        np.testing.assert_allclose(temps[24:], 2.0 * temps[:295], rtol=1e-15, atol=0.0)
        p = SystemParams(alpha=1.0, k=k)
        expected = None
        for i in range(295):
            cs = sweep(p, m, 500, 1.0 / (p.kb * temps[i:i + 25:3])).c
            variation = (cs.max() - cs.min()) / cs.mean()
            if variation < 0.01:
                expected = thermo.PlateauResult(temps[i].item(), cs.mean().item(),
                                                variation.item())
                break
        assert expected is not None
        assert find_heat_capacity_plateau(p, m, 500) == expected

    @pytest.mark.parametrize("n, kb", [(0, 1.0), (500, 1e300)])
    def test_plateau_zero_heat_capacity_never_qualifies(self, n, kb):
        """A single level makes C exactly 0 on every window: no window
        qualifies, and no 0/0 warns (a RuntimeWarning is an error here). At
        kb = 1e300 every beta = 1/(kb T) is at most 2e-300, so all 501 levels
        weigh alike and C = var / (kb T^2), about 2e-292 / T^2: nonzero, but
        it falls fourfold over each window, and none qualifies."""
        assert find_heat_capacity_plateau(SystemParams(alpha=1.0, k=-0.1, kb=kb), 1, n) is None

    def test_tiny_beta_keeps_its_heat_capacity(self):
        """C = kb beta beta var, formed left to right: at kb = 1e300 and
        beta = 2e-300, kb beta is 2 and C is about 1e-291, where beta^2
        alone underflows to 0."""
        p, beta = SystemParams(alpha=1.0, k=-0.1, kb=1e300), 2e-300
        _, _, var = one_dimensional_sums(excitation(p, np.arange(501.0), 1), beta)
        c = sweep(p, 1, 500, [beta]).c.item()
        assert c == p.kb * beta * beta * var
        assert 1e-292 < c < 1e-290

    def test_plateau_beta_square_overflow_refused(self):
        """At kb = 1e-300 the lattice's betas have no finite square: the scan
        refuses with sweep's typed error."""
        with pytest.raises(ValueError, match="beta must be positive with a finite square"):
            find_heat_capacity_plateau(SystemParams(alpha=1.0, k=-0.1, kb=1e-300), 1, 500)

    def test_poisson_strategy_close_to_closed_form(self):
        betas = (0.1, 2.0, 10.0)
        cp, cc = (sweep(PHYS, 1, 500, betas, strategy).c.tolist()
                  for strategy in (Strategy.POISSON_PIPELINE, Strategy.PAPER_CLOSED_FORM))
        assert cp == pytest.approx(cc, rel=1e-9)

    def test_poisson_against_mpmath_summation_formula(self):
        """At (k=-1e-6, m=40, N=1e5, beta=1e3) the pipeline's C matches the
        moments about E_0 of the summation formula, integrated at 60 digits."""
        p, m, n, beta = SystemParams(alpha=1.0, k=-1e-6), 40, 100_000, 1e3
        res = sweep(p, m, n, [beta], Strategy.POISSON_PIPELINE)
        u, c, _ = summation_formula_oracle(p, m, n, beta)
        assert res.c.item() == pytest.approx(c, rel=1e-9)
        assert res.u.item() == pytest.approx(u, rel=1e-13)


class TestMomentsAgainstOracle:
    """The closed form (corrected d_t) and the pipeline hold C, U and S to
    the 60-digit summation formula over the documented box: k in
    [-0.5, -1e-8], |m| <= 60, N in [1, 1e5], beta in [1e-4, 1e3], alpha = 1.
    The closed form is within 1e-10 of it and within 1e-9 of the pipeline;
    the pipeline, whose quadrature asks for 1e-11, within 1e-9. S is held
    relative to max(|S|, 0.01), as it crosses 0 where ln M_0 = -beta <d>."""

    @staticmethod
    def assert_matches_oracle(k, m, n, beta):
        p = SystemParams(alpha=1.0, k=k)
        u, c, s = summation_formula_oracle(p, m, n, beta)
        paper, poisson = ([getattr(series, q).item() for q in "cus"]
                          for series in (sweep(p, m, n, [beta], strategy) for strategy in (
                              Strategy.PAPER_CLOSED_FORM, Strategy.POISSON_PIPELINE)))
        for (c_got, u_got, s_got), rel in ((paper, 1e-10), (poisson, 1e-9)):
            assert c_got == pytest.approx(c, rel=rel, abs=0.0)
            assert u_got == pytest.approx(u, rel=rel, abs=0.0)
            assert s_got == pytest.approx(s, rel=rel, abs=0.01 * rel)
        assert paper[0] == pytest.approx(poisson[0], rel=1e-9, abs=0.0)
        assert paper[1] == pytest.approx(poisson[1], rel=1e-9, abs=0.0)
        assert paper[2] == pytest.approx(poisson[2], rel=1e-9, abs=1e-11)

    @pytest.mark.parametrize("k, m, n, beta", [
        (-1e-8, 0, 100_000, 1e3), (-1e-8, 0, 1, 1e-4), (-1e-6, 40, 100_000, 1e3),
        (-0.3, 1, 500, 1e3)])
    def test_named_points(self, k, m, n, beta):
        """Regime edges: k -> 0- at the ends of the beta and N ranges, large
        |m| near k = 0, and low temperature at a figure's k."""
        self.assert_matches_oracle(k, m, n, beta)

    def test_verbatim_low_boundary_level(self):
        """The verbatim boundary level lies below E_0 at m = 3 and carries
        nearly all of M_0 at beta = 9.1: its tiny variance must not cancel."""
        p, m, n, beta = SystemParams(alpha=1.0, k=-0.0877), 3, 500, 9.124087591240876
        u, c, s = summation_formula_oracle(p, m, n, beta, verbatim=True)
        res = sweep(p, m, n, [beta], Strategy.PAPER_CLOSED_FORM, "verbatim")
        assert res.c.item() == pytest.approx(c, rel=1e-12, abs=0.0) and 0.0 < c < 1e-12
        assert res.u.item() == pytest.approx(u, rel=1e-14, abs=0.0)
        assert res.s.item() == pytest.approx(s, rel=1e-12, abs=0.0)

    @settings(max_examples=12, deadline=None)
    @given(k=st.floats(-8.0, math.log10(0.5)).map(lambda u: -(10.0**u)),
           m=EDGE_M, n=st.floats(0.0, 5.0).map(lambda u: round(10.0**u)),
           beta=st.floats(-4.0, 3.0).map(lambda u: 10.0**u))
    def test_box(self, k, m, n, beta):
        self.assert_matches_oracle(k, m, n, beta)


class TestFreeEnergyEntropy:
    def test_single_level_free_energy(self):
        assert sweep(PHYS, 1, 0, [0.7]).f.item() == pytest.approx(energy(PHYS, 0, 1), rel=1e-13)

    def test_free_energy_decreasing(self):
        for k in FIG_KS:
            p = SystemParams(alpha=1.0, k=k)
            fs = sweep(p, 1, 500, 1.0 / (p.kb * np.linspace(0.5, 50.0, 40))).f.tolist()
            assert all(b < a for a, b in zip(fs, fs[1:]))

    def test_identity(self):
        temps = np.geomspace(0.1, 50.0, 25)
        series = sweep(PHYS, 1, 500, 1.0 / (PHYS.kb * temps))
        for t, f, u, s in zip(temps.tolist(), series.f.tolist(), series.u.tolist(),
                              series.s.tolist()):
            assert abs(f - (u - t * s)) <= 1e-8 * max(1.0, abs(f))

    def test_third_law_limit(self):
        s = sweep(PHYS, 1, 500, [200.0]).s.item()
        assert 0.0 <= s <= 1e-100

    def test_entropy_increasing(self):
        for k in FIG_KS:
            p = SystemParams(alpha=1.0, k=k)
            ss = sweep(p, 1, 500, 1.0 / (p.kb * np.geomspace(0.1, 50.0, 40))).s.tolist()
            assert all(b > a for a, b in zip(ss, ss[1:]))

    def test_entropy_triangulation(self):
        """Direct vs closed form within 5% over the high-temperature window."""
        for k in FIG_KS:
            p = SystemParams(alpha=1.0, k=k)
            betas = 1.0 / (p.kb * np.linspace(5.0, 50.0, 8))
            sds, sps = (sweep(p, 1, 500, betas, strategy).s.tolist()
                        for strategy in (Strategy.DIRECT_SUM, Strategy.PAPER_CLOSED_FORM))
            for sd, sp in zip(sds, sps):
                assert abs(sp - sd) <= 0.05 * abs(sd)

    def test_negative_entropy_flagged_not_fixed(self):
        series = sweep(PHYS, 1, 500, [0.05, 10.0, 200.0], Strategy.PAPER_CLOSED_FORM)
        hot, s, deep = series.s.tolist()
        assert hot > 0.0 > s
        assert series.diagnostics["negative_entropy"].tolist() == [False, True, True]
        # the approximate Z tends to exp(-beta E0)/2, so S drifts to -ln 2
        # with an O(1/beta) tail
        assert deep == pytest.approx(-math.log(2.0), abs=0.01)
        # a NaN S is flagged too: S = kb ln M_0 here, with M_0 = 2, 1/2 and NaN
        flagged = thermo._from_moments(Strategy.DIRECT_SUM, 1.0, np.ones(3), 0.0,
                                       np.array([2.0, 0.5, math.nan]), np.zeros(3),
                                       np.zeros(3), {})
        assert flagged.diagnostics["negative_entropy"].tolist() == [False, True, True]


class TestTruncation:
    def test_insensitivity_from_300(self):
        for k in FIG_KS:
            p = SystemParams(alpha=1.0, k=k)
            betas = 1.0 / (p.kb * np.array([1.0, 10.0, 50.0]))
            z300, z500 = (sweep(p, 1, n, betas).z for n in (300, 500))
            assert np.all(np.abs(z300 - z500) <= 1e-12 * z500)

    def test_z_monotone_in_temperature(self):
        for k in FIG_KS:
            p = SystemParams(alpha=1.0, k=k)
            zs = sweep(p, 1, 500, 1.0 / (p.kb * np.geomspace(0.1, 50.0, 30))).z.tolist()
            assert all(b > a for a, b in zip(zs, zs[1:]))


class TestComparisonReport:
    def test_report_contents(self):
        comp = compare_strategies(PHYS, 1, 500, [0.05, 0.2])
        assert len(comp.rows) == 2
        text = comp.format()
        assert "rel_poisson" in text
        assert "best" in text
        assert comp.max_rel_poisson > 0.0

    def test_maxima_propagate_nan(self):
        """A NaN in any row reads NaN in both maxima, wherever it sits."""
        keys = ("rel_corrected", "rel_verbatim", "rel_poisson")
        comp = thermo.StrategyComparison(rows=[dict(zip(keys, (0.01, math.nan, 0.0))),
                                               dict(zip(keys, (math.nan, 0.02, math.nan)))])
        assert math.isnan(comp.max_rel_poisson)
        assert math.isnan(comp.max_rel_paper_best)

    def test_levels_shape(self):
        """The excitations d_0..d_N a direct sweep reduces: d_0 = 0 and
        E_0 + d = E."""
        d = excitation(PHYS, np.arange(11.0), 1)
        assert d.shape == (11,)
        assert d[0] == 0.0
        e0 = spectrum_terms(PHYS, 1)[0]
        assert (e0 + d).tolist() == energy(PHYS, np.arange(11.0), 1).tolist()


# the diagnostics columns of a series under each strategy
DIAGNOSTIC_COLUMNS = {
    Strategy.DIRECT_SUM: ["n_terms", "tail_ratio", "negative_entropy"],
    Strategy.PAPER_CLOSED_FORM: ["negative_entropy"],
    Strategy.POISSON_PIPELINE: ["quadrature_refinements", "quadrature_evaluations",
                                "quadrature_error_bound", "negative_entropy"],
}


def assert_bits_equal(got: np.ndarray, want: np.ndarray) -> None:
    """Same shape, dtype and bits: NaN equals NaN, and 0.0 is not -0.0."""
    np.testing.assert_array_equal(got, want, strict=True)
    assert got.tobytes() == want.tobytes()


def assert_points_equal_grid(params, m, n, betas, strategy, variant="corrected"):
    """Every quantity and diagnostic of point i of sweep(betas) equals that of
    the one-point sweep at betas[i], bit for bit."""
    series = sweep(params, m, n, betas, strategy, variant)
    points = [sweep(params, m, n, [beta], strategy, variant) for beta in betas]
    assert series.strategy is strategy
    assert series.variant == (variant if strategy is Strategy.PAPER_CLOSED_FORM else None)
    assert series.beta.tolist() == [float(b) for b in betas]
    assert list(series.diagnostics) == DIAGNOSTIC_COLUMNS[strategy]
    for name in ("z", "log_z", "u", "c", "f", "s"):
        assert_bits_equal(getattr(series, name),
                          np.concatenate([getattr(point, name) for point in points]))
    for name, column in series.diagnostics.items():
        assert_bits_equal(column, np.concatenate([point.diagnostics[name] for point in points]))


class TestSweep:
    """A point of a sweep does not depend on its grid: it equals the
    one-point sweep at its beta, bit for bit, diagnostics too."""

    def test_direct_grid_longer_than_one_block(self):
        # 501 levels fill a block with 130 beta rows; 400 betas span four blocks
        assert_points_equal_grid(PHYS, 1, 500, list(np.geomspace(1e-3, 50.0, 400)),
                                 Strategy.DIRECT_SUM)

    def test_direct_large_n(self):
        assert_points_equal_grid(PHYS, 2, 100_000, [1e-4, 0.01, 0.3, 7.0], Strategy.DIRECT_SUM)

    # the ids without k are PHYS's k = -0.3
    @pytest.mark.parametrize("k, n", [(-0.3, 1), (-0.3, 500), (-0.3, 100_000),
                                      (-1e-8, 500), (-1e-8, 100_000), (0.0, 500)],
                             ids=["1", "500", "100000", "k=-1e-08-500", "k=-1e-08-100000",
                                  "k=0-500"])
    def test_direct_matches_one_dimensional_sums(self, k, n):
        """The block reduction equals the per-beta 1-D sums over all N+1
        levels, bit for bit, though it builds only the levels its longest
        cut reaches and runs exp only where a weight is not exactly 0.0. The
        betas take in 1e3 and cuts whose last kept weight is subnormal,
        beta d_j in [708, 746]; C is beta * beta * var, and the betas added
        here are ones where libm's pow gives another beta**2."""
        p = SystemParams(alpha=1.0, k=k, exploratory=k >= 0.0)
        d = excitation(p, np.arange(n + 1.0), 1)
        e0 = spectrum_terms(p, 1)[0]
        betas = list(np.geomspace(1e-4, 100.0, 300 if n == 500 else 3)) + [1e3]
        betas += [b for b in np.geomspace(1e-4, 100.0, 20_000).tolist() if b**2 != b * b][:8]
        betas += [x / d[j - 1] for j in _spine(n + 1) if d[j - 1] > 0.0
                  for x in (708.5, 727.0, 745.9)]
        reference = [one_dimensional_sums(d, beta) for beta in betas]
        series = sweep(p, 1, n, betas)
        got = zip(*(getattr(series, name).tolist() for name in ("log_z", "u", "c", "s")))
        for beta, point, (sw, mean, var) in zip(betas, got, reference):
            assert point == (-beta * e0 + np.log(sw), e0 + mean, beta * beta * var,
                             np.log(sw) + beta * mean)

    @pytest.mark.parametrize("variant", ["corrected", "verbatim"])
    def test_paper(self, variant):
        assert_points_equal_grid(PHYS, 3, 500, list(np.geomspace(0.01, 5.0, 150)),
                                 Strategy.PAPER_CLOSED_FORM, variant)

    def test_paper_across_erfcx_switch(self):
        # at N = 1 both erfcx arguments sqrt(-beta a_t^2 / 2k) and
        # sqrt(-beta b_t^2 / 2k) cross 1.5, and s = beta (E_2 - E_0) crosses 1,
        # where the closed form switches from its series to the half-line moments
        betas = list(np.linspace(0.05, 0.3, 80))
        s = [b * (energy(PHYS, 2.0, 3) - energy(PHYS, 0.0, 3)) for b in betas]
        assert min(s) < 1.0 < max(s)
        co = paper_z_coefficients(PHYS, 3, 1)
        args = [math.sqrt(-b * c * c / (2.0 * PHYS.k)) for b in betas for c in (co.a_t, co.b_t)]
        assert sum(a < 1.5 for a in args[0::2]) * sum(a >= 1.5 for a in args[0::2]) > 0
        assert sum(a < 1.5 for a in args[1::2]) * sum(a >= 1.5 for a in args[1::2]) > 0
        for variant in ("corrected", "verbatim"):
            assert_points_equal_grid(PHYS, 3, 1, betas, Strategy.PAPER_CLOSED_FORM, variant)

    def test_direct_many_cut_lengths(self):
        betas = list(np.geomspace(1e-4, 1e3, 60))
        assert_points_equal_grid(PHYS, 2, 100_000, betas, Strategy.DIRECT_SUM)
        lengths = set(sweep(PHYS, 2, 100_000, betas).diagnostics["n_terms"].tolist())
        assert len(lengths) >= 6

    def test_poisson(self):
        # the 300-point temperature grid of the figures, T in [0.1, 50]
        temps = _temperature_grid({"T_min": 0.1, "T_max": 50.0, "T_count": 300,
                                   "T_spacing": "auto"})
        assert_points_equal_grid(PHYS, 1, 500, [1.0 / t for t in temps],
                                 Strategy.POISSON_PIPELINE)
        assert_points_equal_grid(SystemParams(alpha=1.0, k=-1e-6), 40, 100_000, [1e-4, 1e3],
                                 Strategy.POISSON_PIPELINE)

    def test_paper_flags_and_negative_entropy(self):
        """Both variants at m = 3 reach the beta where S < 0; the
        negative_entropy column flags it point by point."""
        betas = [0.05, 2.0, 10.0, 200.0]
        for variant in ("corrected", "verbatim"):
            assert_points_equal_grid(PHYS, 3, 500, betas, Strategy.PAPER_CLOSED_FORM, variant)
            series = sweep(PHYS, 3, 500, betas, Strategy.PAPER_CLOSED_FORM, variant)
            flags = series.diagnostics["negative_entropy"]
            assert flags[-1] and series.s[-1] < 0.0
            assert not flags[0] and series.s[0] >= 0.0

    @settings(max_examples=40, deadline=None)
    @given(k=EDGE_K, m=EDGE_M, n=st.integers(0, 100_000),
           betas=st.lists(st.floats(-4.0, 3.0).map(lambda u: 10.0**u), min_size=2, max_size=6),
           strategy=st.sampled_from(list(Strategy)),
           variant=st.sampled_from(["corrected", "verbatim"]))
    def test_point_does_not_depend_on_grid(self, k, m, n, betas, strategy, variant):
        """Over the documented box: k in [-5, -1e-8], |m| <= 60, N <= 1e5 and
        2 to 6 betas in [1e-4, 1e3], under every strategy and variant. A grid
        may be refused only with ValueError, and only where one of its points
        is refused too."""
        params = SystemParams(alpha=1.0, k=k)
        try:
            sweep(params, m, n, betas, strategy, variant)
        except ValueError:
            refused = 0
            for beta in betas:
                try:
                    sweep(params, m, n, [beta], strategy, variant)
                except ValueError:
                    refused += 1
            assert refused > 0
            return
        assert_points_equal_grid(params, m, n, betas, strategy, variant)

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_empty_grid(self, strategy):
        """An empty series has its strategy's diagnostic columns, each an
        empty array of the dtype a one-point series has."""
        series = sweep(PHYS, 1, 500, [], strategy)
        assert all(getattr(series, name).shape == (0,)
                   for name in ("beta", "z", "log_z", "u", "c", "f", "s"))
        assert list(series.diagnostics) == DIAGNOSTIC_COLUMNS[strategy]
        point = sweep(PHYS, 1, 500, [1.0], strategy).diagnostics
        for name, column in series.diagnostics.items():
            assert column.shape == (0,) and column.dtype == point[name].dtype

    def test_empty_series_fields_are_own_arrays(self):
        """Each field of an empty series is its own array, so writing to one
        cannot change another."""
        series = sweep(PHYS, 1, 500, [])
        fields = [getattr(series, name) for name in ("beta", "z", "log_z", "u", "c", "f", "s")]
        assert len({id(field) for field in fields}) == len(fields)

    def test_validates_every_beta(self):
        """Zero, negative, NaN, infinite and squared-to-overflow betas are
        refused wherever they sit in the grid."""
        for bad in (0.0, -1.0, math.nan, math.inf, 1e300):
            with pytest.raises(ValueError, match="beta must be positive"):
                sweep(PHYS, 1, 500, [0.1, bad])
            with pytest.raises(ValueError, match="beta must be positive"):
                sweep(PHYS, 1, 500, np.array([bad, 0.1]))


class TestEvaluateBundle:
    """The five quantities of a point are one consistent bundle."""

    def test_direct_bundle_consistency(self):
        """Z = exp(ln Z), F = -ln Z / beta and S = beta (U - F) at a point,
        which is the same in a one-point sweep and in a grid."""
        series = sweep(PHYS, 1, 500, [0.25])
        z, log_z, u, f, s = (getattr(series, q).item() for q in ("z", "log_z", "u", "f", "s"))
        assert z == pytest.approx(math.exp(log_z), rel=1e-15)
        assert f == pytest.approx(-log_z / 0.25, rel=1e-14)
        assert s == pytest.approx(0.25 * (u - f), rel=1e-13)
        assert_points_equal_grid(PHYS, 1, 500, [0.1, 0.25, 4.0], Strategy.DIRECT_SUM)

    def test_poisson_bundle(self):
        beta = 0.1
        series = sweep(PHYS, 1, 500, [beta], Strategy.POISSON_PIPELINE)
        u, f, s = series.u.item(), series.f.item(), series.s.item()
        assert f == pytest.approx(u - s / (PHYS.kb * beta), rel=1e-10)
        assert_points_equal_grid(PHYS, 1, 500, [beta, 1.0], Strategy.POISSON_PIPELINE)

    def test_display_overflow_recorded_not_raised(self):
        """Z is ~1e-182 at this point; every primary value is finite."""
        p = SystemParams(alpha=1.0, k=-0.001)
        series = sweep(p, 40, 500, [10.0], Strategy.PAPER_CLOSED_FORM)
        assert all(np.isfinite(getattr(series, q)).all() for q in ("z", "u", "c", "f", "s"))

    def test_strategy_parser(self):
        """Strategies are looked up by their command-line names only."""
        assert [Strategy(name) for name in ("direct", "paper", "poisson")] == list(Strategy)
        for name in ("PAPER_CLOSED_FORM", "zzz"):
            with pytest.raises(ValueError):
                Strategy(name)


class TestRegimeEdges:
    """The strategies across the documented parameter space:
    k in [-5, -1e-8], |m| <= 60, beta in [1e-4, 1e3], N in [1, 1e5]."""

    @settings(max_examples=100, deadline=None)
    @given(k=EDGE_K, m=EDGE_M, n=EDGE_N, log_beta=st.floats(-4.0, 3.0))
    def test_direct_sum(self, k, m, n, log_beta):
        """C >= 0, S >= 0 and F = U - TS, and the sum cut at the underflow
        index gives the full-length sums within 4 ulp."""
        p = SystemParams(alpha=1.0, k=k)
        beta = 10.0**log_beta
        series = sweep(p, m, n, [beta])
        z, u, c, f, s = (getattr(series, q).item() for q in ("z", "u", "c", "f", "s"))
        assert c >= 0.0 and s >= 0.0
        scale = abs(u) + abs(f) + abs(s) / beta
        assert abs(f - (u - s / beta)) <= 1e-12 * scale
        sw, mean, var = one_dimensional_sums(excitation(p, np.arange(n + 1.0), m), beta)
        e0 = spectrum_terms(p, m)[0]
        log_z = -beta * e0 + np.log(sw)
        full = (np.exp(log_z) if log_z < 700.0 else math.inf, e0 + mean, beta * beta * var,
                np.log(sw) + beta * mean)
        for cut, want in zip((z, u, c, s), full):
            assert cut == want or abs(cut - want) <= 4.0 * math.ulp(max(abs(cut), abs(want)))

    @settings(max_examples=100, deadline=None)
    @given(k=EDGE_K, m=EDGE_M, n=EDGE_N, log_beta=st.floats(-4.0, 3.0),
           series=st.sampled_from([(Strategy.PAPER_CLOSED_FORM, "corrected"),
                                   (Strategy.PAPER_CLOSED_FORM, "verbatim"),
                                   (Strategy.POISSON_PIPELINE, "corrected")]))
    def test_finite_or_typed_error(self, k, m, n, log_beta, series):
        """Every value is finite, or sweep raises a typed error; Z is
        exp(ln Z), saturated like the direct sum's; S = beta (U - F)."""
        strategy, variant = series
        beta = 10.0**log_beta
        try:
            series = sweep(SystemParams(alpha=1.0, k=k), m, n, [beta], strategy, variant)
        except (IntegrationError, NonPhysicalError):
            return
        z, log_z, u, c, f, s = (getattr(series, q).item()
                                for q in ("z", "log_z", "u", "c", "f", "s"))
        assert all(math.isfinite(v) for v in (log_z, u, c, f, s))
        assert z == (np.exp(log_z) if log_z < 700.0 else math.inf)
        scale = abs(s) + beta * (abs(u) + abs(f))
        assert abs(s - beta * (u - f)) <= 1e-12 * scale

    @settings(max_examples=60, deadline=None)
    @given(log_alpha=st.floats(0.0, 150.0), k=EDGE_K, m=EDGE_M, n=EDGE_N,
           log_beta=st.floats(-4.0, 3.0))
    def test_poisson_matches_closed_form(self, log_alpha, k, m, n, log_beta):
        """The pipeline integrates the excitation d itself, so it keeps the
        closed form's Z, U and C within 1e-9 relative (the triangulation's
        bound) for alpha up to 1e150, where d is far below an ulp of E_0,
        wherever the range check does not refuse the point."""
        p, beta = SystemParams(alpha=10.0**log_alpha, k=k), 10.0**log_beta
        try:
            quad, closed = (sweep(p, m, n, [beta], strategy) for strategy in (
                Strategy.POISSON_PIPELINE, Strategy.PAPER_CLOSED_FORM))
        except ValueError as refused:
            assert "out of range" in str(refused)
            return
        for q in "zuc":
            got, want = getattr(quad, q).item(), getattr(closed, q).item()
            assert abs(got - want) <= 1e-9 * abs(want)


def strictly_decreasing_loop(temps, fs, ss):
    """The point-by-point rule that strictly_decreasing_resolvable applies
    to whole arrays."""
    for i in range(len(fs) - 1):
        resolution = 8.0 * 2.220446049250313e-16 * max(1.0, abs(fs[i]))
        if ss[i] * (temps[i + 1] - temps[i]) > resolution:
            if not fs[i + 1] < fs[i]:
                return False
        elif fs[i + 1] > fs[i] + resolution:
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(steps=st.lists(st.tuples(st.floats(1e-3, 1.0),
                                st.sampled_from([0.0, 1e-18, -1e-18, 1e-3, -1e-3, -5.0, math.nan]),
                                st.sampled_from([0.0, 1e-20, 1.0, math.nan])),
                      min_size=1, max_size=12))
def test_strictly_decreasing_resolvable_matches_loop(steps):
    """Ties below the resolution of F, resolvable rises and NaN, as arrays
    and as lists."""
    temps, fs, ss = [1.0], [5.0], [1.0]
    for dt, df, s in steps:
        temps.append(temps[-1] + dt)
        fs.append(fs[-1] + df)
        ss.append(s)
    expected = strictly_decreasing_loop(temps, fs, ss)
    assert strictly_decreasing_resolvable(temps, fs, ss) is expected
    assert strictly_decreasing_resolvable(*map(np.array, (temps, fs, ss))) is expected
