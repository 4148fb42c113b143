"""Canonical-ensemble tests: three partition strategies, U/C/F/S, reports."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdm_osc import thermo
from pdm_osc.cli import _temperature_grid
from pdm_osc.oscillator import NonPhysicalError, SystemParams, energy
from pdm_osc.specfun import IntegrationError, QuadratureSpec, central_diff, integrate
from pdm_osc.thermo import (
    Strategy,
    ThermoInput,
    compare_strategies,
    evaluate,
    find_heat_capacity_plateau,
    levels,
    paper_z_coefficients,
    sweep,
    _boltzmann_sums,
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


def em_error_bound(inp: ThermoInput) -> float:
    """First-order summation formula truncation: |f'(N+1) - f'(0)| / 12."""
    p, m, beta = inp.params, inp.m, inp.beta
    am = abs(m)
    hyp = math.hypot(p.alpha, p.k)
    e = lambda x: (2 * x + am + 1) * hyp - p.k * (2 * x * x + m * m / 2 + (2 * x + 1) * (am + 1))
    ep = lambda x: 2 * hyp - p.k * (4 * x + 2 * (am + 1))
    n1 = inp.truncation_n + 1.0
    return abs(-beta * ep(n1) * math.exp(-beta * e(n1)) + beta * ep(0.0) * math.exp(-beta * e(0.0))) / 12.0


def one_dimensional_sums(e, beta):
    """sum w, the mean <e>, the variance and the shifted mean <e - e0>, with
    w = exp(-beta (e - e0)), as uncut 1-D sums over the whole spectrum e."""
    e0 = float(e.min())
    w = np.exp(-beta * (e - e0))
    sw = float(w.sum())
    mean = float((e * w).sum()) / sw
    return (sw, mean, float(((e - mean) ** 2 * w).sum()) / sw,
            float(((e - e0) * w).sum()) / sw)


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


class TestThermoInput:
    def test_validation(self):
        with pytest.raises(ValueError):
            ThermoInput(params=PHYS, m=1, beta=0.0)
        with pytest.raises(ValueError):
            ThermoInput(params=PHYS, m=1, beta=1.0, truncation_n=-1)

    def test_positive_k_needs_opt_in(self):
        p = SystemParams(alpha=1.0, k=0.5, exploratory=True)
        with pytest.raises(NonPhysicalError, match="k > 0") as refused:
            ThermoInput(params=p, m=1, beta=1.0)
        assert "accept_truncation" not in str(refused.value)
        with pytest.raises(NonPhysicalError):
            sweep(p, 1, 500, [1.0])

    def test_from_temperature(self):
        p = SystemParams(alpha=1.0, k=-0.3, kb=2.0)
        inp = ThermoInput.from_temperature(p, 1, 10.0)
        assert inp.beta == pytest.approx(1.0 / 20.0)
        assert inp.temperature == pytest.approx(10.0)
        with pytest.raises(ValueError):
            ThermoInput.from_temperature(p, 1, 0.0)


class TestPartitionDirect:
    def test_geometric_ladder(self):
        p = SystemParams(alpha=1.0, k=0.0, exploratory=True)
        for beta in (0.05, 0.1, 0.5, 1.0):
            z = evaluate(ThermoInput(params=p, m=1, beta=beta)).z
            geometric = math.exp(-2 * beta) / (1.0 - math.exp(-2 * beta))
            assert z == pytest.approx(geometric, rel=1e-10)

    def test_reference_value(self):
        # frozen from a 128-term compensated (fsum) summation; the tail beyond
        # term 128 is below 1e-300 at beta = 1
        inp = ThermoInput(params=PHYS, m=1, beta=1.0, truncation_n=500)
        assert evaluate(inp).z == pytest.approx(0.0597456318176708, rel=1e-14)

    def test_against_fsum_oracle(self):
        inp = ThermoInput(params=PHYS, m=1, beta=1.0, truncation_n=500)
        oracle = math.fsum(math.exp(-energy(PHYS, n, 1)) for n in range(128))
        assert evaluate(inp).z == pytest.approx(oracle, rel=1e-14)

    def test_single_term(self):
        inp = ThermoInput(params=PHYS, m=1, beta=0.7, truncation_n=0)
        assert evaluate(inp).z == pytest.approx(
            math.exp(-0.7 * energy(PHYS, 0, 1)), rel=1e-14
        )

    def test_log_domain_extreme_beta(self):
        inp = ThermoInput(params=PHYS, m=1, beta=1000.0)
        res = evaluate(inp)
        assert math.isfinite(res.log_z)
        assert res.log_z == pytest.approx(-1000.0 * energy(PHYS, 0, 1), rel=1e-12)

    def test_tail_diagnostic(self):
        res = evaluate(ThermoInput(params=PHYS, m=1, beta=1.0))
        assert res.diagnostics["tail_ratio"] < 1e-300  # ~exp(-151000)
        # an uncut sum reports w_N / sum w
        inp = ThermoInput(params=PHYS, m=1, beta=1e-3, truncation_n=10)
        e = levels(inp)
        w = np.exp(-inp.beta * (e - e[0]))
        res = evaluate(inp)
        assert res.diagnostics["n_terms"] == 11
        assert res.diagnostics["tail_ratio"] == w[-1] / w.sum()

    def test_cut_work_count(self, monkeypatch):
        """Each beta sums only a short prefix of the levels, and every weight
        it drops is exactly 0.0; where none underflows it sums all N+1. A
        series builds only the levels its longest cut reaches."""
        p = SystemParams(alpha=1.0, k=-0.1)
        betas = [1e-4] + list(np.geomspace(0.02, 1e3, 40))
        e = levels(ThermoInput(params=p, m=1, beta=1.0, truncation_n=100_000))
        for beta, res in zip(betas, sweep(p, 1, 100_000, betas)):
            n_terms = res.diagnostics["n_terms"]
            assert n_terms <= (8192 if beta < 0.02 else 1024)
            assert not np.any(np.exp(-beta * (e[n_terms:] - e[0])))
            assert res.diagnostics["tail_ratio"] == 0.0
        res = sweep(SystemParams(alpha=1.0, k=-1e-6), 1, 100_000, [1e-4])[0]
        assert res.diagnostics["n_terms"] == 100_001
        assert res.diagnostics["tail_ratio"] > 0.0
        # a cut whose last kept weight is not 0 still reports w_N / sum w = 0
        e = levels(ThermoInput(params=PHYS, m=1, beta=1.0, truncation_n=1000))
        beta = 735.0 / (e[119] - e[0])
        res = sweep(PHYS, 1, 1000, [beta])[0]
        assert res.diagnostics["n_terms"] == 120
        assert math.exp(-beta * (e[119] - e[0])) / math.exp(res.log_z + beta * e[0]) > 0.0
        assert res.diagnostics["tail_ratio"] == 0.0
        built = []
        monkeypatch.setattr(thermo, "levels",
                            lambda inp, count=None: built.append(levels(inp, count)) or built[-1])
        temps = _temperature_grid({"T_min": 0.1, "T_max": 50.0, "T_count": 500,
                                   "T_spacing": "auto"})
        for k in FIG_KS:
            sweep(SystemParams(alpha=1.0, k=k), 1, 100_000, [1.0 / t for t in temps])
        edge = SystemParams(alpha=1.0, k=-1e-6)
        sweep(edge, 40, 100_000, [1e3])
        sweep(edge, 40, 100_000, [1e-4])
        assert [spectrum.size for spectrum in built] == [776, 384, 384, 96, 100_001]
        assert built[-1].tolist() == levels(ThermoInput(params=edge, m=40, beta=1.0,
                                                        truncation_n=100_000)).tolist()
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
        (b_t^2 - alpha^2)/2k = -E_{N+1}, each to the roundoff of its terms.

        E' is the three-point one-sided difference, exact for the quadratic E.
        """
        p = SystemParams(alpha=1.0, k=k)
        co = paper_z_coefficients(p, m, n)
        e = lambda x: energy(p, x, m)
        e0, e1 = e(0.0), e(n + 1.0)

        def slope(x):
            return (-3.0 * e(x) + 4.0 * e(x + 1.0) - e(x + 2.0)) / 2.0, 8.0 * e(x + 2.0)

        def close(lhs, rhs, scale):
            assert abs(lhs - rhs) <= 1e-14 * scale

        close(co.a_t - co.d_t, -e0, e0)
        close(co.c_t, e1, e1)
        d0, scale0 = slope(0.0)
        close(co.a_t, -d0 / 2.0, scale0)
        d1, scale1 = slope(n + 1.0)
        close(co.b_t, d1 / 2.0, scale1)
        # the squares cancel as k -> 0-, so compare before dividing by 2k
        close(co.a_t**2 - 1.0, -2.0 * k * e0, co.a_t**2 + 1.0)
        close(co.b_t**2 - 1.0, -2.0 * k * e1, co.b_t**2 + 1.0)


class TestPartitionPaper:
    def test_both_variants_reported(self):
        corrected, verbatim = (sweep(PHYS, 1, 500, [0.2], Strategy.PAPER_CLOSED_FORM, v)
                               for v in ("corrected", "verbatim"))
        assert (corrected.variant, verbatim.variant) == ("corrected", "verbatim")
        res = evaluate(ThermoInput(params=PHYS, m=1, beta=0.2,
                                   strategy=Strategy.PAPER_CLOSED_FORM))
        assert res.diagnostics["variant"] == "corrected"
        assert res.z == corrected.z.item()
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
            for res in sweep(PHYS, 1, 500, (0.05, 0.5, 5.0), Strategy.PAPER_CLOSED_FORM, variant):
                assert "nonpositive_z" not in res.diagnostics


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
                inp = ThermoInput(params=p, m=1, beta=beta)
                assert gap <= 2.0 * em_error_bound(inp) + 1e-12

    def test_quadrature_diagnostics_present(self):
        res = evaluate(ThermoInput(params=PHYS, m=1, beta=0.1,
                                   strategy=Strategy.POISSON_PIPELINE))
        diag = res.diagnostics
        assert diag["quadrature_evaluations"] == 15 + 30 * diag["quadrature_refinements"]
        # relative to each integral, worst over f, (E - E_0) f, (E - E_0)^2 f
        assert 0.0 < diag["quadrature_error_bound"] <= 1e-11

    def test_large_n_integral_not_falsely_zero(self):
        """At N = 1e5 the integrand's support, width ~ (beta |k|)^(-1/2), is
        far narrower than [0, N+1]; the quadrature must still find it
        (`thermo --T 10 --k -0.3 --m 1 --N 100000 --strategy poisson`)."""
        inp = ThermoInput.from_temperature(PHYS, 1, 10.0, truncation_n=100_000,
                                           strategy=Strategy.POISSON_PIPELINE)
        z = evaluate(inp).z
        gap = abs(z - sweep(PHYS, 1, 100_000, [inp.beta]).z.item())
        assert gap <= 2.0 * em_error_bound(inp) + 1e-12
        assert z == pytest.approx(
            sweep(PHYS, 1, 100_000, [inp.beta], Strategy.PAPER_CLOSED_FORM).z.item(), rel=1e-12)


class TestAverageEnergy:
    def test_ground_state_limit(self):
        inp = ThermoInput(params=PHYS, m=1, beta=500.0)
        assert evaluate(inp).u == pytest.approx(energy(PHYS, 0, 1), abs=1e-10)

    def test_ladder_closed_form(self):
        p = SystemParams(alpha=1.0, k=0.0, exploratory=True)
        for beta in (0.05, 0.2, 1.0):
            u = evaluate(ThermoInput(params=p, m=1, beta=beta)).u
            assert u == pytest.approx(2.0 + 2.0 / (math.exp(2.0 * beta) - 1.0), rel=1e-10)

    def test_closed_form_matches_difference_quotient(self):
        for beta in (0.05, 0.1, 0.5):
            inp = ThermoInput(params=PHYS, m=1, beta=beta, strategy=Strategy.PAPER_CLOSED_FORM)

            def log_z(b):
                return math.log(
                    sweep(PHYS, 1, 500, [b], Strategy.PAPER_CLOSED_FORM, "corrected").z.item()
                )

            expected = -central_diff(log_z, beta, 1, h=1e-3 * beta)
            assert evaluate(inp).u == pytest.approx(expected, rel=1e-6)

    def test_strategies_converge_at_small_beta(self):
        beta = 0.005
        vals = [
            evaluate(ThermoInput(params=PHYS, m=1, beta=beta, strategy=s)).u
            for s in Strategy
        ]
        assert max(vals) - min(vals) <= 0.02 * abs(vals[0])


class TestHeatCapacity:
    @settings(max_examples=60, deadline=None)
    @given(beta=st.floats(0.01, 50.0), k=st.sampled_from(FIG_KS))
    def test_direct_nonnegative(self, beta, k):
        p = SystemParams(alpha=1.0, k=k)
        assert evaluate(ThermoInput(params=p, m=1, beta=beta)).c >= 0.0

    def test_ladder_equipartition(self):
        p = SystemParams(alpha=1.0, k=0.0, exploratory=True)
        c = evaluate(ThermoInput.from_temperature(p, 1, 100.0)).c
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
        """A single level, or beta^2 underflowing to 0, makes C exactly 0 on
        every window: no window qualifies, and no 0/0 warns (a RuntimeWarning
        is an error here)."""
        assert find_heat_capacity_plateau(SystemParams(alpha=1.0, k=-0.1, kb=kb), 1, n) is None

    def test_plateau_beta_square_overflow_refused(self):
        """At kb = 1e-300 the lattice's betas have no finite square: the scan
        refuses with sweep's typed error."""
        with pytest.raises(ValueError, match="beta must be positive with a finite square"):
            find_heat_capacity_plateau(SystemParams(alpha=1.0, k=-0.1, kb=1e-300), 1, 500)

    def test_poisson_strategy_close_to_closed_form(self):
        for beta in (0.1, 2.0, 10.0):
            inp_p = ThermoInput(params=PHYS, m=1, beta=beta, strategy=Strategy.POISSON_PIPELINE)
            inp_c = ThermoInput(params=PHYS, m=1, beta=beta, strategy=Strategy.PAPER_CLOSED_FORM)
            assert evaluate(inp_p).c == pytest.approx(evaluate(inp_c).c, rel=1e-9)

    def test_poisson_against_mpmath_summation_formula(self):
        """At (k=-1e-6, m=40, N=1e5, beta=1e3) the pipeline's C matches the
        moments about E_0 of the summation formula, integrated at 60 digits."""
        p, m, n, beta = SystemParams(alpha=1.0, k=-1e-6), 40, 100_000, 1e3
        res = sweep(p, m, n, [beta], Strategy.POISSON_PIPELINE)[0]
        u, c, _ = summation_formula_oracle(p, m, n, beta)
        assert res.c == pytest.approx(c, rel=1e-9)
        assert res.u == pytest.approx(u, rel=1e-13)


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
        paper = sweep(p, m, n, [beta], Strategy.PAPER_CLOSED_FORM)[0]
        poisson = sweep(p, m, n, [beta], Strategy.POISSON_PIPELINE)[0]
        for res, rel in ((paper, 1e-10), (poisson, 1e-9)):
            assert res.c == pytest.approx(c, rel=rel, abs=0.0)
            assert res.u == pytest.approx(u, rel=rel, abs=0.0)
            assert res.s == pytest.approx(s, rel=rel, abs=0.01 * rel)
        assert paper.c == pytest.approx(poisson.c, rel=1e-9, abs=0.0)
        assert paper.u == pytest.approx(poisson.u, rel=1e-9, abs=0.0)
        assert paper.s == pytest.approx(poisson.s, rel=1e-9, abs=1e-11)

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
        res = sweep(p, m, n, [beta], Strategy.PAPER_CLOSED_FORM, "verbatim")[0]
        assert res.c == pytest.approx(c, rel=1e-12, abs=0.0) and 0.0 < c < 1e-12
        assert res.u == pytest.approx(u, rel=1e-14, abs=0.0)
        assert res.s == pytest.approx(s, rel=1e-12, abs=0.0)

    @settings(max_examples=12, deadline=None)
    @given(k=st.floats(-8.0, math.log10(0.5)).map(lambda u: -(10.0**u)),
           m=EDGE_M, n=st.floats(0.0, 5.0).map(lambda u: round(10.0**u)),
           beta=st.floats(-4.0, 3.0).map(lambda u: 10.0**u))
    def test_box(self, k, m, n, beta):
        self.assert_matches_oracle(k, m, n, beta)


class TestFreeEnergyEntropy:
    def test_single_level_free_energy(self):
        inp = ThermoInput(params=PHYS, m=1, beta=0.7, truncation_n=0)
        assert evaluate(inp).f == pytest.approx(energy(PHYS, 0, 1), rel=1e-13)

    def test_free_energy_decreasing(self):
        for k in FIG_KS:
            p = SystemParams(alpha=1.0, k=k)
            fs = [evaluate(ThermoInput.from_temperature(p, 1, t)).f
                  for t in np.linspace(0.5, 50.0, 40)]
            assert all(b < a for a, b in zip(fs, fs[1:]))

    def test_identity(self):
        for t in np.geomspace(0.1, 50.0, 25):
            res = evaluate(ThermoInput.from_temperature(PHYS, 1, float(t)))
            assert abs(res.f - (res.u - t * res.s)) <= 1e-8 * max(1.0, abs(res.f))

    def test_third_law_limit(self):
        s = evaluate(ThermoInput(params=PHYS, m=1, beta=200.0)).s
        assert 0.0 <= s <= 1e-100

    def test_entropy_increasing(self):
        for k in FIG_KS:
            p = SystemParams(alpha=1.0, k=k)
            ss = [evaluate(ThermoInput.from_temperature(p, 1, t)).s
                  for t in np.geomspace(0.1, 50.0, 40)]
            assert all(b > a for a, b in zip(ss, ss[1:]))

    def test_entropy_triangulation(self):
        """Direct vs closed form within 5% over the high-temperature window."""
        for k in FIG_KS:
            p = SystemParams(alpha=1.0, k=k)
            for t in np.linspace(5.0, 50.0, 8):
                sd = evaluate(ThermoInput.from_temperature(p, 1, float(t))).s
                sp = evaluate(ThermoInput.from_temperature(
                    p, 1, float(t), strategy=Strategy.PAPER_CLOSED_FORM)).s
                assert abs(sp - sd) <= 0.05 * abs(sd)

    def test_negative_entropy_flagged_not_fixed(self):
        res = evaluate(ThermoInput(params=PHYS, m=1, beta=10.0,
                                   strategy=Strategy.PAPER_CLOSED_FORM))
        assert res.s < 0.0
        assert res.diagnostics["negative_entropy"] == res.s
        # the approximate Z tends to exp(-beta E0)/2, so S drifts to -ln 2
        # with an O(1/beta) tail
        deep = evaluate(ThermoInput(params=PHYS, m=1, beta=200.0,
                                    strategy=Strategy.PAPER_CLOSED_FORM))
        assert deep.s == pytest.approx(-math.log(2.0), abs=0.01)


class TestTruncation:
    def test_insensitivity_from_300(self):
        for k in FIG_KS:
            p = SystemParams(alpha=1.0, k=k)
            for t in (1.0, 10.0, 50.0):
                z300 = evaluate(ThermoInput.from_temperature(p, 1, t, truncation_n=300)).z
                z500 = evaluate(ThermoInput.from_temperature(p, 1, t, truncation_n=500)).z
                assert abs(z300 - z500) <= 1e-12 * z500

    def test_z_monotone_in_temperature(self):
        for k in FIG_KS:
            p = SystemParams(alpha=1.0, k=k)
            zs = [evaluate(ThermoInput.from_temperature(p, 1, t)).z
                  for t in np.geomspace(0.1, 50.0, 30)]
            assert all(b > a for a, b in zip(zs, zs[1:]))


class TestComparisonReport:
    def test_report_contents(self):
        comp = compare_strategies(PHYS, 1, 500, [0.05, 0.2])
        assert len(comp.rows) == 2
        text = comp.format()
        assert "rel_poisson" in text
        assert "best" in text
        assert comp.max_rel_poisson > 0.0

    def test_levels_shape(self):
        inp = ThermoInput(params=PHYS, m=1, beta=1.0, truncation_n=10)
        e = levels(inp)
        assert e.shape == (11,)
        assert e[0] == pytest.approx(energy(PHYS, 0, 1), rel=1e-14)


# the diagnostics columns of a series under each strategy
DIAGNOSTIC_COLUMNS = {
    Strategy.DIRECT_SUM: ["n_terms", "tail_ratio"],
    Strategy.PAPER_CLOSED_FORM: [],
    Strategy.POISSON_PIPELINE: ["quadrature_refinements", "quadrature_evaluations",
                                "quadrature_error_bound"],
}


class TestSweep:
    """sweep() equals evaluate() at every beta, bit for bit, diagnostics too,
    both as arrays and point by point."""

    @staticmethod
    def assert_equal_to_evaluate(params, m, n, betas, strategy, variant="corrected"):
        series = sweep(params, m, n, betas, strategy, variant)
        refs = [evaluate(ThermoInput(params=params, m=m, beta=beta, truncation_n=n,
                                     strategy=strategy), variant) for beta in betas]
        assert len(series) == len(betas)
        assert series.strategy is strategy
        assert series.variant == (variant if strategy is Strategy.PAPER_CLOSED_FORM else None)
        assert series.beta.tolist() == [float(b) for b in betas]
        for name in ("z", "log_z", "u", "c", "f", "s"):
            column = getattr(series, name)
            assert column.shape == (len(betas),)
            assert column.tolist() == [getattr(ref, name) for ref in refs]
        assert list(series.diagnostics) == DIAGNOSTIC_COLUMNS[strategy]
        for name, column in series.diagnostics.items():
            if column.dtype == bool:  # a flag: in the dict only where set
                assert column.tolist() == [name in ref.diagnostics for ref in refs]
            else:
                assert column.tolist() == [ref.diagnostics[name] for ref in refs]
        for res, ref in zip(series, refs):
            assert (res.z, res.log_z, res.u, res.c, res.f, res.s) == (
                ref.z, ref.log_z, ref.u, ref.c, ref.f, ref.s)
            assert res.diagnostics == ref.diagnostics

    def test_direct_grid_longer_than_one_block(self):
        # 501 levels fill a block with 130 beta rows; 400 betas span four blocks
        self.assert_equal_to_evaluate(PHYS, 1, 500, list(np.geomspace(1e-3, 50.0, 400)),
                                      Strategy.DIRECT_SUM)

    def test_direct_large_n(self):
        self.assert_equal_to_evaluate(PHYS, 2, 100_000, [1e-4, 0.01, 0.3, 7.0],
                                      Strategy.DIRECT_SUM)

    # the ids without k are PHYS's k = -0.3
    @pytest.mark.parametrize("k, n", [(-0.3, 1), (-0.3, 500), (-0.3, 100_000),
                                      (-1e-8, 500), (-1e-8, 100_000), (0.0, 500), (0.05, 500)],
                             ids=["1", "500", "100000", "k=-1e-08-500", "k=-1e-08-100000",
                                  "k=0-500", "k=0.05-500"])
    def test_direct_matches_one_dimensional_sums(self, k, n):
        """The block reduction equals the per-beta 1-D sums over all N+1
        levels, bit for bit, though it builds only the levels its longest
        cut reaches and runs exp only where a weight is not exactly 0.0. The
        betas take in 1e3 and cuts whose last kept weight is subnormal,
        beta (E_j - E_0) in [708, 746]; C takes beta**2 from libm's pow,
        which differs from beta * beta at the betas added here. sweep
        refuses k > 0, so there the kernel itself keeps all levels."""
        p = SystemParams(alpha=1.0, k=k, exploratory=k >= 0.0)
        e = energy(p, np.arange(n + 1.0), 1)
        e0 = float(e.min())
        betas = list(np.geomspace(1e-4, 100.0, 300 if n == 500 else 3)) + [1e3]
        betas += [b for b in np.geomspace(1e-4, 100.0, 20_000).tolist() if b**2 != b * b][:8]
        betas += [x / (e[j - 1] - e0) for j in _spine(n + 1) if e[j - 1] > e0
                  for x in (708.5, 727.0, 745.9)]
        reference = [one_dimensional_sums(e, beta) for beta in betas]
        if k > 0.0:
            _, rows, lengths = _boltzmann_sums(e, np.array(betas), n + 1)
            assert lengths.tolist() == [n + 1] * len(betas)
            assert [tuple(row[:4]) for row in rows.T.tolist()] == reference
            return
        for beta, res, (sw, mean, var, shifted_mean) in zip(betas, sweep(p, 1, n, betas),
                                                             reference):
            assert (res.log_z, res.u, res.c, res.s) == (
                -beta * e0 + math.log(sw), mean, beta**2 * var,
                math.log(sw) + beta * shifted_mean)

    @pytest.mark.parametrize("variant", ["corrected", "verbatim"])
    def test_paper(self, variant):
        self.assert_equal_to_evaluate(PHYS, 3, 500, list(np.geomspace(0.01, 5.0, 150)),
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
            self.assert_equal_to_evaluate(PHYS, 3, 1, betas, Strategy.PAPER_CLOSED_FORM,
                                          variant)

    def test_direct_many_cut_lengths(self):
        betas = list(np.geomspace(1e-4, 1e3, 60))
        self.assert_equal_to_evaluate(PHYS, 2, 100_000, betas, Strategy.DIRECT_SUM)
        lengths = {res.diagnostics["n_terms"] for res in sweep(PHYS, 2, 100_000, betas)}
        assert len(lengths) >= 6

    def test_poisson(self):
        # the 300-point temperature grid of the figures, T in [0.1, 50]
        temps = _temperature_grid({"T_min": 0.1, "T_max": 50.0, "T_count": 300,
                                   "T_spacing": "auto"})
        self.assert_equal_to_evaluate(PHYS, 1, 500, [1.0 / t for t in temps],
                                      Strategy.POISSON_PIPELINE)
        self.assert_equal_to_evaluate(SystemParams(alpha=1.0, k=-1e-6), 40, 100_000,
                                      [1e-4, 1e3], Strategy.POISSON_PIPELINE)

    def test_paper_flags_and_negative_entropy(self):
        """Both variants at m = 3 reach the beta where S < 0; the flag and
        negative_entropy keys are per point, equal to evaluate()."""
        betas = [0.05, 2.0, 10.0, 200.0]
        for variant in ("corrected", "verbatim"):
            self.assert_equal_to_evaluate(PHYS, 3, 500, betas, Strategy.PAPER_CLOSED_FORM,
                                          variant)
            series = sweep(PHYS, 3, 500, betas, Strategy.PAPER_CLOSED_FORM, variant)
            assert series[-1].diagnostics["negative_entropy"] == series.s[-1] < 0.0
            assert "negative_entropy" not in series[0].diagnostics

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_empty_grid(self, strategy):
        series = sweep(PHYS, 1, 500, [], strategy)
        assert len(series) == 0 and list(series) == []
        assert all(getattr(series, name).shape == (0,)
                   for name in ("beta", "z", "log_z", "u", "c", "f", "s"))

    def test_validates_every_beta(self):
        """Zero, negative, NaN, infinite and squared-to-overflow betas are
        refused wherever they sit in the grid."""
        for bad in (0.0, -1.0, math.nan, math.inf, 1e300):
            with pytest.raises(ValueError, match="beta must be positive"):
                sweep(PHYS, 1, 500, [0.1, bad])
            with pytest.raises(ValueError, match="beta must be positive"):
                sweep(PHYS, 1, 500, np.array([bad, 0.1]))


class TestEvaluateBundle:
    def test_direct_bundle_consistency(self):
        inp = ThermoInput(params=PHYS, m=1, beta=0.25)
        res = evaluate(inp)
        ref = sweep(PHYS, 1, 500, [0.25])[0]
        assert res.z == pytest.approx(ref.z, rel=1e-14)
        assert res.u == pytest.approx(ref.u, rel=1e-14)
        assert res.c == pytest.approx(ref.c, rel=1e-14)
        assert res.f == pytest.approx(ref.f, rel=1e-14)
        assert res.s == pytest.approx(ref.s, rel=1e-14)

    def test_poisson_bundle(self):
        inp = ThermoInput(params=PHYS, m=1, beta=0.1, strategy=Strategy.POISSON_PIPELINE)
        res = evaluate(inp)
        assert res.u == pytest.approx(
            sweep(PHYS, 1, 500, [0.1], Strategy.POISSON_PIPELINE).u.item(), rel=1e-10)
        assert res.f == pytest.approx(res.u - inp.temperature * res.s, rel=1e-10)

    def test_display_overflow_recorded_not_raised(self):
        """Z is ~1e-182 at this point; every primary value is finite."""
        p = SystemParams(alpha=1.0, k=-0.001)
        res = evaluate(ThermoInput(params=p, m=40, beta=10.0,
                                   strategy=Strategy.PAPER_CLOSED_FORM))
        assert all(math.isfinite(v) for v in (res.z, res.u, res.c, res.f, res.s))

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
        res = sweep(p, m, n, [beta])[0]
        assert res.c >= 0.0 and res.s >= 0.0
        scale = abs(res.u) + abs(res.f) + abs(res.s) / beta
        assert abs(res.f - (res.u - res.s / beta)) <= 1e-12 * scale
        e = levels(ThermoInput(params=p, m=m, beta=beta, truncation_n=n))
        e0 = float(e.min())
        w = np.exp(-beta * (e - e0))
        sw = float(w.sum())
        mean = float((e * w).sum()) / sw
        var = float(((e - mean) ** 2 * w).sum()) / sw
        shifted_mean = float(((e - e0) * w).sum()) / sw
        log_z = -beta * e0 + math.log(sw)
        full = (math.exp(log_z) if log_z < 700.0 else math.inf, mean, beta**2 * var,
                math.log(sw) + beta * shifted_mean)
        for cut, want in zip((res.z, res.u, res.c, res.s), full):
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
            res = sweep(SystemParams(alpha=1.0, k=k), m, n, [beta], strategy, variant)[0]
        except (IntegrationError, NonPhysicalError):
            return
        assert all(math.isfinite(v) for v in (res.log_z, res.u, res.c, res.f, res.s))
        assert res.z == (math.exp(res.log_z) if res.log_z < 700.0 else math.inf)
        scale = abs(res.s) + beta * (abs(res.u) + abs(res.f))
        assert abs(res.s - beta * (res.u - res.f)) <= 1e-12 * scale


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
