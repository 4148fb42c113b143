"""System tests: spectrum, wavefunctions, equation residuals."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdm_osc.nu import derive_coefficients, quantization_residual
from pdm_osc.oscillator import (
    DomainError,
    NonNormalizableError,
    NonPhysicalError,
    SystemParams,
    energy,
    excitation,
    make_state,
    nu_instance,
    ode_residual,
    radial_overlaps,
    radial_wavefunction,
    solve_energy,
)
from pdm_osc.specfun import JacobiParams, QuadratureSpec, integrate, jacobi_p


def analytic_norm_integral(params: SystemParams, n: int, m: int) -> float:
    """Independent oracle for the squared norm of the unnormalized U.

    In z = -delta_sq r^2 the weighted norm is a classical Jacobi norm:
    int_0^1 z^a (1-z)^b P_n(1-2z)^2 dz with a = |m|, b = sqrt(alpha^2/k^2+1),
    divided by 2 |delta_sq| from the measure substitution.
    """
    a = float(abs(m))
    b = math.sqrt(params.alpha**2 / params.k**2 + 1.0)
    h = math.exp(
        math.lgamma(n + a + 1.0) + math.lgamma(n + b + 1.0)
        - math.lgamma(n + a + b + 1.0) - math.lgamma(n + 1.0)
    ) / (2.0 * n + a + b + 1.0)
    return h / (2.0 * abs(params.delta_sq))


def total_wavefunction(params: SystemParams, state, r: float, theta: float) -> complex:
    """Psi(r, theta) = U(r) exp(-i m theta) / sqrt(2 pi), the separation
    ansatz with its angular factor unit-normalized on [0, 2 pi)."""
    u = radial_wavefunction(params, state).value(r)
    return u / math.sqrt(2.0 * math.pi) * cmath.exp(-1j * state.m * theta)


class TestSystemParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SystemParams(alpha=0.0, k=-0.5)
        with pytest.raises(ValueError):
            SystemParams(alpha=1.0, k=-0.5, lam=0.0)
        with pytest.raises(NonPhysicalError):
            SystemParams(alpha=1.0, k=0.2)
        SystemParams(alpha=1.0, k=0.2, exploratory=True)  # opt-in works

    @pytest.mark.parametrize("field", ["alpha", "k", "lam", "kb"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        # exploratory, so that k = inf is refused as non-finite, not as k >= 0
        kw = {"alpha": 1.0, "k": -0.5, "lam": 1.0, "kb": 1.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SystemParams(**kw, exploratory=True)

    def test_delta_relation_exact(self):
        p = SystemParams(alpha=1.0, k=-0.37, lam=1.7)
        assert p.delta_sq == -0.37 * 1.7
        assert p.delta_sq / p.lam == p.k

    def test_r_max(self):
        assert SystemParams(alpha=1.0, k=-0.25).r_max == 2.0
        assert SystemParams(alpha=1.0, k=0.5, exploratory=True).r_max == math.inf


class TestEnergy:
    def test_flat_ladder(self):
        p = SystemParams(alpha=1.0, k=0.0, exploratory=True)
        for n in range(4):
            for m in (-2, 0, 1, 3):
                assert energy(p, n, m) == pytest.approx(2 * n + abs(m) + 1, abs=1e-14)

    def test_ground_state_value(self):
        p = SystemParams(alpha=1.0, k=-0.5)
        assert energy(p, 0, 0) == pytest.approx(1.6180339887498949, abs=1e-12)

    def test_excited_value(self):
        p = SystemParams(alpha=1.0, k=-1.0)
        assert energy(p, 1, 2) == pytest.approx(5.0 * math.sqrt(2.0) + 13.0, rel=1e-14)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(0, 10), m=st.integers(-6, 6))
    def test_m_symmetry_exact(self, n, m):
        p = SystemParams(alpha=1.3, k=-0.4)
        assert energy(p, n, m) == energy(p, n, -m)

    def test_ordering_for_negative_k(self):
        for k in (-0.1, -0.5, -1.0):
            p = SystemParams(alpha=1.0, k=k)
            for m in (0, 1, 3):
                es = [energy(p, n, m) for n in range(10)]
                assert all(b > a for a, b in zip(es, es[1:]))

    def test_small_k_continuity(self):
        p = SystemParams(alpha=1.0, k=-1e-8)
        for n in range(6):
            for m in range(-3, 4):
                assert abs(energy(p, n, m) - (2 * n + abs(m) + 1)) <= 1e-6

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            energy(SystemParams(alpha=1.0, k=-0.5), -1, 0)
        with pytest.raises(ValueError):
            excitation(SystemParams(alpha=1.0, k=-0.5), np.array([0.0, -1.0]), 0)

    @settings(max_examples=100, deadline=None)
    @given(log_alpha=st.floats(-3.0, 150.0), log_k=st.floats(-8.0, math.log10(5.0)),
           m=st.integers(-60, 60),
           x=st.one_of(st.integers(0, 100_000).map(float), st.floats(0.0, 1e5)))
    def test_excitation_against_mpmath(self, log_alpha, log_k, m, x):
        """d(x) = E(x) - E_0 is within 3 ulp of E(x) - E_0 formed from the
        spectrum formula in mpmath, at integer and continuous x, for alpha up
        to 1e150 and k up to -1e-8, where E_0 dwarfs d. The subtraction
        loses up to log10(E_0/d) < 330 digits (x >= 5e-324), so 400 digits
        leave d at least 60."""
        mpmath = pytest.importorskip("mpmath")
        p = SystemParams(alpha=10.0**log_alpha, k=-(10.0**log_k))
        with mpmath.workdps(400):
            k, am, y = mpmath.mpf(p.k), abs(m), mpmath.mpf(x)
            hyp = mpmath.sqrt(mpmath.mpf(p.alpha) ** 2 + k * k)
            e = lambda n: (2 * n + am + 1) * hyp - k * (2 * n * n + m * m / mpmath.mpf(2)
                                                       + (2 * n + 1) * (am + 1))
            want = float(e(y) - e(0))
        got = excitation(p, x, m)
        assert abs(got - want) <= 3.0 * math.ulp(want)
        assert excitation(p, np.array([x]), m).tolist() == [got]


class TestNuInstance:
    def test_omega_from_m(self):
        p = SystemParams(alpha=1.0, k=-0.5)
        for e in (0.0, 1.0, 10.0):
            assert nu_instance(p, 2, e).eps3 == 1.0

    def test_zero_energy_m0(self):
        p = SystemParams(alpha=1.0, k=-0.5)
        prob = nu_instance(p, 0, 0.0)
        assert prob.eps3 == 0.0
        assert prob.eps2 == 0.0
        assert prob.eps1 == pytest.approx(1.0 / (4.0 * 0.25), rel=1e-14)  # alpha^2/(4k^2)

    def test_requires_nonzero_k(self):
        p = SystemParams(alpha=1.0, k=0.0, exploratory=True)
        with pytest.raises(ValueError):
            nu_instance(p, 0, 1.0)

    def test_round_trip_residual(self):
        for alpha in (1.0, 2.0):
            for k in (-0.1, -0.5, -1.0):
                p = SystemParams(alpha=alpha, k=k)
                for n in range(9):
                    for m in range(-4, 5):
                        c = derive_coefficients(nu_instance(p, m, energy(p, n, m)))
                        assert abs(quantization_residual(c, n)) <= 1e-9


class TestRadialWavefunction:
    def test_ground_state_profile(self):
        # n=0, m=0: the polynomial factor is 1, U is a pure decay profile
        p = SystemParams(alpha=1.0, k=-0.5)
        wf = radial_wavefunction(p, make_state(p, 0, 0))
        s = math.sqrt(1.0 / 0.25 + 1.0)
        for r in (0.1, 0.5, 1.0):
            z = 0.5 * r * r
            expected = math.exp(-0.5 * wf.log_norm) * (1.0 - z) ** (0.5 * (1.0 + s))
            assert wf.value(r) == pytest.approx(expected, rel=1e-13)

    def test_normalization_against_requadrature(self):
        p = SystemParams(alpha=1.0, k=-0.5)
        for n, m in ((0, 0), (1, 0), (2, 1), (3, 2)):
            assert radial_overlaps(p, [(m, n, n)])[0] == pytest.approx(1.0, abs=1e-8)

    def test_normalization_against_analytic_oracle(self):
        for alpha, k in ((1.0, -0.5), (2.0, -0.3)):
            p = SystemParams(alpha=alpha, k=k)
            for n, m in ((0, 0), (1, 1), (3, 2)):
                wf = radial_wavefunction(p, make_state(p, n, m))
                assert wf.norm_integral == pytest.approx(
                    analytic_norm_integral(p, n, m), rel=1e-9
                )

    def test_decaying_branch_selected(self):
        p = SystemParams(alpha=1.0, k=-0.5)
        wf = radial_wavefunction(p, make_state(p, 2, 1))
        s = math.sqrt(1.0 / 0.25 + 1.0)
        for r in (0.2, 0.6, 1.0, 1.3):
            z = 0.5 * r * r
            poly = jacobi_p(JacobiParams(a=1.0, b=s, n=2), 2.0 * z)
            decay = wf.value(r) / (math.exp(-0.5 * wf.log_norm) * z**0.5 * poly)
            assert decay == pytest.approx((1.0 - z) ** (0.5 * (1.0 + s)), rel=1e-12)
        assert wf.domain_max == p.r_max

    def test_small_r_power_law(self):
        p = SystemParams(alpha=1.0, k=-0.5)
        for m in (1, 2):
            wf = radial_wavefunction(p, make_state(p, 0, m))
            ratio = wf.value(2e-4) / wf.value(1e-4)
            assert ratio == pytest.approx(2.0**abs(m), rel=1e-4)

    def test_inconsistent_energy_rejected(self):
        from pdm_osc.oscillator import QuantumState

        p = SystemParams(alpha=1.0, k=-0.5)
        with pytest.raises(ValueError):
            radial_wavefunction(p, QuantumState(n_r=0, m=0, energy=2.0))

    def test_exploratory_positive_k_not_normalizable(self):
        for k in (0.0, 1e-3, 0.5):
            p = SystemParams(alpha=1.0, k=k, exploratory=True)
            with pytest.raises(NonNormalizableError):
                radial_wavefunction(p, make_state(p, 0, 0))

    def test_negative_lam_not_normalizable(self):
        # delta_sq = k lam > 0: an unbounded domain on which U grows
        p = SystemParams(alpha=1.0, k=-0.5, lam=-1.0)
        with pytest.raises(NonNormalizableError):
            radial_wavefunction(p, make_state(p, 1, 1))

    def test_normalization_at_large_m_small_k(self):
        # the closed-form norm against quadrature
        for k, m, n in (
            # s = 1000 squeezes the state against r = 0
            (-1e-3, 60, 40),
            # the state fills r < 10 of [0, 1000), where one quadrature
            # panel has no node and the overlap came out as a false 0
            (-1e-6, 40, 0),
            # C = exp(-log_norm / 2) = exp(735) is beyond the double range
            (-1e-12, 60, 0),
            # below the documented box: the Jacobi recurrence in x = 1 - 2z
            # cancelled by s^2 here (1 + 1.5e-8, and no convergence)
            (-1e-10, 60, 3),
            (-1e-12, 60, 3),
        ):
            p = SystemParams(alpha=1.0, k=k)
            assert radial_overlaps(p, [(m, n, n)])[0] == pytest.approx(1.0, abs=1e-8)

    def test_domain_guard(self):
        p = SystemParams(alpha=1.0, k=-0.5)
        wf = radial_wavefunction(p, make_state(p, 0, 0))
        with pytest.raises(DomainError):
            wf.value(p.r_max)


@settings(max_examples=200, deadline=None)
@given(log_abs_k=st.floats(-8.0, math.log10(5.0)), m=st.integers(-60, 60),
       n=st.integers(0, 40))
def test_closed_form_norm_across_regime_edges(log_abs_k, m, n):
    """The log-domain norm matches a 50-digit Gamma-function evaluation."""
    mpmath = pytest.importorskip("mpmath")
    p = SystemParams(alpha=1.0, k=-(10.0**log_abs_k))
    wf = radial_wavefunction(p, make_state(p, n, m))
    assert math.isfinite(wf.log_norm)
    assert np.all(np.isfinite(wf.value(p.r_max * np.linspace(0.05, 0.95, 19))))
    with mpmath.workdps(50):
        a = abs(m)
        s = mpmath.sqrt(1 / mpmath.mpf(p.k) ** 2 + 1)
        exact = (
            mpmath.loggamma(n + a + 1) + mpmath.loggamma(n + s + 1)
            - mpmath.loggamma(n + a + s + 1) - mpmath.loggamma(n + 1)
            - mpmath.log(2 * n + a + s + 1) - mpmath.log(2 * abs(mpmath.mpf(p.delta_sq)))
        )
        assert abs(wf.log_norm - exact) <= 1e-12 * abs(exact)


class TestOdeResidual:
    def test_eigenstates_satisfy_equation(self):
        p = SystemParams(alpha=1.0, k=-0.5)
        for n, m in ((0, 0), (1, 0), (2, 1), (1, 2)):
            st_ = make_state(p, n, m)
            for j in range(1, 51):
                r = p.r_max * (0.02 + 0.96 * (j - 1) / 49.0)
                assert abs(ode_residual(p, st_, r)) <= 1e-8

    def test_perturbed_energy_visible(self):
        p = SystemParams(alpha=1.0, k=-0.5)
        for n, m in ((0, 0), (1, 2)):
            st_ = make_state(p, n, m)
            peak = max(
                abs(ode_residual(p, st_, p.r_max * f, energy_override=st_.energy + 0.05))
                for f in (0.2, 0.4, 0.6, 0.8)
            )
            assert peak > 1e-3

    def test_bounded_at_small_r(self):
        p = SystemParams(alpha=1.0, k=-0.5)
        st_ = make_state(p, 0, 0)
        assert abs(ode_residual(p, st_, 1e-3)) <= 1e-6

    def test_domain_errors(self):
        p = SystemParams(alpha=1.0, k=-0.5)
        st_ = make_state(p, 0, 0)
        with pytest.raises(DomainError):
            ode_residual(p, st_, 0.0)
        with pytest.raises(DomainError):
            ode_residual(p, st_, p.r_max)


class TestTotalWavefunction:
    def test_theta_independent_for_m0(self):
        p = SystemParams(alpha=1.0, k=-0.5)
        st_ = make_state(p, 0, 0)
        v1 = total_wavefunction(p, st_, 0.5, 0.0)
        v2 = total_wavefunction(p, st_, 0.5, 2.1)
        assert v1 == v2

    def test_phase_modulus_invariance(self):
        p = SystemParams(alpha=1.0, k=-0.5)
        st_ = make_state(p, 1, 2)
        mags = {round(abs(total_wavefunction(p, st_, 0.7, th)), 13) for th in (0.0, 1.0, 2.5, 5.0)}
        assert len(mags) == 1

    def test_phase_factor(self):
        p = SystemParams(alpha=1.0, k=-0.5)
        st_ = make_state(p, 0, 3)
        v = total_wavefunction(p, st_, 0.7, 0.4)
        expected_phase = cmath.exp(-1j * 3 * 0.4)
        ratio = v / total_wavefunction(p, st_, 0.7, 0.0)
        assert ratio.real == pytest.approx(expected_phase.real, abs=1e-12)
        assert ratio.imag == pytest.approx(expected_phase.imag, abs=1e-12)

    def test_two_dimensional_normalization(self):
        """int |Psi|^2 over theta and the weighted radial measure equals 1."""
        p = SystemParams(alpha=1.0, k=-0.5)
        st_ = make_state(p, 1, 1)
        n_theta = 64
        radial = integrate(
            lambda r, _: sum(
                abs(total_wavefunction(p, st_, r, 2 * math.pi * j / n_theta)) ** 2
                for j in range(n_theta)
            )
            * (2 * math.pi / n_theta)
            * r / (1.0 + p.delta_sq * r * r),
            QuadratureSpec(0.0, p.r_max * (1 - 1e-10), rel_tol=1e-9, abs_tol=1e-12),
        )
        assert radial.value == pytest.approx(1.0, abs=1e-7)


class TestOrthogonality:
    def test_cross_terms_vanish(self):
        p = SystemParams(alpha=1.0, k=-0.5)
        for m in (0, 1, 2):
            for n1, n2 in ((0, 1), (0, 2), (1, 3), (2, 3)):
                assert abs(radial_overlaps(p, [(m, n1, n2)])[0]) <= 1e-6
        # below the documented box, where the recurrence in x did not converge
        assert abs(radial_overlaps(SystemParams(alpha=1.0, k=-1e-10), [(60, 0, 3)])[0]) <= 1e-6


def test_solve_energy_matches_closed_form():
    p = SystemParams(alpha=1.0, k=-0.5)
    for n, m in ((0, 0), (1, 0), (2, 1)):
        e_ref = energy(p, n, m)
        roots = solve_energy(p, m, n, e_ref - 2.5, e_ref + 2.5)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(e_ref, abs=1e-9)
