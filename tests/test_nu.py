"""Parametric engine tests: coefficient chain, tau slope, quantization, Jacobi mapping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdm_osc.nu import (
    NegativeDiscriminantError,
    NUProblem,
    derive_coefficients,
    find_roots_by_scan,
    quantization_residual,
    tau_prime,
)
from pdm_osc.oscillator import SystemParams, energy, make_state, nu_instance, radial_wavefunction
from pdm_osc.validate import FIXTURE_PARAM_SETS, FIXTURE_STATES


def test_unit_problem_coefficients():
    c = derive_coefficients(NUProblem(1.0, 1.0, 1.0, 0.0, 0.0, 0.0))
    assert c.a4 == 0.0
    assert c.a5 == -0.5
    assert c.a6 == 0.25
    assert c.a7 == 0.0
    assert c.a8 == 0.0
    assert c.a9 == 0.25
    assert c.kappa_plus == 0.0
    assert c.kappa_minus == 0.0


def test_oscillator_instance_m0():
    # ground state of the oscillator family at alpha=1, k=-1: omega = m^2/4 = 0
    p = SystemParams(alpha=1.0, k=-1.0)
    c = derive_coefficients(nu_instance(p, 0, energy(p, 0, 0)))
    assert c.a8 == 0.0
    assert c.a10 == 1.0


def test_a1_equal_one_kills_a4():
    for eps in ((0.0, 0.0, 0.0), (0.3, -0.2, 0.5)):
        c = derive_coefficients(NUProblem(1.0, 2.5, 1.5, *eps))
        assert c.a4 == 0.0


def test_a3_zero_rejected():
    with pytest.raises(ValueError):
        NUProblem(1.0, 1.0, 0.0, 0.0, 0.0, 0.0)


@settings(max_examples=200, deadline=None)
@given(
    a1=st.floats(-2.0, 3.0),
    a2=st.floats(-2.0, 3.0),
    a3=st.floats(0.1, 3.0),
    eps1=st.floats(-2.0, 2.0),
    eps2=st.floats(-2.0, 2.0),
    eps3=st.floats(0.0, 2.0),
)
def test_reconstruction_and_kappa_order(a1, a2, a3, eps1, eps2, eps3):
    """a4..a9 reconstruct exactly; kappa_minus <= kappa_plus when derivable."""
    p = NUProblem(a1, a2, a3, eps1, eps2, eps3)
    try:
        c = derive_coefficients(p)
    except NegativeDiscriminantError:
        return
    assert c.a4 == 0.5 * (1.0 - a1)
    assert c.a5 == 0.5 * (a2 - 2.0 * a3)
    assert c.a6 == c.a5 * c.a5 + eps1
    assert c.a7 == 2.0 * c.a4 * c.a5 - eps2
    assert c.a8 == c.a4 * c.a4 + eps3
    assert c.a9 == a3 * c.a7 + a3 * a3 * c.a8 + c.a6
    assert c.kappa_minus <= c.kappa_plus


def test_negative_discriminant():
    # eps3 < 0 with a4 = 0 forces a8 < 0
    with pytest.raises(NegativeDiscriminantError):
        derive_coefficients(NUProblem(1.0, 1.0, 1.0, 0.0, 0.0, -1.0))


def test_tiny_negative_radicand_clamped():
    c = derive_coefficients(NUProblem(1.0, 1.0, 1.0, 0.0, 0.0, -1e-14))
    assert c.a10 == 1.0  # sqrt(a8) clamped to zero


class TestTauPrime:
    def test_oscillator_value(self):
        # alpha=1, k=-1, m=0: slope is -(2 + sqrt(alpha^2/k^2 + 1)) = -(2 + sqrt(2))
        p = SystemParams(alpha=1.0, k=-1.0)
        c = derive_coefficients(nu_instance(p, 0, energy(p, 0, 0)))
        assert tau_prime(c) == pytest.approx(-(2.0 + math.sqrt(2.0)), rel=1e-14)
        assert tau_prime(c) < 0.0

    def test_degenerate_a8_a9(self):
        # a1=1, a2=2, a3=1, eps=0 gives a5=a7=a8=a9=0 and tau' = -(a2 - 2 a5) = -2 a3
        c = derive_coefficients(NUProblem(1.0, 2.0, 1.0, 0.0, 0.0, 0.0))
        assert c.a8 == 0.0 and c.a9 == 0.0
        assert tau_prime(c) == -2.0

    def test_negative_over_fixture_grid(self):
        for alpha in (1.0, 2.0):
            for k in (-0.1, -0.5, -1.0):
                p = SystemParams(alpha=alpha, k=k)
                for n in range(4):
                    for m in (-2, 0, 3):
                        c = derive_coefficients(nu_instance(p, m, energy(p, n, m)))
                        assert tau_prime(c) < 0.0


class TestQuantization:
    def test_closed_form_spectrum_is_root(self):
        p = SystemParams(alpha=1.0, k=-0.5)
        for n in range(6):
            for m in range(-3, 4):
                c = derive_coefficients(nu_instance(p, m, energy(p, n, m)))
                assert abs(quantization_residual(c, n)) <= 1e-9

    def test_perturbed_energy_detected(self):
        p = SystemParams(alpha=1.0, k=-0.5)
        for n in range(4):
            c = derive_coefficients(nu_instance(p, 1, energy(p, n, 1) + 0.1))
            assert abs(quantization_residual(c, n)) > 1e-3

    def test_all_terms_vanish(self):
        # degenerate instance with a5 = a7 = a8 = a9 = 0 at n = 0
        c = derive_coefficients(NUProblem(1.0, 2.0, 1.0, 0.0, 0.0, 0.0))
        assert quantization_residual(c, 0) == 0.0

    def test_single_root_between_neighbors(self):
        """The residual in E has exactly one zero per radial number."""
        p = SystemParams(alpha=1.0, k=-0.5)
        for n in (0, 1, 3):
            e_n = energy(p, n, 1)

            def residual(e):
                return quantization_residual(derive_coefficients(nu_instance(p, 1, e)), n)

            roots = find_roots_by_scan(residual, e_n - 2.0, e_n + 2.0, 0.1 * math.hypot(1.0, 0.5))
            assert len(roots) == 1
            assert roots[0] == pytest.approx(e_n, abs=1e-9)

    def test_negative_degree_rejected(self):
        c = derive_coefficients(NUProblem(1.0, 1.0, 1.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            quantization_residual(c, -1)


def test_jacobi_mapping_matches_wavefunction():
    """The NU bound solution's Jacobi parameters, a = a10 - 1 and
    b = a11/a3 - a10 - 1 (the weight's (1 - a3 z) exponent), are the
    (|m|, s) that radial_wavefunction evaluates, on every fixture state of
    every fixture parameter set."""
    for alpha, k in FIXTURE_PARAM_SETS:
        p = SystemParams(alpha=alpha, k=k)
        for n, m in FIXTURE_STATES:
            c = derive_coefficients(nu_instance(p, m, energy(p, n, m)))
            wf = radial_wavefunction(p, make_state(p, n, m))
            assert wf.n_max == n
            assert c.a10 - 1.0 == pytest.approx(wf.a, abs=1e-12)
            assert c.a11 / c.problem.a3 - c.a10 - 1.0 == pytest.approx(wf.b, rel=1e-12)


class TestArrays:
    """derive_coefficients, tau_prime and quantization_residual work
    elementwise: an array gives, at each element, the scalar call's number."""

    FIELDS = ("a4", "a5", "a6", "a7", "a8", "a9", "a10", "a11", "a12", "a13",
              "kappa_plus", "kappa_minus")

    @pytest.mark.parametrize("shift", [0.0, 0.1])
    @pytest.mark.parametrize("alpha,k", FIXTURE_PARAM_SETS)
    def test_equal_scalar_calls_on_fixtures(self, alpha, k, shift):
        p = SystemParams(alpha=alpha, k=k)
        n, m = np.array(FIXTURE_STATES).T
        c = derive_coefficients(nu_instance(p, m, energy(p, n, m) + shift))
        residual, slope = quantization_residual(c, n), tau_prime(c)
        for i, (ni, mi) in enumerate(FIXTURE_STATES):
            one = derive_coefficients(nu_instance(p, mi, energy(p, ni, mi) + shift))
            got = [np.broadcast_to(getattr(c, name), n.shape)[i] for name in self.FIELDS]
            got += [residual[i], slope[i]]
            want = [getattr(one, name) for name in self.FIELDS]
            want += [quantization_residual(one, ni), tau_prime(one)]
            assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_number_gives_a_number(self):
        c = derive_coefficients(NUProblem(1.0, 1.0, 1.0, 0.3, -0.2, 0.5))
        for value in (c.a10, c.kappa_minus, tau_prime(c), quantization_residual(c, 2)):
            assert np.ndim(value) == 0 and isinstance(value, float)

    def test_one_bad_radicand_refuses_the_array(self):
        eps3 = np.array([0.5, 0.2, -1.0, 0.3])
        with pytest.raises(NegativeDiscriminantError, match="a8 = -1.0 < 0"):
            derive_coefficients(NUProblem(1.0, 1.0, 1.0, 0.0, 0.0, eps3))

    def test_one_negative_degree_refuses_the_array(self):
        c = derive_coefficients(NUProblem(1.0, 1.0, 1.0, 0.0, 0.0, np.array([0.5, 0.2])))
        with pytest.raises(ValueError, match="degree must be nonnegative"):
            quantization_residual(c, np.array([2, -1]))

    def test_tiny_negative_radicands_clamped(self):
        c = derive_coefficients(NUProblem(1.0, 1.0, 1.0, 0.0, 0.0, np.array([-1e-14, 0.0])))
        assert c.a10.tolist() == [1.0, 1.0]
        with pytest.raises(NegativeDiscriminantError):
            derive_coefficients(NUProblem(1.0, 1.0, 1.0, 0.0, 0.0, np.array([0.0, -1e-13])))


def test_find_roots_by_scan_cubic():
    roots = find_roots_by_scan(lambda x: (x - 1.0) * (x + 2.0) * x, -3.0, 3.0, 0.25)
    assert len(roots) == 3
    for found, true in zip(sorted(roots), (-2.0, 0.0, 1.0)):
        assert found == pytest.approx(true, abs=1e-10)


def test_find_roots_step_validation():
    with pytest.raises(ValueError):
        find_roots_by_scan(lambda x: x, 0.0, 1.0, 0.0)
