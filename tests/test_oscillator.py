"""System tests: spectrum, wavefunctions, equation residuals."""

import cmath
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdm_osc.errors import (
    ConfigError,
    DegreeOverflowError,
    DomainError,
    NonNormalizableError,
    NonPhysicalError,
)
from pdm_osc.nu import derive_coefficients, quantization_residual
from pdm_osc.oscillator import (
    RadialFamily,
    SystemParams,
    _turning_radius,
    energy,
    excitation,
    nu_instance,
    ode_residual,
    radial_overlaps,
    solve_energy,
)
from pdm_osc.specfun import JACOBI_DEGREE_CAP, QuadratureSpec, integrate, jacobi_family
from pdm_osc.thermo import sweep

import box


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


def total_wavefunction(params: SystemParams, n_r: int, m: int, r: float,
                       theta: float) -> complex:
    """Psi(r, theta) = U(r) exp(-i m theta) / sqrt(2 pi) of the state (n_r, m),
    the separation ansatz with its angular factor unit-normalized on [0, 2 pi)."""
    u = RadialFamily(params, m, n_r).values(r, n_r)
    return u / math.sqrt(2.0 * math.pi) * cmath.exp(-1j * m * theta)


class TestSystemParams:
    def test_validation(self):
        """A field out of range is a ConfigError naming it, the line the
        command line prints; any finite k is taken, and what cannot take
        k > 0 refuses it."""
        with pytest.raises(ValueError):
            SystemParams(alpha=0.0, k=-0.5)
        with pytest.raises(ValueError):
            SystemParams(alpha=1.0, k=-0.5, lam=0.0)
        for field, value, reason in (("alpha", -1.0, "must be positive"),
                                     ("kb", 0.0, "must be positive"),
                                     ("lam", 0.0, "must be nonzero")):
            with pytest.raises(ConfigError) as refused:
                SystemParams(**{"alpha": 1.0, "k": -0.5, field: value})
            assert str(refused.value) == f"config-error field={field} reason={reason}"
        p = SystemParams(alpha=1.0, k=0.2)
        with pytest.raises(NonPhysicalError):
            sweep(p, 1, 10, [1.0])
        with pytest.raises(NonNormalizableError):
            RadialFamily(p, 0, 0)

    @pytest.mark.parametrize("field", ["alpha", "k", "lam", "kb"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        kw = {"alpha": 1.0, "k": -0.5, "lam": 1.0, "kb": 1.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SystemParams(**kw)

    def test_delta_relation_exact(self):
        p = SystemParams(alpha=1.0, k=-0.37, lam=1.7)
        assert p.delta_sq == -0.37 * 1.7
        assert p.delta_sq / p.lam == p.k

    def test_r_max(self):
        assert SystemParams(alpha=1.0, k=-0.25).r_max == 2.0
        assert SystemParams(alpha=1.0, k=0.5).r_max == math.inf


class TestEnergy:
    def test_flat_ladder(self):
        p = SystemParams(alpha=1.0, k=0.0)
        for n in range(4):
            for m in (-2, 0, 1, 3):
                assert energy(p, n, m) == pytest.approx(2 * n + abs(m) + 1, abs=1e-14)

    def test_ground_state_value(self):
        p = SystemParams(alpha=1.0, k=-0.5)
        assert energy(p, 0, 0) == pytest.approx(1.6180339887498949, abs=1e-12)

    def test_excited_value(self):
        p = SystemParams(alpha=1.0, k=-1.0)
        assert energy(p, 1, 2) == pytest.approx(5.0 * math.sqrt(2.0) + 13.0, rel=1e-14)

    @settings(max_examples=100)
    @given(alpha=box.ALPHA, k=box.K, n=box.N, m=box.M)
    def test_m_symmetry_exact(self, alpha, k, n, m):
        p = SystemParams(alpha=alpha, k=k)
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

    def test_m_beyond_double_square_refused(self):
        """An |m| whose square is not a finite double is refused, naming m;
        just below, the energy is finite."""
        p = SystemParams(alpha=1.0, k=-0.5)
        for m in (10**400, -(10**155)):
            with pytest.raises(DomainError, match=re.escape(f"m={m}: m^2 is not finite")):
                energy(p, 0, m)
        assert math.isfinite(energy(p, 0, 10**154))

    def test_array_m_squares_in_doubles(self):
        """An int64 array of m gives each m's value as a number: m^2 is
        formed in doubles, where an integer dtype wraps above |m| = 3.04e9."""
        p, m = SystemParams(alpha=1.0, k=-0.1), 2**32
        e = energy(p, 0, m)
        assert energy(p, 0, np.array([m])).tolist() == [e]
        assert _turning_radius(p, np.array([0]), np.array([m])).tolist() == [
            _turning_radius(p, 0, m)]
        assert nu_instance(p, np.array([m]), e).eps3.tolist() == [nu_instance(p, m, e).eps3]

    @pytest.mark.parametrize("m", [1, np.array([0, 1])], ids=["number", "array"])
    def test_terms_beyond_double_range_refused(self, m):
        """Where E_0, E'(0) or q = -2k is not finite, spectrum_terms refuses,
        naming alpha, k and m, before any array step warns."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=re.escape("alpha=1e+308, k=-1e+308, m=")):
                energy(SystemParams(alpha=1e308, k=-1e308), np.arange(3), m)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            energy(SystemParams(alpha=1.0, k=-0.5), -1, 0)
        with pytest.raises(ValueError):
            excitation(SystemParams(alpha=1.0, k=-0.5), np.array([0.0, -1.0]), 0)

    @settings(max_examples=100)
    @given(alpha=box.ALPHA_WIDE, k=box.K_WIDE, m=box.M,
           x=st.one_of(box.N.map(float), st.floats(0.0, box.N_MAX)))
    def test_excitation_against_mpmath(self, alpha, k, m, x):
        """d(x) = E(x) - E_0 is within 3 ulp of E(x) - E_0 formed from the
        spectrum formula in mpmath, at integer and continuous x, for alpha up
        to 1e150 and k up to -1e-8, where E_0 dwarfs d. The subtraction
        loses up to log10(E_0/d) < 330 digits (x >= 5e-324), so 400 digits
        leave d at least 60. alpha and k reach the shells alpha >= 1e-3 and
        |k| <= 5, where |k| dwarfs alpha and the k terms of D and q lead."""
        mpmath = pytest.importorskip("mpmath")
        p = SystemParams(alpha=alpha, k=k)
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
        p = SystemParams(alpha=1.0, k=0.0)
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
        family = RadialFamily(p, 0, 0)
        s = math.sqrt(1.0 / 0.25 + 1.0)
        for r in (0.1, 0.5, 1.0):
            z = 0.5 * r * r
            expected = math.exp(-0.5 * family.log_norms[0]) * (1.0 - z) ** (0.5 * (1.0 + s))
            assert family.values(r, 0) == pytest.approx(expected, rel=1e-13)

    def test_normalization_against_requadrature(self):
        p = SystemParams(alpha=1.0, k=-0.5)
        for n, m in ((0, 0), (1, 0), (2, 1), (3, 2)):
            assert radial_overlaps(p, [(m, n, n)])[0] == pytest.approx(1.0, abs=1e-8)

    def test_normalization_against_analytic_oracle(self):
        for alpha, k in ((1.0, -0.5), (2.0, -0.3)):
            p = SystemParams(alpha=alpha, k=k)
            for n, m in ((0, 0), (1, 1), (3, 2)):
                assert math.exp(RadialFamily(p, m, n).log_norms[n]) == pytest.approx(
                    analytic_norm_integral(p, n, m), rel=1e-9
                )

    def test_decaying_branch_selected(self):
        p = SystemParams(alpha=1.0, k=-0.5)
        family = RadialFamily(p, 1, 2)
        s = math.sqrt(1.0 / 0.25 + 1.0)
        for r in (0.2, 0.6, 1.0, 1.3):
            z = 0.5 * r * r
            poly = jacobi_family(1.0, s, 2, 2.0 * z)[2]
            decay = family.values(r, 2) / (math.exp(-0.5 * family.log_norms[2]) * z**0.5 * poly)
            assert decay == pytest.approx((1.0 - z) ** (0.5 * (1.0 + s)), rel=1e-12)
        assert family.domain_max == p.r_max

    def test_small_r_power_law(self):
        p = SystemParams(alpha=1.0, k=-0.5)
        for m in (1, 2):
            ground = RadialFamily(p, m, 0)
            ratio = ground.values(2e-4, 0) / ground.values(1e-4, 0)
            assert ratio == pytest.approx(2.0**abs(m), rel=1e-4)

    def test_nonnegative_k_not_normalizable(self):
        for k in (0.0, 1e-3, 0.5):
            p = SystemParams(alpha=1.0, k=k)
            with pytest.raises(NonNormalizableError):
                RadialFamily(p, 0, 0)

    def test_negative_lam_not_normalizable(self):
        # delta_sq = k lam > 0: an unbounded domain on which U grows
        p = SystemParams(alpha=1.0, k=-0.5, lam=-1.0)
        with pytest.raises(NonNormalizableError):
            RadialFamily(p, 1, 1)

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
        family = RadialFamily(SystemParams(alpha=1.0, k=-0.5), 0, 0)
        for degrees in (None, 0):
            with pytest.raises(DomainError):
                family.values(family.domain_max, degrees)


@settings(max_examples=200)
@given(k=box.K_WIDE, m=box.M, n=box.DEGREE)
def test_closed_form_norm_across_regime_edges(k, m, n):
    """The log-domain norm matches a 50-digit Gamma-function evaluation.
    k reaches the shell |k| <= 5, where s = sqrt(alpha^2/k^2 + 1) nears 1:
    the other end of the Jacobi parameter b from k -> 0-."""
    mpmath = pytest.importorskip("mpmath")
    p = SystemParams(alpha=1.0, k=k)
    family = RadialFamily(p, m, n)
    log_norm = family.log_norms[n].item()
    assert math.isfinite(log_norm)
    assert np.all(np.isfinite(family.values(p.r_max * np.linspace(0.05, 0.95, 19), n)))
    with mpmath.workdps(50):
        a = abs(m)
        s = mpmath.sqrt(1 / mpmath.mpf(p.k) ** 2 + 1)
        exact = (
            mpmath.loggamma(n + a + 1) + mpmath.loggamma(n + s + 1)
            - mpmath.loggamma(n + a + s + 1) - mpmath.loggamma(n + 1)
            - mpmath.log(2 * n + a + s + 1) - mpmath.log(2 * abs(mpmath.mpf(p.delta_sq)))
        )
        assert abs(log_norm - exact) <= 1e-12 * abs(exact)


def assert_bits_equal(got, want) -> None:
    """Same shape, dtype and bits: NaN equals NaN, and 0.0 is not -0.0."""
    got, want = np.asarray(got), np.asarray(want)
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=30)
@given(k=box.K, m=box.M, n_max=box.DEGREE,
       fractions=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=6))
# at this k, z = -delta_sq r^2 rounds to 1 + 2^-52 at r = nextafter(r_max, 0)
@example(k=-1.786294763086179e-08, m=1, n_max=3, fractions=[1.0 - 2.0**-53])
def test_family_rows_equal_one_state_values(k, m, n_max, fractions):
    """Row n of a family at every r is U_n(r) of the family that ends at n,
    bit for bit, over the box and its degrees. The radii are fractions of
    r_max and of the sampled range of the wavefunction command, where the
    states live. Where z rounds to 1 or above, just below r_max, U is the
    envelope's limit there, 0."""
    p = SystemParams(alpha=1.0, k=k)
    r_hi = min(p.r_max, 4.0 * _turning_radius(p, n_max, m))
    r = np.minimum(np.outer([p.r_max, r_hi], fractions), np.nextafter(p.r_max, 0.0))
    family = RadialFamily(p, m, n_max)
    rows = family.values(r)
    assert not rows[:, -p.delta_sq * r * r >= 1.0].any()
    assert rows.shape == (n_max + 1,) + r.shape
    for n in range(n_max + 1):
        one = RadialFamily(p, m, n)
        assert one.log_norms[n] == family.log_norms[n]
        assert_bits_equal(rows[n], one.values(r, n))
        assert_bits_equal(family.values(r, n), one.values(r, n))
    assert_bits_equal(rows[n_max, 0, 0], one.values(r[0, 0], n_max))


class TestRadialFamily:
    def test_degrees_broadcast_against_r(self):
        p = SystemParams(alpha=1.0, k=-0.5)
        family = RadialFamily(p, 2, 4)
        r = p.r_max * np.array([[0.1, 0.5, 0.9], [0.2, 0.3, 0.4]])
        degrees = np.array([[[4], [1]], [[0], [3]]])
        got = family.values(r, degrees)
        assert got.shape == (2, 2, 3)
        rows = family.values(r)
        for i, j in np.ndindex(2, 2):
            assert_bits_equal(got[i, j], rows[degrees[i, j, 0], j])

    def test_number_gives_a_number(self):
        value = RadialFamily(SystemParams(alpha=1.0, k=-0.5), 1, 2).values(0.6, 2)
        assert np.ndim(value) == 0 and isinstance(value, float)

    def test_empty_r_gives_empty_values(self):
        """An empty r passes the range check: every row of the family, or
        the rows named by degrees, at no radius, in the documented shape."""
        family = RadialFamily(SystemParams(alpha=1.0, k=-0.5), 1, 3)
        assert family.values(np.empty(0)).shape == (4, 0)
        assert family.values(np.empty((2, 0))).shape == (4, 2, 0)
        assert family.values(np.empty(0), np.array([[0], [3]])).shape == (2, 0)

    def test_degrees_outside_the_family_refused(self):
        family = RadialFamily(SystemParams(alpha=1.0, k=-0.5), 1, 3)
        for degrees in (-1, 4, np.array([[0], [5]])):
            with pytest.raises(ValueError, match="degrees must lie in"):
                family.values(np.array([0.2, 0.4]), degrees)

    def test_refuses_outside_bound_regime(self):
        with pytest.raises(NonNormalizableError):
            RadialFamily(SystemParams(alpha=1.0, k=0.1), 0, 3)

    def test_family_at_the_cap_is_built(self):
        """(n_max + 1)|m| = JACOBI_DEGREE_CAP log-norm terms is within the
        cap: the family is built, its one log-norm finite."""
        family = RadialFamily(SystemParams(alpha=1.0, k=-0.1), -JACOBI_DEGREE_CAP, 0)
        assert family.log_norms.shape == (1,) and math.isfinite(family.log_norms[0])

    @pytest.mark.parametrize("m, n_max", [(10**8, 0), (-1, 10**6), (10**400, 3)])
    def test_log_norm_terms_beyond_the_cap_refused(self, m, n_max):
        """The log-norms sum (n_max + 1)|m| logs one at a time: above
        JACOBI_DEGREE_CAP terms the family refuses, naming m and n_max,
        before the first."""
        with pytest.raises(DegreeOverflowError, match=re.escape(f"m={m}, n_max={n_max}: ")):
            RadialFamily(SystemParams(alpha=1.0, k=-0.1), m, n_max)

    @pytest.mark.parametrize("alpha, k", [(1.0, -1e-300), (1e300, -0.1)])
    def test_refuses_s_beyond_double_range(self, alpha, k):
        # alpha^2 / k^2 overflows: s = sqrt(alpha^2/k^2 + 1) is not finite
        with pytest.raises(ValueError, match=re.escape(f"alpha={alpha}, k={k}, lam=1.0: s = ")):
            RadialFamily(SystemParams(alpha=alpha, k=k), 1, 3)

    def test_refuses_values_beyond_double_range(self):
        # s = 1e150: the recurrence overflows where the states live. At
        # s = 1e12, P_30(-1) overflows near r_max, where U_30 underflows to
        # 0: the overlap quadrature refuses rather than refine NaN
        p = SystemParams(alpha=1.0, k=-1e-150)
        r = np.linspace(0.0, 4.0 * _turning_radius(p, 8, 1), 50)
        with pytest.raises(ValueError, match=re.escape("k=-1e-150, lam=1.0: U_n(r) is not")):
            RadialFamily(p, 1, 8).values(r)
        with pytest.raises(ValueError, match=re.escape("k=-1e-12, lam=1.0: U_n(r) is not")):
            radial_overlaps(SystemParams(alpha=1.0, k=-1e-12), [(0, 30, 30)])


class TestTurningRadius:
    def test_arrays_equal_number_calls(self):
        p = SystemParams(alpha=1.0, k=-0.3)
        n, m = np.array([[0, 3, 1], [2, 0, 5]]), np.array([[1, -2, 0], [4, 1, 1]])
        radii = _turning_radius(p, n, m)
        assert radii.shape == n.shape
        for i, j in np.ndindex(n.shape):
            assert_bits_equal(radii[i, j], _turning_radius(p, n[i, j].item(), m[i, j].item()))

    @settings(max_examples=100)
    @given(alpha=box.ALPHA, k=box.K, m=box.M, n=box.DEGREE)
    @example(alpha=1.0, k=-0.3, m=1, n=3)
    def test_radius_solves_its_quadratic(self, alpha, k, m, n):
        """u = r_t^2 is the larger root of A u^2 + B u - m^2, with
        A = 2 lam E delta_sq - alpha^2 lam^2 and B = 2 lam E - m^2 delta_sq
        taken exactly from their float inputs: the residual is within 16 eps
        of the size of its terms, and so is the slope 2 A u + B from below
        0, where a root of a downward parabola (A < 0) is the larger one."""
        p = SystemParams(alpha=alpha, k=k)
        lam, d2, e, alpha_lam = (Fraction(x) for x in (p.lam, p.delta_sq, energy(p, n, m),
                                                       p.alpha * p.lam))
        u = Fraction(_turning_radius(p, n, m)) ** 2
        m2 = Fraction(m * m)
        a, b = 2 * lam * e * d2 - alpha_lam**2, 2 * lam * e - m2 * d2
        size_a, size_b = abs(2 * lam * e * d2) + alpha_lam**2, abs(2 * lam * e) + m2 * abs(d2)
        tol = 16 * Fraction(np.finfo(float).eps)
        assert a < 0
        assert abs(a * u * u + b * u - m2) <= tol * (size_a * u * u + size_b * u + m2)
        assert 2 * a * u + b <= tol * (2 * size_a * u + size_b)

    @pytest.mark.parametrize("k, lam", [(-0.1, 1e-300), (-0.1, 1e300), (-1e300, 1.0)])
    def test_refuses_radius_beyond_double_range(self, k, lam):
        # (alpha lam)^2 or E delta_sq overflows, or the u^2 coefficient is 0
        with pytest.raises(ValueError, match=re.escape(f"k={k}, lam={lam}: the outer turning radius")):
            _turning_radius(SystemParams(alpha=1.0, k=k, lam=lam), 1, 1)


class TestOdeResidual:
    def test_states_equal_one_state_calls(self):
        """Arrays of (n, m), of mixed m, give shape n.shape + r.shape, each
        state the call with numbers n and m bit for bit at every r, with and
        without energy_override."""
        p = SystemParams(alpha=1.0, k=-0.3)
        n, m = np.array([[2, 0, 3], [1, 1, 0]]), np.array([[1, 0, 1], [-2, 0, 2]])
        rs = p.r_max * np.linspace(0.05, 0.95, 7)
        for override in (None, energy(p, n, m) + 0.05):
            rows = ode_residual(p, n, m, rs, energy_override=override)
            assert rows.shape == n.shape + rs.shape
            for i, j in np.ndindex(n.shape):
                shift = None if override is None else override[i, j].item()
                ones = [ode_residual(p, n[i, j].item(), m[i, j].item(), r, energy_override=shift)
                        for r in rs.tolist()]
                assert all(np.ndim(one) == 0 for one in ones)
                assert_bits_equal(rows[i, j], ones)

    def test_negative_n_refused(self):
        p = SystemParams(alpha=1.0, k=-0.5)
        for override in (None, 1.0):
            with pytest.raises(ValueError, match="n_r must be nonnegative"):
                ode_residual(p, np.array([0, -1]), 0, 0.5, energy_override=override)


    def test_eigenstates_satisfy_equation(self):
        p = SystemParams(alpha=1.0, k=-0.5)
        for n, m in ((0, 0), (1, 0), (2, 1), (1, 2)):
            for j in range(1, 51):
                r = p.r_max * (0.02 + 0.96 * (j - 1) / 49.0)
                assert abs(ode_residual(p, n, m, r)) <= 1e-8

    def test_perturbed_energy_visible(self):
        p = SystemParams(alpha=1.0, k=-0.5)
        for n, m in ((0, 0), (1, 2)):
            peak = max(
                abs(ode_residual(p, n, m, p.r_max * f, energy_override=energy(p, n, m) + 0.05))
                for f in (0.2, 0.4, 0.6, 0.8)
            )
            assert peak > 1e-3

    def test_bounded_at_small_r(self):
        p = SystemParams(alpha=1.0, k=-0.5)
        assert abs(ode_residual(p, 0, 0, 1e-3)) <= 1e-6

    def test_domain_errors(self):
        p = SystemParams(alpha=1.0, k=-0.5)
        with pytest.raises(DomainError):
            ode_residual(p, 0, 0, 0.0)
        with pytest.raises(DomainError):
            ode_residual(p, 0, 0, p.r_max)

    def test_empty_r_gives_empty_residuals(self):
        """An empty r passes the range check: shape n_r.shape + r.shape, for
        numbers and for arrays of states, and a NaN beside it is refused."""
        p = SystemParams(alpha=1.0, k=-0.5)
        assert ode_residual(p, 1, 2, np.empty(0)).shape == (0,)
        states = np.array([1, 0]), np.array([2, -1])
        assert ode_residual(p, *states, np.empty((3, 0))).shape == (2, 3, 0)
        with pytest.raises(DomainError):
            ode_residual(p, 1, 2, np.array([0.5, math.nan]))


class TestTotalWavefunction:
    def test_theta_independent_for_m0(self):
        p = SystemParams(alpha=1.0, k=-0.5)
        v1 = total_wavefunction(p, 0, 0, 0.5, 0.0)
        v2 = total_wavefunction(p, 0, 0, 0.5, 2.1)
        assert v1 == v2

    def test_phase_modulus_invariance(self):
        p = SystemParams(alpha=1.0, k=-0.5)
        mags = {round(abs(total_wavefunction(p, 1, 2, 0.7, th)), 13) for th in (0.0, 1.0, 2.5, 5.0)}
        assert len(mags) == 1

    def test_phase_factor(self):
        p = SystemParams(alpha=1.0, k=-0.5)
        v = total_wavefunction(p, 0, 3, 0.7, 0.4)
        expected_phase = cmath.exp(-1j * 3 * 0.4)
        ratio = v / total_wavefunction(p, 0, 3, 0.7, 0.0)
        assert ratio.real == pytest.approx(expected_phase.real, abs=1e-12)
        assert ratio.imag == pytest.approx(expected_phase.imag, abs=1e-12)

    def test_two_dimensional_normalization(self):
        """int |Psi|^2 over theta and the weighted radial measure equals 1."""
        p = SystemParams(alpha=1.0, k=-0.5)
        n_theta = 64
        radial = integrate(
            lambda r, _: sum(
                abs(total_wavefunction(p, 1, 1, r, 2 * math.pi * j / n_theta)) ** 2
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
