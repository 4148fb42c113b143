"""Kernel tests: erfcx, Jacobi polynomials against the terminating 2F1 series, quadrature,
differences."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdm_osc.specfun import (
    erfcx_gh,
    DegreeOverflowError,
    IntegrationError,
    QuadratureSpec,
    central_diff,
    five_point_stencil,
    integrate,
    jacobi_family,
)

import box


def erf_by_gauss_legendre(x: float, order: int = 60) -> float:
    """Independent oracle: high-order Gauss-Legendre quadrature of the integral."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    t = 0.5 * x * (nodes + 1.0)
    return 2.0 / math.sqrt(math.pi) * 0.5 * x * float(np.sum(weights * np.exp(-t * t)))


def erfcx(x: float | np.ndarray) -> float | np.ndarray:
    """exp(x^2) erfc(x) for x >= 0, elementwise on a number or an array: the
    first factor of the package's erfcx_gh over sqrt(pi)."""
    out = erfcx_gh(x)[0] / math.sqrt(math.pi)
    return out if out.ndim else float(out)


def erf(x: float | np.ndarray) -> float | np.ndarray:
    """erf(x) = 1 - exp(-x^2) erfcx(|x|), odd in x, elementwise on a number or
    an array: the error function through the package's erfcx, so that erf's
    oracles hold erfcx on the whole line."""
    v = 1.0 - np.exp(-np.square(x)) * erfcx(np.abs(x))
    return np.where(np.asarray(x) >= 0.0, v, -v)[()]


class PoleError(ValueError):
    """Hypergeometric series hits a pole of a lower-parameter Pochhammer."""


def hyp2f1_terminating(n: int, b: float, c: float, z: float) -> float:
    """Terminating Gauss series 2F1(-n, b; c; z), summed over its n+1 terms:
    the tests' independent route to jacobi_family.

    Raises PoleError when c is a nonpositive integer in {0, -1, ..., -(n-1)},
    which would put a zero in a denominator Pochhammer before termination.
    """
    if n < 0:
        raise ValueError(f"series order must be nonnegative, got n={n}")
    if c <= 0 and c == int(c) and c > -n:
        raise PoleError(f"c={c} is a nonpositive integer reached by the series")
    term = 1.0
    total = 1.0
    for k in range(n):
        term *= (-n + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        total += term
    return total


def hyp2f1_terminating_magnitude(n: int, b: float, c: float, z: float) -> float:
    """Sum of |term_k| of the series hyp2f1_terminating sums; the conditioning
    scale for comparisons."""
    term = 1.0
    total = 1.0
    for k in range(n):
        term *= (-n + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        total += abs(term)
    return total


class TestErf:
    def test_zero(self):
        assert erf(0.0) == 0.0

    def test_value_at_one(self):
        # frozen from the Gauss-Legendre oracle below
        assert erf(1.0) == pytest.approx(0.842700792949715, abs=1e-14)
        assert erf(1.0) == pytest.approx(erf_by_gauss_legendre(1.0), abs=1e-14)

    def test_oddness_example(self):
        assert erf(-2.0) == -erf(2.0)

    def test_oddness_randomized(self):
        rng = random.Random(20240801)
        xs = np.array([rng.uniform(-6.0, 6.0) for _ in range(1000)])
        assert np.all(np.abs(erf(-xs) + erf(xs)) <= 1e-15)

    def test_bounds(self):
        rng = random.Random(7)
        xs = np.array([rng.uniform(-40.0, 40.0) for _ in range(1000)])
        assert np.all(np.abs(erf(xs)) <= 1.0)

    def test_monotone(self):
        # strictly increasing while increments are resolvable in doubles,
        # non-decreasing through the saturation tail
        assert np.all(np.diff(erf(np.linspace(-5.0, 5.0, 400))) > 0.0)
        assert np.all(np.diff(erf(np.linspace(5.0, 8.0, 100))) >= 0.0)

    def test_against_libm(self):
        # math.erf is an independent implementation; agreement certifies the
        # 1e-14 absolute accuracy target across the series/fraction switch
        rng = random.Random(99)
        xs = [rng.uniform(-8.0, 8.0) for _ in range(5000)]
        assert np.all(np.abs(erf(np.array(xs)) - [math.erf(x) for x in xs]) <= 1e-14)

    def test_against_quadrature_oracle(self):
        for x in (0.25, 0.5, 1.5, 2.5, 3.5):
            assert erf(x) == pytest.approx(erf_by_gauss_legendre(x), abs=5e-14)


def test_log_gamma_matches_factorials():
    for n in range(1, 12):
        assert math.lgamma(n + 1) == pytest.approx(math.log(math.factorial(n)), rel=1e-14)


class TestErfcx:
    def test_matches_definition_below_switch(self):
        for x in (0.0, 0.3, 1.0, 2.5):
            assert erfcx(x) == pytest.approx(math.exp(x * x) * math.erfc(x), rel=1e-11)

    def test_matches_definition_at_ten(self):
        # erfc(10) ~ 2.1e-45 is still a full-precision double
        assert erfcx(10.0) == pytest.approx(math.exp(100.0) * math.erfc(10.0), rel=1e-13)

    def test_large_argument_asymptote(self):
        # erfcx(x) -> (1 - 1/(2x^2) + 3/(4x^4)) / (x sqrt(pi))
        for x in (100.0, 1e4):
            lead = 1.0 / (x * math.sqrt(math.pi))
            correction = 1.0 - 0.5 / (x * x) + 0.75 / x**4
            assert erfcx(x) == pytest.approx(lead * correction, rel=1e-9)

    def test_stays_finite_where_erfc_underflows(self):
        assert math.erfc(40.0) == 0.0
        assert erfcx(40.0) > 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            erfcx(-1.0)
        with pytest.raises(ValueError):
            erfcx(np.array([0.5, -1e-300]))

    def test_nan_propagates(self):
        assert math.isnan(erfcx(math.nan))
        out = erfcx(np.array([0.5, math.nan, 2.0]))
        assert math.isnan(out[1]) and out[0] == erfcx(0.5) and out[2] == erfcx(2.0)

    def test_against_mpmath(self):
        """Relative error against 40-digit mpmath: 3e-14 below the switch at
        x = 1.5, where exp(x^2) - erf series cancels by up to a factor 34,
        and 1e-15 on the continued fraction beyond it. A number gives the
        same value as an array element."""
        mpmath = pytest.importorskip("mpmath")
        xs = np.linspace(0.0, 10.0, 2001)
        with mpmath.workdps(40):
            ref = np.array([float(mpmath.exp(mpmath.mpf(x) ** 2) * mpmath.erfc(x))
                            for x in xs.tolist()])
        got = erfcx(xs)
        rel = np.abs(got / ref - 1.0)
        assert rel.max() <= 3e-14
        assert rel[xs >= 1.5].max() <= 1e-15
        assert [erfcx(x) for x in xs.tolist()] == got.tolist()


    def test_g_and_h_against_mpmath(self):
        """g(u) = 1 - sqrt(pi) u erfcx(u) and h(u) = sqrt(pi) (u^2 + 1/2)
        erfcx(u) - u against mpmath with 30 digits to spare: the working
        precision grows by 4 digits per decade of u, to absorb the oracle's own
        cancellation. Below the switch at u = 1.5, where g and h are formed
        as written, 1e-13 and 5e-13 relative; from 1.5 to 1e8, where the
        continued fraction gives them without cancellation, 2e-15. The naive
        forms in double lose about 8 digits of g and every digit of h at
        u = 1e4."""
        mpmath = pytest.importorskip("mpmath")
        us = np.concatenate([np.linspace(0.0, 1.5, 151)[:-1], np.geomspace(1.5, 1e8, 200)])

        def oracle(u):
            with mpmath.workdps(30 + 4 * max(0, math.ceil(math.log10(u + 1.0)))):
                u = mpmath.mpf(u)
                e = mpmath.sqrt(mpmath.pi) * mpmath.exp(u * u) * mpmath.erfc(u)
                return [float(v) for v in (e, 1 - u * e, (u * u + mpmath.mpf(1) / 2) * e - u)]

        ref = np.array([oracle(u) for u in us.tolist()]).T
        rel = np.abs(np.array(erfcx_gh(us)) / ref - 1.0)
        below = us < 1.5
        assert rel[0, below].max() <= 3e-14
        assert rel[1, below].max() <= 1e-13 and rel[2, below].max() <= 5e-13
        assert rel[:, ~below].max() <= 2e-15
        # the first factor is erfcx's, and a number gives an array element's value
        assert (np.array(erfcx_gh(us))[0] / math.sqrt(math.pi)).tolist() == erfcx(us).tolist()
        assert [float(erfcx_gh(u)[2]) for u in us[::37].tolist()] == erfcx_gh(us)[2][::37].tolist()


class TestJacobi:
    """The recurrence on its own terms. The symmetry and series tests draw
    general parameters a, b > -1 and x, not the box's: a is |m| only where
    the states need it, in test_against_mpmath_as_k_approaches_zero."""

    def test_degree_zero(self):
        assert jacobi_family(0.0, 0.0, 0, 1.0 - 0.7).tolist() == [1.0]

    def test_legendre_p2(self):
        # P_0, P_1 = x and P_2 = (3x^2 - 1)/2 at x = 0
        assert jacobi_family(0.0, 0.0, 2, 1.0 - 0.0) == pytest.approx([1.0, 0.0, -0.5],
                                                                       abs=1e-15)

    def test_degree_one_closed_form(self):
        # (a+1) + (a+b+2)(x-1)/2 with a=1, b=3, x=0.25
        assert jacobi_family(1.0, 3.0, 1, 1.0 - 0.25)[1] == pytest.approx(-0.25, abs=1e-15)

    def test_shape(self):
        y = np.linspace(0.0, 2.0, 12).reshape(3, 4)
        family = jacobi_family(2.0, 1.5, 5, y)
        assert family.shape == (6, 3, 4)
        assert family[0].tolist() == np.ones((3, 4)).tolist()

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            jacobi_family(0.0, 0.0, -1, 0.5)

    def test_degree_cap(self):
        with pytest.raises(DegreeOverflowError):
            jacobi_family(0.0, 0.0, 10**6 + 1, 0.5)

    @settings(max_examples=300)
    @given(
        n=st.integers(0, 20),
        a=st.floats(-0.9, 5.0),
        b=st.floats(-0.9, 5.0),
        x=st.floats(-1.5, 1.5),
    )
    def test_symmetry(self, n, a, b, x):
        """P_j^(a,b)(x) = (-1)^j P_j^(b,a)(-x) for every degree j <= n."""
        left = jacobi_family(a, b, n, 1.0 + x)
        right = jacobi_family(b, a, n, 1.0 - x)
        for j in range(n + 1):
            want = (-1.0) ** j * right[j]
            scale = max(1.0, abs(left[j]), abs(want))
            assert abs(left[j] - want) <= 1e-12 * scale

    @settings(max_examples=300)
    @given(
        n=st.integers(0, 20),
        a=st.floats(-0.9, 5.0),
        b=st.floats(-0.9, 5.0),
        x=st.floats(-1.5, 1.5),
    )
    def test_recurrence_vs_series_route(self, n, a, b, x):
        """The recurrence and the Gamma-prefactor series agree to 1e-12, at
        every degree the family returns.

        The series is an alternating sum, so the comparison is scaled by its
        term-magnitude total: near polynomial roots pointwise relative error
        is unattainable in fixed precision for either route.
        """
        z = 0.5 * (1.0 - x)
        family = jacobi_family(a, b, n, 2.0 * z)
        for j in range(n + 1):
            series = hyp2f1_terminating(j, 1.0 + j + a + b, 1.0 + a, z)
            prefactor = math.exp(math.lgamma(j + a + 1.0) - math.lgamma(j + 1.0)
                                 - math.lgamma(a + 1.0))
            conditioning = prefactor * hyp2f1_terminating_magnitude(j, 1.0 + j + a + b, 1.0 + a, z)
            assert abs(family[j] - prefactor * series) <= 1e-12 * max(1.0, conditioning)

    @settings(max_examples=150)
    @given(k=box.K_JACOBI, a=box.M.map(abs), n=st.integers(0, 12),
           log_t=st.floats(-1.0, math.log10(60.0)))
    @example(k=-(10.0**0.125), a=8, n=10, log_t=0.103515625)
    @example(k=-(10.0**0.20986276589143793), a=59, n=12, log_t=0.07044307150964829)
    def test_against_mpmath_as_k_approaches_zero(self, k, a, n, log_t):
        """P_j^(a,b)(1 - y) for every degree j <= n, with the wavefunctions'
        b = sqrt(1/k^2 + 1) and y = 2z, b z in [0.1, 60] (where the states
        live), is within 4 u j (a + j + 2) of 60-digit mpmath for k down to
        -1e-14 (b up to 1e14), u = 2^-53. The error is scaled by the sum of
        the magnitudes of the explicit sum's terms, the value's own
        conditioning, since pointwise relative error is unattainable near a
        root.

        The bound is a roundoff model of the recurrence. Step i rounds its
        coefficients and products a few times, each relative to terms up to
        about (a + 2i + b) y/2 times the values it combines, while the scale
        can be as small as (b + 1) y/2 times them where x = 1 - y is near -1,
        and b >= 1. At i = 1 the count is exact: P_1 = (a + 1) - (a + b + 2) y/2
        errs by at most 3u (a + b + 2) y/2 + u |P_1|, at most (1.5 a + 5.5) u
        of the scale. So step i adds at most 4 (a + 2i + 1) u
        of the scale, the recurrence carries each step's error forward
        without growth on this box, and the errors of steps 1..j add up to
        4 u j (a + j + 2). Measured over 5,000 draws concentrated near
        x = -1: at most 0.24 of the bound (the first example, 99 u of the
        scale at j = 10, exceeds a flat 1e-14; the second is the largest
        error per degree found, 57 u per degree at a = 59).

        k is drawn from the recurrence's own shell, down to -1e-14, and the
        degrees stop at 12, short of the families' 40: the model was
        derived and measured to degree 12, and the oracle's cost grows as
        the square of the degree."""
        mpmath = pytest.importorskip("mpmath")
        b = math.sqrt(1.0 / k**2 + 1.0)
        y = 2.0 * (10.0**log_t / b)
        family = jacobi_family(float(a), b, n, y)
        with mpmath.workdps(60):
            half, b = mpmath.mpf(y) / 2, mpmath.mpf(b)
            down, up = ([x**i for i in range(n + 1)] for x in (-half, 1 - half))
            lead = mpmath.mpf(1)  # binomial(j + a, j)
            for j in range(n + 1):
                # binomial(j + a, j - i) binomial(j + b, i), i = 0..j, each from the one before
                binomials = [lead]
                for i in range(j):
                    binomials.append(binomials[-1] * (j - i) * (j + b - i) / ((a + i + 1) * (i + 1)))
                terms = [c * down[i] * up[j - i] for i, c in enumerate(binomials)]
                want, scale = mpmath.fsum(terms), mpmath.fsum(abs(t) for t in terms)
                assert abs(family[j] - want) <= 4 * 2.0**-53 * j * (a + j + 2) * scale
                lead = lead * (j + 1 + a) / (j + 1)


class TestHyp2F1:
    def test_empty_product(self):
        assert hyp2f1_terminating(0, 3.7, 1.1, 0.9) == 1.0

    def test_two_term_expansion(self):
        # 1 - (5/2)(0.1)
        assert hyp2f1_terminating(1, 5.0, 2.0, 0.1) == pytest.approx(0.75, abs=1e-15)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            hyp2f1_terminating(-1, 1.0, 1.0, 0.5)

    def test_pole(self):
        with pytest.raises(PoleError):
            hyp2f1_terminating(3, 1.0, 0.0, 0.5)
        with pytest.raises(PoleError):
            hyp2f1_terminating(3, 1.0, -2.0, 0.5)
        # c = -3 is never reached by a degree-3 series
        assert math.isfinite(hyp2f1_terminating(3, 1.0, -3.5, 0.5))

    def test_gamma_prefactor_identity(self):
        # Gamma(n+a+1)/(n! Gamma(a+1)) 2F1(-n, 1+n+a+b; 1+a; z) == P_n^(a,b)(1-2z)
        a, b, n, z = 2.0, 1.0, 3, 0.3
        prefactor = math.exp(math.lgamma(n + a + 1) - math.lgamma(n + 1.0) - math.lgamma(a + 1))
        lhs = prefactor * hyp2f1_terminating(n, 1 + n + a + b, 1 + a, z)
        rhs = jacobi_family(a, b, n, 2.0 * z)[n]
        assert lhs == pytest.approx(rhs, rel=1e-13)


class TestIntegrate:
    def test_constant(self):
        res = integrate(lambda x, _: np.ones_like(x), QuadratureSpec(0.0, 1.0))
        assert res.value == pytest.approx(1.0, abs=1e-14)

    def test_linear(self):
        res = integrate(lambda x, _: x, QuadratureSpec(0.0, 2.0))
        assert res.value == pytest.approx(2.0, abs=1e-13)

    def test_gaussian_vs_erf(self):
        res = integrate(lambda x, _: np.exp(-x * x), QuadratureSpec(0.0, 5.0))
        assert res.value == pytest.approx(math.sqrt(math.pi) / 2.0 * math.erf(5.0), rel=1e-10)
        assert res.value == pytest.approx(0.886226925, abs=1e-9)

    def test_polynomial_exactness(self):
        # inside the degree of the embedded rule: one panel, no refinement
        coeffs = [3.0, -2.0, 1.5, 0.25, -0.125, 1.0, 0.5, -0.75, 0.2, 0.1, -0.05]
        f = lambda x, _: sum(c * x**j for j, c in enumerate(coeffs))
        exact = sum(c * (2.0 ** (j + 1) - (-1.0) ** (j + 1)) / (j + 1) for j, c in enumerate(coeffs))
        res = integrate(f, QuadratureSpec(-1.0, 2.0))
        assert abs(res.value - exact) <= 1e-13 * abs(exact)

    def test_reports_refinements(self):
        res = integrate(lambda x, _: np.sin(40.0 * x), QuadratureSpec(0.0, 10.0))
        assert res.refinements > 0
        assert res.value == pytest.approx((1.0 - math.cos(400.0)) / 40.0, abs=1e-10)

    def test_nonconvergence_names_refinements_and_bound(self):
        spike = lambda x, _: 1.0 / np.sqrt(np.abs(x - 0.123456) + 1e-15)
        with pytest.raises(IntegrationError, match=r"after 4 refinements \(error bound "
                                                   r"\d\.\d{3}e[-+]\d+ > tolerance "):
            integrate(spike, QuadratureSpec(0.0, 1.0, rel_tol=1e-14, abs_tol=1e-16,
                                            max_refinements=4))

    def test_batch_equals_each_row_alone(self):
        """Rows of a batch, each a vector-valued integrand on its own
        interval, give the numbers they give alone; every component meets
        its tolerance."""
        rates = np.array([0.5, 3.0, 40.0, 400.0])
        uppers = [2.0, 5.0, 1.0, 30.0]

        def moments(rate):
            def f(x, rows):
                g = np.exp(-rate[rows, None] * x) * (1.0 + np.sin(7.0 * x))
                return np.stack([g, x * g, x * x * g])
            return f

        spec = QuadratureSpec(0.0, uppers, rel_tol=1e-11, abs_tol=1e-300, breakpoints=(0.25,))
        batch = integrate(moments(rates), spec)
        assert batch.value.shape == batch.error_bound.shape == (4, 3)
        assert np.all(batch.error_bound <= 1e-11 * np.abs(batch.value))
        for i, upper in enumerate(uppers):
            alone = integrate(moments(rates[i:i + 1]),
                              QuadratureSpec(0.0, [upper], rel_tol=1e-11, abs_tol=1e-300,
                                             breakpoints=(0.25,)))
            assert alone.value.tolist() == [batch.value[i].tolist()]
            assert alone.error_bound.tolist() == [batch.error_bound[i].tolist()]
            assert alone.row_refinements.tolist() == [batch.row_refinements[i]]
            assert alone.row_evaluations.tolist() == [batch.row_evaluations[i]]
        assert batch.refinements == batch.row_refinements.sum() > 0
        assert batch.evaluations == batch.row_evaluations.sum()
        # a batch longer than one block of rows
        long = integrate(moments(np.tile(rates, 300)),
                         QuadratureSpec(0.0, uppers * 300, rel_tol=1e-11, abs_tol=1e-300,
                                        breakpoints=(0.25,)))
        assert long.value[-4:].tolist() == batch.value.tolist()

    def test_zero_rows(self):
        """A batch of no rows gives empty results of the batch's shape: no
        value, bound, refinement or evaluation per row, each component kept."""
        vector = lambda x, _: np.stack([x, x * x])
        spec = QuadratureSpec(0.0, np.empty(0), breakpoints=np.empty((0, 2)))
        res = integrate(vector, spec)
        assert res.value.shape == res.error_bound.shape == (0, 2)
        assert res.row_refinements.shape == res.row_evaluations.shape == (0,)
        assert res.row_refinements.dtype.kind == res.row_evaluations.dtype.kind == "i"
        assert integrate(lambda x, _: x, QuadratureSpec(0.0, np.empty(0))).value.shape == (0,)

    def test_breakpoints_expose_a_narrow_peak(self):
        # every node of one G7/K15 panel on [0, 1000] misses a peak of width
        # 0.1 at 6.3, and the panel converges to a false near-0
        peak = lambda x, _: np.exp(-(((x - 6.3) / 0.1) ** 2))
        exact = math.sqrt(math.pi) * 0.1
        assert integrate(peak, QuadratureSpec(0.0, 1000.0)).value < 1e-100
        split = integrate(peak, QuadratureSpec(0.0, 1000.0, breakpoints=(8.0, 16.0)))
        assert split.value == pytest.approx(exact, rel=1e-10)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(1.0, 0.0)
        with pytest.raises(ValueError):
            QuadratureSpec([0.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            QuadratureSpec(0.0, [1.0, 2.0], breakpoints=(1.5,))
        with pytest.raises(ValueError):
            QuadratureSpec(0.0, 2.0, breakpoints=(1.5, 0.5))
        with pytest.raises(ValueError):
            QuadratureSpec(0.0, 1.0, rel_tol=-1.0)
        with pytest.raises(ValueError):
            QuadratureSpec(0.0, 1.0, max_refinements=0)


class TestCentralDiff:
    def test_quadratic_first_derivative(self):
        assert central_diff(lambda x: x * x, 3.0, 1) == pytest.approx(6.0, abs=1e-8)

    def test_exponential_second_derivative(self):
        assert central_diff(np.exp, 0.0, 2, h=1e-3) == pytest.approx(1.0, abs=1e-6)

    def test_sine_first_derivative(self):
        assert central_diff(np.sin, 0.0, 1) == pytest.approx(1.0, abs=1e-8)

    def test_stencil_samples_and_cubic_exactness(self):
        cubic = lambda x: x**3 - 2.0 * x
        samples, d1, d2 = five_point_stencil(cubic, 1.5, 0.25)
        assert samples.tolist() == [cubic(1.5 + j * 0.25) for j in (-2, -1, 0, 1, 2)]
        assert d1 == pytest.approx(3.0 * 1.5**2 - 2.0, rel=1e-14)
        assert d2 == pytest.approx(6.0 * 1.5, rel=1e-14)

    @pytest.mark.parametrize("x, h", [(1.5, 0.25), (np.array([0.5, 2.0, 7.0]), 1e-3),
                                      (np.array([[0.5, 2.0], [3.0, 7.0]]), np.array([0.1, 0.2]))])
    def test_stencil_calls_f_once_on_the_offsets_stacked_first(self, x, h):
        """f gets one (5,) + shape array whose row j + 2 is x + j h."""
        calls = []

        def f(t):
            calls.append(t.copy())
            return t * t

        samples, _, _ = five_point_stencil(f, x, h)
        (points,) = calls
        assert points.shape == (5,) + np.broadcast(x, h).shape
        for row, j in zip(points, (-2, -1, 0, 1, 2)):
            assert row.tolist() == np.add(x, j * np.asarray(h)).tolist()
        assert samples.tolist() == (points * points).tolist()

    @settings(max_examples=50)
    @given(data=st.data())
    def test_stencil_equals_five_separate_evaluations(self, data):
        """Samples, d1 and d2 of the one call are, bit for bit, those of
        five calls of f, one per offset, differenced as the stencil is."""
        shape = data.draw(st.lists(st.integers(1, 4), max_size=2).map(tuple))
        x = np.array(data.draw(st.lists(st.floats(-100.0, 100.0), min_size=math.prod(shape),
                                        max_size=math.prod(shape)))).reshape(shape)
        h = data.draw(st.one_of(st.floats(1e-6, 1.0), st.lists(
            st.floats(1e-6, 1.0), min_size=math.prod(shape),
            max_size=math.prod(shape)).map(lambda hs: np.array(hs).reshape(shape))))

        def f(t):
            return (t * t * t - 2.0 * t) / (1.0 + t * t)

        samples, d1, d2 = five_point_stencil(f, x, h)
        fm2, fm1, f0, fp1, fp2 = (f(x + j * np.asarray(h)) for j in (-2, -1, 0, 1, 2))
        assert samples.tolist() == [fm2.tolist(), fm1.tolist(), f0.tolist(), fp1.tolist(),
                                    fp2.tolist()]
        assert np.asarray(d1).tolist() == np.asarray(
            (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * h)).tolist()
        assert np.asarray(d2).tolist() == np.asarray(
            (-fp2 + 16.0 * fp1 - 30.0 * f0 + 16.0 * fm1 - fm2) / (12.0 * h * h)).tolist()

    def test_order_validation(self):
        with pytest.raises(ValueError):
            central_diff(np.sin, 0.0, 3)
        with pytest.raises(ValueError):
            central_diff(np.sin, 0.0, 1, h=0.0)
