"""Scalar special-function and numerical-analysis kernel.

Self-contained building blocks used across the package: error function,
log-gamma, Jacobi polynomials, terminating Gauss hypergeometric series,
adaptive Gauss-Kronrod quadrature and high-order central differences.
All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "JacobiParams",
    "QuadratureSpec",
    "QuadratureResult",
    "DegreeOverflowError",
    "PoleError",
    "IntegrationError",
    "erf",
    "erfcx",
    "log_gamma",
    "jacobi_p",
    "hyp2f1_terminating",
    "integrate",
    "five_point_stencil",
    "central_diff",
]

JACOBI_DEGREE_CAP = 10**6

_SQRT_PI = math.sqrt(math.pi)


class DegreeOverflowError(ValueError):
    """Polynomial degree exceeds the configured cap."""


class PoleError(ValueError):
    """Hypergeometric series hits a pole of a lower-parameter Pochhammer."""


class IntegrationError(RuntimeError):
    """Adaptive quadrature failed to converge.

    Carries the best available estimate and its error bound so callers can
    decide whether to accept a degraded result.
    """

    def __init__(self, message: str, best_estimate: float, error_bound: float):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_bound = error_bound


@dataclass(frozen=True)
class JacobiParams:
    """Degree and exponent parameters of a Jacobi polynomial P_n^(a,b)."""

    a: float
    b: float
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"Jacobi degree must be nonnegative, got n={self.n}")
        if self.n > JACOBI_DEGREE_CAP:
            raise DegreeOverflowError(
                f"Jacobi degree n={self.n} exceeds cap {JACOBI_DEGREE_CAP}"
            )

    @property
    def is_orthogonal(self) -> bool:
        """True when the classical orthogonality weight is integrable (a, b > -1)."""
        return self.a > -1.0 and self.b > -1.0


@dataclass(frozen=True)
class QuadratureSpec:
    """Interval and tolerances for adaptive integration."""

    lower: float
    upper: float
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_refinements: int = 4000

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError(f"need lower < upper, got [{self.lower}, {self.upper}]")
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be strictly positive")
        if self.max_refinements < 1:
            raise ValueError("max_refinements must be >= 1")


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_bound: float
    refinements: int
    evaluations: int


def erf(x: float) -> float:
    """Error function, accurate to better than 1e-14 absolute on the real line.

    Uses the all-positive confluent series 2x/sqrt(pi) exp(-x^2) sum (2x^2)^k/(2k+1)!!
    for |x| < 3 (no cancellation) and the Laplace continued fraction for the
    complement beyond, where erfc < 2.3e-5 so 1 - erfc loses no absolute accuracy.
    """
    if x != x:  # NaN propagates
        return x
    if x == 0.0:
        return 0.0
    ax = abs(x)
    if ax < 3.0:
        t = 2.0 * ax * ax
        term = 1.0
        total = 1.0
        k = 0
        while True:
            k += 1
            term *= t / (2 * k + 1)
            total += term
            if term < 1e-18 * total:
                break
        v = 2.0 * ax / _SQRT_PI * math.exp(-ax * ax) * total
    elif ax > 6.5:
        v = 1.0  # erfc < 4e-20, below double resolution of 1
    else:
        cf = 0.0
        for j in range(60, 0, -1):
            cf = (j / 2.0) / (ax + cf)
        v = 1.0 - math.exp(-ax * ax) / _SQRT_PI / (ax + cf)
    return v if x > 0 else -v


def erfcx(x: float) -> float:
    """Scaled complementary error function exp(x^2) erfc(x) for x >= 0.

    Stays O(1/x) where erfc itself underflows, which lets callers combine the
    exp(x^2) growth with their own decaying exponentials in the log domain.
    """
    if x < 0.0:
        raise ValueError(f"erfcx is implemented for x >= 0, got {x}")
    if x < 3.0:
        return math.exp(x * x) * (1.0 - erf(x))
    cf = 0.0
    for j in range(60, 0, -1):
        cf = (j / 2.0) / (x + cf)
    return 1.0 / (_SQRT_PI * (x + cf))


def log_gamma(x: float) -> float:
    """Natural log of |Gamma(x)|; thin front for the C library implementation."""
    return math.lgamma(x)


def jacobi_p(params: JacobiParams, x: float) -> float:
    """Evaluate P_n^(a,b)(x) by the three-term recurrence in the degree.

    The recurrence is numerically stabler than the Gamma-prefactor series route
    for moderate degrees; the series route is kept in hyp2f1_terminating for
    cross-checks.
    """
    n, a, b = params.n, params.a, params.b
    if n == 0:
        return 1.0
    p_prev = 1.0
    p = (a + 1.0) + (a + b + 2.0) * (x - 1.0) / 2.0
    for j in range(2, n + 1):
        c1 = 2.0 * j * (j + a + b) * (2.0 * j + a + b - 2.0)
        c2 = (2.0 * j + a + b - 1.0) * (
            (2.0 * j + a + b) * (2.0 * j + a + b - 2.0) * x + a * a - b * b
        )
        c3 = 2.0 * (j + a - 1.0) * (j + b - 1.0) * (2.0 * j + a + b)
        p_prev, p = p, (c2 * p - c3 * p_prev) / c1
    return p


def hyp2f1_terminating(n: int, b: float, c: float, z: float) -> float:
    """Terminating Gauss series 2F1(-n, b; c; z), summed over its n+1 terms.

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
    """Sum of |term_k| for the same series; conditioning scale for comparisons."""
    term = 1.0
    total = 1.0
    for k in range(n):
        term *= (-n + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        total += abs(term)
    return total


# 15-point Kronrod extension of 7-point Gauss (standard QUADPACK constants).
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


def _gauss_kronrod(f: Callable[[float], float], a: float, b: float):
    """G7/K15 rule on [a, b]; returns (kronrod, error_estimate, evaluations)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fc = f(mid)
    gauss = fc * _WG[3]
    kron = fc * _WGK[7]
    for i in range(7):
        x = half * _XGK[i]
        fsum = f(mid - x) + f(mid + x)
        kron += _WGK[i] * fsum
        if i % 2 == 1:  # odd Kronrod indices are the embedded Gauss nodes
            gauss += _WG[i // 2] * fsum
    kron *= half
    gauss *= half
    # QUADPACK-style sharpened error estimate
    diff = abs(kron - gauss)
    err = diff if diff == 0.0 else min(diff, diff * math.sqrt(diff / max(abs(kron), 1e-300)))
    return kron, max(err, abs(kron) * 1e-16), 15


def integrate(f: Callable[[float], float], spec: QuadratureSpec) -> QuadratureResult:
    """Adaptive Gauss-Kronrod integration with interval bisection.

    Accepts when the summed error estimate meets rel_tol or abs_tol, whichever
    is looser. Raises IntegrationError (carrying the best estimate) if the
    refinement budget is exhausted first.
    """
    val, err, nev = _gauss_kronrod(f, spec.lower, spec.upper)
    segments = [(err, spec.lower, spec.upper, val)]
    total = val
    total_err = err
    refinements = 0
    while True:
        tol = max(spec.abs_tol, spec.rel_tol * abs(total))
        if total_err <= tol:
            return QuadratureResult(total, total_err, refinements, nev)
        if refinements >= spec.max_refinements:
            raise IntegrationError(
                f"quadrature did not converge after {refinements} refinements "
                f"(error bound {total_err:.3e} > tolerance {tol:.3e})",
                best_estimate=total,
                error_bound=total_err,
            )
        # bisect the segment with the largest error estimate
        idx = max(range(len(segments)), key=lambda i: segments[i][0])
        seg_err, lo, hi, seg_val = segments.pop(idx)
        mid = 0.5 * (lo + hi)
        v1, e1, n1 = _gauss_kronrod(f, lo, mid)
        v2, e2, n2 = _gauss_kronrod(f, mid, hi)
        nev += n1 + n2
        refinements += 1
        total += v1 + v2 - seg_val
        total_err += e1 + e2 - seg_err
        segments.append((e1, lo, mid, v1))
        segments.append((e2, mid, hi, v2))


def five_point_stencil(
    f: Callable[[float], float], x: float, h: float
) -> tuple[tuple[float, ...], float, float]:
    """The five samples f(x + j h), j = -2..2, and the fourth-order central
    estimates of f'(x) and f''(x) from them.

    Returns (samples, d1, d2); samples[2] is f(x). Samples are taken in the
    order of j, so a caller can pair side results of f with them.
    """
    fm2, fm1, f0, fp1, fp2 = samples = tuple(f(x + j * h) for j in (-2, -1, 0, 1, 2))
    d1 = (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * h)
    d2 = (-fp2 + 16.0 * fp1 - 30.0 * f0 + 16.0 * fm1 - fm2) / (12.0 * h * h)
    return samples, d1, d2


def central_diff(
    f: Callable[[float], float], x: float, order: int, h: float | None = None
) -> float:
    """Fourth-order central difference estimate of f' or f'' at x.

    The default step balances truncation against roundoff for smooth O(1)
    curvature; pass h explicitly for functions with fine structure.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    if h is None:
        h = max(1e-5, 1e-5 * abs(x))
    if h <= 0:
        raise ValueError("step h must be positive")
    _, d1, d2 = five_point_stencil(f, x, h)
    return d1 if order == 1 else d2
