"""Parametric Nikiforov-Uvarov engine.

Works on second-order ODEs brought to the parametric form

    psi'' + (a1 - a2 z)/(z (1 - a3 z)) psi'
          + (-eps1 z^2 + eps2 z - eps3)/(z^2 (1 - a3 z)^2) psi = 0,

deriving the coefficient chain a4..a13, the kappa branches, the slope of the
linearized tau polynomial, the polynomial/weight/prefactor data of the bound
solutions and the algebraic quantization condition. Everything here is pure
arithmetic on value types; no physics enters until a caller maps its equation
onto (a1, a2, a3, eps1, eps2, eps3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .specfun import JacobiParams

__all__ = [
    "NUProblem",
    "NUCoefficients",
    "NUSolution",
    "NegativeDiscriminantError",
    "derive_coefficients",
    "tau_prime",
    "quantization_residual",
    "build_solution",
    "find_roots_by_scan",
]

# square roots of slightly negative values produced by cancellation are
# clamped; anything more negative is a genuine domain violation
_NEGATIVE_CLAMP = 1e-13


class NegativeDiscriminantError(ValueError):
    """A radicand that must be nonnegative (a8, a9 or a8*a9) is negative."""


@dataclass(frozen=True)
class NUProblem:
    """Raw parameters (a1, a2, a3, eps1, eps2, eps3) of the parametric equation."""

    a1: float
    a2: float
    a3: float
    eps1: float
    eps2: float
    eps3: float

    def __post_init__(self):
        if self.a3 == 0.0:
            raise ValueError("a3 must be nonzero for this parametric family")


@dataclass(frozen=True)
class NUCoefficients:
    """Derived coefficient chain plus both kappa branches."""

    problem: NUProblem
    a4: float
    a5: float
    a6: float
    a7: float
    a8: float
    a9: float
    a10: float
    a11: float
    a12: float
    a13: float
    kappa_plus: float
    kappa_minus: float


@dataclass(frozen=True)
class NUSolution:
    """Structure of the bound solution chi(z) = phi(z) * y_n(z).

    phi(z)   = z^p0 (1 - a3 z)^p1            with (p0, p1) = phi_exponents
    rho(z)   = z^w0 (1 - a3 z)^w1            with (w0, w1) = weight_exponents
    y_n(z)   = P_n^(jacobi.a, jacobi.b)(1 - 2 a3 z)
    """

    phi_exponents: tuple[float, float]
    weight_exponents: tuple[float, float]
    jacobi: JacobiParams
    a3: float

    def argument(self, z: float) -> float:
        """Map z to the Jacobi polynomial argument 1 - 2 a3 z."""
        return 1.0 - 2.0 * self.a3 * z


def _checked_sqrt(value: float, name: str) -> float:
    if value < 0.0:
        if value > -_NEGATIVE_CLAMP:
            return 0.0
        raise NegativeDiscriminantError(f"{name} = {value} < 0; no real solution branch")
    return math.sqrt(value)


def derive_coefficients(p: NUProblem) -> NUCoefficients:
    """Derive a4..a13 and kappa+- from the raw parametric data.

    Raises NegativeDiscriminantError when a8, a9 or their product is negative
    beyond roundoff, i.e. when the bound-state construction has no real branch.
    """
    a4 = 0.5 * (1.0 - p.a1)
    a5 = 0.5 * (p.a2 - 2.0 * p.a3)
    a6 = a5 * a5 + p.eps1
    a7 = 2.0 * a4 * a5 - p.eps2
    a8 = a4 * a4 + p.eps3
    a9 = p.a3 * a7 + p.a3 * p.a3 * a8 + a6
    sqrt_a8 = _checked_sqrt(a8, "a8")
    sqrt_a9 = _checked_sqrt(a9, "a9")
    a10 = p.a1 + 2.0 * a4 + 2.0 * sqrt_a8
    a11 = p.a2 - 2.0 * a5 + 2.0 * (sqrt_a9 + p.a3 * sqrt_a8)
    a12 = a4 + sqrt_a8
    a13 = a5 - (sqrt_a9 + p.a3 * sqrt_a8)
    root = 2.0 * math.sqrt(max(a8 * a9, 0.0))
    base = -(a7 + 2.0 * p.a3 * a8)
    return NUCoefficients(
        problem=p,
        a4=a4, a5=a5, a6=a6, a7=a7, a8=a8, a9=a9,
        a10=a10, a11=a11, a12=a12, a13=a13,
        kappa_plus=base + root,
        kappa_minus=base - root,
    )


def tau_prime(c: NUCoefficients) -> float:
    """Constant slope of tau(z) on the kappa_minus branch.

    tau(z) = (a1 - a2 z) + 2 pi(z) collapses to a10 - a11 z, so the slope is
    -a11. Admissible problems require a strictly negative value.
    """
    return -c.a11


def quantization_residual(c: NUCoefficients, n: int) -> float:
    """Left-hand side of the algebraic quantization condition at degree n.

    Zero exactly when the eigenvalue buried in (eps1, eps2, eps3) is a
    bound-state energy; the sign scan over an energy grid brackets the roots.
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    p = c.problem
    sqrt_a8 = _checked_sqrt(c.a8, "a8")
    sqrt_a9 = _checked_sqrt(c.a9, "a9")
    return (
        p.a2 * n
        - (2.0 * n + 1.0) * c.a5
        + n * (n - 1.0) * p.a3
        + (2.0 * n + 1.0) * (p.a3 * sqrt_a8 + sqrt_a9)
        + c.a7
        + 2.0 * p.a3 * c.a8
        + 2.0 * sqrt_a8 * sqrt_a9
    )


def build_solution(c: NUCoefficients, n: int = 0) -> NUSolution:
    """Assemble the exponent tuples and Jacobi data of chi(z) = phi(z) y_n(z).

    No evaluation happens here. The Jacobi b-parameter is a11/a3 - a10 - 1,
    matching the exponent of (1 - a3 z) in the weight rho(z): the polynomial
    family must be orthogonal against rho for the construction to close.
    """
    a3 = c.problem.a3
    phi = (c.a12, -c.a13 / a3 - c.a12)
    weight = (c.a10 - 1.0, c.a11 / a3 - c.a10 - 1.0)
    jac = JacobiParams(a=c.a10 - 1.0, b=c.a11 / a3 - c.a10 - 1.0, n=n)
    return NUSolution(phi_exponents=phi, weight_exponents=weight, jacobi=jac, a3=a3)


def find_roots_by_scan(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    step: float,
) -> list[float]:
    """Roots of f on [lo, hi]: bracket by sign scan with the given step, then
    bisect to a bracket narrower than 1e-12 (at most 200 halvings).

    Intended as an independent eigenvalue oracle; it never assumes anything
    about f beyond continuity on the scanned grid.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    roots: list[float] = []
    x0 = lo
    f0 = f(x0)
    while x0 < hi:
        x1 = min(x0 + step, hi)
        f1 = f(x1)
        if f0 == 0.0:
            roots.append(x0)
        elif f0 * f1 < 0.0:
            a, b = x0, x1
            fa = f0
            for _ in range(200):
                m = 0.5 * (a + b)
                fm = f(m)
                if fm == 0.0 or (b - a) < 1e-12:
                    break
                if fa * fm < 0.0:
                    b = m
                else:
                    a, fa = m, fm
            roots.append(0.5 * (a + b))
        x0, f0 = x1, f1
    if f0 == 0.0:
        roots.append(x0)
    return roots
