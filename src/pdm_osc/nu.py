"""Parametric Nikiforov-Uvarov engine.

Works on second-order ODEs brought to the parametric form

    psi'' + (a1 - a2 z)/(z (1 - a3 z)) psi'
          + (-eps1 z^2 + eps2 z - eps3)/(z^2 (1 - a3 z)^2) psi = 0,

deriving the coefficient chain a4..a13, the kappa branches, the slope of the
linearized tau polynomial and the algebraic quantization condition. The bound
solutions are z^a12 (1 - a3 z)^(-a13/a3 - a12) P_n^(a, b)(1 - 2 a3 z) with
a = a10 - 1 and b = a11/a3 - a10 - 1; the oscillator evaluates its own
(a, b) = (|m|, s) in closed form, and the tests hold the two to each other.
Everything here is pure arithmetic on value types; no physics enters until a
caller maps its equation onto (a1, a2, a3, eps1, eps2, eps3), numbers or
ndarrays: the derivations work elementwise, and numbers give numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NegativeDiscriminantError

__all__ = [
    "NUProblem",
    "NUCoefficients",
    "derive_coefficients",
    "tau_prime",
    "quantization_residual",
    "find_roots_by_scan",
]

# square roots of slightly negative values produced by cancellation are
# clamped; anything more negative is a genuine domain violation
_NEGATIVE_CLAMP = 1e-13


@dataclass(frozen=True)
class NUProblem:
    """Raw parameters (a1, a2, a3, eps1, eps2, eps3) of the parametric equation,
    numbers or ndarrays of one broadcast shape."""

    a1: float | np.ndarray
    a2: float | np.ndarray
    a3: float | np.ndarray
    eps1: float | np.ndarray
    eps2: float | np.ndarray
    eps3: float | np.ndarray

    def __post_init__(self):
        if np.count_nonzero(self.a3 == 0.0):
            raise DomainError("a3 must be nonzero for this parametric family")


@dataclass(frozen=True)
class NUCoefficients:
    """Derived coefficient chain, with sqrt(a8) and sqrt(a9), and both kappa branches."""

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
    sqrt_a8: float
    sqrt_a9: float
    kappa_plus: float
    kappa_minus: float


def _checked_sqrt(value: float | np.ndarray, name: str) -> float | np.ndarray:
    """Elementwise sqrt of max(value, 0.0), a radicand in (-1e-13, 0) taken as
    0.0; refuses if any radicand is -1e-13 or below, naming the first.
    value - min(value, 0.0) is max(value, 0.0), -0.0 and NaN included."""
    low = value <= -_NEGATIVE_CLAMP
    if np.count_nonzero(low):
        raise NegativeDiscriminantError(
            f"{name} = {np.extract(low, value)[0]} < 0; no real solution branch")
    return np.sqrt(value - np.minimum(value, 0.0))


def derive_coefficients(p: NUProblem) -> NUCoefficients:
    """Derive a4..a13 and kappa+- from the raw parametric data, elementwise.

    Raises NegativeDiscriminantError when a8 or a9 is negative beyond
    roundoff anywhere, i.e. when the bound-state construction has no real
    branch there.
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
    product = a8 * a9
    root = 2.0 * np.sqrt(product - np.minimum(product, 0.0))
    base = -(a7 + 2.0 * p.a3 * a8)
    return NUCoefficients(
        problem=p,
        a4=a4, a5=a5, a6=a6, a7=a7, a8=a8, a9=a9,
        a10=a10, a11=a11, a12=a12, a13=a13, sqrt_a8=sqrt_a8, sqrt_a9=sqrt_a9,
        kappa_plus=base + root,
        kappa_minus=base - root,
    )


def tau_prime(c: NUCoefficients) -> float:
    """Constant slope of tau(z) on the kappa_minus branch, elementwise.

    tau(z) = (a1 - a2 z) + 2 pi(z) collapses to a10 - a11 z, so the slope is
    -a11. Admissible problems require a strictly negative value.
    """
    return -c.a11


def quantization_residual(c: NUCoefficients, n: int | np.ndarray) -> float | np.ndarray:
    """Left-hand side of the algebraic quantization condition at degree n,
    elementwise over the coefficients and n.

    Zero exactly when the eigenvalue buried in (eps1, eps2, eps3) is a
    bound-state energy; the sign scan over an energy grid brackets the roots.
    """
    if np.count_nonzero(n < 0):
        raise DomainError(f"degree must be nonnegative, got {n}")
    p, sqrt_a8, sqrt_a9 = c.problem, c.sqrt_a8, c.sqrt_a9
    return (
        p.a2 * n
        - (2.0 * n + 1.0) * c.a5
        + n * (n - 1.0) * p.a3
        + (2.0 * n + 1.0) * (p.a3 * sqrt_a8 + sqrt_a9)
        + c.a7
        + 2.0 * p.a3 * c.a8
        + 2.0 * sqrt_a8 * sqrt_a9
    )


def find_roots_by_scan(f: Callable[[float | np.ndarray], float | np.ndarray], lo: float,
                       hi: float, step: float) -> list[float]:
    """Roots of f on [lo, hi]: bracket by sign scan with the given step, then
    bisect to a bracket narrower than 1e-12 (at most 200 halvings).

    f must work elementwise on an ndarray: it is called once on the whole
    scan grid lo, lo + step, ..., hi, then once on a number per bisection
    step. Intended as an independent eigenvalue oracle; it never assumes
    anything about f beyond continuity on the scanned grid.
    """
    if step <= 0:
        raise DomainError("step must be positive")
    grid = [lo]
    while grid[-1] < hi:
        grid.append(min(grid[-1] + step, hi))
    values = f(np.array(grid)).tolist()
    roots: list[float] = []
    for x0, x1, f0, f1 in zip(grid, grid[1:], values, values[1:]):
        if f0 == 0.0:
            roots.append(x0)
        elif f0 * f1 < 0.0:
            a, b, fa = x0, x1, f0
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
    if values[-1] == 0.0:
        roots.append(grid[-1])
    return roots
