"""Special-function and numerical-analysis kernel.

Self-contained building blocks used across the package: the scaled
complementary error function and its half-line moment factors, Jacobi
polynomials, adaptive Gauss-Kronrod quadrature of batches of vector-valued
integrands and high-order central differences. All functions are pure and
safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "QuadratureSpec",
    "QuadratureResult",
    "DegreeOverflowError",
    "IntegrationError",
    "erfcx_gh",
    "jacobi_family",
    "integrate",
    "five_point_stencil",
    "central_diff",
]

JACOBI_DEGREE_CAP = 10**6

# f(x, rows) of integrate(): node array and the integrand row of each line
Integrand = Callable[[np.ndarray, np.ndarray], np.ndarray]

_SQRT_PI = math.sqrt(math.pi)


class DegreeOverflowError(ValueError):
    """Polynomial degree exceeds the configured cap."""


class IntegrationError(RuntimeError):
    """Adaptive quadrature failed to converge."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Intervals, breakpoints and tolerances for adaptive integration.

    lower and upper are numbers, or equal-length sequences of them: one
    integrand row per interval. breakpoints split each row into its first
    segments: one increasing sequence inside every row's interval, or a
    (rows, nb) array that gives each of the rows of sequence bounds its own
    increasing row of nb breakpoints inside its interval.
    """

    lower: float | Sequence[float]
    upper: float | Sequence[float]
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_refinements: int = 4000
    breakpoints: tuple[float, ...] | np.ndarray = ()

    def __post_init__(self):
        try:
            shape = np.broadcast_shapes(np.shape(self.lower), np.shape(self.upper))
        except ValueError:
            shape = None
        if shape is None or len(shape) > 1:
            raise ValueError("lower and upper must be numbers or sequences of one length")
        rows = np.shape(self.breakpoints)[:-1]
        if rows and rows != shape:
            raise ValueError(f"per-row breakpoints need one row per interval, got rows of "
                             f"shape {rows} for bounds of shape {shape}")
        edges = self.edges()
        if not np.all(edges[..., :-1] < edges[..., 1:]):
            raise ValueError(f"need lower < breakpoints < upper, got lower={self.lower}, "
                             f"breakpoints={self.breakpoints}, upper={self.upper}")
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be strictly positive")
        if self.max_refinements < 1:
            raise ValueError("max_refinements must be >= 1")

    def edges(self) -> np.ndarray:
        """Each row's first segment edges (lower, the breakpoints, upper) along
        the last axis; the leading axes have the shape of the bounds."""
        lower, upper = np.broadcast_arrays(np.asarray(self.lower, dtype=float),
                                           np.asarray(self.upper, dtype=float))
        breakpoints = np.asarray(self.breakpoints, dtype=float)
        edges = np.empty(lower.shape + (breakpoints.shape[-1] + 2,))
        edges[..., 0], edges[..., 1:-1], edges[..., -1] = lower, breakpoints, upper
        return edges


@dataclass(frozen=True)
class QuadratureResult:
    """Integrals and their error bounds, per row and component.

    value and error_bound have the shape of the spec's bounds followed by the
    integrand's components, if it has several; row_refinements and
    row_evaluations have the shape of the bounds. refinements and
    evaluations are their totals over the rows.
    """

    value: np.ndarray | float
    error_bound: np.ndarray | float
    row_refinements: np.ndarray | int
    row_evaluations: np.ndarray | int

    @property
    def refinements(self) -> int:
        return int(np.sum(self.row_refinements))

    @property
    def evaluations(self) -> int:
        return int(np.sum(self.row_evaluations))


def erfcx_gh(u: float | np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sqrt(pi) erfcx(u) and the half-line Gaussian moment factors
    g(u) = 1 - sqrt(pi) u erfcx(u) and h(u) = sqrt(pi) (u^2 + 1/2) erfcx(u) - u,
    elementwise for u >= 0, as arrays of u's shape; NaN propagates.

    erfcx(u) = exp(u^2) erfc(u) stays O(1/u) where erfc itself underflows,
    which lets callers combine the exp(u^2) growth with their own decaying
    exponentials in the log domain. Relative error of erfcx: below 3e-14 on
    [0, 1.5), below 1e-15 beyond.

    Below u = 1.5 erfcx is exp(u^2) minus the all-positive erf series
    2u/sqrt(pi) sum (2u^2)^k/(2k+1)!! (28 terms, remainder below 1e-21), and
    g and h are formed as written, cancelling by at most 7x and 23x. From 1.5
    on, the 120-term Laplace continued fraction (DLMF 7.9), converged there,
    gives s = 1/(u + (3/2)/(u + (4/2)/(u + ...))) and K = (1/2)/(u + s), and
    so sqrt(pi) erfcx = 1/(u + K), g = K/(u + K) and h = s/(2 (u + s)(u + K))
    without cancellation (g ~ 1/(2u^2), h ~ 1/(2u^3)).
    """
    u = np.asarray(u, dtype=float)
    if np.any(u < 0.0):
        raise ValueError(f"erfcx is implemented for x >= 0, got {u}")
    e, g, h = (np.full(u.shape, np.nan) for _ in range(3))
    small, large = u < 1.5, u >= 1.5
    if small.any():
        us = u[small]
        t = 2.0 * us * us
        series = np.ones_like(us)
        for k in range(28, 0, -1):
            series = 1.0 + series * t / (2 * k + 1)
        es = _SQRT_PI * np.exp(us * us) - 2.0 * us * series
        e[small], g[small], h[small] = es, 1.0 - us * es, (us * us + 0.5) * es - us
    if large.any():
        ul = u[large]
        s = np.zeros_like(ul)
        for j in range(120, 1, -1):
            s = (j / 2.0) / (ul + s)
        big_k = 0.5 / (ul + s)
        el = 1.0 / (ul + big_k)
        e[large], g[large], h[large] = el, big_k * el, s * el / (2.0 * (ul + s))
    return e, g, h


def jacobi_family(a: float, b: float, n_max: int, y: float | np.ndarray) -> np.ndarray:
    """P_0..P_{n_max}^(a,b)(x) at x = 1 - y, elementwise over y, from one run
    of the three-term recurrence in the degree: an array of shape
    (n_max + 1,) + y.shape whose row n is P_n, by the same operations
    whatever n_max is. The tests keep the Gamma-prefactor series route as a
    cross-check. With c = 2j + a + b - 1 the coefficient (2j+a+b)(2j+a+b-2) x
    + a^2 - b^2 is (2j+a-1)(2j+a+2b-1) + a^2 - 1 - (c^2 - 1) y (DLMF 18.9.1),
    in which the b^2 terms do not cancel where b is large and y small.
    """
    if n_max < 0:
        raise ValueError(f"Jacobi degree must be nonnegative, got n={n_max}")
    if n_max > JACOBI_DEGREE_CAP:
        raise DegreeOverflowError(f"Jacobi degree n={n_max} exceeds cap {JACOBI_DEGREE_CAP}")
    y = np.asarray(y)
    p = np.empty((n_max + 1,) + y.shape)
    p[0] = 1.0
    if n_max:
        p[1] = (a + 1.0) - (a + b + 2.0) * y / 2.0
    for j in range(2, n_max + 1):
        c = 2.0 * j + a + b - 1.0
        c1 = 2.0 * j * (j + a + b) * (2.0 * j + a + b - 2.0)
        c2 = c * ((2.0 * j + a - 1.0) * (2.0 * j + a + 2.0 * b - 1.0) + a * a - 1.0
                  - (c * c - 1.0) * y)
        c3 = 2.0 * (j + a - 1.0) * (j + b - 1.0) * (2.0 * j + a + b)
        p[j] = (c2 * p[j - 1] - c3 * p[j - 2]) / c1
    return p


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


# the G7/K15 nodes on [-1, 1] in the column order of an integrand call: the
# centre, the seven Kronrod abscissae below it, then the seven above
_NODES = np.array((0.0,) + tuple(-x for x in _XGK[:7]) + _XGK[:7])
_WGK_PAIRS = np.array(_WGK[:7])
_WG_PAIRS = np.array(_WG[:3])  # of the odd Kronrod pairs, the Gauss nodes

# rows integrated together; bounds the memory of one round in the batch size
_BLOCK_ROWS = 1024


def _gauss_kronrod(f: Integrand, a: np.ndarray, b: np.ndarray, rows: np.ndarray):
    """G7/K15 rule on the segments [a_i, b_i] of integrand rows rows_i.

    Returns the Kronrod values and error estimates as (components, segments)
    arrays, and whether f is scalar-valued. Every operation is elementwise,
    so a segment's numbers do not depend on the other segments of the call.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fx = np.asarray(f(mid[:, None] + half[:, None] * _NODES, rows), dtype=float)
    scalar = fx.ndim == 2
    if scalar:
        fx = fx[None]
    fsum = fx[..., 1:8] + fx[..., 8:]  # f(mid - x_i) + f(mid + x_i)
    kron_terms = fsum * _WGK_PAIRS
    gauss_terms = fsum[..., 1::2] * _WG_PAIRS
    kron = fx[..., 0] * _WGK[7]
    for i in range(7):
        kron = kron + kron_terms[..., i]
    gauss = fx[..., 0] * _WG[3]
    for i in range(3):
        gauss = gauss + gauss_terms[..., i]
    kron = kron * half
    gauss = gauss * half
    # QUADPACK-style sharpened error estimate
    diff = np.abs(kron - gauss)
    with np.errstate(over="ignore", invalid="ignore"):
        err = np.minimum(diff, diff * np.sqrt(diff / np.maximum(np.abs(kron), 1e-300)))
    return kron, np.maximum(err, np.abs(kron) * 1e-16), scalar


def integrate(f: Integrand, spec: QuadratureSpec) -> QuadratureResult:
    """Adaptive Gauss-Kronrod integration of a batch of integrands, each of
    one or several components.

    f(x, rows) gets an (n, 15) array of nodes whose line i lies in integrand
    row rows[i] (an index into the spec's bounds; a single integrand ignores
    it) and returns the values as an (n, 15) array or, for an integrand of c
    components, a (c, n, 15) one. Each round bisects, in every row not yet
    converged, the segment whose error is largest in units of the row's
    tolerance. A row converges when the summed error of each component is at
    most max(abs_tol, rel_tol |integral|). A row's refinements and arithmetic
    do not depend on the rows beside it, so a row integrated alone gives the
    same numbers. Raises IntegrationError, naming the refinements and the
    error bound of the first row still unconverged after max_refinements.
    """
    edges = spec.edges()
    flat = edges.reshape(-1, edges.shape[-1])
    parts = [_integrate_rows(f, flat[lo:lo + _BLOCK_ROWS], lo, spec)
             for lo in range(0, flat.shape[0], _BLOCK_ROWS)]
    value, error, refinements, scalar = zip(*parts)
    value, error, refinements = (np.concatenate(a, axis=-1) for a in (value, error, refinements))
    components = () if scalar[0] else value.shape[:1]
    shape = edges.shape[:-1]
    evaluations = 15 * (edges.shape[-1] - 1) + 30 * refinements
    return QuadratureResult(
        value=value.T.reshape(shape + components)[()],
        error_bound=error.T.reshape(shape + components)[()],
        row_refinements=refinements.reshape(shape)[()],
        row_evaluations=evaluations.reshape(shape)[()],
    )


def _integrate_rows(f: Integrand, edges: np.ndarray, first_row: int, spec: QuadratureSpec):
    """integrate() on rows first_row.. of the batch, whose first segment edges
    are the lines of edges; returns the integrals and error bounds as
    (components, rows) arrays, the refinements per row and whether f is
    scalar-valued."""
    n, p = edges.shape[0], edges.shape[1] - 1
    rows = np.arange(first_row, first_row + n)
    val, err, scalar = _gauss_kronrod(f, edges[:, :-1].ravel(), edges[:, 1:].ravel(),
                                      np.repeat(rows, p))
    c = val.shape[0]
    val, err = val.reshape(c, n, p), err.reshape(c, n, p)
    total, total_err = val[..., 0].copy(), err[..., 0].copy()
    for j in range(1, p):
        total, total_err = total + val[..., j], total_err + err[..., j]
    # the segments of every row: every active row gains one per round, so
    # all of them fill slots 0..count-1
    cap = p + 16
    seg_lo, seg_hi = np.empty((n, cap)), np.empty((n, cap))
    seg_val, seg_err = np.empty((c, n, cap)), np.empty((c, n, cap))
    seg_lo[:, :p], seg_hi[:, :p] = edges[:, :-1], edges[:, 1:]
    seg_val[..., :p], seg_err[..., :p] = val, err
    refinements = np.zeros(n, dtype=int)
    active = np.arange(n)
    count = p
    while True:
        tol = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(total[:, active]))
        still = ~(total_err[:, active] <= tol).all(axis=0)
        if not still.all():
            active, tol = active[still], tol[:, still]
            if active.size == 0:
                return total, total_err, refinements, scalar
        if count - p >= spec.max_refinements:
            row = active[0]
            worst = int(np.argmax(total_err[:, row] / tol[:, 0]))
            raise IntegrationError(
                f"quadrature did not converge after {count - p} refinements "
                f"(error bound {total_err[worst, row]:.3e} > tolerance {tol[worst, 0]:.3e})"
            )
        if count == cap:
            seg_lo, seg_hi = (np.concatenate([a, np.empty((n, cap))], axis=1)
                              for a in (seg_lo, seg_hi))
            seg_val, seg_err = (np.concatenate([a, np.empty((c, n, cap))], axis=2)
                                for a in (seg_val, seg_err))
            cap *= 2
        # bisect each active row's segment with the largest error per tolerance
        worst = (seg_err[:, active, :count] / tol[:, :, None]).max(axis=0).argmax(axis=1)
        lo, hi = seg_lo[active, worst], seg_hi[active, worst]
        mid = 0.5 * (lo + hi)
        v, e, _ = _gauss_kronrod(f, np.concatenate([lo, mid]), np.concatenate([mid, hi]),
                                 np.concatenate([rows[active], rows[active]]))
        k = active.size
        total[:, active] += v[:, :k] + v[:, k:] - seg_val[:, active, worst]
        total_err[:, active] += e[:, :k] + e[:, k:] - seg_err[:, active, worst]
        seg_hi[active, worst] = mid
        seg_val[:, active, worst], seg_err[:, active, worst] = v[:, :k], e[:, :k]
        seg_lo[active, count], seg_hi[active, count] = mid, hi
        seg_val[:, active, count], seg_err[:, active, count] = v[:, k:], e[:, k:]
        refinements[active] += 1
        count += 1


def five_point_stencil(
    f: Callable, x: float | np.ndarray, h: float | np.ndarray
) -> tuple[tuple, float | np.ndarray, float | np.ndarray]:
    """The five samples f(x + j h), j = -2..2, and the fourth-order central
    estimates of f'(x) and f''(x) from them.

    Returns (samples, d1, d2); samples[2] is f(x). Samples are taken in the
    order of j, so a caller can pair side results of f with them. x and h
    may be ndarrays of points and their steps; f then maps an array of points
    to values whose last axis runs over the points.
    """
    fm2, fm1, f0, fp1, fp2 = samples = tuple(f(x + j * h) for j in (-2, -1, 0, 1, 2))
    d1 = (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * h)
    d2 = (-fp2 + 16.0 * fp1 - 30.0 * f0 + 16.0 * fm1 - fm2) / (12.0 * h * h)
    return samples, d1, d2


def central_diff(
    f: Callable, x: float | np.ndarray, order: int, h: float | np.ndarray | None = None
) -> float | np.ndarray:
    """Fourth-order central difference estimate of f' or f'' at x.

    x may be an ndarray of points, with f as in five_point_stencil. The
    default step balances truncation against roundoff for smooth O(1)
    curvature; pass h explicitly for functions with fine structure.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    if h is None:
        h = np.maximum(1e-5, 1e-5 * np.abs(x))
    if np.any(h <= 0):
        raise ValueError("step h must be positive")
    _, d1, d2 = five_point_stencil(f, x, h)
    return d1 if order == 1 else d2
