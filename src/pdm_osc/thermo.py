"""Canonical-ensemble engine for the truncated bound-state spectrum.

The partition function Z = sum_{n=0}^{N} exp(-beta E_{n,m}) at fixed magnetic
quantum number m is evaluated by three strategies:

DIRECT_SUM        log-domain accumulation of the truncated sum; this is the
                  reference oracle for everything else.
PAPER_CLOSED_FORM the paper's closed form: the first-order summation formula
                  sum f(n) ~ [f(0) - f(N+1)]/2 + int_0^{N+1} f(x) dx
                  for f(x) = exp(-beta E(x)), with the integral done by the
                  erf algebra of the coefficients (a_t, b_t, c_t, d_t).
POISSON_PIPELINE  the same summation formula with the integral done by
                  adaptive quadrature instead of the erf algebra; an
                  independent re-derivation that triangulates the closed form.
                  Each point is one vector-valued quadrature of f, (E - E_0) f
                  and (E - E_0)^2 f, which gives ln Z, U and C together, and a
                  series batches those quadratures over its whole beta grid.

The closed form inherits the truncation error of the first-order summation
formula, roughly |f'(0)|/12 relative to Z, which grows with beta; agreement
with the direct sum is a high-temperature statement. compare_strategies
quantifies the discrepancy on any beta grid.

sweep evaluates one (params, m, N, strategy) series on a whole beta grid, as
array programs over that grid, and returns a ThermoSeries: one array per
quantity and per diagnostic. The direct sum builds the spectrum once and
reduces it over blocks of beta rows, each row cut at the first level whose
weight underflows to exactly 0.0 (at a length that depends on beta alone and
gives the uncut sum bit for bit); the closed form is one array expression
over the grid, with one erfcx call for both of its arguments; and the
pipeline integrates every beta in one batched quadrature. ln, exp and
beta**2 go through libm element by element (see _libm). evaluate() is sweep
on a one-point grid, so the two agree value for value.

The paper's coefficients are spectrum values: c_t = E_{N+1},
a_t = -E'(0)/2, b_t = E'(N+1)/2, (a_t^2 - alpha^2)/2k = -E_0 and
(b_t^2 - alpha^2)/2k = -E_{N+1}. The closed form is evaluated relative to
exp(-beta E_0), like the direct sum and the pipeline, so no factor overflows
and a Z below the double range still gives finite U, C, F and S. The d_t
coefficient has two readings: "corrected" uses sqrt(k^2 + alpha^2) - k m^2/2,
for which a_t - d_t = -E_0 and the boundary term is exactly f(0), while
"verbatim" keeps the mass-scale combination sqrt(lam^2 + alpha^2) - lam m^2/2.
sweep() and evaluate() compute the requested one, and the corrected variant
is the default.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .oscillator import NonPhysicalError, SystemParams, energy
from .specfun import QuadratureSpec, erfcx, integrate

__all__ = [
    "Strategy",
    "ThermoInput",
    "PaperZCoefficients",
    "ThermoResult",
    "ThermoSeries",
    "StrategyComparison",
    "PlateauResult",
    "levels",
    "paper_z_coefficients",
    "evaluate",
    "sweep",
    "compare_strategies",
    "find_heat_capacity_plateau",
]


class Strategy(enum.Enum):
    DIRECT_SUM = "direct"
    PAPER_CLOSED_FORM = "paper"
    POISSON_PIPELINE = "poisson"

    @classmethod
    def from_string(cls, name: str) -> "Strategy":
        for s in cls:
            if s.value == name or s.name == name:
                return s
        raise ValueError(f"unknown strategy {name!r}; use direct, paper or poisson")


# the largest beta whose square, the factor of C, is a finite double
_BETA_MAX = math.sqrt(sys.float_info.max)


def _check_betas(betas: np.ndarray) -> None:
    """Refuse a beta that is not positive or whose square overflows."""
    bad = ~((betas > 0.0) & (betas <= _BETA_MAX))
    if bad.any():
        raise ValueError(f"beta must be positive with a finite square, got {betas[bad][0]}")


@dataclass(frozen=True)
class ThermoInput:
    """One evaluation point of the canonical ensemble.

    beta is the inverse temperature 1/(kb T); truncation_n is the upper bound
    N of the state sum. A spectrum that is not increasing in n (k > 0) is
    refused: its truncated sum is arbitrary.
    """

    params: SystemParams
    m: int
    beta: float
    truncation_n: int = 500
    strategy: Strategy = Strategy.DIRECT_SUM

    def __post_init__(self):
        _check_betas(np.array([self.beta], dtype=float))
        # N = 0 is the admissible single-term edge case
        if self.truncation_n < 0:
            raise ValueError(f"truncation_n must be >= 0, got {self.truncation_n}")
        if self.params.k > 0.0:
            raise NonPhysicalError(
                "k > 0 makes the spectrum non-increasing in n; the truncated "
                "sum is then arbitrary"
            )

    @classmethod
    def from_temperature(cls, params: SystemParams, m: int, temperature: float,
                         **kw) -> "ThermoInput":
        if temperature <= 0.0:
            raise ValueError(f"temperature must be positive, got {temperature}")
        return cls(params=params, m=m, beta=1.0 / (params.kb * temperature), **kw)

    @property
    def temperature(self) -> float:
        return 1.0 / (self.params.kb * self.beta)


@dataclass(frozen=True)
class PaperZCoefficients:
    """Closed-form coefficients for one (params, m, N) and one d_t variant.

    eta and theta_v are the squared erf arguments -beta a_t^2/(2k) and
    -beta b_t^2/(2k); both are nonnegative whenever k < 0.
    """

    a_t: float
    b_t: float
    c_t: float
    d_t: float
    eta: float
    theta_v: float
    variant: str


@dataclass
class ThermoResult:
    """Thermodynamic quantities at one evaluation point.

    Z is the partition function, U the mean energy, C the heat capacity, F
    the free energy and S the entropy; C and S are in units of kb.
    """

    z: float
    log_z: float
    u: float
    c: float
    f: float
    s: float
    diagnostics: dict = field(default_factory=dict)


@dataclass(eq=False)
class ThermoSeries:
    """Z, U, C, F and S of one (params, m, N, strategy) series on a beta grid.

    Each quantity is a 1-D array over the grid, and so is each diagnostic:
    "n_terms" and "tail_ratio" (direct sum), the flag "nonpositive_z"
    (closed form) and "quadrature_refinements", "quadrature_evaluations" and
    "quadrature_error_bound" (pipeline). variant is the closed form's d_t
    reading, else None. series[i] is the ThermoResult at the i-th beta: its
    diagnostics dict holds a flag only where it is set, and
    "negative_entropy" = S wherever S is negative or NaN.

    The direct sum's C is kb beta^2 times a two-pass variance, so it is
    nonnegative by construction. An approximate strategy's S can go negative
    at low temperature (the closed form's tends to kb ln(1/2)); such a value
    is flagged as "negative_entropy", not fixed.
    """

    strategy: Strategy
    variant: str | None
    beta: np.ndarray
    z: np.ndarray
    log_z: np.ndarray
    u: np.ndarray
    c: np.ndarray
    f: np.ndarray
    s: np.ndarray
    diagnostics: dict[str, np.ndarray] = field(default_factory=dict)

    def __len__(self) -> int:
        return self.beta.size

    def __getitem__(self, i: int) -> ThermoResult:
        diag = {"strategy": self.strategy.value}
        if self.variant is not None:
            diag["variant"] = self.variant
        for name, column in self.diagnostics.items():
            if column.dtype != bool or column[i]:  # a flag only where it is set
                diag[name] = column[i].item()
        z, log_z, u, c, f, s = (getattr(self, q)[i].item() for q in "z log_z u c f s".split())
        if math.isnan(s) or s < 0.0:
            diag["negative_entropy"] = s
        return ThermoResult(z=z, log_z=log_z, u=u, c=c, f=f, s=s, diagnostics=diag)


# the direct sum reduces its (beta x level) weight array in blocks of at most
# this many elements, so its memory stays flat in the grid length and in N
_BLOCK_ELEMENTS = 2**16

# exp(-x) is exactly 0.0 in double precision for every x beyond this
_EXP_UNDERFLOW = 746.0


def levels(inp: ThermoInput) -> np.ndarray:
    """Spectrum E_{0..N} at fixed m as a vector."""
    return energy(inp.params, np.arange(inp.truncation_n + 1, dtype=float), inp.m)


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """fn of each element as a Python float: libm's exp, log and pow (and
    so Python's b**2) round differently from numpy's kernels and squaring."""
    return np.array([fn(v) for v in x.tolist()])


def _z(log_z: np.ndarray) -> np.ndarray:
    """Z = exp(ln Z), saturated to inf where it leaves the double range."""
    return _libm(lambda v: math.exp(v) if v < 700.0 else math.inf, log_z)


def _cut_lengths(shifted: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """Number of leading levels the Boltzmann sums keep at each beta.

    On a nondecreasing shifted spectrum every weight from the first level
    with beta (e - e0) > 746 on is exactly 0.0, so a sum may stop there. The
    length kept is the shortest prefix on the left spine of numpy's pairwise
    summation of the whole row (a row of n splits at n/2 rounded down to a
    multiple of 8, down to blocks of 128) that covers that level: the cut
    sum is then the full sum's left subtree, and the right side it drops is
    a sum of exact zeros, so both are the same number. The length depends on
    beta and the spectrum alone. A spectrum that is not monotone (k > 0)
    keeps every level.
    """
    if not np.all(shifted[1:] >= shifted[:-1]):
        return np.full(betas.size, shifted.size)
    spine = [shifted.size]
    while spine[-1] > 128:
        half = spine[-1] // 2
        spine.append(half - half % 8)
    spine = np.array(spine[::-1])
    first_zero = np.searchsorted(shifted, _EXP_UNDERFLOW / betas, side="right")
    return spine[np.searchsorted(spine, first_zero)]


def _check_weights_range(params: SystemParams, e0: float, e_top: float,
                         betas: np.ndarray) -> None:
    """Refuse a grid on which the weights exp(-beta (E - E_0)) of the levels
    E_0..E_top leave the double range: E_0, E_top, 746/beta and beta (E_top -
    E_0) must be finite, taken as Python floats at the ends of the grid."""
    b_min, b_max = betas.min().item(), betas.max().item()
    if not all(map(math.isfinite, (e0, e_top, _EXP_UNDERFLOW / b_min, b_max * (e_top - e0)))):
        raise ValueError(f"Boltzmann weights out of range at alpha={params.alpha}, "
                         f"kb={params.kb}, beta in [{b_min}, {b_max}]: "
                         "E_0..E_N, 746/beta or beta (E_N - E_0) is not finite")


def _boltzmann_sums(e: np.ndarray, betas: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Ground-state-shifted Boltzmann sums of the spectrum e at each beta.

    With w = exp(-beta (e - e0)), returns e0, a (5, len(betas)) array whose
    rows are sum w, the mean <e>, the variance <(e - <e>)^2>, the shifted mean
    <e - e0> and the tail ratio w_N / sum w, and the number of levels summed
    at each beta (_cut_lengths). Rows of one length are reduced together in
    blocks; the tail ratio of a cut row is exactly 0.0, as w_N is. The
    ground-state shift keeps any beta up to 1e3 and beyond safe; the two-pass
    variance keeps C >= 0 by construction.
    """
    e0 = float(e.min())
    shifted = e - e0
    out = np.empty((5, betas.size))
    lengths = _cut_lengths(shifted, betas)
    for length in sorted(set(lengths.tolist())):
        head, head_shifted = e[:length], shifted[:length]
        group = np.flatnonzero(lengths == length)
        rows = max(1, _BLOCK_ELEMENTS // length)
        for lo in range(0, group.size, rows):
            at = group[lo:lo + rows]
            w = np.exp(-betas[at, None] * head_shifted)
            sw = w.sum(axis=1)
            mean = (head * w).sum(axis=1) / sw
            out[0, at] = sw
            out[1, at] = mean
            out[2, at] = ((head - mean[:, None]) ** 2 * w).sum(axis=1) / sw
            out[3, at] = (head_shifted * w).sum(axis=1) / sw
            out[4, at] = w[:, -1] / sw if length == e.size else 0.0
    return e0, out, lengths


def _direct_series(first: ThermoInput, betas: np.ndarray) -> ThermoSeries:
    """Direct-sum series of first's (params, m, N) on the grid betas."""
    p, m, kb = first.params, first.m, first.params.kb
    _check_weights_range(p, energy(p, 0.0, m), energy(p, float(first.truncation_n), m), betas)
    e0, (sw, mean, var, shifted_mean, tail), lengths = _boltzmann_sums(levels(first), betas)
    log_sw = _libm(math.log, sw)
    log_z = -betas * e0 + log_sw
    return ThermoSeries(Strategy.DIRECT_SUM, None, betas, z=_z(log_z), log_z=log_z, u=mean,
                        c=kb * _libm(lambda b: b**2, betas) * var, f=-log_z / betas,
                        s=kb * (log_sw + betas * shifted_mean),
                        diagnostics={"n_terms": lengths, "tail_ratio": tail})


def _coefficients(params: SystemParams, m: int, n_max: int, variant: str,
                  beta: float | np.ndarray) -> tuple:
    """a_t, b_t, c_t, d_t, eta and theta_v at a beta or, elementwise, at an
    array of them (eta and theta_v then are arrays)."""
    k, alpha = params.k, params.alpha
    if k >= 0.0:
        raise NonPhysicalError(
            "closed-form coefficients need k < 0 (erf arguments become imaginary otherwise)"
        )
    s = math.hypot(alpha, k)
    am = abs(m)
    a_t = k * (am + 1.0) - s
    b_t = -(3.0 + am + 2.0 * n_max) * k + s
    c_t = (2.0 * n_max + am + 3.0) * s - k * (
        2.0 * n_max**2 + m * m / 2.0 + 6.0 * n_max + 5.0 + 2.0 * n_max * am + 3.0 * am
    )
    if variant == "corrected":
        d_t = am * s - k * m * m / 2.0
    elif variant == "verbatim":
        d_t = am * math.hypot(params.lam, alpha) - params.lam * m * m / 2.0
    else:
        raise ValueError(f"variant must be 'corrected' or 'verbatim', got {variant!r}")
    eta = -beta * a_t * a_t / (2.0 * k)
    theta_v = -beta * b_t * b_t / (2.0 * k)
    return a_t, b_t, c_t, d_t, eta, theta_v


def _check_closed_form_range(params: SystemParams, m: int, n_max: int, variant: str,
                             beta: np.ndarray) -> None:
    """Refuse a grid on which the closed form's largest composites leave the
    double range: alpha^4 beta^2 and the squared erf arguments eta and
    theta_v. All three grow with beta, so they are taken, as Python floats,
    at the largest beta of the grid."""
    b = beta.max().item()
    *_, eta, theta_v = _coefficients(params, m, n_max, variant, b)
    try:
        composite = params.alpha**4 * b**2
    except OverflowError:
        composite = math.inf
    if not all(map(math.isfinite, (composite, eta, theta_v))):
        raise ValueError(f"closed form out of range at alpha={params.alpha}, beta={b}: "
                         "alpha^4 beta^2, eta or theta_v is not finite")


def paper_z_coefficients(inp: ThermoInput, variant: str = "corrected") -> PaperZCoefficients:
    """Closed-form coefficients a_t, b_t, c_t, d_t, eta, theta_v in the
    paper's notation.

    variant selects the d_t reading: "corrected" uses sqrt(k^2+alpha^2) and
    -k m^2/2 (a_t - d_t = -E_0, so the boundary term is exactly
    exp(-beta E_0)); "verbatim" keeps the mass-scale lam in both places.
    """
    return PaperZCoefficients(
        *_coefficients(inp.params, inp.m, inp.truncation_n, variant, inp.beta),
        variant=variant)


def _closed_form(first: ThermoInput, beta: np.ndarray, variant: str) -> ThermoSeries:
    """Z, U, C, F and S of the closed form in one d_t variant, for first's
    (params, m, N), as array expressions over the grid beta.

    With f(x) = exp(-beta E(x)), 2Z = exp(beta (a_t - d_t)) - f(N+1) + 2I,
    where I = int_0^{N+1} f dx is the erf term -Omega. U and C follow from
    the beta-derivatives of 2Z: the composites Lambda = d(2Z)/d(beta) and
    X + epsilon = d^2(2Z)/d(beta)^2, with the Gaussian boundary sums of
    int E f dx and int E^2 f dx collected in a_t f(0) + b_t f(N+1) and
    varsigma. Every exponential is taken relative to exp(-beta E_0 + shift),
    where shift > 0 only when the verbatim d_t term exp(beta (a_t - d_t))
    exceeds exp(-beta E_0), so every factor is at most 1: with the corrected
    d_t the boundary and Gaussian factors are 1 and exp(-beta (E_{N+1} - E_0)).
    Z itself saturates to inf or 0 only where exp(ln Z) leaves the double range.
    Where 2Z is 0 or negative the point is flagged "nonpositive_z" and ln Z,
    U, C, F and S are NaN; a grid on which alpha^4 beta^2, eta or theta_v is
    not finite is refused with ValueError before any array step.
    """
    p, m, n_max, kb = first.params, first.m, first.truncation_n, first.params.kb
    _check_closed_form_range(p, m, n_max, variant, beta)
    a_t, b_t, _, d_t, eta, theta_v = _coefficients(p, m, n_max, variant, beta)
    k, alpha = p.k, p.alpha
    e0 = energy(p, 0.0, m)
    e1 = energy(p, n_max + 1.0, m)  # c_t
    a_d = -e0 if variant == "corrected" else a_t - d_t
    excess = beta * (a_d + e0)
    shift = np.maximum(excess, 0.0)
    exp_ad = np.exp(excess - shift)
    f0 = np.exp(-shift)
    f1 = np.exp(-beta * (e1 - e0) - shift)
    # I through the scaled complement erfcx(x) = exp(x^2) erfc(x), whose
    # growth cancels exp(-alpha^2 beta/2k) into the factors f(0) and f(N+1);
    # one erfcx call takes both arguments of the whole grid
    scaled_0, scaled_1 = erfcx(np.sqrt(np.stack([eta, theta_v])))
    integral = np.sqrt(math.pi / (-8.0 * k * beta)) * (f0 * scaled_0 - f1 * scaled_1)
    two_z = exp_ad - f1 + 2.0 * integral
    positive = two_z > 0.0

    # U and C divide by 2Z: they are taken only where it is positive
    def ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
        """num / den where 2Z is positive, NaN elsewhere."""
        return np.divide(num, den, out=np.full(beta.shape, math.nan), where=positive)

    gauss_boundary = a_t * f0 + b_t * f1
    lam_num = (
        a_d * exp_ad + e1 * f1
        - (alpha * alpha * beta + k) * integral / (k * beta)
        - gauss_boundary / (2.0 * k * beta)
    )
    u = ratio(-lam_num, two_z)
    gauss_varsigma = (
        a_t * f0 * (a_t * a_t * beta - 2.0 * alpha * alpha * beta - 3.0 * k)
        + b_t * f1 * (b_t * b_t * beta - 2.0 * alpha * alpha * beta - 3.0 * k)
    )
    eps = (
        ratio((alpha**4 * beta**2 + 2.0 * alpha * alpha * beta * k + 3.0 * k * k)
              * integral, 2.0 * k * k * beta * beta)
        - ratio(gauss_varsigma, 4.0 * k * k * beta * beta)
    )
    x_num = a_d * a_d * exp_ad - e1 * e1 * f1
    c_heat = kb * beta * beta * (ratio(x_num + eps, two_z) - u**2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_z = np.where(positive, shift - beta * e0 + np.log(0.5 * two_z), math.nan)
        # a nonpositive Z has no logarithm; shift is 0 there, so the scale
        # exp(-beta E_0) is at most 1
        z_nonpositive = 0.5 * two_z * np.exp(-beta * e0)
    f = -log_z / beta
    s = kb * (log_z + beta * u)
    return ThermoSeries(Strategy.PAPER_CLOSED_FORM, variant, beta,
                        z=np.where(positive, _z(log_z), z_nonpositive), log_z=log_z,
                        u=u, c=c_heat, f=f, s=s, diagnostics={"nonpositive_z": ~positive})


def _poisson_series(first: ThermoInput, betas: np.ndarray) -> ThermoSeries:
    """Summation-formula series of first's (params, m, N) on the grid betas,
    with the integrals of f, (E - E_0) f and (E - E_0)^2 f done by one batched,
    vector-valued quadrature over the grid.

    With f(x) = exp(-beta (E(x) - E_0)) the moments about E_0 are
    M_j = [d(0)^j f(0) - d(N+1)^j f(N+1)]/2 + int d^j f dx, d = E - E_0:
    M_0 is Z exp(beta E_0), and M_1, M_2 are its first two beta-derivatives
    up to sign, taken under the integral. That is exact here because f is
    exactly 0.0 at the clipped upper limit.
    """
    p, m, n_max, kb = first.params, first.m, first.truncation_n, first.params.kb
    e0 = energy(p, 0.0, m)
    d1 = energy(p, n_max + 1.0, m) - e0
    _check_weights_range(p, e0, e0 + d1, betas)
    # M_2 and x_cut square d(N+1) and E'(0); for k <= 0, d(x) >= E'(0) x, so
    # one check covers both
    if not math.isfinite(d1 * d1):
        raise ValueError(f"Boltzmann moments out of range at alpha={p.alpha}, kb={kb}: "
                         "(E_{N+1} - E_0)^2 is not finite")
    upper = np.full(betas.size, n_max + 1.0)
    if p.k <= 0.0:
        # f is exactly 0.0 beyond x_cut, where beta (E(x) - E_0) = 746; on a
        # wider interval every quadrature node can miss f's support and
        # converge to a false 0. E(x) - E_0 = x (E'(0) - 2k x), so x_cut is
        # the positive root, in the form free of cancellation as k -> 0-
        slope = energy(p, 1.0, m) - e0 + 2.0 * p.k  # E'(0)
        q = _EXP_UNDERFLOW / betas
        upper = np.minimum(upper, 2.0 * q / (slope + np.sqrt(slope * slope - 8.0 * p.k * q)))

    def integrands(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        d = energy(p, x, m) - e0
        f = np.exp(-betas[rows, None] * d)
        df = d * f
        return np.stack([f, df, d * df])

    quad = integrate(integrands, QuadratureSpec(0.0, upper, rel_tol=1e-11, abs_tol=1e-300))
    f1 = np.exp(-betas * d1)
    m0 = 0.5 * (1.0 - f1) + quad.value[:, 0]
    m1 = -0.5 * d1 * f1 + quad.value[:, 1]
    m2 = -0.5 * d1 * d1 * f1 + quad.value[:, 2]
    # each point's error bound relative to its integral, worst over the three
    with np.errstate(divide="ignore", invalid="ignore"):
        relative_bound = np.max(quad.error_bound / np.abs(quad.value), axis=1)
    log_m0 = _libm(math.log, m0)
    log_z = -betas * e0 + log_m0
    mean = m1 / m0  # <E - E_0>
    return ThermoSeries(Strategy.POISSON_PIPELINE, None, betas, z=_z(log_z), log_z=log_z,
                        u=e0 + mean, c=kb * _libm(lambda b: b**2, betas) * (m2 / m0 - mean * mean),
                        f=-log_z / betas, s=kb * (log_m0 + betas * mean),
                        diagnostics={"quadrature_refinements": quad.row_refinements,
                                     "quadrature_evaluations": quad.row_evaluations,
                                     "quadrature_error_bound": relative_bound})


def _series(first: ThermoInput, betas: np.ndarray, variant: str) -> ThermoSeries:
    """The series of first's (params, m, N) on the grid betas, under its strategy."""
    if first.strategy is Strategy.DIRECT_SUM:
        return _direct_series(first, betas)
    if first.strategy is Strategy.PAPER_CLOSED_FORM:
        return _closed_form(first, betas, variant)
    return _poisson_series(first, betas)


def sweep(params: SystemParams, m: int, truncation_n: int, betas: Iterable[float],
          strategy: Strategy = Strategy.DIRECT_SUM,
          variant: str = "corrected") -> ThermoSeries:
    """Z, U, C, F and S at every beta of a grid, as one ThermoSeries.

    Each element, and each point series[i], equals evaluate() at its beta.
    Every beta must be positive with a finite square (ValueError otherwise);
    an empty grid gives an empty series. The direct sum reduces the spectrum
    in blocks of beta rows, each row up to its underflow cut ("n_terms");
    the closed form computes only the requested d_t variant.
    """
    betas = np.fromiter(betas, dtype=float)
    _check_betas(betas)
    if betas.size == 0:
        variant = variant if strategy is Strategy.PAPER_CLOSED_FORM else None
        return ThermoSeries(strategy, variant, *[betas] * 7)
    first = ThermoInput(params=params, m=m, beta=betas[0].item(), truncation_n=truncation_n,
                        strategy=strategy)
    return _series(first, betas, variant)


def evaluate(inp: ThermoInput, variant: str = "corrected") -> ThermoResult:
    """All five quantities (Z, U, C, F, S) under the selected strategy.

    variant selects the d_t reading for the closed-form strategy; the other
    strategies ignore it. This is sweep() on a one-point grid.
    """
    return _series(inp, np.array([inp.beta], dtype=float), variant)[0]


@dataclass
class StrategyComparison:
    """Discrepancy report between the three partition-function strategies."""

    rows: list[dict]

    @property
    def max_rel_poisson(self) -> float:
        return max(r["rel_poisson"] for r in self.rows)

    @property
    def max_rel_paper_best(self) -> float:
        return max(min(r["rel_corrected"], r["rel_verbatim"]) for r in self.rows)

    def format(self) -> str:
        lines = [
            f"{'beta':>10} {'Z_direct':>14} {'rel_poisson':>12} "
            f"{'rel_corr':>12} {'rel_verb':>12} {'best':>10}"
        ]
        for r in self.rows:
            best = "corrected" if r["rel_corrected"] <= r["rel_verbatim"] else "verbatim"
            lines.append(
                f"{r['beta']:>10.4g} {r['z_direct']:>14.8g} {r['rel_poisson']:>12.3e} "
                f"{r['rel_corrected']:>12.3e} {r['rel_verbatim']:>12.3e} {best:>10}"
            )
        return "\n".join(lines)


def compare_strategies(params: SystemParams, m: int, truncation_n: int,
                       betas: Iterable[float]) -> StrategyComparison:
    """Evaluate Z under all strategies on a beta grid and report discrepancies."""
    betas = list(betas)
    zd, zp, zc, zv = (sweep(params, m, truncation_n, betas, strategy, variant).z
                      for strategy, variant in ((Strategy.DIRECT_SUM, "corrected"),
                                                (Strategy.POISSON_PIPELINE, "corrected"),
                                                (Strategy.PAPER_CLOSED_FORM, "corrected"),
                                                (Strategy.PAPER_CLOSED_FORM, "verbatim")))
    columns = (zd, zp, zc, zv) + tuple(np.abs(z - zd) / zd for z in (zp, zc, zv))
    keys = ("z_direct", "z_poisson", "z_corrected", "z_verbatim",
            "rel_poisson", "rel_corrected", "rel_verbatim")
    rows = [{"beta": beta, **dict(zip(keys, values))}
            for beta, *values in zip(betas, *(col.tolist() for col in columns))]
    return StrategyComparison(rows=rows)


@dataclass(frozen=True)
class PlateauResult:
    t_star: float
    value: float
    variation: float


def find_heat_capacity_plateau(
    params: SystemParams, m: int, truncation_n: int,
    t_lo: float = 0.5, t_hi: float = 5000.0,
    rel_window: float = 0.01, samples: int = 9, candidates: int = 240,
) -> PlateauResult | None:
    """Smallest T* with C varying less than rel_window over [T*, 2 T*].

    Scans logarithmically spaced candidate windows; returns the window start,
    the mean C over the window and the observed relative variation, or None
    when no window below t_hi/2 qualifies.
    """
    e = levels(ThermoInput(params=params, m=m, beta=1.0, truncation_n=truncation_n))
    starts = np.geomspace(t_lo, t_hi / 2.0, candidates)
    # every candidate window's temperatures in one (candidates, samples) grid
    betas = 1.0 / (params.kb * np.geomspace(starts, 2.0 * starts, samples, axis=-1))
    _, (_, _, var, _, _), _ = _boltzmann_sums(e, betas.ravel())
    cs = params.kb * betas * betas * var.reshape(betas.shape)
    mean_c = cs.mean(axis=1)
    variation = (cs.max(axis=1) - cs.min(axis=1)) / mean_c
    found = np.flatnonzero(variation < rel_window)
    if found.size == 0:
        return None
    i = found[0]
    return PlateauResult(t_star=float(starts[i]), value=float(mean_c[i]),
                         variation=float(variation[i]))
