"""Canonical-ensemble engine for the truncated bound-state spectrum.

The partition function Z = sum_{n=0}^{N} exp(-beta E_{n,m}) at fixed magnetic
quantum number m is evaluated by three strategies:

DIRECT_SUM        log-domain accumulation of the truncated sum; this is the
                  reference oracle for everything else.
PAPER_CLOSED_FORM the paper's closed form: the first-order summation formula
                  sum f(n) ~ [f(0) - f(N+1)]/2 + int_0^{N+1} f(x) dx
                  for f(x) = exp(-beta E(x)), its integrals done from the
                  coefficients (a_t, b_t, c_t, d_t) through erfcx.
POISSON_PIPELINE  the same summation formula with the integrals done by
                  adaptive quadrature; an independent re-derivation that
                  triangulates the closed form. A series is one batched,
                  vector-valued quadrature of f, d f and d^2 f.

Every strategy reduces a beta grid to E_0, M_0 = Z exp(beta E_0), the mean
<d> and the variance of the excitation d = E - E_0 (oscillator.excitation,
never formed as a difference), and one tail (_from_moments) forms ln Z,
U = E_0 + <d>, C, F and S from them. The summation formula's are its moments
M_j = [d(0)^j f(0) - d(N+1)^j f(N+1)]/2 + int_0^{N+1} d^j f dx.
It inherits a first-order truncation error, roughly |f'(0)|/12 relative to
Z, which grows with beta; compare_strategies quantifies it on a beta grid.

sweep evaluates one (params, m, N, strategy) series on a whole beta grid, as
array programs over that grid, and returns a ThermoSeries: one array per
quantity and per diagnostic. The direct sum builds the excitations once and
reduces them over blocks of beta rows, each row cut at the first level whose
weight underflows to exactly 0.0 (at a length that depends on beta alone and
gives the uncut sum bit for bit); the closed form is one array expression
over the grid; the pipeline integrates every beta in one batched quadrature.
Each point of a series is the one-point sweep at its beta, value for value.

The paper's coefficients are spectrum values, taken from it: c_t = E_{N+1},
a_t = -E'(0)/2, b_t = E'(N+1)/2, (a_t^2 - alpha^2)/2k = -E_0 and
(b_t^2 - alpha^2)/2k = -E_{N+1}. The d_t coefficient has two readings:
"corrected" uses sqrt(k^2 + alpha^2) - k m^2/2, for which a_t - d_t = -E_0
and the boundary term is exactly f(0), while "verbatim" keeps the mass-scale
combination sqrt(lam^2 + alpha^2) - lam m^2/2, which moves the boundary term
to the level d_t - a_t. The corrected variant is the default.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .oscillator import NonPhysicalError, SystemParams, excitation, spectrum_terms
from .specfun import QuadratureSpec, erfcx_gh, integrate

__all__ = [
    "Strategy",
    "PaperZCoefficients",
    "ThermoSeries",
    "StrategyComparison",
    "PlateauResult",
    "paper_z_coefficients",
    "sweep",
    "compare_strategies",
    "find_heat_capacity_plateau",
]


class Strategy(enum.Enum):
    DIRECT_SUM = "direct"
    PAPER_CLOSED_FORM = "paper"
    POISSON_PIPELINE = "poisson"


# the largest beta whose square, the factor of C, is a finite double
_BETA_MAX = math.sqrt(sys.float_info.max)


@dataclass(frozen=True)
class PaperZCoefficients:
    """Closed-form coefficients for one (params, m, N) and one d_t variant."""

    a_t: float
    b_t: float
    c_t: float
    d_t: float
    variant: str


@dataclass(eq=False)
class ThermoSeries:
    """Z, U, C, F and S of one (params, m, N, strategy) series on a beta grid.

    Each quantity is a 1-D array over the grid, and so is each diagnostic:
    "n_terms" and "tail_ratio" (direct sum), "quadrature_refinements",
    "quadrature_evaluations" and "quadrature_error_bound" (pipeline), and,
    for every strategy, "negative_entropy", True wherever S is negative or
    NaN. variant is the closed form's d_t reading, else None.

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
    diagnostics: dict[str, np.ndarray]


# the direct sum reduces its (beta x level) weight array in blocks of at most
# this many elements, so its memory stays flat in the grid length and in N
_BLOCK_ELEMENTS = 2**16

# exp(-x) is exactly 0.0 in double precision for every x beyond this
_EXP_UNDERFLOW = 746.0

# each strategy's own diagnostic columns and their dtypes, for an empty grid
_DIAGNOSTIC_DTYPES = {
    Strategy.DIRECT_SUM: {"n_terms": int, "tail_ratio": float}, Strategy.PAPER_CLOSED_FORM: {},
    Strategy.POISSON_PIPELINE: dict(quadrature_refinements=int, quadrature_evaluations=int,
                                    quadrature_error_bound=float)}


def _spine(size: int) -> list[int]:
    """Ascending lengths on the left spine of numpy's pairwise summation of
    a row of size: a row of n splits at n/2 rounded down to a multiple of 8,
    down to blocks of 128."""
    spine = [size]
    while spine[-1] > 128:
        half = spine[-1] // 2
        spine.append(half - half % 8)
    return spine[::-1]


def _cut_lengths(d: np.ndarray, betas: np.ndarray, size: int) -> np.ndarray:
    """Number of leading levels the Boltzmann sums keep at each beta.

    On the nondecreasing excitations d every weight from the first level
    with beta d > 746 on is exactly 0.0, so a sum may stop there. The
    length kept is the shortest prefix on the left spine of numpy's pairwise
    summation of the whole row of size levels (_spine) that covers that
    level: the cut sum is then the full sum's left subtree, and the right
    side it drops is a sum of exact zeros, so both are the same number. The
    length depends on beta and the spectrum alone. d may be a prefix of the
    row that covers every beta's cut.
    """
    spine = np.array(_spine(size))
    first_zero = np.searchsorted(d, _EXP_UNDERFLOW / betas, side="right")
    return spine[np.searchsorted(spine, first_zero)]


def _check_weights_range(params: SystemParams, e0: float, d_top: float,
                         betas: np.ndarray, moments: str | None = None) -> None:
    """Refuse a grid on which the weights exp(-beta d) of d_0..d_top leave the
    double range: E_0, E_0 + d_top, 746/beta and beta d_top, as Python floats
    at the ends of the grid, must be finite; for the moments of
    E_0..E_{moments}, d_top^2 too: it bounds each (d - <d>)^2 and E'(0)^2."""
    b_min, b_max = betas.min().item(), betas.max().item()
    if not all(map(math.isfinite, (e0, e0 + d_top, _EXP_UNDERFLOW / b_min, b_max * d_top))):
        raise ValueError(f"Boltzmann weights out of range at alpha={params.alpha}, "
                         f"kb={params.kb}, beta in [{b_min}, {b_max}]: "
                         "E_0..E_N, 746/beta or beta (E_N - E_0) is not finite")
    if moments and not math.isfinite(d_top * d_top):
        raise ValueError(f"Boltzmann moments out of range at alpha={params.alpha}, "
                         f"kb={params.kb}: (E_{{{moments}}} - E_0)^2 is not finite")


def _boltzmann_sums(d: np.ndarray, betas: np.ndarray,
                    size: int) -> tuple[np.ndarray, np.ndarray]:
    """Boltzmann sums of the excitations d (levels) at each beta.

    With w = exp(-beta d), returns a (4, len(betas)) array whose rows are
    sum w, the mean <d>, the variance <(d - <d>)^2> and the tail ratio
    w_N / sum w, and the number of levels summed at each beta
    (_cut_lengths). d is the first levels, covering every cut, of a spectrum
    of size levels. Rows of one length are reduced together in blocks of
    three work arrays allocated once, with exp only on lanes whose weight is
    not exactly 0.0, and a plain exp in a block where no weight is; the tail
    ratio of a cut row is exactly 0.0, as w_N is. No weight exceeds
    w_0 = 1; the two-pass variance keeps C >= 0 by construction.
    """
    out = np.empty((4, betas.size))
    lengths = _cut_lengths(d, betas, size)
    x, w, t = (np.empty(max(_BLOCK_ELEMENTS, lengths.max())) for _ in range(3))
    for length in sorted(set(lengths.tolist())):
        head = d[:length]
        group = np.flatnonzero(lengths == length)
        rows = max(1, _BLOCK_ELEMENTS // length)
        for lo in range(0, group.size, rows):
            at = group[lo:lo + rows]
            bx, bw, bt = (a[:at.size * length].reshape(at.size, length) for a in (x, w, t))
            np.multiply(-betas[at, None], head, out=bx)
            # rounding is monotone, so the block's lowest lane is -(max beta) d_max
            if betas[at].max() * head[-1] <= _EXP_UNDERFLOW:
                np.exp(bx, out=bw)
            else:
                bw.fill(0.0)
                np.exp(bx, out=bw, where=bx >= -_EXP_UNDERFLOW)
            sw = bw.sum(axis=1)
            mean = np.multiply(head, bw, out=bt).sum(axis=1) / sw
            out[0, at] = sw
            out[1, at] = mean
            np.subtract(head, mean[:, None], out=bt)
            out[2, at] = np.multiply(np.square(bt, out=bt), bw, out=bt).sum(axis=1) / sw
            out[3, at] = bw[:, -1] / sw if length == size else 0.0
    return out, lengths


def _from_moments(strategy: Strategy, kb: float, betas: np.ndarray, e0: float,
                  m0: np.ndarray, mean: np.ndarray, var: np.ndarray, diagnostics: dict,
                  variant: str | None = None) -> ThermoSeries:
    """The series of strategy from a reference energy E_0 and, at each beta,
    M_0 = Z exp(beta E_0), the mean <E - E_0> and the variance of E; adds the
    "negative_entropy" column to the strategy's diagnostics."""
    log_m0 = np.log(m0)
    log_z = -betas * e0 + log_m0
    # Z saturates to inf once ln Z >= 700, where exp(inf) does not warn
    z = np.exp(np.where(log_z < 700.0, log_z, np.inf))
    s = kb * (log_m0 + betas * mean)
    return ThermoSeries(strategy, variant, betas, z=z, log_z=log_z, u=e0 + mean,
                        c=kb * betas * betas * var, f=-log_z / betas, s=s,
                        diagnostics={**diagnostics, "negative_entropy": ~(s >= 0.0)})


def _direct_series(p: SystemParams, m: int, n_max: int, betas: np.ndarray) -> ThermoSeries:
    """Direct-sum series of (p, m, N = n_max) on the grid betas. As k <= 0,
    the longest cut is at the smallest beta: the first spine node L with
    L = N + 1 or beta d_L > 746, found with the scalar excitation (the same
    operations as the vector one). Only d_0..d_{L-1} are built."""
    size = n_max + 1
    e0 = spectrum_terms(p, m)[0]
    _check_weights_range(p, e0, excitation(p, size - 1.0, m), betas)
    reach = _EXP_UNDERFLOW / betas.min().item()
    count = next(n for n in _spine(size) if n == size or excitation(p, float(n), m) > reach)
    _check_weights_range(p, e0, excitation(p, count - 1.0, m), betas, moments=str(count - 1))
    d = excitation(p, np.arange(count, dtype=float), m)
    (sw, mean, var, tail), lengths = _boltzmann_sums(d, betas, size)
    return _from_moments(Strategy.DIRECT_SUM, p.kb, betas, e0, sw, mean, var,
                         {"n_terms": lengths, "tail_ratio": tail})


def paper_z_coefficients(params: SystemParams, m: int, truncation_n: int,
                         variant: str = "corrected") -> PaperZCoefficients:
    """Coefficients a_t, b_t, c_t and d_t in the paper's notation.

    variant selects the d_t reading: "corrected" uses sqrt(k^2+alpha^2) and
    -k m^2/2 (a_t - d_t = -E_0, so the boundary term is exactly
    exp(-beta E_0)); "verbatim" keeps the mass-scale lam in both places.
    """
    k, alpha, x1 = params.k, params.alpha, truncation_n + 1.0
    if k >= 0.0:
        raise NonPhysicalError(
            "closed-form coefficients need k < 0 (erf arguments become imaginary otherwise)"
        )
    e0, slope, q = spectrum_terms(params, m)
    a_t = -slope / 2.0
    b_t = (slope + 2.0 * q * x1) / 2.0
    c_t = e0 + excitation(params, x1, m)
    am = abs(m)
    if variant == "corrected":
        d_t = am * math.hypot(alpha, k) - k * m * m / 2.0
    elif variant == "verbatim":
        d_t = am * math.hypot(params.lam, alpha) - params.lam * m * m / 2.0
    else:
        raise ValueError(f"variant must be 'corrected' or 'verbatim', got {variant!r}")
    return PaperZCoefficients(a_t, b_t, c_t, d_t, variant)


def _shifted(moments: np.ndarray, by: np.ndarray) -> np.ndarray:
    """The first three moments (rows) about an origin lower by `by`."""
    m0, m1, m2 = moments
    return np.stack([m0, m1 + by * m0, m2 + by * (2.0 * m1 + by * m0)])


def _closed_form(p: SystemParams, m: int, n_max: int, beta: np.ndarray,
                 variant: str) -> ThermoSeries:
    """Z, U, C, F and S of the closed form in one d_t variant, for
    (p, m, N = n_max), as array expressions over the grid beta.

    With d = D x + q x^2, D = E'(0) = -2 a_t, q = -2k, X = N + 1 and
    s = beta d(X), the moments are taken as beta^j M_j. Where s >= 1,
    int_0^X d^j f is the half-line moment at slope D minus f(X) times those
    at slope E'(X) = 2 b_t, shifted binomially by d(X). The half-line moments
    are int_0^inf (beta d)^j f dy = phi_j(u) / (beta D), u = D sqrt(beta/q)/2,
    phi_0 = u sqrt(pi) erfcx(u), phi_1 = u^2 g(u) + phi_0/2 and
    phi_2 = u^3 h(u) + 3 phi_1/2 (erfcx_gh; by parts, with d'^2 = D^2 + 4q d).
    Where s < 1 that difference cancels, and the integral is the series
    X d(X)^j sum_n (-s)^n/n! J_{n+j}, J_p = int_0^1 (w r + (1 - w) r^2)^p dr,
    w = D X / d(X). The moments are taken about the lower of E_0 and the
    boundary level, so no weight exceeds 1 and a low verbatim level that
    carries most of M_0 leaves a variance that does not cancel.
    """
    co = paper_z_coefficients(p, m, n_max, variant)
    a_t, b_t, d_t = co.a_t, co.b_t, co.d_t
    e0, x1 = spectrum_terms(p, m)[0], n_max + 1.0
    d1 = excitation(p, x1, m)
    _check_weights_range(p, e0, d1, beta, moments="N+1")
    s = beta * d1
    f1 = np.exp(-s)
    # beta^j (int_0^X d^j f dx - d(X)^j f(X)/2), j = 0, 1, 2
    inner = np.empty((3, beta.size))
    near = s < 1.0
    if near.any():
        # J_p, p <= 22, as sums of positive terms C(p, i) w^i (1-w)^(p-i) / (2p-i+1)
        w = -2.0 * a_t * x1 / d1
        jp = np.array([sum(math.comb(j, i) * w**i * (1.0 - w)**(j - i) / (2 * j - i + 1)
                           for i in range(j + 1)) for j in range(23)])
        sn = s[near]
        acc = np.repeat(jp[-3:, None], sn.size, axis=1)
        for n in range(20, 0, -1):  # s^0..s^20: for s < 1 the rest is below 1e-19
            acc = jp[n - 1:n + 2, None] - (sn / n) * acc
        inner[:, near] = (x1 * acc - 0.5 * f1[near]) * np.stack([np.ones_like(sn), sn, sn * sn])
    if not near.all():
        far = ~near
        bf = beta[far]
        root = np.sqrt(bf) / math.sqrt(-2.0 * p.k)
        # u at the slopes E'(0) and E'(X), one erfcx_gh call for both; beyond
        # 1e10, phi_j are 1, 1 and 2 to the last bit, and u^3 h would underflow
        u = np.stack([c * np.minimum(root, 1e10 / c) for c in (-a_t, b_t)])
        e, g, h = erfcx_gh(u)
        phi0 = u * e
        phi1 = u * u * g + 0.5 * phi0
        head, tail = np.stack([phi0, phi1, u * u * u * h + 1.5 * phi1], axis=1)
        # the part beyond X, with the boundary term f(X)/2, about d(X)
        tail = f1[far] * (tail / (2.0 * b_t) / bf + np.array([[0.5], [0.0], [0.0]]))
        inner[:, far] = head / (-2.0 * a_t) / bf - _shifted(tail, s[far])
    dv = d_t - a_t - e0 if variant == "verbatim" else 0.0  # boundary level - E_0
    if not math.isfinite(beta.max().item() * abs(dv)):
        raise ValueError(f"verbatim boundary level out of range at lam={p.lam}: "
                         "beta (d_t - a_t - E_0) is not finite")
    lo = min(dv, 0.0)
    bdv = beta * (dv - lo)
    # each weight multiplies first: where it is 0.0, a shift or bdv^2 may overflow
    half = 0.5 * np.exp(-bdv)
    m0, m1, m2 = (np.stack([half, half * bdv, half * bdv * bdv])
                  + _shifted(np.exp(beta * lo) * inner, -beta * lo))
    r1 = m1 / m0
    return _from_moments(Strategy.PAPER_CLOSED_FORM, p.kb, beta, e0 + lo, m0, r1 / beta,
                         (m2 / m0 - r1 * r1) / beta / beta, {}, variant)


def _poisson_series(p: SystemParams, m: int, n_max: int, betas: np.ndarray) -> ThermoSeries:
    """Summation-formula series of (p, m, N = n_max) on the grid betas,
    with the integrals of f, d f and d^2 f, d = E - E_0 (excitation), done
    by one batched, vector-valued quadrature over the grid. f is exactly 0.0
    at the clipped upper limit, so the moments are the formula's.
    """
    e0, slope, q = spectrum_terms(p, m)
    d1 = excitation(p, n_max + 1.0, m)
    _check_weights_range(p, e0, d1, betas, moments="N+1")
    # f is exactly 0.0 beyond x_cut, where beta d(x) = 746; on a wider interval
    # every quadrature node can miss f's support and converge to a false 0.
    # x_cut is the positive root of x (D + q x) = 746/beta, free of cancellation
    reach = _EXP_UNDERFLOW / betas
    upper = np.minimum(n_max + 1.0,
                       2.0 * reach / (slope + np.sqrt(slope * slope + 4.0 * q * reach)))

    def integrands(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        d = excitation(p, x, m)
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
    mean = m1 / m0  # <d>
    return _from_moments(Strategy.POISSON_PIPELINE, p.kb, betas, e0, m0, mean,
                         m2 / m0 - mean * mean,
                         {"quadrature_refinements": quad.row_refinements,
                          "quadrature_evaluations": quad.row_evaluations,
                          "quadrature_error_bound": relative_bound})


def sweep(params: SystemParams, m: int, truncation_n: int, betas: Iterable[float],
          strategy: Strategy = Strategy.DIRECT_SUM,
          variant: str = "corrected") -> ThermoSeries:
    """Z, U, C, F and S at every beta of a grid, as one ThermoSeries.

    Each point equals the one-point sweep at its beta. Every argument is
    checked first, whatever the grid: each beta must be positive with a
    finite square, N = truncation_n >= 0 (N = 0 is the single-term edge case)
    and variant "corrected" or "verbatim" (ValueError otherwise); k > 0, a
    spectrum that is not increasing in n and whose truncated sum is
    arbitrary, is refused with NonPhysicalError. An empty grid then gives an
    empty series with the strategy's diagnostic columns, empty. The direct sum
    reduces the spectrum in blocks of beta rows, each row up to its underflow
    cut ("n_terms"); the closed form computes only the requested d_t variant.
    """
    betas = np.fromiter(betas, dtype=float)
    bad = ~((betas > 0.0) & (betas <= _BETA_MAX))
    if bad.any():
        raise ValueError(f"beta must be positive with a finite square, got {betas[bad][0]}")
    if truncation_n < 0:
        raise ValueError(f"truncation_n must be >= 0, got {truncation_n}")
    if params.k > 0.0:
        raise NonPhysicalError(
            "k > 0 makes the spectrum non-increasing in n; the truncated "
            "sum is then arbitrary"
        )
    if variant not in ("corrected", "verbatim"):
        raise ValueError(f"variant must be 'corrected' or 'verbatim', got {variant!r}")
    if betas.size == 0:
        empty = np.empty(0)
        diagnostics = {name: np.empty(0, t) for name, t in _DIAGNOSTIC_DTYPES[strategy].items()}
        return _from_moments(strategy, params.kb, betas, 0.0, empty, empty, empty, diagnostics,
                             variant if strategy is Strategy.PAPER_CLOSED_FORM else None)
    if strategy is Strategy.DIRECT_SUM:
        return _direct_series(params, m, truncation_n, betas)
    if strategy is Strategy.PAPER_CLOSED_FORM:
        return _closed_form(params, m, truncation_n, betas, variant)
    return _poisson_series(params, m, truncation_n, betas)


@dataclass
class StrategyComparison:
    """Discrepancy report between the three partition-function strategies.

    The max_rel_ reductions read NaN if any row they reduce holds a NaN.
    """

    rows: list[dict]

    @property
    def max_rel_poisson(self) -> float:
        return float(np.max([r["rel_poisson"] for r in self.rows]))

    @property
    def max_rel_paper_best(self) -> float:
        return float(np.max(np.minimum([r["rel_corrected"] for r in self.rows],
                                       [r["rel_verbatim"] for r in self.rows])))

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


def find_heat_capacity_plateau(params: SystemParams, m: int,
                               truncation_n: int) -> PlateauResult | None:
    """Smallest T* in [0.5, 2500] with C varying less than 1% over [T*, 2 T*].

    The 295 windows start at T_i = 0.5 2^(i/24), i = 0..294, and sample C at
    the lattice points T_{i+3j} = T_i 2^(j/8), j = 0..8: one direct sweep over
    the 319 temperatures gives every C. Returns the first qualifying window's
    start, mean C and relative variation (mean C 0 never qualifies), or None.
    """
    temps = 0.5 * np.exp2(np.arange(319) / 24.0)
    windows = np.arange(295)[:, None] + np.arange(0, 25, 3)  # window i samples T_{i+3j}
    cs = sweep(params, m, truncation_n, 1.0 / (params.kb * temps)).c[windows]
    mean_c = cs.mean(axis=1)
    variation = (cs.max(axis=1) - cs.min(axis=1)) / np.where(mean_c > 0.0, mean_c, np.nan)
    found = np.flatnonzero(variation < 0.01)
    if found.size == 0:
        return None
    i = found[0]
    return PlateauResult(t_star=float(temps[i]), value=float(mean_c[i]),
                         variation=float(variation[i]))
