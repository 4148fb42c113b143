"""Canonical-ensemble engine for the truncated bound-state spectrum.

The partition function Z = sum_{n=0}^{N} exp(-beta E_{n,m}) at fixed magnetic
quantum number m is evaluated by three strategies:

DIRECT_SUM        log-domain accumulation of the truncated sum; this is the
                  reference oracle for everything else.
PAPER_CLOSED_FORM the paper's closed form: the first-order summation formula
                  sum f(n) ~ [f(0) - f(N+1)]/2 + int_0^{N+1} f(x) dx
                  for f(x) = exp(-beta E(x)), its integrals done from the
                  spectrum's E_0, D = E'(0), q = -2k and E'(N+1) = D + 2q(N+1)
                  through erfcx.
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
Z, which grows with beta: the direct sum minus the formula is T1 + R3, with
T1 = [f'(N+1) - f'(0)]/12 and |R3| <= 2 zeta(3)/(2 pi)^3 int_0^{N+1} |f'''|
(DLMF 2.10.1, 24.8.2), and validate's strategy_triangulation checks T1 +- R3.

sweep evaluates one (params, m, N, strategy) series on a whole beta grid, as
array programs over that grid, and returns a ThermoSeries: one array per
quantity and per diagnostic. The direct sum builds the excitations a piece
at a time, forms each weight once and reduces it over blocks of beta rows,
each row cut past the levels with beta d <= tau, where tau <= 746 leaves
out only weights that move none of the row's sums by 2^-64 of itself
(_row_cuts; past 746 every weight is 0.0, and "n_terms" counts the levels
with beta d <= 746, found from the root of beta d(x) = 746); a row longer
than a block merges its pieces' sums by the pairwise update of
Chan, Golub and LeVeque. The closed form is one array expression over the
grid; the pipeline integrates every beta in one batched quadrature, up to
the root of 746, from a partition that halves toward x = 0.
Each point of a series is the one-point sweep at its beta, value for value.

The paper writes the closed form in four coefficients, three of which are
the spectrum values above: a_t = -D/2, b_t = E'(N+1)/2 and c_t = E_{N+1}.
Its fourth, d_t, has two readings: "corrected", |m| sqrt(k^2 + alpha^2) -
k m^2/2, for which a_t - d_t = -E_0 and the boundary term is exactly f(0),
and "verbatim", which keeps the mass-scale combination |m| sqrt(lam^2 +
alpha^2) - lam m^2/2 and moves the boundary term to the level d_t - a_t =
|m| sqrt(lam^2 + alpha^2) - lam m^2/2 + D/2. The corrected variant is the
default.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DomainError, NonPhysicalError
from .oscillator import _SQRT_MAX, SystemParams, excitation, spectrum_terms
from .specfun import QuadratureSpec, erfcx_gh, integrate

__all__ = [
    "Strategy",
    "ThermoSeries",
    "PlateauResult",
    "sweep",
    "find_heat_capacity_plateau",
]


class Strategy(enum.Enum):
    DIRECT_SUM = "direct"
    PAPER_CLOSED_FORM = "paper"
    POISSON_PIPELINE = "poisson"


@dataclass(eq=False)
class ThermoSeries:
    """Z, U, C, F and S of one (params, m, N, strategy) series on a beta grid.

    Each quantity is a 1-D array over the grid, and so is each diagnostic:
    "n_terms", "tail_ratio" and "subnormal_weights" (direct sum, see
    _direct_series), "quadrature_refinements",
    "quadrature_evaluations" and "quadrature_error_bound" (pipeline), and,
    for every strategy, "negative_entropy", True wherever S is negative or
    NaN. variant is the closed form's d_t reading, else None.

    The direct sum's C is kb beta^2 times a variance of centred sums of
    nonnegative terms, so it is nonnegative by construction. An approximate strategy's S can go negative
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
# this many elements, and a longer row piece by piece, so its memory stays
# flat in the grid length and in N: a point at alpha = 1, k = -1e-6, m = 40,
# beta = 1e-4 (1e5 to 1.5e6 levels kept) peaks 1.6 MB above set-up in a fresh
# interpreter, 0.8 MB once a first sweep has run, for N = 1e5 to 1e7.
_BLOCK_ELEMENTS = 2**15

# exp(-x) is exactly 0.0 in double precision for every x beyond this
_EXP_UNDERFLOW = 746.0
# exp(-x) is below the smallest normal double 2^-1022 = exp(-708.396...) for
# every x beyond this: subnormal, where exp costs about 100 times as much
_EXP_SUBNORMAL = 708.4


def _spine(size: int) -> list[int]:
    """Ascending lengths on the left spine of numpy's pairwise summation of
    a row of size levels, down to blocks of 128: each node's left part is
    half of it rounded down to a multiple of 8."""
    spine = [size]
    while spine[-1] > 128:
        spine.append(spine[-1] // 2 - spine[-1] // 2 % 8)
    return spine[::-1]


def _underflow_root(slope: float, q: float, betas: np.ndarray,
                    limit: float | np.ndarray = _EXP_UNDERFLOW) -> np.ndarray:
    """The root x >= 0 of beta d(x) = limit, d(x) = x (D + q x), D = slope > 0
    and q >= 0, at each beta: beyond the root of 746 every weight
    exp(-beta d) is exactly 0.0. It is 2 r / (D + sqrt(D^2 + 4 q r)),
    r = limit/beta, free of cancellation; where D^2 + 4 q r overflows, its
    square root is formed as hypot(D, 2 sqrt(q) sqrt(r)), so the root stays
    finite."""
    reach = limit / betas
    with np.errstate(over="ignore"):
        root = np.sqrt(slope * slope + 4.0 * q * reach)
        wide = np.isinf(root)
        root[wide] = np.hypot(slope, 2.0 * math.sqrt(q) * np.sqrt(reach[wide]))
        return 2.0 * reach / (slope + root)


def _cut_lengths(n_terms: np.ndarray, size: int) -> np.ndarray:
    """Number of leading levels the Boltzmann sums reduce at each beta, for
    a spectrum of size levels of which each row keeps the first n_terms.

    The length is the shortest prefix on the left spine of numpy's pairwise
    summation of all size levels (_spine) that holds the n_terms levels.
    Where every weight beyond them is exactly 0.0, a row of at most a block
    is then numpy's sum of all size levels, bit for bit. Lengths repeat
    along a grid, so rows of one length reduce together as 2-D blocks.
    """
    spine = np.array(_spine(size))
    return spine[np.searchsorted(spine, n_terms)]


def _row_cuts(slope: float, q: float, d1: float, betas: np.ndarray,
              size: int) -> tuple[np.ndarray, np.ndarray]:
    """Each beta row's limit tau and cut length (_cut_lengths) in the direct
    sum of size levels d(x) = x (slope + q x), d_1 = d1 the first excited
    one (0.0 where size is 1). A row's weights exp(-beta d) are formed up to
    beta d = tau and are 0.0 beyond it.

    With x = beta d_1 and r = 746/x, tau = min(746, x + C) with
    C = 64 ln 2 + ln(2 (r + 1)) + 2 ln r. Past 746 every weight is 0.0; a row
    cut below drops only weights below w_1 e^-C, w_1 = exp(-x), at levels
    with beta d in (tau, 746]: as the gaps D + q (2j + 1) between levels
    are at least d_1, at most K = r + 1 of them, of sum delta <= K w_1 e^-C.
    Against the row cut at 746, with d_max = 746/beta: sum w (at least
    w_0 = 1) moves by at most K e^-C = 2^-65/r^2 relative; the mean (at
    least w_1 d_1 / sum w) by at most delta d_max / sum w, 2^-65/r relative;
    the centred sum S by at most delta d_max^2 (the dropped weights' spread
    and their pull on the mean together), and as S >= w_1 d_1^2 / (1 + w_1),
    by at most 2^-64 (1 + w_1)/2 relative, which bounds the variance
    S / sum w too, as S and sum w move it apart. tau reads beta d_1 alone,
    so it does not depend on N; it grows toward 746 as x -> 0 (147.8 at
    x = 1e-12), is 746 for x > 700.1 and passes 708.4 only where x > 662.3.
    """
    x = betas * d1
    with np.errstate(divide="ignore", over="ignore"):
        r = _EXP_UNDERFLOW / x
        cut = x + 64.0 * math.log(2.0) + np.log(2.0 * (r + 1.0)) + 2.0 * np.log(r)
    limits = np.minimum(cut, _EXP_UNDERFLOW)
    kept = np.minimum(np.floor(_underflow_root(slope, q, betas, limits)) + 1.0, size)
    return limits, _cut_lengths(kept.astype(int), size)


def _check_weights_range(params: SystemParams, e0: float, d_top: float,
                         betas: np.ndarray, moments: str | None = None,
                         reach: float = 1.0) -> None:
    """Refuse a grid on which the weights exp(-beta d) of d_0..d_top leave the
    double range: E_0, E_0 + d_top, 746/beta and beta d_top, as Python floats
    at the ends of the grid (an empty grid's ends, inf and 0, leave the
    spectrum alone to check), must be finite; for moments that square the
    excitations up to d_top, the level E_{moments}, reach d_top^2 too (for
    an integral of d^2 f over [0, reach] with f <= 1 and d increasing, that
    bounds the integral)."""
    b_min, b_max = betas.min(initial=math.inf).item(), betas.max(initial=0.0).item()
    if not all(map(math.isfinite, (e0, e0 + d_top, _EXP_UNDERFLOW / b_min, b_max * d_top))):
        raise DomainError(f"Boltzmann weights out of range at alpha={params.alpha}, "
                          f"kb={params.kb}, beta in [{b_min}, {b_max}]: "
                          "E_0..E_N, 746/beta or beta (E_N - E_0) is not finite")
    if moments and not math.isfinite(reach * d_top * d_top):
        factor = "" if reach == 1.0 else f"{reach!r} "
        raise DomainError(f"Boltzmann moments out of range at alpha={params.alpha}, "
                          f"kb={params.kb}: {factor}(E_{{{moments}}} - E_0)^2 is not finite")


def _boltzmann_sums(p: SystemParams, m: int, betas: np.ndarray, lengths: np.ndarray,
                    limits: np.ndarray) -> np.ndarray:
    """Boltzmann sums of the excitations d of (p, m) at each beta.

    With w = exp(-beta d), formed up to beta d = limits and 0.0 beyond,
    returns a (3, len(betas)) array whose rows are sum w, the mean <d> and
    the variance <(d - <d>)^2>, each beta's row summed over its first
    lengths levels (_row_cuts). Rows of one length form a group, cut into
    pieces of at most _BLOCK_ELEMENTS levels, and each piece builds its d
    once and reduces every block of its group's rows on it. Two work arrays
    of one block serve every row: exp runs in place, only on lanes within
    their row's limit (a block where every lane is runs a plain exp), and
    0.0 is written on the others. Each piece's weights give its sum w, its
    mean and its centred sum of (d - mean)^2 w, and a row of several pieces
    merges them in level order by the pairwise update of Chan, Golub and
    LeVeque (1983); a piece whose weights are all 0.0 leaves the row as it
    is. No weight exceeds w_0 = 1, and every centred sum adds nonnegative
    terms, so C >= 0 by construction.
    """
    out = np.empty((3, betas.size))
    w, t = np.empty(_BLOCK_ELEMENTS), np.empty(_BLOCK_ELEMENTS)
    for length in sorted(set(lengths.tolist())):
        group = np.flatnonzero(lengths == length)
        rows = max(1, _BLOCK_ELEMENTS // length)
        blocks = [group[start:start + rows] for start in range(0, group.size, rows)]
        for lo in range(0, length, _BLOCK_ELEMENTS):
            hi = min(lo + _BLOCK_ELEMENTS, length)
            d = excitation(p, np.arange(lo, hi, dtype=float), m)
            for at in blocks:
                bw = w[:at.size * d.size].reshape(at.size, d.size)
                bt = t[:bw.size].reshape(bw.shape)
                np.multiply(-betas[at, None], d, out=bw)
                # rounding is monotone, so the block's lowest lane is -(max beta) d_max
                if betas[at].max() * d[-1] <= limits[at].min():
                    np.exp(bw, out=bw)
                else:
                    keep = bw >= -limits[at, None]
                    np.exp(bw, out=bw, where=keep)
                    bw[~keep] = 0.0
                sw = bw.sum(axis=1)
                # the first piece holds w_0 = 1; a later piece of all 0.0 takes the row's mean
                mean = np.divide(np.multiply(d, bw, out=bt).sum(axis=1), sw,
                                 out=out[1, at], where=sw > 0.0)
                np.square(np.subtract(d, mean[:, None], out=bt), out=bt)
                spread = np.multiply(bt, bw, out=bt).sum(axis=1)
                if lo == 0:
                    out[:, at] = sw, mean, spread
                    continue
                # Chan et al.'s merge of (sum w, mean, centred sum) of two parts
                total, delta = out[0, at] + sw, mean - out[1, at]
                share = sw / total
                out[2, at] += spread + delta * delta * out[0, at] * share
                out[1, at] += delta * share
                out[0, at] = total
            del d  # before the next piece's levels are built beside it
    out[2] /= out[0]
    return out


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
    """Direct-sum series of (p, m, N = n_max) on the grid betas. As k <= 0
    and tau/beta falls as beta grows, the longest cut L is at the smallest
    beta (_row_cuts); only d_0..d_{L-1} are built, a piece of at most a
    block at a time (_boltzmann_sums), so the memory is flat in N.
    "tail_ratio" is w_N / sum w, w_N formed apart from the sums, and
    "subnormal_weights" flags the rows whose excited weights are all below
    2^-1022 (beta d_1 > 708.4, where tau is 746, so they are kept), on which
    U - E_0, C and S rest, where they are not exactly 0."""
    size = n_max + 1
    e0, slope, q = spectrum_terms(p, m)
    d_top = excitation(p, size - 1.0, m)
    _check_weights_range(p, e0, d_top, betas)
    # the levels with beta d <= 746, counted in floats, where the root may be huge
    n_terms = np.minimum(np.floor(_underflow_root(slope, q, betas)) + 1.0, size).astype(int)
    d1 = excitation(p, float(min(n_max, 1)), m)
    limits, lengths = _row_cuts(slope, q, d1, betas, size)
    count = lengths.max(initial=1).item()
    _check_weights_range(p, e0, excitation(p, count - 1.0, m), betas, moments=str(count - 1))
    sw, mean, var = _boltzmann_sums(p, m, betas, lengths, limits)
    return _from_moments(Strategy.DIRECT_SUM, p.kb, betas, e0, sw, mean, var,
                         {"n_terms": n_terms, "tail_ratio": np.exp(-betas * d_top) / sw,
                          "subnormal_weights": betas * d1 > _EXP_SUBNORMAL})


def _shifted(moments: np.ndarray, by: np.ndarray) -> np.ndarray:
    """The first three moments (rows) about an origin lower by `by`."""
    m0, m1, m2 = moments
    return np.stack([m0, m1 + by * m0, m2 + by * (2.0 * m1 + by * m0)])


def _closed_form(p: SystemParams, m: int, n_max: int, beta: np.ndarray,
                 variant: str) -> ThermoSeries:
    """Z, U, C, F and S of the closed form in one d_t variant, for
    (p, m, N = n_max), as array expressions over the grid beta; k = 0, where
    the erfcx arguments u below are not finite, is refused.

    With d = D x + q x^2, D = E'(0), q = -2k, X = N + 1, E'(X) = D + 2 q X
    and s = beta d(X), the moments are taken as beta^j M_j. Where s >= 1,
    int_0^X d^j f is the half-line moment at slope D minus f(X) times those
    at slope E'(X), shifted binomially by d(X). The half-line moments
    are int_0^inf (beta d)^j f dy = phi_j(u) / (beta D), u = D sqrt(beta/q)/2,
    phi_0 = u sqrt(pi) erfcx(u), phi_1 = u^2 g(u) + phi_0/2 and
    phi_2 = u^3 h(u) + 3 phi_1/2 (erfcx_gh; by parts, with d'^2 = D^2 + 4q d).
    Where s < 1 that difference cancels, and the integral is the series
    X d(X)^j sum_n (-s)^n/n! J_{n+j}, J_p = int_0^1 (w r + (1 - w) r^2)^p dr,
    w = D X / d(X). The boundary term sits at E_0 ("corrected") or at the
    verbatim level |m| hypot(lam, alpha) - lam m^2/2 + D/2. The moments are
    taken about the lower of E_0 and the boundary level, so no weight
    exceeds 1 and a low verbatim level that carries most of M_0 leaves a
    variance that does not cancel.
    """
    if p.k >= 0.0:
        raise NonPhysicalError(
            "the closed form needs k < 0 (erf arguments become imaginary otherwise)"
        )
    e0, slope, q = spectrum_terms(p, m)
    x1 = n_max + 1.0
    d1 = excitation(p, x1, m)
    slope1 = slope + 2.0 * q * x1  # E'(X)
    # no moment squares d(X): each product with f(X) takes the weight first
    _check_weights_range(p, e0, d1, beta)
    s = beta * d1
    f1 = np.exp(-s)
    # beta^j (int_0^X d^j f dx - d(X)^j f(X)/2), j = 0, 1, 2
    inner = np.empty((3, beta.size))
    near = s < 1.0
    if near.any():
        # J_p, p <= 22, as sums of positive terms C(p, i) w^i (1-w)^(p-i) / (2p-i+1)
        w = slope * x1 / d1
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
        root = np.sqrt(bf) / math.sqrt(q)
        # u at the slopes E'(0) and E'(X), one erfcx_gh call for both; beyond
        # 1e10, phi_j are 1, 1 and 2 to the last bit, and u^3 h would underflow
        u = np.stack([c * np.minimum(root, 1e10 / c) for c in (slope / 2.0, slope1 / 2.0)])
        e, g, h = erfcx_gh(u)
        phi0 = u * e
        phi1 = u * u * g + 0.5 * phi0
        head, tail = np.stack([phi0, phi1, u * u * u * h + 1.5 * phi1], axis=1)
        # the part beyond X, with the boundary term f(X)/2, about d(X)
        tail = f1[far] * (tail / slope1 / bf + np.array([[0.5], [0.0], [0.0]]))
        inner[:, far] = head / slope / bf - _shifted(tail, s[far])
    dv = 0.0  # boundary level - E_0
    if variant == "verbatim":
        dv = abs(m) * math.hypot(p.lam, p.alpha) - p.lam * m * m / 2.0 + slope / 2.0 - e0
    if not math.isfinite(beta.max(initial=0.0).item() * abs(dv)):
        raise DomainError(f"verbatim boundary level out of range at lam={p.lam}: "
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
    at the clipped upper limit u, so the moments are the formula's, and only
    d(u), the highest level that carries weight, need be in range: the grid
    is refused where u d(u)^2, which bounds int_0^u d^2 f, is not finite.
    Each row's quadrature starts from the segments [0, u/32, u/16, u/8, u/4,
    u/2, u], geometric toward x = 0, where f falls fastest.
    """
    e0, slope, q = spectrum_terms(p, m)
    d1 = excitation(p, n_max + 1.0, m)
    _check_weights_range(p, e0, d1, betas)
    # f is exactly 0.0 beyond the root of beta d(x) = 746; on a wider interval
    # every quadrature node can miss f's support and converge to a false 0
    upper = np.minimum(n_max + 1.0, _underflow_root(slope, q, betas))
    x_top = upper.max(initial=0.0).item()
    # the segment sums of int_0^u d^2 f may reach u d(u)^2, with f <= 1
    _check_weights_range(p, e0, excitation(p, x_top, m), betas, moments=repr(x_top),
                         reach=max(x_top, 1.0))
    # f decays fastest at x = 0, where adaptive bisection would otherwise
    # start: the first partition halves toward it five times
    breakpoints = upper[:, None] / np.array([32.0, 16.0, 8.0, 4.0, 2.0])

    def integrands(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # f, d f and d^2 f formed in place in their stack: a first round of six
        # segments per row holds the most nodes at once
        d = excitation(p, x, m)
        out = np.empty((3,) + d.shape)
        np.exp(np.multiply(-betas[rows, None], d, out=out[0]), out=out[0])
        np.multiply(d, out[0], out=out[1])
        np.multiply(d, out[1], out=out[2])
        return out

    # f, d f and d^2 f are nonnegative, so the relative tolerance alone is
    # meaningful at every scale; abs_tol must be positive, and a larger one
    # binds where the integrals are tiny (1e-300 did near 5e-301 at alpha =
    # 1e300, stopping them unrefined with C to 8 digits)
    quad = integrate(integrands, QuadratureSpec(0.0, upper, rel_tol=1e-11,
                                                abs_tol=math.ulp(0.0),
                                                breakpoints=breakpoints))
    f1 = np.exp(-betas * d1)
    m0 = 0.5 * (1.0 - f1) + quad.value[:, 0]
    m1 = -0.5 * d1 * f1 + quad.value[:, 1]
    # the boundary term d(X)^2 f(X)/2 is 0.0 where f(X) is: d(X)^2 may overflow there
    m2 = np.multiply(-0.5 * d1 * d1, f1, out=np.zeros_like(f1), where=f1 > 0.0)
    m2 += quad.value[:, 2]
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
    finite square, 0 <= N = truncation_n < 2**53 (N = 0 is the single-term
    edge case; from 2**53 the levels are not all doubles) and variant
    "corrected" or "verbatim" (DomainError otherwise); k > 0, a spectrum that
    is not increasing in n and whose truncated sum is arbitrary, is refused
    with NonPhysicalError. An empty grid then runs its strategy's own code,
    so it gives an empty series whose diagnostic columns are empty arrays of
    their dtypes, or the strategy's refusal of a spectrum that is not finite
    (the range checks read an empty grid's ends as inf and 0). The direct
    sum reduces the spectrum in blocks of beta rows, each row cut where what
    it drops moves none of its sums by 2^-64 of itself (_row_cuts; "n_terms"
    counts the levels with beta d <= 746, past which every weight underflows
    to 0.0); the closed form computes only the requested d_t variant, and
    refuses k = 0 with NonPhysicalError.
    """
    # an array is copied whole (fromiter walks it, at about 100 times the cost)
    betas = (np.array(betas, dtype=float) if isinstance(betas, np.ndarray) and betas.ndim == 1
             else np.fromiter(betas, dtype=float))
    bad = ~((betas > 0.0) & (betas <= _SQRT_MAX))
    if bad.any():
        raise DomainError(f"beta must be positive with a finite square, got {betas[bad][0]}")
    if not 0 <= truncation_n < 2**53:
        raise DomainError(f"truncation_n must be >= 0 and below 2**53, got {truncation_n}")
    if params.k > 0.0:
        raise NonPhysicalError(
            "k > 0 makes the spectrum non-increasing in n; the truncated "
            "sum is then arbitrary"
        )
    if variant not in ("corrected", "verbatim"):
        raise DomainError(f"variant must be 'corrected' or 'verbatim', got {variant!r}")
    if strategy is Strategy.DIRECT_SUM:
        return _direct_series(params, m, truncation_n, betas)
    if strategy is Strategy.PAPER_CLOSED_FORM:
        return _closed_form(params, m, truncation_n, betas, variant)
    return _poisson_series(params, m, truncation_n, betas)


@dataclass(frozen=True)
class PlateauResult:
    t_star: float
    value: float
    variation: float


# the plateau scan's lattice T_i = 0.5 2^(i/24), i = 0..318, read-only as
# every scan reads it
PLATEAU_TEMPERATURES = 0.5 * np.exp2(np.arange(319) / 24.0)
PLATEAU_TEMPERATURES.flags.writeable = False


def find_heat_capacity_plateau(params: SystemParams, m: int,
                               truncation_n: int) -> PlateauResult | None:
    """Smallest T* in [0.5, 2500] with C varying less than 1% over [T*, 2 T*].

    The 295 windows start at T_i = 0.5 2^(i/24), i = 0..294, and sample C at
    the lattice points T_{i+3j} = T_i 2^(j/8), j = 0..8: one direct sweep over
    the 319 PLATEAU_TEMPERATURES gives every C, and plateau_from_lattice
    scans the windows.
    """
    return plateau_from_lattice(sweep(params, m, truncation_n,
                                      1.0 / (params.kb * PLATEAU_TEMPERATURES)).c)


def plateau_from_lattice(c: np.ndarray) -> PlateauResult | None:
    """The first window of find_heat_capacity_plateau over which C varies
    less than 1%, from c, the C at each of the PLATEAU_TEMPERATURES: its
    start, mean C and relative variation (mean C 0 never qualifies), or None.
    """
    temps = PLATEAU_TEMPERATURES
    windows = np.arange(295)[:, None] + np.arange(0, 25, 3)  # window i samples T_{i+3j}
    cs = c[windows]
    mean_c = cs.mean(axis=1)
    variation = (cs.max(axis=1) - cs.min(axis=1)) / np.where(mean_c > 0.0, mean_c, np.nan)
    found = np.flatnonzero(variation < 0.01)
    if found.size == 0:
        return None
    i = found[0]
    return PlateauResult(t_star=float(temps[i]), value=float(mean_c[i]),
                         variation=float(variation[i]))
