"""Canonical-ensemble engine for the truncated bound-state spectrum.

The partition function Z = sum_{n=0}^{N} exp(-beta E_{n,m}) at fixed magnetic
quantum number m is evaluated by three strategies:

DIRECT_SUM        log-domain accumulation of the truncated sum; this is the
                  reference oracle for everything else.
PAPER_CLOSED_FORM closed-form first-order Poisson/Euler-Maclaurin expression
                  built from the coefficients (a_t, b_t, c_t, d_t) and the
                  erf-based integral term Omega.
POISSON_PIPELINE  the same first-order summation formula
                  sum f(n) ~ [f(0) - f(N+1)]/2 + int_0^{N+1} f(x) dx
                  with the integral done by adaptive quadrature instead of
                  the erf algebra; an independent re-derivation that
                  triangulates the closed form.

The closed form inherits the truncation error of the first-order summation
formula, roughly |f'(0)|/12 relative to Z, which grows with beta; agreement
with the direct sum is a high-temperature statement. compare_strategies
quantifies the discrepancy on any beta grid.

sweep evaluates one (params, m, N, strategy) series on a whole beta grid: the
direct sum builds the spectrum once and reduces it over blocks of beta rows.
evaluate() and the single-quantity functions run the same code on a
one-point grid, so they agree with sweep value for value.

The d_t coefficient is evaluated in two variants: "corrected" uses
sqrt(k^2 + alpha^2) - k m^2/2, which reproduces exp(-beta E_0) in the
boundary term exactly, while "verbatim" keeps the mass-scale combination
sqrt(lam^2 + alpha^2) - lam m^2/2. Both appear in the diagnostics of
partition_paper() and evaluate() and are never silently swapped; the
corrected variant is the primary value. The same applies to the first
exponential of the average energy numerator Lambda and of the heat-capacity
numerator, where the self-consistent combination uses (a_t - d_t); the
(a_t - b_t) pairing is kept in the diagnostics of evaluate() under
*_display keys.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Iterable

import numpy as np

from .oscillator import NonPhysicalError, SystemParams, energy
from .specfun import QuadratureSpec, erfcx, five_point_stencil, integrate

__all__ = [
    "Strategy",
    "ThermoInput",
    "PaperZCoefficients",
    "ThermoResult",
    "StrategyComparison",
    "PlateauResult",
    "levels",
    "partition_direct",
    "paper_z_coefficients",
    "partition_paper",
    "partition_poisson_independent",
    "average_energy",
    "heat_capacity",
    "free_energy",
    "entropy",
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


@dataclass(frozen=True)
class ThermoInput:
    """One evaluation point of the canonical ensemble.

    beta is the inverse temperature 1/(kb T); truncation_n is the upper bound
    N of the state sum. A truncated sum over a spectrum that is not increasing
    in n (k > 0) must be opted into with accept_truncation.
    """

    params: SystemParams
    m: int
    beta: float
    truncation_n: int = 500
    strategy: Strategy = Strategy.DIRECT_SUM
    accept_truncation: bool = False

    def __post_init__(self):
        if not self.beta > 0.0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        # N = 0 is the admissible single-term edge case
        if self.truncation_n < 0:
            raise ValueError(f"truncation_n must be >= 0, got {self.truncation_n}")
        if self.params.k > 0.0 and not self.accept_truncation:
            raise NonPhysicalError(
                "k > 0 makes the spectrum non-increasing in n; the truncated "
                "sum is then arbitrary. Pass accept_truncation=True to proceed."
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
    omega: float
    eta: float
    theta_v: float
    variant: str


@dataclass
class ThermoResult:
    """Thermodynamic quantities at one evaluation point.

    Z is the partition function; U, C, F, S are filled by evaluate() and
    sweep() or left None by the partition-only entry points. C and S are in units of kb.
    """

    z: float
    log_z: float
    u: float | None = None
    c: float | None = None
    f: float | None = None
    s: float | None = None
    diagnostics: dict = field(default_factory=dict)


# the direct sum reduces its (beta x level) weight array in blocks of at most
# this many elements, so its memory stays flat in the grid length and in N
_BLOCK_ELEMENTS = 2**16


def levels(inp: ThermoInput) -> np.ndarray:
    """Spectrum E_{0..N} at fixed m as a vector."""
    return energy(inp.params, np.arange(inp.truncation_n + 1, dtype=float), inp.m)


def _boltzmann_sums(e: np.ndarray, betas: np.ndarray) -> tuple[float, np.ndarray]:
    """Ground-state-shifted Boltzmann sums of the spectrum e at each beta.

    With w = exp(-beta (e - e0)), returns e0 and a (5, len(betas)) array whose
    rows are sum w, the mean <e>, the variance <(e - <e>)^2>, the shifted mean
    <e - e0> and the tail ratio w_N / sum w. The ground-state shift keeps any
    beta up to 1e3 and beyond safe; the two-pass variance keeps C >= 0 by
    construction.
    """
    e0 = float(e.min())
    shifted = e - e0
    out = np.empty((5, betas.size))
    rows = max(1, _BLOCK_ELEMENTS // e.size)
    for lo in range(0, betas.size, rows):
        w = np.exp(-betas[lo:lo + rows, None] * shifted)
        sw = w.sum(axis=1)
        mean = (e * w).sum(axis=1) / sw
        block = out[:, lo:lo + rows]
        block[0] = sw
        block[1] = mean
        block[2] = ((e - mean[:, None]) ** 2 * w).sum(axis=1) / sw
        block[3] = (shifted * w).sum(axis=1) / sw
        block[4] = w[:, -1] / sw
    return e0, out


def _direct_series(inputs: list[ThermoInput]) -> list[ThermoResult]:
    """Direct-sum results for inputs that differ only in beta."""
    first = inputs[0]
    kb = first.params.kb
    betas = np.array([inp.beta for inp in inputs], dtype=float)
    e0, sums = _boltzmann_sums(levels(first), betas)
    results = []
    for inp, (sw, mean, var, shifted_mean, tail) in zip(inputs, sums.T.tolist()):
        beta = inp.beta
        log_z = -beta * e0 + math.log(sw)
        results.append(ThermoResult(
            z=math.exp(log_z) if log_z < 700.0 else math.inf,
            log_z=log_z,
            u=mean,
            c=kb * beta**2 * var,
            f=-log_z / beta,
            s=kb * (math.log(sw) + beta * shifted_mean),
            diagnostics={
                "strategy": Strategy.DIRECT_SUM.value,
                "n_terms": first.truncation_n + 1,
                "tail_ratio": tail,
            },
        ))
    return results


def partition_direct(inp: ThermoInput) -> ThermoResult:
    """Truncated state sum, accumulated in the log domain."""
    res = _direct_series([inp])[0]
    return ThermoResult(z=res.z, log_z=res.log_z, diagnostics=res.diagnostics)


def paper_z_coefficients(inp: ThermoInput, variant: str = "corrected") -> PaperZCoefficients:
    """Closed-form coefficients a_t, b_t, c_t, d_t, Omega, eta, theta_v.

    variant selects the d_t reading: "corrected" uses sqrt(k^2+alpha^2) and
    -k m^2/2 (exactly reproducing exp(-beta E_0) in the boundary term);
    "verbatim" keeps the mass-scale lam in both places.
    """
    p, m, n_max, beta = inp.params, inp.m, inp.truncation_n, inp.beta
    k, alpha = p.k, p.alpha
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
        d_t = am * math.hypot(p.lam, alpha) - p.lam * m * m / 2.0
    else:
        raise ValueError(f"variant must be 'corrected' or 'verbatim', got {variant!r}")
    eta = -beta * a_t * a_t / (2.0 * k)
    theta_v = -beta * b_t * b_t / (2.0 * k)
    omega = _omega_term(alpha, k, beta, a_t, b_t, eta, theta_v)
    return PaperZCoefficients(a_t=a_t, b_t=b_t, c_t=c_t, d_t=d_t,
                              omega=omega, eta=eta, theta_v=theta_v, variant=variant)


def _omega_term(alpha: float, k: float, beta: float,
                a_t: float, b_t: float, eta: float, theta_v: float) -> float:
    """Integral term of the closed form:

        Omega = (1/2k) sqrt(pi/2) exp(-alpha^2 beta / 2k)
                [ a_t erf(sqrt(eta)) / sqrt(2 eta) + b_t erf(sqrt(theta)) / sqrt(2 theta) ]

    For k < 0 always a_t < 0 < b_t, so a_t/sqrt(2 eta) = -b_t/sqrt(2 theta)
    = -sqrt(-k/beta) exactly and the bracket reduces to the erf difference.
    At low temperature both erf factors saturate at 1 while the leading
    exponential explodes; evaluating through the scaled complement
    exp(x^2) erfc(x) with combined exponents keeps every factor finite and
    cancellation-free. Algebraically identical to the display above.
    """
    root = math.sqrt(-k / beta)
    # exp(-alpha^2 beta/2k) erfc(sqrt(eta))
    #   = exp(beta (a_t^2 - alpha^2)/2k) erfcx(sqrt(eta)), exponent <= 0
    grown_a = math.exp(beta * (a_t * a_t - alpha * alpha) / (2.0 * k)) * erfcx(math.sqrt(eta))
    grown_b = math.exp(beta * (b_t * b_t - alpha * alpha) / (2.0 * k)) * erfcx(math.sqrt(theta_v))
    return 0.5 / k * math.sqrt(math.pi / 2.0) * root * (grown_a - grown_b)


def _safe_exp(x: float) -> float:
    """exp that saturates to inf instead of raising; x is data-dependent and
    the verbatim d_t variant can push a_t - d_t positive for large |m|."""
    return math.exp(x) if x < 709.0 else math.inf


def _closed_form_z(co: PaperZCoefficients, beta: float) -> float:
    return 0.5 * (_safe_exp(beta * (co.a_t - co.d_t)) - math.exp(-beta * co.c_t)) - co.omega


def partition_paper(inp: ThermoInput) -> ThermoResult:
    """Closed-form Z in both d_t variants; the corrected one is primary.

    A nonpositive closed-form value in a regime where the direct sum is
    positive is recorded as a diagnostic, never raised.
    """
    z_by_variant = {}
    for variant in ("corrected", "verbatim"):
        co = paper_z_coefficients(inp, variant)
        z_by_variant[variant] = _closed_form_z(co, inp.beta)
    z = z_by_variant["corrected"]
    diag = {
        "strategy": Strategy.PAPER_CLOSED_FORM.value,
        "z_corrected": z_by_variant["corrected"],
        "z_verbatim": z_by_variant["verbatim"],
    }
    nonpositive = [v for v, zz in z_by_variant.items() if zz <= 0.0]
    if nonpositive:
        diag["nonpositive_z"] = nonpositive
    log_z = math.log(z) if z > 0.0 else math.nan
    return ThermoResult(z=z, log_z=log_z, diagnostics=diag)


def _poisson_z(inp: ThermoInput, rel_tol: float = 1e-11):
    p, m, n_max, beta = inp.params, inp.m, inp.truncation_n, inp.beta
    e0 = energy(p, 0.0, m)
    f = lambda x: math.exp(-beta * (energy(p, x, m) - e0))  # rescaled to avoid underflow
    spec = QuadratureSpec(0.0, n_max + 1.0, rel_tol=rel_tol, abs_tol=1e-300)
    result = integrate(f, spec)
    scaled = 0.5 * (f(0.0) - f(n_max + 1.0)) + result.value
    return -beta * e0 + math.log(scaled), result


def partition_poisson_independent(inp: ThermoInput) -> ThermoResult:
    """First-order summation formula with the integral done by quadrature.

    Shares no algebra with the closed form beyond the spectrum itself, so
    agreement between the two validates the erf manipulations; disagreement
    with the direct sum measures the summation formula's own truncation error.
    """
    log_z, quad = _poisson_z(inp)
    return ThermoResult(
        z=math.exp(log_z),
        log_z=log_z,
        diagnostics={
            "strategy": Strategy.POISSON_PIPELINE.value,
            "quadrature_refinements": quad.refinements,
            "quadrature_error_bound": quad.error_bound,
        },
    )


def _square(x: float) -> float:
    """x**2 that saturates to inf instead of raising."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def _paper_machinery(inp: ThermoInput, variant: str = "corrected",
                     display: bool = False) -> dict:
    """All closed-form quantities for one variant; display adds the
    display-form composites lambda_display and c_display."""
    co = paper_z_coefficients(inp, variant)
    beta, k, alpha, kb = inp.beta, inp.params.k, inp.params.alpha, inp.params.kb
    a_t, b_t, c_t, d_t, om = co.a_t, co.b_t, co.c_t, co.d_t, co.omega
    exp_ad = _safe_exp(beta * (a_t - d_t))
    exp_c = math.exp(-beta * c_t)
    two_z = exp_ad - exp_c - 2.0 * om
    z = 0.5 * two_z
    if two_z == 0.0:
        # Z underflowed the double range (beta E_0 beyond ~700); every derived
        # quantity is undefined at this precision
        nan = math.nan
        return {
            "coefficients": co, "z": 0.0, "log_z": -math.inf,
            "u": nan, "c": nan, "s": nan, "f": math.inf,
            "lambda": nan, "lambda_display": nan, "epsilon": nan,
            "gauss_varsigma": nan, "c_display": nan, "underflow": True,
        }
    # exp(-alpha^2 beta/2k) exp(y^2 beta/2k) combined into one decaying
    # exponential so neither factor can overflow at large beta
    grown_a = math.exp(beta * (a_t * a_t - alpha * alpha) / (2.0 * k))
    grown_b = math.exp(beta * (b_t * b_t - alpha * alpha) / (2.0 * k))
    gauss_boundary = a_t * grown_a + b_t * grown_b
    lam_num = (
        (a_t - d_t) * exp_ad + c_t * exp_c
        + (alpha * alpha * beta + k) * om / (k * beta)
        - gauss_boundary / (2.0 * k * beta)
    )
    u = -lam_num / two_z
    gauss_varsigma = (
        a_t * grown_a * (a_t * a_t * beta - 2.0 * alpha * alpha * beta - 3.0 * k)
        + b_t * grown_b * (b_t * b_t * beta - 2.0 * alpha * alpha * beta - 3.0 * k)
    )
    eps = (
        -(alpha**4 * beta**2 + 2.0 * alpha * alpha * beta * k + 3.0 * k * k)
        * om / (2.0 * k * k * beta * beta)
        - gauss_varsigma / (4.0 * k * k * beta * beta)
    )
    x_num = (a_t - d_t) ** 2 * exp_ad - c_t * c_t * exp_c
    c_heat = kb * beta * beta * ((x_num + eps) / two_z - (lam_num / two_z) ** 2)
    log_z = math.log(z) if z > 0.0 else math.nan
    s = kb * (log_z + beta * u) if z > 0.0 else math.nan
    f = -log_z / beta if z > 0.0 else math.nan
    mach = {
        "coefficients": co,
        "z": z,
        "log_z": log_z,
        "u": u,
        "c": c_heat,
        "s": s,
        "f": f,
        "lambda": lam_num,
        "epsilon": eps,
        "gauss_varsigma": gauss_varsigma,
    }
    if display:
        # alternative composition pairing a_t with b_t in the first
        # exponential; inconsistent with -d ln Z / d beta and a diagnostic
        # only, so an overflow in it saturates instead of raising
        lam_display = (
            (a_t - b_t) * math.exp(beta * (a_t - b_t)) + c_t * exp_c
            + (alpha * alpha * beta + k) * om / (k * beta)
            - gauss_boundary / (2.0 * k * beta)
        )
        mach["lambda_display"] = lam_display
        mach["c_display"] = 0.5 * kb * beta * beta * (
            (_square(a_t - b_t) * math.exp(beta * (a_t - b_t)) - c_t * c_t * exp_c - eps)
            / two_z
            - 2.0 * _square(lam_display / two_z)
        )
    return mach


def _paper_result(inp: ThermoInput, variant: str, display: bool) -> ThermoResult:
    mach = _paper_machinery(inp, variant, display)
    res = ThermoResult(
        z=mach["z"], log_z=mach["log_z"],
        u=mach["u"], c=mach["c"], f=mach["f"], s=mach["s"],
        diagnostics={
            "strategy": Strategy.PAPER_CLOSED_FORM.value,
            "variant": variant,
            f"z_{variant}": mach["z"],
        },
    )
    if display:
        res.diagnostics["lambda_display"] = mach["lambda_display"]
        res.diagnostics["c_display"] = mach["c_display"]
    if mach["z"] <= 0.0:
        res.diagnostics["nonpositive_z"] = True
    return res


def _poisson_result(inp: ThermoInput) -> ThermoResult:
    """ln Z and its first two beta-derivatives from the five quadratures of
    a 4th-order central stencil with the relative step 1e-3 beta."""
    kb, beta = inp.params.kb, inp.beta
    quadratures = []

    def log_z_at(b: float) -> float:
        value, quad = _poisson_z(replace(inp, beta=b))
        quadratures.append(quad)
        return value

    samples, d1, d2 = five_point_stencil(log_z_at, beta, 1e-3 * beta)
    log_z, u = samples[2], -d1
    return ThermoResult(
        z=math.exp(log_z), log_z=log_z,
        u=u, c=kb * beta**2 * d2, f=-log_z / beta, s=kb * (log_z + beta * u),
        diagnostics={
            "strategy": Strategy.POISSON_PIPELINE.value,
            "quadrature_refinements": quadratures[2].refinements,
            "beta_step": 1e-3 * beta,
        },
    )


def _series(inputs: list[ThermoInput], variant: str,
            display: bool = False) -> list[ThermoResult]:
    """Results for inputs that differ only in beta, under their strategy."""
    if not inputs:
        return []
    strategy = inputs[0].strategy
    if strategy is Strategy.DIRECT_SUM:
        results = _direct_series(inputs)
    elif strategy is Strategy.PAPER_CLOSED_FORM:
        results = [_paper_result(inp, variant, display) for inp in inputs]
    else:
        results = [_poisson_result(inp) for inp in inputs]
    for res in results:
        if math.isnan(res.s) or res.s < 0.0:
            res.diagnostics["negative_entropy"] = res.s
    return results


def _point(inp: ThermoInput) -> ThermoResult:
    return _series([inp], "corrected")[0]


def average_energy(inp: ThermoInput) -> float:
    """Mean energy -d(ln Z)/d(beta) under the selected strategy."""
    return _point(inp).u


def heat_capacity(inp: ThermoInput) -> float:
    """Heat capacity in units of kb.

    DIRECT_SUM uses the fluctuation form kb beta^2 (<E^2> - <E>^2), which is
    nonnegative by construction; the closed form uses its epsilon/varsigma
    blocks; the quadrature pipeline differentiates ln Z numerically.
    """
    return _point(inp).c


def free_energy(inp: ThermoInput) -> float:
    """Helmholtz free energy -ln(Z)/beta."""
    return _point(inp).f


def entropy(inp: ThermoInput) -> float:
    """Entropy kb (ln Z + beta U) in units of kb.

    For the direct sum this is computed entirely from ground-state-shifted
    quantities, so it is nonnegative and monotone down to arbitrarily low
    temperature. Approximate strategies can go negative at low temperature
    (the closed form tends to kb ln(1/2)); callers see that via diagnostics
    of evaluate(), the value itself is reported unmodified.
    """
    return _point(inp).s


def sweep(params: SystemParams, m: int, truncation_n: int, betas: Iterable[float],
          strategy: Strategy = Strategy.DIRECT_SUM,
          variant: str = "corrected") -> list[ThermoResult]:
    """Z, U, C, F and S at every beta of a grid, one ThermoResult per beta.

    Each value equals evaluate() at that beta. The direct sum builds the
    spectrum once and reduces it in blocks of beta rows; the closed form
    computes only the requested d_t variant, without the other variant and
    the display-form composites that evaluate() adds to its diagnostics.
    """
    inputs = [ThermoInput(params=params, m=m, beta=beta, truncation_n=truncation_n,
                          strategy=strategy) for beta in betas]
    return _series(inputs, variant)


def evaluate(inp: ThermoInput, variant: str = "corrected") -> ThermoResult:
    """All five quantities (Z, U, C, F, S) under the selected strategy.

    variant selects the d_t reading for the closed-form strategy; the other
    strategies ignore it. The closed-form diagnostics carry both variants'
    partition functions, the other variant's U and the display-form
    composites lambda_display and c_display; an overflow in those records
    inf or nan and never costs the primary values.
    """
    res = _series([inp], variant, display=True)[0]
    if inp.strategy is Strategy.PAPER_CLOSED_FORM:
        other_name = "verbatim" if variant == "corrected" else "corrected"
        other = _paper_machinery(inp, other_name)
        res.diagnostics[f"z_{other_name}"] = other["z"]
        res.diagnostics[f"u_{other_name}"] = other["u"]
        if other["z"] <= 0.0:
            res.diagnostics["nonpositive_z"] = True
    return res


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
    rows = []
    for beta in betas:
        inp = ThermoInput(params=params, m=m, beta=beta, truncation_n=truncation_n)
        zd = partition_direct(inp).z
        zp = partition_poisson_independent(inp).z
        paper = partition_paper(inp)
        zc = paper.diagnostics["z_corrected"]
        zv = paper.diagnostics["z_verbatim"]
        rows.append({
            "beta": beta,
            "z_direct": zd,
            "z_poisson": zp,
            "z_corrected": zc,
            "z_verbatim": zv,
            "rel_poisson": abs(zp - zd) / zd,
            "rel_corrected": abs(zc - zd) / zd,
            "rel_verbatim": abs(zv - zd) / zd,
        })
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
    for t_star in np.geomspace(t_lo, t_hi / 2.0, candidates):
        ts = np.geomspace(t_star, 2.0 * t_star, samples)
        betas = 1.0 / (params.kb * ts)
        _, (_, _, var, _, _) = _boltzmann_sums(e, betas)
        cs = params.kb * betas * betas * var
        mean_c = float(cs.mean())
        variation = float((cs.max() - cs.min()) / mean_c)
        if variation < rel_window:
            return PlateauResult(t_star=float(t_star), value=mean_c, variation=variation)
    return None

