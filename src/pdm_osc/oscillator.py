"""Two-dimensional nonlinear oscillator with position-dependent mass.

The mass profile is m(r) = lam / (1 + delta_sq r^2) with delta_sq = k * lam,
so the nonlinearity parameter k = delta_sq / lam controls how strongly the
spectrum deviates from the flat 2D harmonic ladder. Bound states exist for
k < 0, where the radial domain is [0, r_max) with r_max = 1/sqrt(-delta_sq).

Separating Psi(r, theta) = U(r) exp(-i m theta) reduces the eigenproblem to

    U'' + U'/r + [ 2 lam E / w  -  m^2 / (r^2 w)  -  alpha^2 lam^2 r^2 / w^2 ] U = 0,
    w = 1 + delta_sq r^2,

which maps onto the parametric hypergeometric form under z = -delta_sq r^2.
This module owns that mapping, the closed-form spectrum, the radial and total
wavefunctions, and direct substitution checks of the radial equation.

Radial inner product: the radial operator is self-adjoint with respect to the
mass-weighted measure r dr / (1 + delta_sq r^2), and eigenstates with equal m
are orthogonal only under that measure. Normalization and overlaps therefore
use it throughout (the flat polar measure r dr does not diagonalize the
spectrum; see RadialWavefunction.radial_weight). Under x = 1 - 2z that
measure is the Jacobi weight (1 - x)^|m| (1 + x)^s, so the norm is the
closed-form Jacobi norm (DLMF 18.3) and equal-m orthogonality is Jacobi
orthogonality; radial_overlaps re-integrates by quadrature as the
independent check. Bound states need k < 0 < lam; elsewhere the radial
solution grows and radial_wavefunction refuses with NonNormalizableError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nu
from .specfun import JacobiParams, QuadratureSpec, five_point_stencil, integrate, jacobi_p

__all__ = [
    "SystemParams",
    "QuantumState",
    "RadialWavefunction",
    "DomainError",
    "NonPhysicalError",
    "NonNormalizableError",
    "energy",
    "make_state",
    "mass",
    "nu_instance",
    "radial_wavefunction",
    "ode_residual",
    "total_wavefunction",
    "radial_overlap",
    "radial_overlaps",
    "solve_energy",
]

_TWO_PI = 2.0 * math.pi


class DomainError(ValueError):
    """Radial coordinate outside the admissible domain."""


class NonPhysicalError(ValueError):
    """Parameter set outside the physical regime (k < 0) without explicit opt-in."""


class NonNormalizableError(RuntimeError):
    """Parameters outside the bound regime k < 0 < lam: no square-integrable solution."""


@dataclass(frozen=True)
class SystemParams:
    """Physical parameters of the oscillator.

    alpha : oscillation frequency (energy units, hbar = 1), > 0
    k     : nonlinearity parameter; bound spectrum requires k < 0
    lam   : mass scale of m(r) = lam / (1 + delta_sq r^2); nonzero
    kb    : Boltzmann constant used by the thermodynamics layer

    delta_sq = k * lam is always derived, never stored, so k = delta_sq/lam
    holds exactly. Constructing with k >= 0 requires exploratory=True; no
    physical claims are attached to that regime.
    """

    alpha: float
    k: float
    lam: float = 1.0
    kb: float = 1.0
    exploratory: bool = False

    def __post_init__(self):
        for name in ("alpha", "k", "lam", "kb"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.lam == 0.0:
            raise ValueError("lam must be nonzero")
        if self.kb <= 0.0:
            raise ValueError(f"kb must be positive, got {self.kb}")
        if self.k >= 0.0 and not self.exploratory:
            raise NonPhysicalError(
                f"k={self.k} >= 0 is outside the bound-state regime; "
                "pass exploratory=True to evaluate formulas anyway"
            )

    @classmethod
    def from_delta(cls, alpha: float, lam: float, delta_sq: float, **kw) -> "SystemParams":
        """Construct from (alpha, lam, delta_sq); k is derived as delta_sq/lam."""
        return cls(alpha=alpha, k=delta_sq / lam, lam=lam, **kw)

    @property
    def delta_sq(self) -> float:
        return self.k * self.lam

    @property
    def r_max(self) -> float:
        """Upper end of the radial domain: finite only when delta_sq < 0."""
        d2 = self.delta_sq
        return 1.0 / math.sqrt(-d2) if d2 < 0.0 else math.inf


@dataclass(frozen=True)
class QuantumState:
    """Quantum numbers and the bound-state energy they label."""

    n_r: int
    m: int
    energy: float

    def __post_init__(self):
        if self.n_r < 0:
            raise ValueError(f"n_r must be nonnegative, got {self.n_r}")


def energy(params: SystemParams, n_r: float | np.ndarray,
           m: int) -> float | np.ndarray:
    """Closed-form bound-state energy E(n_r, m).

    E = (2 n_r + |m| + 1) sqrt(alpha^2 + k^2)
        - k [2 n_r^2 + m^2/2 + (2 n_r + 1)(|m| + 1)]

    Even in m exactly; strictly increasing in n_r for k < 0; reduces to the
    flat ladder (2 n_r + |m| + 1) alpha as k -> 0. This is the only copy of
    the spectrum formula: n_r may be a number, including the continuous
    argument of the summation formula, or an ndarray of them, which gives the
    whole spectrum as a vector.
    """
    if (n_r < 0).any() if isinstance(n_r, np.ndarray) else n_r < 0:
        raise ValueError(f"n_r must be nonnegative, got {n_r}")
    am = abs(m)
    alpha, k = params.alpha, params.k
    return (2.0 * n_r + am + 1.0) * math.hypot(alpha, k) - k * (
        2.0 * n_r * n_r + m * m / 2.0 + (2.0 * n_r + 1.0) * (am + 1.0)
    )


def make_state(params: SystemParams, n_r: int, m: int) -> QuantumState:
    """QuantumState with the energy filled in from the closed-form spectrum."""
    return QuantumState(n_r=n_r, m=m, energy=energy(params, n_r, m))


def mass(params: SystemParams, r: float) -> float:
    """Position-dependent mass lam / (1 + delta_sq r^2) on [0, r_max)."""
    if r < 0.0:
        raise DomainError(f"r must be nonnegative, got {r}")
    if r >= params.r_max:
        raise DomainError(f"r={r} is at or beyond r_max={params.r_max}")
    return params.lam / (1.0 + params.delta_sq * r * r)


def nu_instance(params: SystemParams, m: int, energy_value: float) -> nu.NUProblem:
    """Map the radial equation at trial energy E onto the parametric form.

    Under z = -delta_sq r^2 the equation becomes the a1 = a2 = a3 = 1 instance
    with eps1 = -mu, eps2 = gamma, eps3 = omega where

        mu    = E/(2k) - alpha^2/(4k^2)
        gamma = m^2/4  - E/(2k)
        omega = m^2/4

    (lam cancels: the spectrum depends on alpha and k only).
    """
    k = params.k
    if k == 0.0:
        raise ValueError("the parametric mapping needs delta_sq != 0, i.e. k != 0")
    alpha = params.alpha
    mu = energy_value / (2.0 * k) - alpha * alpha / (4.0 * k * k)
    gamma = m * m / 4.0 - energy_value / (2.0 * k)
    omega = m * m / 4.0
    return nu.NUProblem(a1=1.0, a2=1.0, a3=1.0, eps1=-mu, eps2=gamma, eps3=omega)


def _log(x: float | np.ndarray) -> float | np.ndarray:
    """Natural log of a number or, elementwise, of an ndarray; log 0 = -inf."""
    if isinstance(x, np.ndarray):
        with np.errstate(divide="ignore"):
            return np.log(x)
    return math.log(x) if x > 0.0 else -math.inf


def _shape_exponent(params: SystemParams) -> float:
    """sqrt(alpha^2 lam^2 / delta_sq^2 + 1) = sqrt(alpha^2/k^2 + 1)."""
    return math.sqrt(params.alpha**2 / params.k**2 + 1.0)


class RadialWavefunction:
    """Evaluable bound-state radial function U(r), unit-normalized.

    U(r) = C * |z|^(|m|/2) * (1 - z)^((1+s)/2) * P_n^(|m|, s)(1 - 2 z)

    with z = -delta_sq r^2 and s = sqrt(alpha^2/k^2 + 1). The exponents of
    the radial equation at z = 1 are (1 +- s)/2; (1 + s)/2 is the decaying
    one. C = exp(-log_norm / 2) normalizes U against the mass-weighted
    measure returned by radial_weight, where log_norm is the log of the
    closed-form Jacobi norm of the unnormalized U:

        N = prod_{j=1}^{|m|} (n+j)/(n+s+j) / ((2n+|m|+s+1) * 2|delta_sq|)

    summed as logs, since the product underflows at large |m| as k -> 0-.
    norm_integral = N itself, which may underflow to 0 there; C may then
    exceed the double range, so value() applies it inside the exponential
    of the envelope instead of as a factor.
    Build instances with radial_wavefunction, which checks the regime.
    """

    def __init__(self, params: SystemParams, state: QuantumState):
        self.params = params
        self.state = state
        self.domain_max = params.r_max
        self.jacobi = JacobiParams(
            a=float(abs(state.m)), b=_shape_exponent(params), n=state.n_r
        )
        n, am, s = state.n_r, abs(state.m), self.jacobi.b
        self.log_norm = math.fsum(
            math.log((n + j) / (n + s + j)) for j in range(1, am + 1)
        ) - math.log((2.0 * n + am + s + 1.0) * 2.0 * abs(params.delta_sq))
        self.norm_integral = math.exp(self.log_norm)

    def unnormalized(self, r: float | np.ndarray,
                     log_scale: float = 0.0) -> float | np.ndarray:
        """exp(log_scale) U(r) / C at a number r or elementwise over an
        ndarray of them. exp(log_scale) and the envelope
        z^(|m|/2) (1 - z)^((1+s)/2) are taken as one exponential, so a
        scale beyond the double range still gives every representable value.
        """
        array = isinstance(r, np.ndarray)
        lo, hi = (r.min(), r.max()) if array else (r, r)
        if lo < 0.0 or hi >= self.domain_max:
            raise DomainError(f"r={r} outside [0, {self.domain_max})")
        # numpy for arrays; math for numbers, where it is several times faster
        xp = np if array else math
        z = -self.params.delta_sq * r * r
        am = abs(self.state.m)
        log_envelope = 0.5 * (1.0 + self.jacobi.b) * xp.log1p(-z) + log_scale
        if am:
            log_envelope = log_envelope + 0.5 * am * _log(z)
        return xp.exp(log_envelope) * jacobi_p(self.jacobi, 1.0 - 2.0 * z)

    def value(self, r: float | np.ndarray) -> float | np.ndarray:
        return self.unnormalized(r, -0.5 * self.log_norm)

    __call__ = value

    def radial_weight(self, r: float) -> float:
        """Measure density w(r) = r / (1 + delta_sq r^2) of the radial inner product."""
        return r / (1.0 + self.params.delta_sq * r * r)


def _fd_residual(u, params: SystemParams, m: int, energy_value: float,
                 r: float | np.ndarray) -> float | np.ndarray:
    """Relative residual of the radial equation for an arbitrary evaluator u,
    at a number r or elementwise over an ndarray of them (u then takes
    arrays too)."""
    lam, alpha, d2 = params.lam, params.alpha, params.delta_sq
    array = isinstance(r, np.ndarray)
    w = 1.0 + d2 * r * r
    coef = (
        2.0 * lam * energy_value / w
        - m * m / (r * r * w)
        - alpha * alpha * lam * lam * r * r / (w * w)
    )
    scale = (
        abs(2.0 * lam * energy_value / w)
        + abs(m * m / (r * r * w))
        + alpha * alpha * lam * lam * r * r / (w * w)
    )
    # numpy for arrays; math and builtins for numbers, as in unnormalized().
    # The step balances 4th-order truncation against roundoff of the second
    # difference; tuned on the fixture states (worst case ~2e-9)
    if array:
        h = np.minimum(0.008 / np.sqrt(scale), np.minimum(r, params.r_max - r) / 2.5)
    else:
        h = min(0.008 / math.sqrt(scale), min(r, params.r_max - r) / 2.5)
    samples, d1, dd = five_point_stencil(u, r, h)
    magnitudes = [abs(sample) for sample in samples]
    local = (np.maximum(np.max(magnitudes, axis=0), 1e-30) if array
             else max(*magnitudes, 1e-30))
    return (dd + d1 / r + coef * samples[2]) / (scale * local)


def radial_wavefunction(params: SystemParams, state: QuantumState) -> RadialWavefunction:
    """Build the normalized radial eigenfunction for the given state.

    Raises NonNormalizableError outside the bound regime k < 0 < lam (where
    delta_sq >= 0, the domain is unbounded and the solution grows), and
    ValueError when state.energy is not the spectrum value.
    """
    if not params.k < 0.0 < params.lam:
        raise NonNormalizableError(
            f"k={params.k}, lam={params.lam}: bound states need k < 0 < lam; "
            "the radial solution is not square-integrable here"
        )
    expected = energy(params, state.n_r, state.m)
    if not math.isclose(state.energy, expected, rel_tol=1e-9, abs_tol=1e-9):
        raise ValueError(
            f"state energy {state.energy} is not the spectrum value {expected} "
            f"for (n_r={state.n_r}, m={state.m})"
        )
    return RadialWavefunction(params, state)


def ode_residual(params: SystemParams, state: QuantumState, r: float | np.ndarray,
                 energy_override: float | None = None) -> float | np.ndarray:
    """Relative residual of the radial equation at r, by 4th-order differences.

    r is a number or an ndarray of them, each in (0, r_max); an array gives
    the residual at each of its points from one wavefunction build and five
    array evaluations. The residual is normalized by the local coefficient
    scale times the largest |U| on the stencil, so eigenstates sit at
    roundoff level (~1e-11) while an energy shifted by 0.05 is visible at the
    1e-3 level. energy_override replaces E in the equation only; U stays the
    eigenstate.
    """
    lo, hi = (r.min(), r.max()) if isinstance(r, np.ndarray) else (r, r)
    if not 0.0 < lo <= hi < params.r_max:
        raise DomainError(f"r={r} outside the open interval (0, {params.r_max})")
    wf = radial_wavefunction(params, state)
    e = state.energy if energy_override is None else energy_override
    return _fd_residual(wf.value, params, state.m, e, r)


def total_wavefunction(params: SystemParams, state: QuantumState,
                       r: float, theta: float) -> complex:
    """Psi(r, theta) = U(r) exp(-i m theta) / sqrt(2 pi), unit-normalized in 2D."""
    wf = radial_wavefunction(params, state)
    return wf.value(r) / math.sqrt(_TWO_PI) * complex(
        math.cos(state.m * theta), -math.sin(state.m * theta)
    )


def _turning_radius(params: SystemParams, state: QuantumState) -> float:
    """Outer classical turning radius: the largest r at which the bracket of
    the radial equation vanishes. With u = r^2 and w = 1 + delta_sq u that
    is the larger root of (2 lam E delta_sq - alpha^2 lam^2) u^2
    + (2 lam E - m^2 delta_sq) u - m^2 = 0."""
    lam, d2, e, m2 = params.lam, params.delta_sq, state.energy, state.m * state.m
    a = 2.0 * lam * e * d2 - (params.alpha * lam) ** 2
    b = 2.0 * lam * e - m2 * d2
    return math.sqrt((b + math.sqrt(max(b * b + 4.0 * a * m2, 0.0))) / (-2.0 * a))


def radial_overlaps(params: SystemParams, triples) -> np.ndarray:
    """Inner products of pairs of normalized radial states at fixed m, by
    quadrature: one value for each (m, n1, n2) of triples.

    Uses the mass-weighted measure; equals 1 for n1 == n2 and vanishes for
    n1 != n2 up to quadrature error. This is the independent check of the
    closed-form norm. Each distinct state is built once, and the integrand
    evaluates it once per quadrature round on the nodes of every row that
    uses it. Rows with the same number of breakpoints share one batched
    integrate() call, whose rows are integrated as if alone, so each value
    is the one a single-row call gives. Raises NonNormalizableError outside
    k < 0 < lam.
    """
    triples = list(triples)
    index: dict[tuple[int, int], int] = {}  # (n, m) -> position in wfs
    wfs = []
    for m, n1, n2 in triples:
        for n in (n1, n2):
            if (n, m) not in index:
                index[(n, m)] = len(wfs)
                wfs.append(radial_wavefunction(params, make_state(params, n, m)))
    pairs = np.array([(index[(n1, m)], index[(n2, m)]) for m, n1, n2 in triples],
                     dtype=int).reshape(-1, 2)
    turning = [_turning_radius(params, wf.state) for wf in wfs]
    # the integrand vanishes like (1 - z)^s at the endpoint, so the inset
    # truncates less than 1e-20 of the mass
    upper = params.r_max * (1.0 - 1e-10)
    # as k -> 0- the states fill a sliver of [0, r_max) that every node of
    # one panel can miss, which converges to a false 0; breakpoints at the
    # outer turning radius r_t and at r_t 2^j beyond it put nodes where the
    # states live and along their decaying tails
    cuts = []
    for i, j in pairs.tolist():
        row, r = [], max(turning[i], turning[j])
        while r < upper:
            row.append(r)
            r *= 2.0
        cuts.append(row)
    d2 = params.delta_sq
    values = np.empty(len(triples))
    for count in sorted({len(row) for row in cuts}):
        group = np.array([t for t, row in enumerate(cuts) if len(row) == count])

        def integrand(r: np.ndarray, rows: np.ndarray, pairs=pairs[group]) -> np.ndarray:
            # each state once, on the nodes of all the rows that use it
            first, second = pairs[rows].T
            u1, u2 = np.empty_like(r), np.empty_like(r)
            for s in set(first.tolist()) | set(second.tolist()):
                in1, in2 = first == s, second == s
                u = np.empty_like(r)
                u[in1 | in2] = wfs[s].value(r[in1 | in2])
                u1[in1], u2[in2] = u[in1], u[in2]
            return u1 * u2 * r / (1.0 + d2 * r * r)

        spec = QuadratureSpec(np.zeros(group.size), np.full(group.size, upper),
                              rel_tol=1e-10, abs_tol=1e-13,
                              breakpoints=np.reshape([cuts[t] for t in group], (group.size, count)))
        values[group] = integrate(integrand, spec).value
    return values


def radial_overlap(params: SystemParams, m: int, n1: int, n2: int) -> float:
    """Inner product of two normalized radial states at fixed m, by
    quadrature: radial_overlaps() of the one triple (m, n1, n2)."""
    return radial_overlaps(params, [(m, n1, n2)])[0].item()


def solve_energy(params: SystemParams, m: int, n_r: int,
                 e_lo: float, e_hi: float) -> list[float]:
    """Independent eigenvalue oracle: roots of the quantization residual in E.

    Scans [e_lo, e_hi] with step 0.1 sqrt(alpha^2 + k^2) and bisects each
    bracketed sign change. Does not use the closed-form spectrum.
    """
    step = 0.1 * math.hypot(params.alpha, params.k)

    def residual(e: float) -> float:
        coeffs = nu.derive_coefficients(nu_instance(params, m, e))
        return nu.quantization_residual(coeffs, n_r)

    return nu.find_roots_by_scan(residual, e_lo, e_hi, step)
