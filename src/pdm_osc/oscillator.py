"""Two-dimensional nonlinear oscillator with position-dependent mass.

The mass profile is m(r) = lam / (1 + delta_sq r^2) with delta_sq = k * lam,
so the nonlinearity parameter k = delta_sq / lam controls how strongly the
spectrum deviates from the flat 2D harmonic ladder. Bound states exist for
k < 0, where the radial domain is [0, r_max) with r_max = 1/sqrt(-delta_sq).

Separating Psi(r, theta) = U(r) exp(-i m theta) reduces the eigenproblem to

    U'' + U'/r + [ 2 lam E / w  -  m^2 / (r^2 w)  -  alpha^2 lam^2 r^2 / w^2 ] U = 0,
    w = 1 + delta_sq r^2,

which maps onto the parametric hypergeometric form under z = -delta_sq r^2.
This module owns that mapping, the closed-form spectrum, the radial
wavefunctions, and direct substitution checks of the radial equation.

Radial inner product: the radial operator is self-adjoint with respect to the
mass-weighted measure r dr / (1 + delta_sq r^2), and eigenstates with equal m
are orthogonal only under that measure. Normalization and overlaps therefore
use it throughout (the flat polar measure r dr does not diagonalize the
spectrum). Under x = 1 - 2z that measure is the Jacobi weight
(1 - x)^|m| (1 + x)^s, so the norm is the closed-form Jacobi norm
(DLMF 18.3) and equal-m orthogonality is Jacobi orthogonality;
radial_overlaps re-integrates by quadrature as the independent check.
Bound states need k < 0 < lam; elsewhere the radial solution grows and
radial_wavefunction refuses with NonNormalizableError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nu
from .specfun import QuadratureSpec, five_point_stencil, integrate, jacobi_family

__all__ = [
    "SystemParams",
    "QuantumState",
    "RadialFamily",
    "RadialWavefunction",
    "DomainError",
    "NonPhysicalError",
    "NonNormalizableError",
    "energy",
    "excitation",
    "spectrum_terms",
    "make_state",
    "nu_instance",
    "radial_wavefunction",
    "ode_residual",
    "radial_overlaps",
    "solve_energy",
]


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


def spectrum_terms(params: SystemParams, m: int) -> tuple[float, float, float]:
    """E_0, D = E'(0) and q = -2k of the spectrum E(x) = E_0 + x (D + q x) at
    m; for k <= 0 no term of D or q cancels."""
    am, hyp, k = abs(m), math.hypot(params.alpha, params.k), params.k
    return ((am + 1.0) * hyp - k * (m * m / 2.0 + (am + 1.0)), 2.0 * (hyp - k * (am + 1.0)),
            -2.0 * k)


def excitation(params: SystemParams, n_r: float | np.ndarray,
               m: int) -> float | np.ndarray:
    """d(n_r) = E(n_r, m) - E_0 = n_r (D + q n_r), the only copy of the spectrum
    formula, at a number n_r (the summation formula's x too) or an ndarray of
    them. For k <= 0 no term cancels: d keeps its precision where E_0 dwarfs it."""
    if np.asarray(n_r).min(initial=0.0) < 0.0:  # initial: an empty array passes
        raise ValueError(f"n_r must be nonnegative, got {n_r}")
    _, slope, q = spectrum_terms(params, m)
    return n_r * (slope + q * n_r)


def energy(params: SystemParams, n_r: float | np.ndarray,
           m: int) -> float | np.ndarray:
    """Closed-form bound-state energy E(n_r, m) = E_0 + d(n_r), that is

    E = (2 n_r + |m| + 1) sqrt(alpha^2 + k^2)
        - k [2 n_r^2 + m^2/2 + (2 n_r + 1)(|m| + 1)]

    Even in m exactly; strictly increasing in n_r for k < 0; reduces to the
    flat ladder (2 n_r + |m| + 1) alpha as k -> 0.
    """
    return spectrum_terms(params, m)[0] + excitation(params, n_r, m)


def make_state(params: SystemParams, n_r: int, m: int) -> QuantumState:
    """QuantumState with the energy filled in from the closed-form spectrum."""
    return QuantumState(n_r=n_r, m=m, energy=energy(params, n_r, m))


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


class RadialFamily:
    """The unit-normalized radial functions U_n, n = 0..n_max, of one (params, m):

        U_n(r) = C_n * z^(|m|/2) * (1 - z)^((1+s)/2) * P_n^(a, b)(1 - 2 z)

    with z = -delta_sq r^2, (a, b) = (|m|, s), s = sqrt(alpha^2/k^2 + 1) and
    P_0..P_{n_max} from one jacobi_family recurrence in y = 2z. (1 + s)/2 is
    the decaying exponent at z = 1. C_n = exp(-log_norms[n] / 2), with the
    closed-form norm N_n = prod_{j=1}^{|m|} (n+j)/(n+s+j) / ((2n+|m|+s+1)
    2|delta_sq|) summed as logs: the product underflows at large |m| as
    k -> 0-, where C_n may exceed the double range, so values() applies it
    inside the envelope's exponential. Raises NonNormalizableError outside
    the bound regime k < 0 < lam, where the domain is unbounded and U grows.
    """

    def __init__(self, params: SystemParams, m: int, n_max: int):
        if not params.k < 0.0 < params.lam:
            raise NonNormalizableError(
                f"k={params.k}, lam={params.lam}: bound states need k < 0 < lam; "
                "the radial solution is not square-integrable here"
            )
        self.params, self.m, self.n_max, self.domain_max = params, m, n_max, params.r_max
        am, s = abs(m), math.sqrt(params.alpha**2 / params.k**2 + 1.0)
        self.a, self.b = float(am), s
        self.log_norms = np.array([math.fsum(
            math.log((n + j) / (n + s + j)) for j in range(1, am + 1)
        ) - math.log((2.0 * n + am + s + 1.0) * 2.0 * abs(params.delta_sq))
            for n in range(n_max + 1)])

    def values(self, r: float | np.ndarray, degrees=None) -> np.ndarray:
        """U_n(r). Without degrees: every n = 0..n_max at every r, an array of
        shape (n_max + 1,) + r.shape formed in place. With degrees, integers
        in [0, n_max] whose shape broadcasts against r's: U_n(r) elementwise
        over the broadcast (degrees, r), the same numbers."""
        r = np.asarray(r)
        if r.min() < 0.0 or r.max() >= self.domain_max:
            raise DomainError(f"r={r} outside [0, {self.domain_max})")
        z = -self.params.delta_sq * r * r
        p = jacobi_family(self.a, self.b, self.n_max, 2.0 * z)
        log_scale = -0.5 * self.log_norms
        if degrees is None:
            log_scale = log_scale.reshape((-1,) + (1,) * r.ndim)
        else:
            if np.count_nonzero(np.less(degrees, 0) | np.greater(degrees, self.n_max)):
                raise ValueError(f"degrees must lie in [0, {self.n_max}], got {degrees}")
            # row n at each r is element n * r.size + (r's flat position) of p
            at = np.multiply(degrees, r.size) + np.arange(r.size).reshape(r.shape)
            p, log_scale = p.reshape(-1)[at][None], log_scale[degrees][None]
        # z^(|m|/2) (1 - z)^((1+s)/2) C_n as one exponential
        decay = 0.5 * (1.0 + self.b) * np.log1p(-z)
        with np.errstate(divide="ignore"):  # log 0 = -inf
            power = 0.5 * abs(self.m) * np.log(z) if self.m else None
        for i, scale in enumerate(log_scale):
            p[i] *= np.exp(decay + scale if power is None else decay + scale + power)
        return p if degrees is None else p[0]


class RadialWavefunction(RadialFamily):
    """Unit-normalized U(r) of one state: row state.n_r of its RadialFamily,
    with log_norm the log of its closed-form norm. Build instances with
    radial_wavefunction, which checks state.energy."""

    def __init__(self, params: SystemParams, state: QuantumState):
        super().__init__(params, state.m, state.n_r)
        self.state, self.log_norm = state, self.log_norms[-1].item()

    def value(self, r: float | np.ndarray) -> float | np.ndarray:
        """U(r) elementwise over an array of r (a number gives a number)."""
        return self.values(r, self.state.n_r)


def _fd_residual(u, params: SystemParams, m: int, energy_value: float | np.ndarray,
                 r: np.ndarray) -> np.ndarray:
    """Relative residual of the radial equation for an evaluator u of arrays,
    elementwise over an array r broadcast against energy_value."""
    lam, alpha, d2 = params.lam, params.alpha, params.delta_sq
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
    # the step balances 4th-order truncation against roundoff of the second
    # difference; tuned on the fixture states (worst case ~2e-9)
    h = np.minimum(0.008 / np.sqrt(scale), np.minimum(r, params.r_max - r) / 2.5)
    samples, d1, dd = five_point_stencil(u, r, h)
    local = np.maximum(np.max(np.abs(samples), axis=0), 1e-30)
    return (dd + d1 / r + coef * samples[2]) / (scale * local)


def _check_energy(params: SystemParams, state: QuantumState) -> None:
    """ValueError unless state.energy is the spectrum value."""
    expected = energy(params, state.n_r, state.m)
    if not math.isclose(state.energy, expected, rel_tol=1e-9, abs_tol=1e-9):
        raise ValueError(f"state energy {state.energy} is not the spectrum value {expected} "
                         f"for (n_r={state.n_r}, m={state.m})")


def radial_wavefunction(params: SystemParams, state: QuantumState) -> RadialWavefunction:
    """The normalized radial eigenfunction of state. Raises NonNormalizableError
    outside k < 0 < lam, and ValueError when state.energy is not the spectrum value."""
    _check_energy(params, state)
    return RadialWavefunction(params, state)


def ode_residual(params: SystemParams, states, r: float | np.ndarray,
                 energy_override=None) -> float | np.ndarray:
    """Relative residual of the radial equation at r, by 4th-order differences.

    r is a number or an ndarray of them, each in (0, r_max). One QuantumState
    gives the residual at each r; a sequence of states gives one row per
    state, and the states of one m share a RadialFamily, evaluated once per
    stencil offset. The residual is normalized by the local coefficient
    scale times the largest |U| on the stencil, so eigenstates sit at
    roundoff level (~1e-11) while an energy shifted by 0.05 is visible at
    the 1e-3 level. energy_override, one energy per state, replaces E in the
    equation only; U stays the eigenstate.
    """
    r = np.asarray(r)
    if not 0.0 < r.min() <= r.max() < params.r_max:
        raise DomainError(f"r={r} outside the open interval (0, {params.r_max})")
    one = isinstance(states, QuantumState)
    states = [states] if one else list(states)
    energies = np.array([st.energy for st in states] if energy_override is None
                        else np.broadcast_to(energy_override, len(states)), dtype=float)
    ms, ns = (np.array([getattr(st, name) for st in states], dtype=int) for name in ("m", "n_r"))
    column = (-1,) + (1,) * r.ndim  # one value per state, broadcast along r
    out = np.empty((len(states),) + r.shape)
    for m in dict.fromkeys(ms.tolist()):
        at = np.flatnonzero(ms == m)
        family = RadialFamily(params, m, ns[at].max().item())
        for i in at.tolist():
            _check_energy(params, states[i])
        out[at] = _fd_residual(lambda x: family.values(x, ns[at].reshape(column)), params, m,
                               energies[at].reshape(column), r)
    return out[0] if one else out


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
    n1 != n2 up to quadrature error: the independent check of the
    closed-form norm. Each quadrature round evaluates each m's RadialFamily
    once, on the nodes of every row of that m. Rows with the same number of
    breakpoints share one batched integrate() call, whose rows are
    integrated as if alone. Raises NonNormalizableError outside k < 0 < lam.
    """
    triples = np.array(list(triples), dtype=int).reshape(-1, 3)
    ms, degrees = triples[:, 0], triples[:, 1:]
    families = {m: RadialFamily(params, m, degrees[ms == m].max().item())
                for m in dict.fromkeys(ms.tolist())}
    # the integrand vanishes like (1 - z)^s at the endpoint, so the inset
    # truncates less than 1e-20 of the mass
    upper = params.r_max * (1.0 - 1e-10)
    # as k -> 0- the states fill a sliver of [0, r_max) that every node of
    # one panel can miss, which converges to a false 0; breakpoints at the
    # outer turning radius r_t and at r_t 2^j beyond it put nodes where the
    # states live and along their decaying tails
    cuts = []
    for m, n1, n2 in triples.tolist():
        row, r = [], max(_turning_radius(params, make_state(params, n, m)) for n in {n1, n2})
        while r < upper:
            row.append(r)
            r *= 2.0
        cuts.append(row)
    d2 = params.delta_sq
    values = np.empty(len(triples))
    for count in sorted({len(row) for row in cuts}):
        group = np.array([t for t, row in enumerate(cuts) if len(row) == count])

        def integrand(r: np.ndarray, rows: np.ndarray, group=group) -> np.ndarray:
            # each m's family once, on the nodes of all the rows of that m
            line_m, line_n = ms[group[rows]], degrees[group[rows]].T
            u = np.empty((2,) + r.shape)
            for m, family in families.items():
                at = line_m == m
                if at.any():
                    u[:, at] = family.values(r[at], line_n[:, at, None])
            return u[0] * u[1] * r / (1.0 + d2 * r * r)

        spec = QuadratureSpec(np.zeros(group.size), np.full(group.size, upper),
                              rel_tol=1e-10, abs_tol=1e-13,
                              breakpoints=np.reshape([cuts[t] for t in group], (group.size, count)))
        values[group] = integrate(integrand, spec).value
    return values


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
