"""Self-validation suites: every oracle check bundled behind one entry point.

Each check returns a CheckResult (check_overlaps two, from one quadrature
batch); run_all() executes them in a fixed order so the first failure is
deterministic. The CLI `validate` command renders these as a pass/fail table
and exits nonzero when anything fails.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import nu, thermo
from .oscillator import (
    SystemParams,
    energy,
    excitation,
    nu_instance,
    ode_residual,
    radial_overlaps,
    solve_energy,
    spectrum_terms,
)
from .specfun import central_diff

__all__ = ["CheckResult", "run_all", "FIXTURE_PARAM_SETS", "FIXTURE_STATES"]

# moderate-energy fixtures: E stays below ~31 so that a 0.05 energy shift is
# visible above the 1e-3 sensitivity threshold of the equation residual
FIXTURE_PARAM_SETS = ((1.0, -0.1), (1.0, -0.5), (2.0, -0.3))
FIXTURE_STATES = ((0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (2, 1), (3, 1), (0, 2), (1, 2))

FIGURE_K_LIST = (-0.1, -0.2, -0.3)
TRIANGULATION_K_EDGE = -1e-8  # the k -> 0- edge of the documented box


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _params(alpha: float, k: float) -> SystemParams:
    return SystemParams(alpha=alpha, k=k)


def check_quantization_roundtrip(quick: bool = False) -> CheckResult:
    """Closed-form energies must zero the quantization condition to 1e-9."""
    alphas = (1.0,) if quick else (1.0, 2.0)
    ks = (-0.5,) if quick else (-0.1, -0.5, -1.0)
    n_max, m_max = (4, 2) if quick else (8, 4)
    n, m = np.arange(n_max + 1)[:, None], np.arange(-m_max, m_max + 1)  # an (n, m) grid
    coefficients = (nu.derive_coefficients(nu_instance(p, m, energy(p, n, m)))
                    for p in (_params(alpha, k) for alpha in alphas for k in ks))
    # a NaN residual propagates into worst and fails the check
    worst = np.max(np.abs([nu.quantization_residual(c, n) for c in coefficients])).item()
    return CheckResult("quantization_roundtrip", worst <= 1e-9, f"max |residual| = {worst:.3e}")


def check_spectrum_bisection(quick: bool = False) -> CheckResult:
    """Scan-and-bisect eigenvalue oracle must land on the closed-form values."""
    cases = [(1.0, -0.5, 1, 0), (1.0, -0.5, 0, 2)] if quick else [
        (1.0, -0.5, 0, 0), (1.0, -0.5, 1, 0), (1.0, -0.5, 2, 1),
        (2.0, -0.3, 1, 2), (1.0, -0.1, 3, 0),
    ]
    worst = 0.0
    for alpha, k, n, m in cases:
        p = _params(alpha, k)
        e_ref = energy(p, n, m)
        roots = solve_energy(p, m, n, e_ref - 3.0, e_ref + 3.0)
        if len(roots) != 1:
            return CheckResult(
                "spectrum_bisection", False,
                f"expected one root near E={e_ref:.6g}, found {len(roots)}",
            )
        worst = max(worst, abs(roots[0] - e_ref))
    return CheckResult("spectrum_bisection", worst <= 1e-9, f"max |root - E| = {worst:.3e}")


def check_tau_slope(quick: bool = False) -> CheckResult:
    """Admissibility: the tau polynomial slope is negative on every fixture."""
    n, m = np.array(FIXTURE_STATES).T
    slopes = [nu.tau_prime(nu.derive_coefficients(nu_instance(p, m, energy(p, n, m))))
              for p in (_params(alpha, k) for alpha, k in FIXTURE_PARAM_SETS)]
    worst = np.max(slopes).item()
    return CheckResult("tau_slope", worst < 0.0, f"max tau' = {worst:.6g}")


def check_ode_residual(quick: bool = False, inject_energy_perturbation: bool = False) -> CheckResult:
    """Direct substitution into the radial equation at interior sample points.

    The injection hook shifts E by +0.05 in the equation (not in the state),
    turning this into a negative control that must fail.
    """
    param_sets = FIXTURE_PARAM_SETS[:1] if quick else FIXTURE_PARAM_SETS
    states = FIXTURE_STATES[:3] if quick else FIXTURE_STATES
    n, m = np.array(states).T
    n_points = 10 if quick else 50
    residuals, radii = [], []
    for alpha, k in param_sets:
        p = _params(alpha, k)
        rs = p.r_max * (0.02 + 0.96 * np.arange(n_points) / max(n_points - 1, 1))
        override = energy(p, n, m) + 0.05 if inject_energy_perturbation else None
        residuals.append(np.abs(ode_residual(p, n, m, rs, energy_override=override)))
        radii.append(rs)
    # the first largest residual in (parameter set, state, r) order; a NaN is
    # largest and fails the check
    at, s, j = np.unravel_index(np.argmax(residuals), np.shape(residuals))
    worst = residuals[at][s, j].item()
    (alpha, k), (n, m) = param_sets[at], states[s]
    return CheckResult(
        "ode_residual", worst <= 1e-8, f"max relative residual = {worst:.3e} at "
        f"(alpha={alpha}, k={k}, n={n}, m={m}, r={radii[at][j]:.3f})"
    )


def check_ode_sensitivity(quick: bool = False) -> CheckResult:
    """An energy shifted by 0.05 must be visible above 1e-3 somewhere."""
    param_sets = FIXTURE_PARAM_SETS[:1] if quick else FIXTURE_PARAM_SETS
    n, m = np.array(FIXTURE_STATES[:3] if quick else FIXTURE_STATES).T
    peaks = []
    for alpha, k in param_sets:
        p = _params(alpha, k)
        rs = p.r_max * np.array((0.2, 0.35, 0.5, 0.65, 0.8))
        shifted = ode_residual(p, n, m, rs, energy_override=energy(p, n, m) + 0.05)
        peaks.append(np.max(np.abs(shifted), axis=1))
    # a NaN peak propagates into weakest and fails the check
    weakest = np.min(peaks).item()
    return CheckResult(
        "ode_sensitivity", weakest > 1e-3, f"min over states of max residual = {weakest:.3e}"
    )


def check_overlaps(quick: bool = False) -> tuple[CheckResult, CheckResult]:
    """normalization, unit norm under the mass-weighted radial measure, and
    orthogonality, the cross terms between different radial excitations at
    fixed m, by re-integration: one radial_overlaps batch per parameter set.
    """
    param_sets = FIXTURE_PARAM_SETS[:1] if quick else FIXTURE_PARAM_SETS
    states = FIXTURE_STATES[:4] if quick else FIXTURE_STATES
    pairs = ((0, 1), (0, 2), (1, 2)) if quick else ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    triples = [(m, n, n) for n, m in states] + [(m, n1, n2) for m in (0, 1, 2) for n1, n2 in pairs]
    worst_norm = worst_cross = 0.0
    for alpha, k in param_sets:
        overlaps = radial_overlaps(_params(alpha, k), triples)
        norms, cross = overlaps[:len(states)], overlaps[len(states):]
        # a NaN overlap propagates into its worst and fails its check
        worst_norm = np.max(np.append(np.abs(norms - 1.0), worst_norm)).item()
        worst_cross = np.max(np.append(np.abs(cross), worst_cross)).item()
    return (CheckResult("normalization", worst_norm <= 1e-8, f"max |norm - 1| = {worst_norm:.3e}"),
            CheckResult("orthogonality", worst_cross <= 1e-6,
                        f"max |cross term| = {worst_cross:.3e}"))


def check_limits(quick: bool = False) -> CheckResult:
    """k -> 0 continuity, m symmetry, level ordering, ladder partition function."""
    p_small = SystemParams(alpha=1.0, k=-1e-8)
    n, m = np.arange(6)[:, None], np.arange(-3, 4)
    worst = np.max(np.abs(energy(p_small, n, m) - (2 * n + np.abs(m) + 1) * 1.0)).item()
    if not worst <= 1e-6:
        return CheckResult("limits", False, f"k->0 continuity violated: {worst:.3e}")
    n, m = np.arange(5)[:, None], np.arange(4)
    for alpha, k in FIXTURE_PARAM_SETS:
        p = _params(alpha, k)
        broken = np.argwhere(energy(p, n, m) != energy(p, n, -m))
        if broken.size:
            return CheckResult("limits", False, f"m symmetry broken at (n={broken[0, 0]}, "
                                                f"m={broken[0, 1]})")
        # E(n, m) down the columns m = 0, 1, 2; a NaN level breaks the order
        es = energy(p, np.arange(9)[:, None], np.arange(3))
        broken = np.flatnonzero(~(es[1:] > es[:-1]).all(axis=0))
        if broken.size:
            return CheckResult("limits", False, f"ordering broken at k={k}, m={broken[0]}")
    # flat-ladder partition function against the geometric closed form
    p0 = SystemParams(alpha=1.0, k=0.0)
    betas = np.array((0.05, 0.1, 0.5, 1.0))
    z_geom = np.exp(-2.0 * betas) / (1.0 - np.exp(-2.0 * betas))
    worst_z = np.max(np.abs(thermo.sweep(p0, 1, 500, betas).z - z_geom) / z_geom).item()
    if not worst_z <= 1e-10:
        return CheckResult("limits", False, f"ladder Z mismatch: {worst_z:.3e}")
    c100 = thermo.sweep(p0, 1, 500, [1.0 / (p0.kb * 100.0)]).c.item()
    if not abs(c100 - 1.0) <= 0.01:
        return CheckResult("limits", False, f"high-T ladder C = {c100:.6f}, not within 1% of kb")
    return CheckResult("limits", True, f"k->0 max dev {worst:.2e}; ladder Z dev {worst_z:.2e}; C(100)={c100:.4f}")


def check_boltzmann_limit(quick: bool = False) -> CheckResult:
    """beta -> infinity collapses the mean energy onto the ground state."""
    p = _params(1.0, -0.3)
    u = thermo.sweep(p, 1, 500, [200.0]).u.item()
    e0 = energy(p, 0, 1)
    return CheckResult("boltzmann_limit", abs(u - e0) <= 1e-10, f"|U - E0| = {abs(u - e0):.3e}")


# sup |B~_3(x)| / 3! = 2 zeta(3) / (2 pi)^3, from the Fourier series of the
# periodic Bernoulli function (DLMF 24.8.2)
_EM_R3_CONST = 2.0 * 1.2020569031595942 / (2.0 * math.pi) ** 3


def _sweeps(p: SystemParams, m: int, grids,
            strategy: thermo.Strategy = thermo.Strategy.DIRECT_SUM) -> list[thermo.ThermoSeries]:
    """One N = 500 sweep over the grids end to end, cut into one series per
    grid: as each point is its one-point sweep, each series equals the sweep
    of its grid alone, bit for bit."""
    series = thermo.sweep(p, m, 500, np.concatenate(grids), strategy)
    arrays = [field.name for field in dataclasses.fields(series)
              if isinstance(getattr(series, field.name), np.ndarray)]
    ends = np.cumsum([len(grid) for grid in grids]).tolist()
    parts = []
    for lo, hi in zip([0] + ends[:-1], ends):
        sliced = {name: getattr(series, name)[lo:hi] for name in arrays}
        diagnostics = {key: column[lo:hi] for key, column in series.diagnostics.items()}
        parts.append(dataclasses.replace(series, **sliced, diagnostics=diagnostics))
    return parts


def _em_terms(p: SystemParams, m: int, truncation_n: int,
              betas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """T1 and the bound on |R3| at each beta of betas, for k < 0, in the
    M_0 = Z exp(beta E_0) domain: f(x) = exp(-beta d(x)), d the excitation.

    DLMF 2.10.1 splits the direct sum minus the first-order summation formula
    into T1 = [f'(N+1) - f'(0)]/12 and R3, with |R3| <= 2 zeta(3)/(2 pi)^3
    int_0^{N+1} |f'''|. With E'(x) = D + 2 q x, f''' = beta^2 E' f (6 q -
    beta E'^2) changes sign at most once, at beta E'^2 = 6 q, where
    f'' = beta (beta E'^2 - 2 q) f peaks; so int |f'''| is two differences
    of f'', about that point clipped to [0, N+1].
    """
    _, slope, q = spectrum_terms(p, m)
    n1 = truncation_n + 1.0
    peak = np.clip((np.sqrt(6.0 * q / betas) - slope) / (2.0 * q), 0.0, n1)
    x = np.stack([np.zeros_like(betas), peak, np.full_like(betas, n1)])
    e1 = slope + 2.0 * q * x  # E'(x)
    f = np.exp(-betas * excitation(p, x, m))
    f1 = -betas * e1 * f
    f2 = betas * (betas * e1 * e1 - 2.0 * q) * f
    return (f1[2] - f1[0]) / 12.0, _EM_R3_CONST * (np.abs(f2[1] - f2[0]) + np.abs(f2[2] - f2[1]))


def check_strategy_triangulation(quick: bool = False) -> CheckResult:
    """Three-way comparison of the partition-function strategies.

    (a) the closed form (corrected d_t) must match the quadrature pipeline to
        1e-9 relative in Z, U and C: same formula through independent algebra,
        at the figure k values and at the k -> 0- edge, k = -1e-8;
    (b) the direct sum minus the pipeline, in the M_0 domain, must differ
        from the leading Euler-Maclaurin term T1 by at most the certified
        bound on the remainder R3 (_em_terms);
    (c) the better closed-form variant must stay within 5% of the direct sum
        for T in [5, 50]; np.minimum and np.max keep a NaN gap, which fails.
    """
    betas = (0.05, 0.2) if quick else (0.02, 0.05, 0.1, 0.2, 1.0 / 15.0, 1.0 / 35.0)
    hot_betas = 1.0 / (np.array([5.0, 50.0]) if quick else np.linspace(5.0, 50.0, 10))
    ks = FIGURE_K_LIST[:1] if quick else FIGURE_K_LIST
    worst_quad, best_gaps = 0.0, []
    for k in ks + (TRIANGULATION_K_EDGE,):
        p = _params(1.0, k)
        # a figure k's corrected and direct series also cover the hot betas of (c)
        grids = (betas, hot_betas) if k in ks else (betas,)
        quad = thermo.sweep(p, 1, 500, betas, thermo.Strategy.POISSON_PIPELINE)
        (closed, *closed_hot), (direct, *direct_hot) = (
            _sweeps(p, 1, grids, strategy)
            for strategy in (thermo.Strategy.PAPER_CLOSED_FORM, thermo.Strategy.DIRECT_SUM))
        # (quantity, beta) array of closed form vs quadrature gaps
        gaps = np.array([np.abs(getattr(closed, name) - getattr(quad, name))
                         / np.abs(getattr(quad, name)) for name in "zuc"])
        grid = np.array(betas)
        t1, r3_bounds = _em_terms(p, 1, 500, grid)
        misfits = np.abs((direct.z - quad.z) * np.exp(grid * spectrum_terms(p, 1)[0]) - t1)
        for i, beta in enumerate(betas):
            for name, gap in zip("ZUC", gaps[:, i].tolist()):
                if not gap <= 1e-9:
                    return CheckResult(
                        "strategy_triangulation", False,
                        f"closed form vs quadrature {name} diverge at k={k}, "
                        f"beta={beta}: {gap:.3e}",
                    )
            if not misfits[i] <= r3_bounds[i]:
                return CheckResult(
                    "strategy_triangulation", False,
                    f"pipeline-vs-direct gap departs from T1 by {misfits[i]:.3e}, beyond "
                    f"the remainder bound {r3_bounds[i]:.3e} at k={k}, beta={beta}",
                )
        worst_quad = max(worst_quad, gaps.max().item())
        if direct_hot:
            zd, zc = direct_hot[0].z, closed_hot[0].z
            zv = thermo.sweep(p, 1, 500, hot_betas, thermo.Strategy.PAPER_CLOSED_FORM,
                              "verbatim").z
            best_gaps.append(np.minimum(np.abs(zc - zd) / zd, np.abs(zv - zd) / zd))
    worst = np.max(best_gaps).item()
    return CheckResult(
        "strategy_triangulation", worst <= 0.05,
        f"closed form (best variant) vs direct, max rel = {worst:.4f} on T in [5, 50]; "
        f"closed form vs quadrature Z, U, C within {worst_quad:.1e}",
    )


def _stencil_references(p: SystemParams, betas: np.ndarray):
    """The closed form's series at betas, and the U, C and S that 4th-order
    differences (step 1e-3 beta) of its own ln Z, U and F give there.

    The stencil runs over all betas and its five offsets at once, with one
    closed-form sweep; its offset-0 series is the series returned. ln Z is
    math.log of each Z.
    """
    sweeps = []

    def log_z_u_f(b: np.ndarray) -> np.ndarray:
        parts = _sweeps(p, 1, b, thermo.Strategy.PAPER_CLOSED_FORM)  # a series per offset -2..2
        sweeps.extend(parts)
        return np.array([[[math.log(z) for z in series.z.tolist()], series.u, series.f]
                         for series in parts])

    d_log_z, d_u, d_f = central_diff(log_z_u_f, betas, 1, 1e-3 * betas)
    return sweeps[2], -d_log_z, -betas * betas * d_u, betas * betas * d_f


def check_derivative_consistency(quick: bool = False) -> CheckResult:
    """Analytic U, C, S of the closed form against differences of its own ln Z."""
    betas = np.array((0.1,) if quick else (0.05, 0.1, 0.5))
    worst = 0.0
    for k in (-0.1, -0.3):
        series, u_ref, c_ref, s_ref = _stencil_references(_params(1.0, k), betas)
        gaps = [np.abs(series.u - u_ref) / np.abs(u_ref),
                np.abs(series.c - c_ref) / np.abs(c_ref),
                np.abs(series.s - s_ref) / np.abs(s_ref)]
        # a NaN gap propagates into worst and fails the check
        worst = np.max(np.append(gaps, worst)).item()
    return CheckResult(
        "derivative_consistency", worst <= 1e-6,
        f"analytic vs finite-difference, max rel = {worst:.3e}",
    )


def check_thermo_identity(quick: bool = False) -> CheckResult:
    """F = U - T S for the direct sum across the figure temperature grid."""
    temps = np.geomspace(0.1, 50.0, 12 if quick else 60)
    worst = 0.0
    for k in FIGURE_K_LIST:
        p = _params(1.0, k)
        res = thermo.sweep(p, 1, 500, 1.0 / (p.kb * temps))
        gap = np.abs(res.f - (res.u - temps * res.s)) / np.maximum(1.0, np.abs(res.f))
        # a NaN gap propagates into worst and fails the check
        worst = np.max(np.append(gap, worst)).item()
    return CheckResult("thermo_identity", worst <= 1e-8, f"max |F - (U - T S)| rel = {worst:.3e}")


def check_truncation_insensitivity(quick: bool = False) -> CheckResult:
    """Z at N=300 vs N=500 agree to 1e-12 for T <= 50."""
    worst = 0.0
    for k in FIGURE_K_LIST:
        p = _params(1.0, k)
        betas = 1.0 / (p.kb * np.array([1.0, 10.0, 50.0]))
        z300, z500 = (thermo.sweep(p, 1, n, betas).z for n in (300, 500))
        worst = np.max(np.append(np.abs(z300 - z500) / z500, worst)).item()
    return CheckResult("truncation_insensitivity", worst <= 1e-12, f"max rel = {worst:.3e}")


def strictly_decreasing_resolvable(temps, fs, ss) -> bool:
    """Strict decrease of F wherever a decrease is resolvable in doubles.

    dF/dT = -S, so the expected decrement between grid points is about
    S * dT. Deep in the frozen regime that decrement falls below the floating
    point resolution of F itself and consecutive values tie exactly; a tie is
    then the correct outcome, not a monotonicity violation.
    """
    temps, fs, ss = (np.asarray(a, dtype=float) for a in (temps, fs, ss))
    resolution = 8.0 * 2.220446049250313e-16 * np.fmax(1.0, np.abs(fs[:-1]))
    resolvable = ss[:-1] * np.diff(temps) > resolution
    violated = np.where(resolvable, ~(fs[1:] < fs[:-1]), fs[1:] > fs[:-1] + resolution)
    return not violated.any()


def check_figure_properties(quick: bool = False) -> CheckResult:
    """Monotonicity of Z, F, S in T; heat-capacity saturation and k spread.

    Saturation is established by finding, per k, a temperature window
    [T*, 2T*] over which C varies by less than 1%; the k dependence of the
    saturation value is read at the top of the figure grid (T = 50), where
    the curves have visibly flattened but not yet collapsed onto the common
    asymptote.
    """
    temps = np.geomspace(0.1, 50.0, 40 if quick else 160)
    ms = (1,) if quick else (1, 2)
    for m in ms:
        plateau_c50 = []
        for k in FIGURE_K_LIST:
            p = _params(1.0, k)
            # the figure grid and find_heat_capacity_plateau's lattice, in one sweep
            series, lattice = _sweeps(p, m, (1.0 / (p.kb * temps),
                                             1.0 / (p.kb * thermo.PLATEAU_TEMPERATURES)))
            if np.any(series.z[1:] <= series.z[:-1]):
                return CheckResult("figure_properties", False, f"Z not increasing (m={m}, k={k})")
            if not strictly_decreasing_resolvable(temps, series.f, series.s):
                return CheckResult("figure_properties", False, f"F not decreasing (m={m}, k={k})")
            if np.any(series.s[1:] <= series.s[:-1]):
                return CheckResult("figure_properties", False, f"S not increasing (m={m}, k={k})")
            if thermo.plateau_from_lattice(lattice.c) is None:
                return CheckResult("figure_properties", False,
                                   f"no heat-capacity plateau found (m={m}, k={k})")
            # the grid ends at exactly T = 50
            plateau_c50.append(series.c[-1].item())
        spread = (max(plateau_c50) - min(plateau_c50)) / min(plateau_c50)
        monotone = all(b < a for a, b in zip(plateau_c50, plateau_c50[1:]))
        if spread <= 0.02:
            return CheckResult(
                "figure_properties", False,
                f"saturation C(T=50) spread across k is {spread:.4f} <= 2% (m={m})",
            )
        if not monotone:
            return CheckResult(
                "figure_properties", False,
                f"saturation C(T=50) not monotone in k (m={m}): {plateau_c50}",
            )
    return CheckResult(
        "figure_properties", True,
        f"monotonicities hold; C(T=50) spread {spread:.3f} and monotone in k",
    )


_CHECKS = (
    check_quantization_roundtrip,
    check_spectrum_bisection,
    check_tau_slope,
    check_ode_residual,
    check_ode_sensitivity,
    check_overlaps,
    check_limits,
    check_boltzmann_limit,
    check_strategy_triangulation,
    check_derivative_consistency,
    check_thermo_identity,
    check_truncation_insensitivity,
    check_figure_properties,
)


def run_all(quick: bool = False, inject_energy_perturbation: bool = False) -> list[CheckResult]:
    results = []
    for check in _CHECKS:
        if check is check_ode_residual:
            result = check(quick, inject_energy_perturbation=inject_energy_perturbation)
        else:
            result = check(quick)
        results += result if isinstance(result, tuple) else (result,)
    return results
