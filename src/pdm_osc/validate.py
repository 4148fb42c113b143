"""Self-validation suites: every oracle check bundled behind one entry point.

Each check returns a CheckResult; run_all() executes them in a fixed order so
the first failure is deterministic. The CLI `validate` command renders these
as a pass/fail table and exits nonzero when anything fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nu, thermo
from .oscillator import (
    SystemParams,
    energy,
    make_state,
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
    n_points = 10 if quick else 50
    residuals, radii = [], []
    for alpha, k in param_sets:
        p = _params(alpha, k)
        rs = p.r_max * (0.02 + 0.96 * np.arange(n_points) / max(n_points - 1, 1))
        sts = [make_state(p, n, m) for n, m in states]
        override = [st.energy + 0.05 for st in sts] if inject_energy_perturbation else None
        residuals.append(np.abs(ode_residual(p, sts, rs, energy_override=override)))
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
    states = FIXTURE_STATES[:3] if quick else FIXTURE_STATES
    peaks = []
    for alpha, k in param_sets:
        p = _params(alpha, k)
        rs = p.r_max * np.array((0.2, 0.35, 0.5, 0.65, 0.8))
        sts = [make_state(p, n, m) for n, m in states]
        shifted = ode_residual(p, sts, rs, energy_override=[st.energy + 0.05 for st in sts])
        peaks.append(np.max(np.abs(shifted), axis=1))
    # a NaN peak propagates into weakest and fails the check
    weakest = np.min(peaks).item()
    return CheckResult(
        "ode_sensitivity", weakest > 1e-3, f"min over states of max residual = {weakest:.3e}"
    )


def check_normalization(quick: bool = False) -> CheckResult:
    """Unit norm under the mass-weighted radial measure, via re-integration."""
    param_sets = FIXTURE_PARAM_SETS[:1] if quick else FIXTURE_PARAM_SETS
    states = FIXTURE_STATES[:4] if quick else FIXTURE_STATES
    worst = 0.0
    for alpha, k in param_sets:
        norms = radial_overlaps(_params(alpha, k), [(m, n, n) for n, m in states])
        # a NaN norm propagates into worst and fails the check
        worst = np.max(np.append(np.abs(norms - 1.0), worst)).item()
    return CheckResult("normalization", worst <= 1e-8, f"max |norm - 1| = {worst:.3e}")


def check_orthogonality(quick: bool = False) -> CheckResult:
    """Cross terms between different radial excitations at fixed m."""
    param_sets = FIXTURE_PARAM_SETS[:1] if quick else FIXTURE_PARAM_SETS
    pairs = ((0, 1), (0, 2), (1, 2)) if quick else ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    worst = 0.0
    for alpha, k in param_sets:
        cross = radial_overlaps(_params(alpha, k),
                                [(m, n1, n2) for m in (0, 1, 2) for n1, n2 in pairs])
        worst = np.max(np.append(np.abs(cross), worst)).item()
    return CheckResult("orthogonality", worst <= 1e-6, f"max |cross term| = {worst:.3e}")


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
    p0 = SystemParams(alpha=1.0, k=0.0, exploratory=True)
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


def _em_error_bound(p: SystemParams, m: int, truncation_n: int,
                    betas: np.ndarray) -> np.ndarray:
    """Magnitude of the leading term the first-order summation formula neglects,
    at each beta of betas.

    That term is [f'(N+1) - f'(0)]/12 for f(x) = exp(-beta E(x)). It is an
    estimate of the truncation error, not a bound on it: the Euler-Maclaurin
    remainder beyond it is smaller but nonzero, and the sign of the term is
    dropped here. check_strategy_triangulation allows twice this value.
    """
    n1 = truncation_n + 1.0
    _, slope, q = spectrum_terms(p, m)  # E'(x) = D + 2 q x
    f_prime_0 = -betas * slope * np.exp(-betas * energy(p, 0.0, m))
    f_prime_n = -betas * (slope + 2.0 * q * n1) * np.exp(-betas * energy(p, n1, m))
    return np.abs(f_prime_n - f_prime_0) / 12.0


def check_strategy_triangulation(quick: bool = False) -> CheckResult:
    """Three-way comparison of the partition-function strategies.

    (a) the closed form (corrected d_t) must match the quadrature pipeline to
        1e-9 relative in Z, U and C: same formula through independent algebra,
        at the figure k values and at the k -> 0- edge, k = -1e-8;
    (b) the pipeline-vs-direct gap must stay within twice the a-priori
        truncation bound of the first-order summation formula;
    (c) the better closed-form variant must stay within 5% of the direct sum
        for T in [5, 50]; np.minimum and np.max keep a NaN gap, which fails.
    """
    betas = (0.05, 0.2) if quick else (0.02, 0.05, 0.1, 0.2, 1.0 / 15.0, 1.0 / 35.0)
    ks = FIGURE_K_LIST[:1] if quick else FIGURE_K_LIST
    worst_quad = 0.0
    for k in ks + (TRIANGULATION_K_EDGE,):
        p = _params(1.0, k)
        quad, closed, direct = (thermo.sweep(p, 1, 500, betas, strategy) for strategy in (
            thermo.Strategy.POISSON_PIPELINE, thermo.Strategy.PAPER_CLOSED_FORM,
            thermo.Strategy.DIRECT_SUM))
        # (quantity, beta) array of closed form vs quadrature gaps
        gaps = np.array([np.abs(getattr(closed, name) - getattr(quad, name))
                         / np.abs(getattr(quad, name)) for name in "zuc"])
        pipeline_gaps = np.abs(direct.z - quad.z)
        bounds = 2.0 * _em_error_bound(p, 1, 500, np.array(betas)) + 1e-12
        for i, beta in enumerate(betas):
            for name, gap in zip("ZUC", gaps[:, i].tolist()):
                if not gap <= 1e-9:
                    return CheckResult(
                        "strategy_triangulation", False,
                        f"closed form vs quadrature {name} diverge at k={k}, "
                        f"beta={beta}: {gap:.3e}",
                    )
            if not pipeline_gaps[i] <= bounds[i]:
                return CheckResult(
                    "strategy_triangulation", False,
                    f"pipeline-vs-direct gap {pipeline_gaps[i]:.3e} exceeds "
                    f"twice the truncation bound {bounds[i]:.3e} at k={k}, beta={beta}",
                )
        worst_quad = max(worst_quad, gaps.max().item())
    hot_betas = 1.0 / (np.array([5.0, 50.0]) if quick else np.linspace(5.0, 50.0, 10))
    best_gaps = []
    for k in ks:
        p = _params(1.0, k)
        zd = thermo.sweep(p, 1, 500, hot_betas).z
        zc, zv = (thermo.sweep(p, 1, 500, hot_betas, thermo.Strategy.PAPER_CLOSED_FORM, variant).z
                  for variant in ("corrected", "verbatim"))
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

    The stencil runs over all betas at once, with one closed-form sweep per
    offset; the offset-0 sweep is the series returned. ln Z is math.log of
    each Z.
    """
    sweeps = []

    def log_z_u_f(b: np.ndarray) -> np.ndarray:
        series = thermo.sweep(p, 1, 500, b, thermo.Strategy.PAPER_CLOSED_FORM)
        sweeps.append(series)
        return np.array([[math.log(z) for z in series.z.tolist()], series.u, series.f])

    d_log_z, d_u, d_f = central_diff(log_z_u_f, betas, 1, 1e-3 * betas)
    # sweeps run in the stencil's order of offsets, -2..2
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
            series = thermo.sweep(p, m, 500, 1.0 / (p.kb * temps))
            if np.any(series.z[1:] <= series.z[:-1]):
                return CheckResult("figure_properties", False, f"Z not increasing (m={m}, k={k})")
            if not strictly_decreasing_resolvable(temps, series.f, series.s):
                return CheckResult("figure_properties", False, f"F not decreasing (m={m}, k={k})")
            if np.any(series.s[1:] <= series.s[:-1]):
                return CheckResult("figure_properties", False, f"S not increasing (m={m}, k={k})")
            if thermo.find_heat_capacity_plateau(p, m, 500) is None:
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
    check_normalization,
    check_orthogonality,
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
            results.append(check(quick, inject_energy_perturbation=inject_energy_perturbation))
        else:
            results.append(check(quick))
    return results
