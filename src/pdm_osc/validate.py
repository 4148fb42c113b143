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
    radial_overlap,
    solve_energy,
)
from .specfun import central_diff

__all__ = ["CheckResult", "run_all", "FIXTURE_PARAM_SETS", "FIXTURE_STATES"]

# moderate-energy fixtures: E stays below ~31 so that a 0.05 energy shift is
# visible above the 1e-3 sensitivity threshold of the equation residual
FIXTURE_PARAM_SETS = ((1.0, -0.1), (1.0, -0.5), (2.0, -0.3))
FIXTURE_STATES = ((0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (2, 1), (3, 1), (0, 2), (1, 2))

FIGURE_K_LIST = (-0.1, -0.2, -0.3)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _params(alpha: float, k: float) -> SystemParams:
    return SystemParams(alpha=alpha, k=k)


def _betas(params: SystemParams, temps) -> list[float]:
    return [1.0 / (params.kb * float(t)) for t in temps]


def check_quantization_roundtrip(quick: bool = False) -> CheckResult:
    """Closed-form energies must zero the quantization condition to 1e-9."""
    alphas = (1.0,) if quick else (1.0, 2.0)
    ks = (-0.5,) if quick else (-0.1, -0.5, -1.0)
    n_max, m_max = (4, 2) if quick else (8, 4)
    worst = 0.0
    for alpha in alphas:
        for k in ks:
            p = _params(alpha, k)
            for n in range(n_max + 1):
                for m in range(-m_max, m_max + 1):
                    coeffs = nu.derive_coefficients(nu_instance(p, m, energy(p, n, m)))
                    worst = max(worst, abs(nu.quantization_residual(coeffs, n)))
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
    worst = -math.inf
    for alpha, k in FIXTURE_PARAM_SETS:
        p = _params(alpha, k)
        for n, m in FIXTURE_STATES:
            coeffs = nu.derive_coefficients(nu_instance(p, m, energy(p, n, m)))
            worst = max(worst, nu.tau_prime(coeffs))
    return CheckResult("tau_slope", worst < 0.0, f"max tau' = {worst:.6g}")


def check_ode_residual(quick: bool = False, inject_energy_perturbation: bool = False) -> CheckResult:
    """Direct substitution into the radial equation at interior sample points.

    The injection hook shifts E by +0.05 in the equation (not in the state),
    turning this into a negative control that must fail.
    """
    param_sets = FIXTURE_PARAM_SETS[:1] if quick else FIXTURE_PARAM_SETS
    states = FIXTURE_STATES[:3] if quick else FIXTURE_STATES
    n_points = 10 if quick else 50
    worst = 0.0
    worst_at = ""
    for alpha, k in param_sets:
        p = _params(alpha, k)
        for n, m in states:
            st = make_state(p, n, m)
            override = st.energy + 0.05 if inject_energy_perturbation else None
            for j in range(1, n_points + 1):
                r = p.r_max * (0.02 + 0.96 * (j - 1) / max(n_points - 1, 1))
                res = abs(ode_residual(p, st, r, energy_override=override))
                if res > worst:
                    worst, worst_at = res, f"(alpha={alpha}, k={k}, n={n}, m={m}, r={r:.3f})"
    return CheckResult(
        "ode_residual", worst <= 1e-8, f"max relative residual = {worst:.3e} at {worst_at}"
    )


def check_ode_sensitivity(quick: bool = False) -> CheckResult:
    """An energy shifted by 0.05 must be visible above 1e-3 somewhere."""
    param_sets = FIXTURE_PARAM_SETS[:1] if quick else FIXTURE_PARAM_SETS
    states = FIXTURE_STATES[:3] if quick else FIXTURE_STATES
    weakest = math.inf
    for alpha, k in param_sets:
        p = _params(alpha, k)
        for n, m in states:
            st = make_state(p, n, m)
            peak = max(
                abs(ode_residual(p, st, p.r_max * frac, energy_override=st.energy + 0.05))
                for frac in (0.2, 0.35, 0.5, 0.65, 0.8)
            )
            weakest = min(weakest, peak)
    return CheckResult(
        "ode_sensitivity", weakest > 1e-3, f"min over states of max residual = {weakest:.3e}"
    )


def check_normalization(quick: bool = False) -> CheckResult:
    """Unit norm under the mass-weighted radial measure, via re-integration."""
    param_sets = FIXTURE_PARAM_SETS[:1] if quick else FIXTURE_PARAM_SETS
    states = FIXTURE_STATES[:4] if quick else FIXTURE_STATES
    worst = 0.0
    for alpha, k in param_sets:
        p = _params(alpha, k)
        for n, m in states:
            worst = max(worst, abs(radial_overlap(p, m, n, n) - 1.0))
    return CheckResult("normalization", worst <= 1e-8, f"max |norm - 1| = {worst:.3e}")


def check_orthogonality(quick: bool = False) -> CheckResult:
    """Cross terms between different radial excitations at fixed m."""
    param_sets = FIXTURE_PARAM_SETS[:1] if quick else FIXTURE_PARAM_SETS
    pairs = ((0, 1), (0, 2), (1, 2)) if quick else ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    worst = 0.0
    for alpha, k in param_sets:
        p = _params(alpha, k)
        for m in (0, 1, 2):
            for n1, n2 in pairs:
                worst = max(worst, abs(radial_overlap(p, m, n1, n2)))
    return CheckResult("orthogonality", worst <= 1e-6, f"max |cross term| = {worst:.3e}")


def check_limits(quick: bool = False) -> CheckResult:
    """k -> 0 continuity, m symmetry, level ordering, ladder partition function."""
    p_small = SystemParams(alpha=1.0, k=-1e-8)
    worst = 0.0
    for n in range(6):
        for m in range(-3, 4):
            worst = max(worst, abs(energy(p_small, n, m) - (2 * n + abs(m) + 1) * 1.0))
    if worst > 1e-6:
        return CheckResult("limits", False, f"k->0 continuity violated: {worst:.3e}")
    for alpha, k in FIXTURE_PARAM_SETS:
        p = _params(alpha, k)
        for n in range(5):
            for m in range(0, 4):
                if energy(p, n, m) != energy(p, n, -m):
                    return CheckResult("limits", False, f"m symmetry broken at (n={n}, m={m})")
        for m in (0, 1, 2):
            es = [energy(p, n, m) for n in range(9)]
            if any(b <= a for a, b in zip(es, es[1:])):
                return CheckResult("limits", False, f"ordering broken at k={k}, m={m}")
    # flat-ladder partition function against the geometric closed form
    p0 = SystemParams(alpha=1.0, k=0.0, exploratory=True)
    worst_z = 0.0
    for beta in (0.05, 0.1, 0.5, 1.0):
        inp = thermo.ThermoInput(params=p0, m=1, beta=beta)
        z_geom = math.exp(-2.0 * beta) / (1.0 - math.exp(-2.0 * beta))
        worst_z = max(worst_z, abs(thermo.partition_direct(inp).z - z_geom) / z_geom)
    if worst_z > 1e-10:
        return CheckResult("limits", False, f"ladder Z mismatch: {worst_z:.3e}")
    c100 = thermo.heat_capacity(thermo.ThermoInput.from_temperature(p0, 1, 100.0))
    if abs(c100 - 1.0) > 0.01:
        return CheckResult("limits", False, f"high-T ladder C = {c100:.6f}, not within 1% of kb")
    return CheckResult("limits", True, f"k->0 max dev {worst:.2e}; ladder Z dev {worst_z:.2e}; C(100)={c100:.4f}")


def check_boltzmann_limit(quick: bool = False) -> CheckResult:
    """beta -> infinity collapses the mean energy onto the ground state."""
    p = _params(1.0, -0.3)
    inp = thermo.ThermoInput(params=p, m=1, beta=200.0)
    u = thermo.average_energy(inp)
    e0 = energy(p, 0, 1)
    return CheckResult("boltzmann_limit", abs(u - e0) <= 1e-10, f"|U - E0| = {abs(u - e0):.3e}")


def _em_error_bound(inp: thermo.ThermoInput) -> float:
    """Magnitude of the leading term the first-order summation formula neglects.

    That term is [f'(N+1) - f'(0)]/12 for f(x) = exp(-beta E(x)). It is an
    estimate of the truncation error, not a bound on it: the Euler-Maclaurin
    remainder beyond it is smaller but nonzero, and the sign of the term is
    dropped here. check_strategy_triangulation allows twice this value.
    """
    p, m, beta = inp.params, inp.m, inp.beta
    am = abs(m)
    hyp = math.hypot(p.alpha, p.k)

    def e_prime(x):
        return 2 * hyp - p.k * (4 * x + 2 * (am + 1))

    n1 = inp.truncation_n + 1.0
    f_prime_0 = -beta * e_prime(0.0) * math.exp(-beta * energy(p, 0.0, m))
    f_prime_n = -beta * e_prime(n1) * math.exp(-beta * energy(p, n1, m))
    return abs(f_prime_n - f_prime_0) / 12.0


def check_strategy_triangulation(quick: bool = False) -> CheckResult:
    """Three-way comparison of the partition-function strategies.

    (a) the closed form (corrected d_t) must match the quadrature pipeline to
        1e-9 relative in Z, U and C: same formula through independent algebra;
    (b) the pipeline-vs-direct gap must stay within twice the a-priori
        truncation bound of the first-order summation formula;
    (c) the better closed-form variant must stay within 5% of the direct sum
        for T in [5, 50].
    """
    betas = (0.05, 0.2) if quick else (0.02, 0.05, 0.1, 0.2, 1.0 / 15.0, 1.0 / 35.0)
    ks = FIGURE_K_LIST[:1] if quick else FIGURE_K_LIST
    worst_quad = 0.0
    for k in ks:
        p = _params(1.0, k)
        quad, closed, direct = (thermo.sweep(p, 1, 500, betas, strategy) for strategy in (
            thermo.Strategy.POISSON_PIPELINE, thermo.Strategy.PAPER_CLOSED_FORM,
            thermo.Strategy.DIRECT_SUM))
        for beta, q, c, d in zip(betas, quad, closed, direct):
            for name in ("z", "u", "c"):
                gap = abs(getattr(c, name) - getattr(q, name)) / abs(getattr(q, name))
                if gap > 1e-9:
                    return CheckResult(
                        "strategy_triangulation", False,
                        f"closed form vs quadrature {name.upper()} diverge at k={k}, "
                        f"beta={beta}: {gap:.3e}",
                    )
                worst_quad = max(worst_quad, gap)
            inp = thermo.ThermoInput(params=p, m=1, beta=beta)
            bound = 2.0 * _em_error_bound(inp) + 1e-12
            if abs(d.z - q.z) > bound:
                return CheckResult(
                    "strategy_triangulation", False,
                    f"pipeline-vs-direct gap {abs(d.z - q.z):.3e} exceeds "
                    f"twice the truncation bound {bound:.3e} at k={k}, beta={beta}",
                )
    worst = 0.0
    temps = (5.0, 50.0) if quick else tuple(np.linspace(5.0, 50.0, 10))
    for k in ks:
        p = _params(1.0, k)
        comp = thermo.compare_strategies(p, 1, 500, [1.0 / t for t in temps])
        worst = max(worst, comp.max_rel_paper_best)
    return CheckResult(
        "strategy_triangulation", worst <= 0.05,
        f"closed form (best variant) vs direct, max rel = {worst:.4f} on T in [5, 50]; "
        f"closed form vs quadrature Z, U, C within {worst_quad:.1e}",
    )


def check_derivative_consistency(quick: bool = False) -> CheckResult:
    """Analytic U, C, S of the closed form against differences of its own ln Z."""
    betas = (0.1,) if quick else (0.05, 0.1, 0.5)
    worst = 0.0
    for k in (-0.1, -0.3):
        p = _params(1.0, k)
        for beta in betas:
            def log_z(b: float) -> float:
                return math.log(thermo.partition_paper(
                    thermo.ThermoInput(params=p, m=1, beta=b)).diagnostics["z_corrected"])

            def u_of(b: float) -> float:
                return thermo.average_energy(
                    thermo.ThermoInput(params=p, m=1, beta=b,
                                       strategy=thermo.Strategy.PAPER_CLOSED_FORM))

            def f_of(b: float) -> float:
                return thermo.free_energy(
                    thermo.ThermoInput(params=p, m=1, beta=b,
                                       strategy=thermo.Strategy.PAPER_CLOSED_FORM))

            inp = thermo.ThermoInput(params=p, m=1, beta=beta,
                                     strategy=thermo.Strategy.PAPER_CLOSED_FORM)
            h = 1e-3 * beta
            u_ref = -central_diff(log_z, beta, 1, h)
            c_ref = -beta * beta * central_diff(u_of, beta, 1, h)
            s_ref = beta * beta * central_diff(f_of, beta, 1, h)
            worst = max(
                worst,
                abs(thermo.average_energy(inp) - u_ref) / abs(u_ref),
                abs(thermo.heat_capacity(inp) - c_ref) / abs(c_ref),
                abs(thermo.entropy(inp) - s_ref) / abs(s_ref),
            )
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
        for t, res in zip(temps, thermo.sweep(p, 1, 500, _betas(p, temps))):
            lhs = res.f
            rhs = res.u - t * res.s
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    return CheckResult("thermo_identity", worst <= 1e-8, f"max |F - (U - T S)| rel = {worst:.3e}")


def check_truncation_insensitivity(quick: bool = False) -> CheckResult:
    """Z at N=300 vs N=500 agree to 1e-12 for T <= 50."""
    worst = 0.0
    for k in FIGURE_K_LIST:
        p = _params(1.0, k)
        for t in (1.0, 10.0, 50.0):
            z300 = thermo.partition_direct(
                thermo.ThermoInput.from_temperature(p, 1, t, truncation_n=300)).z
            z500 = thermo.partition_direct(
                thermo.ThermoInput.from_temperature(p, 1, t, truncation_n=500)).z
            worst = max(worst, abs(z300 - z500) / z500)
    return CheckResult("truncation_insensitivity", worst <= 1e-12, f"max rel = {worst:.3e}")


def strictly_decreasing_resolvable(temps, fs, ss) -> bool:
    """Strict decrease of F wherever a decrease is resolvable in doubles.

    dF/dT = -S, so the expected decrement between grid points is about
    S * dT. Deep in the frozen regime that decrement falls below the floating
    point resolution of F itself and consecutive values tie exactly; a tie is
    then the correct outcome, not a monotonicity violation.
    """
    for i in range(len(fs) - 1):
        resolution = 8.0 * 2.220446049250313e-16 * max(1.0, abs(fs[i]))
        expected_drop = ss[i] * (temps[i + 1] - temps[i])
        if expected_drop > resolution:
            if not fs[i + 1] < fs[i]:
                return False
        elif fs[i + 1] > fs[i] + resolution:
            return False
    return True


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
            rows = thermo.sweep(p, m, 500, _betas(p, temps))
            zs = [r.z for r in rows]
            fs = [r.f for r in rows]
            ss = [r.s for r in rows]
            if any(b <= a for a, b in zip(zs, zs[1:])):
                return CheckResult("figure_properties", False, f"Z not increasing (m={m}, k={k})")
            if not strictly_decreasing_resolvable(list(temps), fs, ss):
                return CheckResult("figure_properties", False, f"F not decreasing (m={m}, k={k})")
            if any(b <= a for a, b in zip(ss, ss[1:])):
                return CheckResult("figure_properties", False, f"S not increasing (m={m}, k={k})")
            plateau = thermo.find_heat_capacity_plateau(p, m, 500)
            if plateau is None:
                return CheckResult(
                    "figure_properties", False, f"no heat-capacity plateau found (m={m}, k={k})"
                )
            c50 = thermo.heat_capacity(thermo.ThermoInput.from_temperature(p, m, 50.0))
            plateau_c50.append(c50)
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
