"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Each test pins its tolerance explicitly and measures its runtime
budget. Criterion 5a holds the quadrature pipeline to the error model of the
first-order summation formula it evaluates: its gap to the direct sum must be
the Euler-Maclaurin term [f'(N+1) - f'(0)]/12 up to the rigorous bound on the
next remainder, and within 1e-3 relative wherever that model allows 1e-3.
"""

import math
import time

import numpy as np

import pdm_osc as p
from pdm_osc import thermo
from pdm_osc.specfun import QuadratureSpec, central_diff, integrate
from pdm_osc.validate import FIXTURE_PARAM_SETS, FIXTURE_STATES, strictly_decreasing_resolvable

FIG_KS = (-0.1, -0.2, -0.3)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


def test_criterion_01_spectrum_quantization_round_trip():
    """Closed-form energies zero the quantization condition to 1e-9."""
    t0 = time.perf_counter()
    worst = 0.0
    for alpha in (1.0, 2.0):
        for k in (-0.1, -0.5, -1.0):
            params = p.SystemParams(alpha=alpha, k=k)
            for n in range(9):
                for m in range(-4, 5):
                    prob = p.nu_instance(params, m, p.energy(params, n, m))
                    res = p.quantization_residual(p.derive_coefficients(prob), n)
                    worst = max(worst, abs(res))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    report("1 spectrum round trip", ok, f"max |residual| = {worst:.3e}, {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 1.0


def test_criterion_02_ode_residual_and_sensitivity():
    """Eigenstates satisfy the radial equation to 1e-8; E+0.05 exceeds 1e-3."""
    t0 = time.perf_counter()
    worst = 0.0
    weakest_perturbed = math.inf
    for alpha, k in FIXTURE_PARAM_SETS:
        params = p.SystemParams(alpha=alpha, k=k)
        rs = params.r_max * (0.02 + 0.96 * np.arange(50) / 49.0)
        fracs = params.r_max * np.array([0.2, 0.35, 0.5, 0.65, 0.8])
        for n, m in FIXTURE_STATES:
            worst = max(worst, np.abs(p.ode_residual(params, n, m, rs)).max().item())
            shifted = p.energy(params, n, m) + 0.05
            peak = np.abs(p.ode_residual(params, n, m, fracs,
                                         energy_override=shifted)).max().item()
            weakest_perturbed = min(weakest_perturbed, peak)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and weakest_perturbed > 1e-3 and elapsed < 10.0
    report("2 radial equation residual", ok,
           f"max residual = {worst:.3e}, weakest perturbed = {weakest_perturbed:.3e}, "
           f"{elapsed:.2f}s")
    assert worst <= 1e-8
    assert weakest_perturbed > 1e-3
    assert elapsed < 10.0


def test_criterion_03_normalization_and_orthogonality():
    """Unit norm within 1e-8 and cross terms within 1e-6 at fixed m.

    Both statements hold in the inner product that diagonalizes the radial
    operator, weight r/(1 + delta_sq r^2); under the plain r dr measure the
    exact eigenfunctions are not orthogonal (adjacent cross term ~0.28,
    printed below for contrast), so that measure cannot satisfy this
    criterion's orthogonality half and is not used.
    """
    t0 = time.perf_counter()
    worst_norm = 0.0
    worst_cross = 0.0
    for alpha, k in FIXTURE_PARAM_SETS:
        params = p.SystemParams(alpha=alpha, k=k)
        for m in (0, 1, 2):
            for n in range(4):
                worst_norm = max(worst_norm, abs(p.radial_overlaps(params, [(m, n, n)])[0] - 1.0))
            for n1 in range(4):
                for n2 in range(n1 + 1, 4):
                    worst_cross = max(worst_cross,
                                      abs(p.radial_overlaps(params, [(m, n1, n2)])[0]))
    # flat-measure contrast, one fixture
    params = p.SystemParams(alpha=1.0, k=-0.5)
    family = p.RadialFamily(params, 0, 1)  # U_0 and U_1 at m = 0
    flat = integrate(lambda r, _: family.values(r, 0) * family.values(r, 1) * r,
                     QuadratureSpec(0.0, params.r_max * (1 - 1e-10), rel_tol=1e-9)).value
    norm0 = integrate(lambda r, _: family.values(r, 0) ** 2 * r,
                      QuadratureSpec(0.0, params.r_max * (1 - 1e-10), rel_tol=1e-9)).value
    norm1 = integrate(lambda r, _: family.values(r, 1) ** 2 * r,
                      QuadratureSpec(0.0, params.r_max * (1 - 1e-10), rel_tol=1e-9)).value
    flat_cross = abs(flat) / math.sqrt(norm0 * norm1)
    elapsed = time.perf_counter() - t0
    ok = worst_norm <= 1e-8 and worst_cross <= 1e-6 and elapsed < 10.0
    report("3 normalization/orthogonality", ok,
           f"|norm-1| = {worst_norm:.3e}, cross = {worst_cross:.3e} "
           f"(flat-measure cross would be {flat_cross:.3f}), {elapsed:.2f}s")
    assert worst_norm <= 1e-8
    assert worst_cross <= 1e-6
    assert elapsed < 10.0


def test_criterion_04_small_k_limits():
    """k -> 0: ladder energies, geometric Z and the equipartition plateau."""
    params = p.SystemParams(alpha=1.0, k=-1e-8)
    worst_e = max(
        abs(p.energy(params, n, m) - (2 * n + abs(m) + 1))
        for n in range(6) for m in range(-3, 4)
    )
    flat = p.SystemParams(alpha=1.0, k=0.0)
    worst_z = 0.0
    betas = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0)
    for beta, z in zip(betas, thermo.sweep(flat, 1, 500, betas).z.tolist()):
        geom = math.exp(-2 * beta) / (1.0 - math.exp(-2 * beta))
        worst_z = max(worst_z, abs(z - geom) / geom)
    c100 = thermo.sweep(flat, 1, 500, [1.0 / (flat.kb * 100.0)]).c.item()
    ok = worst_e <= 1e-6 and worst_z <= 1e-10 and abs(c100 - 1.0) <= 0.01
    report("4 k->0 limits", ok,
           f"energy dev = {worst_e:.3e}, ladder Z dev = {worst_z:.3e}, C(100) = {c100:.4f}")
    assert worst_e <= 1e-6
    assert worst_z <= 1e-10
    assert abs(c100 - 1.0) <= 0.01


def _triangulation_report():
    """Per k, one row per beta: the direct sum's and the pipeline's Z and
    their relative gap."""
    betas = [0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0]
    reports = {}
    for k in FIG_KS:
        params = p.SystemParams(alpha=1.0, k=k)
        zd, zp = (thermo.sweep(params, 1, 500, betas, strategy).z.tolist() for strategy in (
            thermo.Strategy.DIRECT_SUM, thermo.Strategy.POISSON_PIPELINE))
        reports[k] = [{"beta": beta, "z_direct": d, "z_poisson": q, "rel_poisson": abs(q - d) / d}
                      for beta, d, q in zip(betas, zd, zp)]
    return reports


# sup |B~_3(x)| / 3! = 2 zeta(3) / (2 pi)^3, from the Fourier series of the
# periodic Bernoulli function (DLMF 24.8.2)
EM_R3_CONST = 2.0 * 1.2020569031595942 / (2.0 * math.pi) ** 3


def _em_first_order_model(alpha, k, m, truncation_n, beta):
    """Euler-Maclaurin model of the pipeline's gap to the direct sum.

    With f(x) = exp(-beta [E(x) - E(0)]) and b = N + 1, DLMF 2.10.1 gives

        sum_{n=0}^{N} f(n) - [f(0) - f(b)]/2 - int_0^b f = T1 + R3,
        T1 = [f'(b) - f'(0)]/12,   |R3| <= 2 zeta(3)/(2 pi)^3 int_0^b |f'''|.

    E is the README spectrum continued to real n, so for k < 0 E' > 0 is
    increasing and E'' = -4k. Then f''' = beta^2 E' f (3 E'' - beta E'^2)
    changes sign at most once, at x* where beta E'(x*)^2 = 3 E'', and
    int |f'''| follows from f'' alone. Returns E(0), T1 and the bound on
    |R3|, the last two scaled by exp(beta E(0)). Written without pdm_osc,
    which is the code under check.
    """
    am = abs(m)
    hyp = math.hypot(alpha, k)
    e2 = -4.0 * k

    def e(x):
        return (2.0 * x + am + 1.0) * hyp - k * (
            2.0 * x * x + m * m / 2.0 + (2.0 * x + 1.0) * (am + 1.0))

    def e1(x):
        return 2.0 * hyp - 2.0 * k * (am + 1.0) + e2 * x

    e0 = e(0.0)

    def f(x):
        return math.exp(-beta * (e(x) - e0))

    def f1(x):
        return -beta * e1(x) * f(x)

    def f2(x):
        return beta * (beta * e1(x) ** 2 - e2) * f(x)

    b = truncation_n + 1.0
    t1 = (f1(b) - f1(0.0)) / 12.0
    x_star = (math.sqrt(3.0 * e2 / beta) - e1(0.0)) / e2
    if 0.0 < x_star < b:
        abs_f3 = 2.0 * f2(x_star) - f2(0.0) - f2(b)
    else:
        abs_f3 = abs(f2(b) - f2(0.0))
    return e0, t1, EM_R3_CONST * abs_f3


def test_criterion_05a_direct_vs_poisson_pipeline():
    """Direct sum vs quadrature pipeline within the summation formula's error model.

    The pipeline computes [f(0) - f(N+1)]/2 + int_0^{N+1} f, the first-order
    summation formula, so its gap to the direct sum is that formula's
    truncation error: ~3e-4 relative at beta = 0.01, ~0.24 at beta = 1 on
    this parameter set. No fixed relative bound fits that across the grid.
    Euler-Maclaurin splits the gap into the leading neglected term
    T1 = [f'(N+1) - f'(0)]/12 and a remainder R3 with a rigorous bound, so
    at every (k, beta) |(Z_direct - Z_poisson) - T1| <= bound(R3) must hold.
    At small beta the bound is far below T1, so this catches a pipeline
    integral that is off by 1e-5 relative. Wherever the model itself allows a 1e-3 match,
    (|T1| + bound(R3)) / Z_direct <= 1e-3, the raw relative gap must also be
    within 1e-3, and each k must have at least one such beta.
    """
    t0 = time.perf_counter()
    reports = _triangulation_report()
    worst_ratio = 0.0
    worst_rel = 0.0
    misses = []
    for k, rows in reports.items():
        print(f"discrepancy report, m=1, N=500, k={k}:")
        literal_betas = []
        for row in rows:
            beta = row["beta"]
            print(f"{beta:>10.4g} {row['z_direct']:>14.8g} {row['rel_poisson']:>12.3e}")
            e0, t1, r3_bound = _em_first_order_model(1.0, k, 1, 500, beta)
            scale = math.exp(beta * e0)
            gap = (row["z_direct"] - row["z_poisson"]) * scale
            ratio = abs(gap - t1) / r3_bound
            worst_ratio = max(worst_ratio, ratio)
            if ratio > 1.0:
                misses.append(f"k={k} beta={beta}: |gap - T1| = {abs(gap - t1):.3e} "
                              f"> bound(R3) = {r3_bound:.3e}")
            if (abs(t1) + r3_bound) / (row["z_direct"] * scale) <= 1e-3:
                literal_betas.append(beta)
                worst_rel = max(worst_rel, row["rel_poisson"])
        print(f"k={k}: model allows 1e-3 at beta in {literal_betas}")
        assert literal_betas, f"k={k}: the model allows 1e-3 at no beta on the grid"
    elapsed = time.perf_counter() - t0
    ok = not misses and worst_rel <= 1e-3 and elapsed < 30.0
    report("5a direct vs poisson pipeline", ok,
           f"max |gap - T1| / bound(R3) = {worst_ratio:.3f} over beta <= 1; "
           f"max rel = {worst_rel:.3e} where the model allows 1e-3, {elapsed:.2f}s")
    assert elapsed < 30.0
    assert not misses, (
        "direct-vs-pipeline gap departs from the leading Euler-Maclaurin term "
        "T1 by more than the remainder bound: " + "; ".join(misses)
    )
    assert worst_rel <= 1e-3, (
        f"direct-vs-pipeline relative gap {worst_rel:.3e} > 1e-3 at a beta "
        "where |T1| + bound(R3) is within 1e-3 of Z_direct"
    )


def test_criterion_05b_paper_closed_form_vs_direct():
    """Best closed-form variant within 5% of the direct sum on T in [5, 50]."""
    t0 = time.perf_counter()
    worst = 0.0
    for k in FIG_KS:
        params = p.SystemParams(alpha=1.0, k=k)
        betas = [1.0 / t for t in np.linspace(5.0, 50.0, 16)]
        zd = thermo.sweep(params, 1, 500, betas).z
        zc, zv = (thermo.sweep(params, 1, 500, betas, thermo.Strategy.PAPER_CLOSED_FORM, v).z
                  for v in ("corrected", "verbatim"))
        worst = max(worst, np.max(np.minimum(np.abs(zc - zd), np.abs(zv - zd)) / zd).item())
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.05 and elapsed < 30.0
    report("5b closed form vs direct", ok,
           f"max rel (best variant) = {worst:.4f} on T in [5, 50], {elapsed:.2f}s")
    assert worst <= 0.05
    assert elapsed < 30.0


def test_criterion_06_differentiation_algebra():
    """Analytic U, C, S of the closed form match differences of its ln Z."""
    worst = 0.0
    for k in (-0.1, -0.3):
        params = p.SystemParams(alpha=1.0, k=k)
        for beta in (0.05, 0.1, 0.5):
            def closed_form(b, quantity):
                return getattr(thermo.sweep(params, 1, 500, [b],
                                            thermo.Strategy.PAPER_CLOSED_FORM), quantity).item()

            def stencil(quantity, g=lambda x: x):
                """g of the quantity at each stencil point, one one-point sweep each."""
                return np.vectorize(lambda b: g(closed_form(b, quantity)), otypes=[float])

            h = 1e-3 * beta
            u_ref = -central_diff(stencil("z", math.log), beta, 1, h)
            c_ref = -beta * beta * central_diff(stencil("u"), beta, 1, h)
            s_ref = beta * beta * central_diff(stencil("f"), beta, 1, h)
            worst = max(
                worst,
                abs(closed_form(beta, "u") - u_ref) / abs(u_ref),
                abs(closed_form(beta, "c") - c_ref) / abs(c_ref),
                abs(closed_form(beta, "s") - s_ref) / abs(s_ref),
            )
    ok = worst <= 1e-6
    report("6 differentiation algebra", ok, f"max rel (U, C, S vs differences) = {worst:.3e}")
    assert worst <= 1e-6


def test_criterion_07_figure_properties():
    """Monotone Z, F, S; heat capacity saturates and its level depends on k.

    Saturation: for each k there is an empirically found window [T*, 2T*]
    over which C varies by less than 1%. k dependence: the saturation level
    read at the top of the figure grid (T = 50) spreads by more than 2%
    across k and is monotone in k. (The two readings are distinct on
    purpose: on the common asymptote T ~ 1000 the curves collapse onto the
    k-independent equipartition value, so a single T would not support both
    statements.)
    """
    t0 = time.perf_counter()
    temps = np.geomspace(0.1, 50.0, 160)
    details = []
    for m in (1, 2):
        c50 = []
        for k in FIG_KS:
            params = p.SystemParams(alpha=1.0, k=k)
            series = thermo.sweep(params, m, 500, 1.0 / (params.kb * temps))
            zs, fs, ss = series.z.tolist(), series.f.tolist(), series.s.tolist()
            assert all(b > a for a, b in zip(zs, zs[1:])), f"Z not increasing (m={m}, k={k})"
            assert strictly_decreasing_resolvable(list(temps), fs, ss), \
                f"F not decreasing (m={m}, k={k})"
            assert all(b > a for a, b in zip(ss, ss[1:])), f"S not increasing (m={m}, k={k})"
            plateau = thermo.find_heat_capacity_plateau(params, m, 500)
            assert plateau is not None, f"no saturation window (m={m}, k={k})"
            assert plateau.variation < 0.01
            c50.append(thermo.sweep(params, m, 500, [1.0 / (params.kb * 50.0)]).c.item())
            details.append(f"m={m} k={k}: T*={plateau.t_star:.0f} "
                           f"C[T*,2T*]={plateau.value:.4f} C(50)={c50[-1]:.4f}")
        spread = (max(c50) - min(c50)) / min(c50)
        assert spread > 0.02, f"C(50) spread {spread:.4f} <= 2% (m={m})"
        assert all(b < a for a, b in zip(c50, c50[1:])), f"C(50) not monotone in k (m={m})"
        details.append(f"m={m}: C(50) spread = {spread:.3f}")
    elapsed = time.perf_counter() - t0
    report("7 figure properties", elapsed < 60.0, "; ".join(details) + f", {elapsed:.2f}s")
    assert elapsed < 60.0


def test_criterion_08_thermodynamic_identity():
    """F = U - T S for the direct sum across the full figure grid."""
    worst = 0.0
    for k in FIG_KS:
        params = p.SystemParams(alpha=1.0, k=k)
        temps = np.geomspace(0.1, 50.0, 120)
        series = thermo.sweep(params, 1, 500, 1.0 / (params.kb * temps))
        for t, f, u, s in zip(temps.tolist(), series.f.tolist(), series.u.tolist(),
                              series.s.tolist()):
            worst = max(worst, abs(f - (u - t * s)) / max(1.0, abs(f)))
    ok = worst <= 1e-8
    report("8 thermodynamic identity", ok, f"max |F - (U - T S)| rel = {worst:.3e}")
    assert worst <= 1e-8


def test_criterion_09_truncation_insensitivity():
    """Z at N=300 and N=500 agree to 1e-12 for T <= 50."""
    worst = 0.0
    for k in FIG_KS:
        params = p.SystemParams(alpha=1.0, k=k)
        betas = 1.0 / (params.kb * np.geomspace(0.1, 50.0, 30))
        z300, z500 = (thermo.sweep(params, 1, n, betas).z for n in (300, 500))
        worst = max(worst, (np.abs(z300 - z500) / z500).max().item())
    ok = worst <= 1e-12
    report("9 truncation insensitivity", ok, f"max rel diff = {worst:.3e}")
    assert worst <= 1e-12


def test_criterion_10_deterministic_output(tmp_path):
    """Repeated figure runs produce byte-identical CSV files."""
    from pdm_osc.cli import main

    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    args = ["figures", "--m", "1"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    identical = True
    for q in ("Z", "U", "C", "F", "S"):
        with open(out1 / f"figures_m1_{q}.csv", "rb") as fh:
            b1 = fh.read()
        with open(out2 / f"figures_m1_{q}.csv", "rb") as fh:
            b2 = fh.read()
        identical = identical and b1 == b2
    report("10 determinism", identical, "two default figure runs, five files each")
    assert identical
