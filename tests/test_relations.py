"""Relations every thermodynamics strategy keeps over the documented box,
with no oracle to compare against:

- m and -m give the same series, bit for bit: the spectrum is even in m;
- kb = 2 doubles C and S exactly, C within one unit of 2^-1074 where it
  is subnormal, and leaves Z, ln Z, U and F as they are;
- F = U - TS, within the rounding of the five quantities;
- the direct sum's C and S are nonnegative;
- a direct series whose rows are all cut below level N gives the same
  values at a larger N, bit for bit, n_terms too: it counts the levels with
  beta d <= 746, which do not depend on N;
- (alpha, k, beta) -> (2 alpha, 2 k, beta/2) doubles every level and halves
  beta, so every weight exp(-beta E) stays: ln Z, C, S and the diagnostics
  stay and U and F double, bit for bit for the direct sum and the pipeline
  wherever no value is subnormal;
  the closed form rounds sqrt(beta/2) apart from sqrt(beta)/sqrt(2) in
  its erfcx arguments, and holds within erfcx's error;
- the closed form's verbatim Z exceeds the corrected Z by its boundary term
  at d_t - a_t minus the one at E_0.

Where a strategy refuses a point, it refuses it on both sides of a relation,
with the same error class.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdm_osc.errors import PdmOscError
from pdm_osc.oscillator import SystemParams, spectrum_terms
from pdm_osc.thermo import Strategy, sweep

import box
from test_oscillator import assert_bits_equal

QUANTITIES = ("beta", "z", "log_z", "u", "c", "f", "s")
EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny


def outcome(params, m, n, betas, strategy, variant="corrected"):
    """The series of sweep, or the refusal it raises."""
    try:
        return sweep(params, m, n, betas, strategy, variant)
    except PdmOscError as refusal:
        return refusal


def assert_series_equal(got, want, doubled=()):
    """Every quantity and diagnostic bit for bit, the quantities named in
    doubled at twice want's value. A doubled C whose value is subnormal may
    lie one unit of 2^-1074 away: C = kb beta beta var, formed left to
    right, rounds 2 beta^2 var once on that grid, and twice the rounding of
    beta^2 var can differ from it by 1.5 units, so by at most one."""
    for name in QUANTITIES:
        value = 2.0 * getattr(want, name) if name in doubled else getattr(want, name)
        loose = (name == "c" and name in doubled) & (np.abs(value) < 2.0 * TINY)
        assert_bits_equal(getattr(got, name)[~loose], value[~loose])
        assert np.all(np.abs(getattr(got, name) - value)[loose] <= TINY * EPS), name
    assert got.diagnostics.keys() == want.diagnostics.keys()
    for name, column in got.diagnostics.items():
        assert_bits_equal(column, want.diagnostics[name])


def assert_same_outcome(got, want, doubled=()):
    """Both refused with one error class, or both series equal."""
    if isinstance(got, PdmOscError) or isinstance(want, PdmOscError):
        assert type(got) is type(want), (got, want)
    else:
        assert_series_equal(got, want, doubled)


@pytest.mark.parametrize("strategy", list(Strategy))
@settings(max_examples=60)
@given(alpha=box.ALPHA, k=box.K, m=box.M, n=box.N,
       betas=st.lists(box.BETA, min_size=1, max_size=4))
@example(alpha=128.63969449369745, k=-0.1, m=0, n=1, betas=[2.838735964758755])
def test_relations(strategy, alpha, k, m, n, betas):
    params = SystemParams(alpha=alpha, k=k)
    series = outcome(params, m, n, betas, strategy)
    assert_same_outcome(outcome(params, -m, n, betas, strategy), series)
    assert_same_outcome(outcome(dataclasses.replace(params, kb=2.0), m, n, betas, strategy),
                        series, doubled=("c", "s"))
    if isinstance(series, PdmOscError):
        return
    beta, u, f, s = series.beta, series.u, series.f, series.s
    # F = E_0 - ln M_0 / beta and U - TS = E_0 + <d> - (ln M_0 + beta <d>) / beta
    # each take a few roundings, each within eps of a term that scale bounds
    scale = np.abs(u) + np.abs(f) + np.abs(s) / beta
    assert np.all(np.abs(f - (u - s / (params.kb * beta))) <= 8.0 * EPS * scale)
    if strategy is Strategy.DIRECT_SUM:
        assert np.all(series.c >= 0.0) and np.all(series.s >= 0.0)
        if series.diagnostics["n_terms"].max() <= n:
            longer = sweep(params, m, 2 * n + 1, betas, strategy)
            for name in QUANTITIES:
                assert_bits_equal(getattr(longer, name), getattr(series, name))
            assert_bits_equal(longer.diagnostics["n_terms"], series.diagnostics["n_terms"])


# erfcx's documented bound below u = 1.5, where its moment factor h cancels
# by up to 23x; the two sides of the closed form's scaling law each carry it
ERFCX_BOUND = 3e-14
PAPER_SCALING_TOL = 2.0 * 23.0 * ERFCX_BOUND


@pytest.mark.parametrize("strategy", list(Strategy))
@settings(max_examples=60)
@given(alpha=box.ALPHA, k=box.K, m=box.M, n=box.N,
       betas=st.lists(box.BETA, min_size=1, max_size=4))
@example(alpha=1e150, k=-0.1, m=0, n=3351, betas=[1.0])
def test_power_of_two_scaling(strategy, alpha, k, m, n, betas):
    """Under (alpha, k, beta) -> (2 alpha, 2 k, beta/2) the direct sum and
    the pipeline give ln Z, C, S and every diagnostic bit for bit and U and
    F doubled, but where a value lies below TINY max(1, beta)^2: a
    subnormal variance or mean keeps fewer bits, so there C and S hold
    within that floor. The closed form holds within PAPER_SCALING_TOL of each
    quantity's scale: ln Z = -beta E_0 + ln M_0 and F = -ln Z/beta of
    1 + beta E_0 + |ln M_0|, U of |U|, C = M_2/M_0 - r^2 of |C| + 3 r^2 and
    S = ln M_0 + r of 1 + |ln M_0| + |r|, with r = beta (U - E_0); its Z is
    exp(ln Z)."""
    params = SystemParams(alpha=alpha, k=k)
    series = outcome(params, m, n, betas, strategy)
    scaled = outcome(SystemParams(alpha=2.0 * alpha, k=2.0 * k), m, n,
                     [beta / 2.0 for beta in betas], strategy)
    if isinstance(series, PdmOscError) or isinstance(scaled, PdmOscError):
        assert type(scaled) is type(series), (scaled, series)
        return
    beta, factors = series.beta, {"beta": 0.5, "u": 2.0, "f": 2.0}
    if strategy is not Strategy.PAPER_CLOSED_FORM:
        floor = TINY * np.maximum(1.0, beta) ** 2
        for name in QUANTITIES:
            got, want = getattr(scaled, name) / factors.get(name, 1.0), getattr(series, name)
            normal = np.abs(want) >= floor
            assert_bits_equal(got[normal], want[normal])
            assert np.all(np.abs(got - want)[~normal] <= floor[~normal]), name
        assert scaled.diagnostics.keys() == series.diagnostics.keys()
        for name, column in scaled.diagnostics.items():
            assert_bits_equal(column, series.diagnostics[name])
        return
    e0 = spectrum_terms(params, m)[0]
    log_m0, r = series.log_z + beta * e0, beta * (series.u - e0)
    lnz_scale = 1.0 + beta * e0 + np.abs(log_m0)
    for name, scale in [("log_z", lnz_scale), ("f", lnz_scale / beta), ("u", np.abs(series.u)),
                        ("c", np.abs(series.c) + 3.0 * r * r), ("s", 1.0 + np.abs(log_m0) + np.abs(r))]:
        got, want = getattr(scaled, name) / factors.get(name, 1.0), getattr(series, name)
        assert np.all(np.abs(got - want) <= PAPER_SCALING_TOL * scale), name


@settings(max_examples=60)
@given(alpha=box.ALPHA, k=box.K, m=st.sampled_from([-1, 1]), n=box.N,
       betas=st.lists(box.BETA, min_size=1, max_size=4),
       ratio=box.log_uniform(4.0, 1e3))
@example(alpha=1.0, k=-0.1, m=1, n=500, betas=[1.0], ratio=10.0)
@example(alpha=40.67944321083047, k=-0.1, m=-1, n=0, betas=[9.098805364596211], ratio=10.0)
def test_verbatim_minus_corrected_is_the_boundary_shift(alpha, k, m, n, betas, ratio):
    """Z_verbatim - Z_corrected = [exp(-beta (d_t - a_t)) - exp(-beta E_0)]/2:
    the two variants share the integral and differ only in the boundary
    level. lam = ratio alpha, ratio >= 4, puts the verbatim level
    d_t - a_t above E_0, by at least alpha - 3|k|/2 (|m| = 1: at any other
    |m| it lies at or below E_0). Each Z is exp(ln Z), within 4 eps (1 +
    |ln Z| + beta |E_0|) of itself, and the right side within 4 eps
    (1 + beta (d_t - a_t)) of each exponential. Where a value is subnormal,
    its rounding is absolute too: each of the four exponentials is off by
    at most one unit of 2^-1074 (the two Z by one each, the two halved
    boundary terms by half each) and the halving rounds by half of one
    more, 3.5 units in all, which the floor of 4 covers; differences of
    subnormals are exact."""
    params = SystemParams(alpha=alpha, k=k, lam=ratio * alpha)
    corrected, verbatim = (outcome(params, m, n, betas, Strategy.PAPER_CLOSED_FORM, variant)
                           for variant in ("corrected", "verbatim"))
    if isinstance(corrected, PdmOscError) or isinstance(verbatim, PdmOscError):
        assert type(corrected) is type(verbatim), (corrected, verbatim)
        return
    # the boundary level d_t - a_t from the paper's literal verbatim d_t and
    # a_t, a route apart from the code's D/2
    lam, am = params.lam, abs(m)
    d_t, a_t = am * np.hypot(lam, alpha) - lam * m * m / 2.0, k * (am + 1.0) - np.hypot(alpha, k)
    level = d_t - a_t
    e0, beta = spectrum_terms(params, m)[0], corrected.beta
    assert level > e0
    boundary, ground = np.exp(-beta * level), np.exp(-beta * e0)
    rounding = 4.0 * EPS * (verbatim.z * (1.0 + np.abs(verbatim.log_z) + beta * e0)
                            + corrected.z * (1.0 + np.abs(corrected.log_z) + beta * e0)
                            + (boundary + ground) * (1.0 + beta * level)) + 4.0 * TINY * EPS
    assert np.all(np.abs((verbatim.z - corrected.z) - 0.5 * (boundary - ground)) <= rounding)
