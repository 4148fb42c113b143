"""Relations every thermodynamics strategy keeps over the documented box,
with no oracle to compare against:

- m and -m give the same series, bit for bit: the spectrum is even in m;
- kb = 2 doubles C and S exactly and leaves Z, ln Z, U and F as they are;
- F = U - TS, within the rounding of the five quantities;
- the direct sum's C and S are nonnegative;
- a direct series whose rows are all cut below level N gives the same
  values at a larger N, bit for bit (its cut lengths, n_terms, are nodes
  of the pairwise tree of the N + 1 levels, so they may move with N).

Where a strategy refuses a point, it refuses it on both sides of a relation,
with the same error class.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdm_osc.errors import PdmOscError
from pdm_osc.oscillator import SystemParams
from pdm_osc.thermo import Strategy, sweep

import box
from test_oscillator import assert_bits_equal

QUANTITIES = ("beta", "z", "log_z", "u", "c", "f", "s")
EPS = np.finfo(float).eps


def outcome(params, m, n, betas, strategy):
    """The series of sweep, or the refusal it raises."""
    try:
        return sweep(params, m, n, betas, strategy)
    except PdmOscError as refusal:
        return refusal


def assert_series_equal(got, want, doubled=()):
    """Every quantity and diagnostic bit for bit, the quantities named in
    doubled at twice want's value."""
    for name in QUANTITIES:
        assert_bits_equal(getattr(got, name),
                          2.0 * getattr(want, name) if name in doubled else getattr(want, name))
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
