"""The documented parameter box, declared once for every property test.

The README holds the package to this box: k in [-0.5, -1e-8], where the
k -> 0- edge brings the Dulong-Petit plateau; |m| <= 60; N in [1, 1e5],
plus the single-level edge N = 0; beta in [1e-4, 1e3] (kb = 1, so T in
[1e-3, 1e4]); alpha in [1, 1e150]. Each quantity is a pair of bounds and
a hypothesis strategy here. k, beta, T and alpha are drawn log-uniformly,
so every decade is sampled, and N both uniformly and log-uniformly.

Some tests draw beyond the box. They draw from a named shell below and say
why in their docstrings. No test declares a range of k, m, N, beta, alpha,
kb or T of its own.
"""

import math
import operator

from hypothesis import strategies as st

K_MIN, K_MAX = -0.5, -1e-8
M_MAX = 60
N_MAX = 100_000
BETA_MIN, BETA_MAX = 1e-4, 1e3
ALPHA_MIN, ALPHA_MAX = 1.0, 1e150
# the radial degrees n_r = 0..40 of a wavefunction family
DEGREE_MAX = 40


def log_uniform(lo: float, hi: float) -> st.SearchStrategy[float]:
    """Floats in [lo, hi], 0 < lo <= hi, uniform in log10: the power is
    clamped, so the bounds hold exactly."""
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda u: min(max(10.0**u, lo), hi))


def negative_log_uniform(lo: float, hi: float) -> st.SearchStrategy[float]:
    """Floats in [lo, hi], lo <= hi < 0, uniform in log10 |x|."""
    return log_uniform(-hi, -lo).map(operator.neg)


K = negative_log_uniform(K_MIN, K_MAX)
M = st.integers(-M_MAX, M_MAX)
N = st.one_of(st.just(0), st.integers(1, N_MAX), log_uniform(1.0, N_MAX).map(round))
BETA = log_uniform(BETA_MIN, BETA_MAX)
TEMPERATURE = log_uniform(1.0 / BETA_MAX, 1.0 / BETA_MIN)
ALPHA = log_uniform(ALPHA_MIN, ALPHA_MAX)
DEGREE = st.integers(0, DEGREE_MAX)

# Shells beyond the box.
# |k| up to 5: the spectrum, norm and regime-edge tests have always reached
# past the strong-coupling end, where |k| exceeds alpha
K_WIDE = negative_log_uniform(-5.0, K_MAX)
# k down to -1e-14 (b = sqrt(1/k^2 + 1) up to 1e14): the Jacobi recurrence's
# own range, past where any command goes
K_JACOBI = negative_log_uniform(-5.0, -1e-14)
# alpha from 1e-3: a weak oscillator, where E_0 no longer dwarfs k
ALPHA_WIDE = log_uniform(1e-3, ALPHA_MAX)
# The outer shells of a fuzz, where each input either gives values within
# their error model or is refused with one typed line.
ALPHA_OUTER = log_uniform(1e-3, 1e300)
KB_OUTER = log_uniform(1.0, 1e308)
TEMPERATURE_OUTER = log_uniform(1e-150, 1e300)
