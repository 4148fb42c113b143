"""Canonical-ensemble tests: three partition strategies, U/C/F/S, reports."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdm_osc import thermo
from pdm_osc.cli import _resolve, _temperature_grid, _thermo_heads, _thermo_rows, build_parser
from pdm_osc.errors import DomainError, NonPhysicalError
from pdm_osc.oscillator import SystemParams, energy, excitation, spectrum_terms
from pdm_osc.specfun import QuadratureSpec, central_diff, integrate
from pdm_osc.thermo import (
    Strategy,
    find_heat_capacity_plateau,
    sweep,
    _spine,
)
from pdm_osc.validate import FIGURE_K_LIST, strictly_decreasing_resolvable

import box
from test_acceptance import _em_first_order_model
from test_oscillator import assert_bits_equal

PHYS = SystemParams(alpha=1.0, k=-0.3)


def one_dimensional_sums(d, beta):
    """sum w, the mean <d> and the variance <(d - <d>)^2>, with
    w = exp(-beta d), as uncut 1-D sums over the whole excitation vector d;
    then U = E_0 + <d>."""
    w = np.exp(-beta * d)
    sw = float(w.sum())
    mean = float((d * w).sum()) / sw
    return sw, mean, float(((d - mean) ** 2 * w).sum()) / sw


def fsum_sums(d, w):
    """sum w, the mean <d> and the variance <(d - <d>)^2> of the weights w
    at the excitations d, each sum taken by math.fsum of its float terms."""
    sw = math.fsum(w.tolist())
    mean = math.fsum((d * w).tolist()) / sw
    return sw, mean, math.fsum(((d - mean) ** 2 * w).tolist()) / sw


# np.sum of at most 2**15 terms halves them down to blocks of at most 128,
# adds a block in 8 lanes of at most 16 terms, joins the lanes in 3 steps and
# adds up to 7 terms left over: no term passes through more than 32 roundings
PIECE_ROUNDINGS = 32


def gamma(n):
    """n u / (1 - n u), u = eps/2: the relative error of a product of n
    roundings (Higham, Accuracy and Stability of Numerical Algorithms, 3.1)."""
    u = np.finfo(float).eps / 2
    return n * u / (1.0 - n * u)


def merged_sums_error(pieces, d_max, mean, var):
    """Bounds on the errors of a row's sum w (relative), mean (absolute) and
    variance (relative) against fsum_sums of the same weights, for a row
    whose pieces are summed by np.sum and merged in level order by Chan et
    al.'s update W = W_A + W_B, mu = mu_A + delta W_B/W and
    S = S_A + S_B + delta^2 W_A W_B/W, delta = mu_B - mu_A, with mean and
    var the reference's. Every term summed is nonnegative (Higham, 4.2).

    - sum w: each weight passes through at most PIECE_ROUNDINGS roundings in
      its piece and pieces - 1 in the merges, gamma_W; fsum rounds once.
    - mean: a piece's sum(d w)/sum(w) is within gamma(2 PIECE_ROUNDINGS + 2)
      of its value. A merge carries its parts' errors in a convex
      combination and adds at most (2 gamma_W + 5u) d_max: W_B/W is within
      2 gamma_W + 2u, and delta, its product and the sum round once each,
      every mean in [0, d_max]. The reference rounds at most 4 times.
    - variance: each term of S passes through at most
      PIECE_ROUNDINGS + 2 pieces + 12 roundings, and W_A, W_B/W and the final
      W within 4 gamma_W. A merge's delta carries both means' errors, at most
      2 e_mu, which moves delta^2 W_A W_B/W <= S by at most 4 r + 4 r^2 of
      S, r = e_mu/sigma; a mean off by e_mu adds at most r^2 to S, in the
      pieces and in the reference each.
    """
    u, g_w = np.finfo(float).eps / 2, gamma(PIECE_ROUNDINGS + pieces - 1)
    e_mu = (gamma(2 * PIECE_ROUNDINGS + 6) * mean
            + (pieces - 1) * (2.0 * g_w + 5.0 * u) * d_max)
    r = e_mu / math.sqrt(var)
    return (gamma(PIECE_ROUNDINGS + pieces), e_mu,
            gamma(PIECE_ROUNDINGS + 2 * pieces + 12) + 4.0 * g_w
            + (pieces - 1) * (4.0 * r + 4.0 * r * r) + 2.0 * r * r)


def assert_merged_sums(sums, d, beta, length=None, dropped=(0.0, 0.0, 0.0)):
    """sums, (sum w, <d>, variance) of a row over the levels d at beta, are
    within merged_sums_error of fsum_sums of the same weights. A row that
    reduced only its first length levels, and dropped weights there, is
    held to that error, for its own pieces, plus dropped: the bounds on how
    far the dropped weights move sum w (relative), the mean (absolute) and
    the variance (relative), as dropped_weights_bound gives them."""
    want = fsum_sums(d, np.exp(-beta * d))
    pieces = -(-(d.size if length is None else length) // thermo._BLOCK_ELEMENTS)
    err_w, err_mean, err_var = merged_sums_error(pieces, d[-1].item(), *want[1:])
    (sw, mean, var), (want_sw, want_mean, want_var) = sums, want
    assert abs(sw - want_sw) <= (err_w + dropped[0]) * want_sw
    assert abs(mean - want_mean) <= err_mean + dropped[1]
    assert abs(var - want_var) <= (err_var + dropped[2]) * want_var


def dropped_weights_bound(beta, slope, d1, limit=thermo._EXP_SUBNORMAL):
    """How far the weights a direct row cut at beta d = limit drops move its
    sum w (relative), mean (absolute) and variance (relative), against the
    row cut at 746 (thermo._row_cuts): nothing at limit 746. At 708.4 it
    drops at most K = 37.6/(beta D) + 1 weights, D = slope, each below
    tau = 2^-1022 and at d <= d_max = 746/beta. So sum w >= 1 moves by at
    most K tau of itself, the mean by K tau d_max and the centred sum
    S >= w_1 d_1^2 / 2 by K tau (1 + K tau) d_max^2, with w_1 = exp(-beta d_1);
    the variance S / sum w by the sum of both relative moves. Where w_1 is
    0.0 the variance's bound is infinite."""
    if limit == thermo._EXP_UNDERFLOW:
        return 0.0, 0.0, 0.0
    count, tau, d_max = 37.6 / (beta * slope) + 1.0, 2.0**-1022, 746.0 / beta
    w1 = math.exp(-beta * d1)
    spread = (2.0 * count * tau * (1.0 + count * tau) * d_max**2 / (w1 * d1**2) if w1 > 0.0
              else math.inf)
    return count * tau, count * tau * d_max, spread + count * tau


def assert_subnormal_cut_within_bound(p, m, n, betas):
    """The sums of each direct row against the same row cut at 746, for
    (p, m, N = n) on betas: a row that _row_cuts stops at 708.4 has a
    dropped_weights_bound far below an ulp (the variance's at most 2^-59),
    and both rows are within merged_sums_error of math.fsum over all of the
    weights at 746, the row cut at 708.4 within that bound too; a row that
    stops at 746 is the same row, bit for bit."""
    betas = np.array(betas, dtype=float)
    size, (_, slope, q) = n + 1, spectrum_terms(p, m)
    d = excitation(p, np.arange(size, dtype=float), m)
    d1 = excitation(p, float(min(n, 1)), m)
    limits, lengths = thermo._row_cuts(slope, q, d1, betas, size)
    n_terms = sweep(p, m, n, betas).diagnostics["n_terms"]
    full_lengths = thermo._cut_lengths(n_terms, size)
    cut = thermo._boltzmann_sums(p, m, betas, lengths, limits).T.tolist()
    full = thermo._boltzmann_sums(p, m, betas, full_lengths,
                                  np.full(betas.size, thermo._EXP_UNDERFLOW)).T.tolist()
    for beta, limit, length, full_length, row, want in zip(
            betas.tolist(), limits.tolist(), lengths.tolist(), full_lengths.tolist(), cut, full):
        if limit == thermo._EXP_UNDERFLOW or n == 0:
            assert (length, row) == (full_length, want)
            continue
        dropped = dropped_weights_bound(beta, slope, d1)
        assert dropped[2] <= 2.0**-59, (beta, beta * d1)
        between = (beta * d > limit) & (beta * d <= thermo._EXP_UNDERFLOW)
        if not between.any():  # no weight to drop: the same row
            assert (length, row) == (full_length, want)
            continue
        # the weights at 746 that the row leaves out are each below 2^-1022
        levels = np.arange(full_length)
        left_out = (levels >= length) | (beta * d[:full_length] > limit)
        assert np.exp(-beta * d[:full_length][left_out]).max() < 2.0**-1022
        assert_merged_sums(want, d[:full_length], beta)
        assert_merged_sums(row, d[:full_length], beta, length, dropped)


def summation_formula_oracle(params: SystemParams, m: int, n: int, beta: float,
                             verbatim: bool = False):
    """U, C and S (kb = 1) of the first-order summation formula at 60 digits.

    The moments about E_0, M_j = [d(0)^j f(0) - d(N+1)^j f(N+1)]/2
    + int_0^{N+1} d^j f dx with d = E - E_0 and f = exp(-beta d), come from
    the spectrum formula alone and mpmath's tanh-sinh quadrature, which also
    certifies each integral to 1e-40. verbatim puts the boundary term at the
    paper's verbatim level d_t - a_t instead of at E_0. The integrals stop
    where beta d = 300, if that comes before N + 1: what they drop is below
    1e-120 of each moment. Then U = E_0 + M_1/M_0,
    C = beta^2 (M_2/M_0 - (M_1/M_0)^2) and S = ln M_0 + beta M_1/M_0.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        k, b, am = mpmath.mpf(params.k), mpmath.mpf(beta), abs(m)
        hyp = mpmath.sqrt(mpmath.mpf(params.alpha) ** 2 + k * k)
        e = lambda y: (2 * y + am + 1) * hyp - k * (
            2 * y * y + m * m / mpmath.mpf(2) + (2 * y + 1) * (am + 1))
        e0 = e(0)
        shifted = lambda x: e(x) - e0
        d1 = shifted(n + 1)
        d0 = 0
        if verbatim:
            lam = mpmath.mpf(params.lam)
            d_t = am * mpmath.sqrt(lam**2 + mpmath.mpf(params.alpha) ** 2) - lam * m * m / 2
            d0 = d_t - (k * (am + 1) - hyp) - e0
        # the root of beta d(x) = 300, with d(x) = x (E'(0) + q x), q = -2k
        slope, q = 2 * hyp - 2 * k * (am + 1), -2 * k
        upper = min(n + 1, 600 / b / (slope + mpmath.sqrt(slope**2 + 1200 * q / b)))

        def moment(j):
            ends = (d0**j * mpmath.exp(-b * d0) - d1**j * mpmath.exp(-b * d1)) / 2
            value, error = mpmath.quad(lambda x: shifted(x) ** j * mpmath.exp(-b * shifted(x)),
                                       [0, upper], error=True)
            assert error <= 1e-40 * value
            return ends + value

        m0, m1, m2 = (moment(j) for j in range(3))
        return (float(e0 + m1 / m0), float(b * b * (m2 / m0 - (m1 / m0) ** 2)),
                float(mpmath.log(m0) + b * m1 / m0))


class TestSweepArguments:
    """sweep checks every argument at entry, whatever the grid and strategy."""

    def test_validation(self):
        for strategy in Strategy:
            with pytest.raises(ValueError, match="beta must be positive"):
                sweep(PHYS, 1, 500, [0.0], strategy)
            with pytest.raises(ValueError, match="truncation_n must be >= 0"):
                sweep(PHYS, 1, -1, [1.0], strategy)

    @pytest.mark.parametrize("n", [2**53, 2**63 - 1, 2**64])
    def test_truncation_beyond_exact_levels_refused(self, n):
        """From N = 2**53 on the levels n are not all exact doubles (from
        2**63 not int64 either): every strategy refuses at entry."""
        for strategy in Strategy:
            with pytest.raises(DomainError, match=rf"must be >= 0 and below 2\*\*53, got {n}$"):
                sweep(PHYS, 1, n, [1.0], strategy)

    def test_positive_k_needs_opt_in(self):
        p = SystemParams(alpha=1.0, k=0.5)
        for strategy in Strategy:
            with pytest.raises(NonPhysicalError, match="k > 0") as refused:
                sweep(p, 1, 500, [1.0], strategy)
            assert "accept_truncation" not in str(refused.value)

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_empty_grid_checks_n_and_k(self, strategy):
        """An empty grid is no reason to skip the checks on N and k, nor its
        strategy's range check on a spectrum that leaves the doubles (E_N
        near 2e310)."""
        with pytest.raises(NonPhysicalError, match="k > 0"):
            sweep(SystemParams(alpha=1.0, k=0.5), 1, 500, [], strategy)
        with pytest.raises(ValueError, match="truncation_n must be >= 0"):
            sweep(SystemParams(alpha=1.0, k=-0.1), 1, -3, [], strategy)
        with pytest.raises(DomainError, match="Boltzmann weights out of range"):
            sweep(SystemParams(alpha=1e300, k=-0.1), 1, 10**10, [], strategy)

    @pytest.mark.parametrize("strategy", [Strategy.DIRECT_SUM, Strategy.POISSON_PIPELINE])
    def test_unknown_variant_refused_by_every_strategy(self, strategy):
        """direct and poisson do not read variant, but refuse a name that is
        not one of the closed form's two readings."""
        with pytest.raises(ValueError, match="variant must be 'corrected' or 'verbatim'"):
            sweep(PHYS, 1, 500, [1.0], strategy, "bogus")

    def test_empty_paper_grid_refuses_unknown_variant(self):
        with pytest.raises(ValueError, match="variant must be 'corrected' or 'verbatim'"):
            sweep(PHYS, 1, 500, [], Strategy.PAPER_CLOSED_FORM, "bogus")

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_any_iterable_grid(self, strategy):
        """A list, tuple, float or int array and generator of the same betas
        give the same series; an array is copied, so the series' beta does
        not alias the caller's grid."""
        betas = [0.5, 1.0, 2.0, 4.0]
        grid = np.array(betas)
        series = [sweep(PHYS, 1, 50, g, strategy) for g in
                  (betas, tuple(betas), grid, (b for b in betas))]
        for other in series[1:]:
            for name in ("beta", "z", "log_z", "u", "c", "f", "s"):
                assert_bits_equal(getattr(other, name), getattr(series[0], name))
        assert not np.shares_memory(series[2].beta, grid)
        ints = sweep(PHYS, 1, 50, np.array([1, 2]), strategy)
        assert_bits_equal(ints.z, sweep(PHYS, 1, 50, [1.0, 2.0], strategy).z)


class TestTemperatureToBeta:
    """A temperature enters the thermodynamics as beta = 1/(kb T)."""

    def test_from_temperature(self):
        args = build_parser().parse_args(
            ["thermo", "--k", "-0.3", "--m", "1", "--kb", "2", "--T-min", "5",
             "--T-max", "10", "--T-count", "2", "--T-spacing", "linear"])
        cfg = _resolve(args, "thermo")
        tables = _thermo_rows(cfg, _thermo_heads(cfg, "thermo")[1], np.array([5.0, 10.0]))
        series = sweep(SystemParams(alpha=1.0, k=-0.3, kb=2.0), 1, 500, [1.0 / 10.0, 1.0 / 20.0])
        for (column,), q in zip(tables, "zucfs"):
            np.testing.assert_allclose(column, getattr(series, q), rtol=1e-15)


class TestPartitionDirect:
    def test_geometric_ladder(self):
        p = SystemParams(alpha=1.0, k=0.0)
        betas = (0.05, 0.1, 0.5, 1.0)
        for beta, z in zip(betas, sweep(p, 1, 500, betas).z.tolist()):
            geometric = math.exp(-2 * beta) / (1.0 - math.exp(-2 * beta))
            assert z == pytest.approx(geometric, rel=1e-10)

    def test_reference_value(self):
        # frozen from a 128-term compensated (fsum) summation; the tail beyond
        # term 128 is below 1e-300 at beta = 1
        assert sweep(PHYS, 1, 500, [1.0]).z.item() == pytest.approx(0.0597456318176708,
                                                                    rel=1e-14)

    def test_against_fsum_oracle(self):
        oracle = math.fsum(math.exp(-energy(PHYS, n, 1)) for n in range(128))
        assert sweep(PHYS, 1, 500, [1.0]).z.item() == pytest.approx(oracle, rel=1e-14)

    def test_single_term(self):
        assert sweep(PHYS, 1, 0, [0.7]).z.item() == pytest.approx(
            math.exp(-0.7 * energy(PHYS, 0, 1)), rel=1e-14
        )

    def test_log_domain_extreme_beta(self):
        log_z = sweep(PHYS, 1, 500, [1000.0]).log_z.item()
        assert math.isfinite(log_z)
        assert log_z == pytest.approx(-1000.0 * energy(PHYS, 0, 1), rel=1e-12)

    def test_tail_diagnostic(self):
        diag = sweep(PHYS, 1, 500, [1.0]).diagnostics
        assert diag["tail_ratio"].item() < 1e-300  # ~exp(-151000)
        # an uncut sum reports w_N / sum w
        w = np.exp(-1e-3 * excitation(PHYS, np.arange(11.0), 1))
        diag = sweep(PHYS, 1, 10, [1e-3]).diagnostics
        assert diag["n_terms"].item() == 11
        assert diag["tail_ratio"].item() == w[-1] / w.sum()

    def test_levels_shape(self):
        """The excitations d_0..d_N a direct sweep reduces: d_0 = 0 and
        E_0 + d = E."""
        d = excitation(PHYS, np.arange(11.0), 1)
        assert d.shape == (11,)
        assert d[0] == 0.0
        e0 = spectrum_terms(PHYS, 1)[0]
        assert (e0 + d).tolist() == energy(PHYS, np.arange(11.0), 1).tolist()

    def test_cut_work_count(self, monkeypatch):
        """Each beta sums only a short prefix of the levels, and every weight
        it drops is exactly 0.0; where none underflows it sums all N+1. A
        series builds no level beyond its longest cut, one piece of at most
        a block at a time, and each level once."""
        p = SystemParams(alpha=1.0, k=-0.1)
        betas = [1e-4] + list(np.geomspace(0.02, 1e3, 40))
        d = excitation(p, np.arange(100_001.0), 1)
        diag = sweep(p, 1, 100_000, betas).diagnostics
        for beta, n_terms, tail in zip(betas, diag["n_terms"].tolist(),
                                       diag["tail_ratio"].tolist()):
            assert n_terms <= (8192 if beta < 0.02 else 1024)
            assert not np.any(np.exp(-beta * d[n_terms:]))
            assert tail == 0.0
        diag = sweep(SystemParams(alpha=1.0, k=-1e-6), 1, 100_000, [1e-4]).diagnostics
        assert diag["n_terms"].item() == 100_001
        assert diag["tail_ratio"].item() > 0.0
        # a cut whose last kept weight is not 0 still reports w_N / sum w = 0;
        # n_terms counts the levels with beta d <= 746
        d = excitation(PHYS, np.arange(1001.0), 1)
        beta = 735.0 / d[119]
        series = sweep(PHYS, 1, 1000, [beta])
        e0 = spectrum_terms(PHYS, 1)[0]
        assert series.diagnostics["n_terms"].item() == np.count_nonzero(beta * d <= 746.0) == 120
        assert math.exp(-beta * d[119]) / math.exp(series.log_z.item() + beta * e0) > 0.0
        assert series.diagnostics["tail_ratio"].item() == 0.0
        calls = []

        def recording(params, n_r, m):
            # the array calls are the pieces
            d = excitation(params, n_r, m)
            if np.ndim(d):
                calls.append((np.array(n_r), d))
            return d

        def pieces(params, m, n, betas):
            """The pieces of levels lo..hi-1 one direct series builds, in
            order, as (lo, hi, d), and the series' longest cut, which holds
            every row's n_terms levels."""
            calls.clear()
            n_terms = sweep(params, m, n, betas).diagnostics["n_terms"]
            for levels, _ in calls:
                assert 0 < levels.size <= thermo._BLOCK_ELEMENTS
                assert levels.tolist() == list(range(int(levels[0]), int(levels[-1]) + 1))
            longest = thermo._cut_lengths(n_terms, n + 1).max()
            assert n_terms.max() <= longest
            return [(int(lv[0]), int(lv[-1]) + 1, d) for lv, d in calls], longest

        monkeypatch.setattr(thermo, "excitation", recording)
        temps = _temperature_grid({"T_min": 0.1, "T_max": 50.0, "T_count": 500,
                                   "T_spacing": "auto"})
        edge = SystemParams(alpha=1.0, k=-1e-6)
        series = [(SystemParams(alpha=1.0, k=k), 1, [1.0 / t for t in temps])
                  for k in FIGURE_K_LIST]
        series += [(edge, 40, [1e3]), (edge, 40, [1e-4])]
        reached = []
        for params, m, grid in series:
            built, longest = pieces(params, m, 100_000, grid)
            reached.append(max(hi for _, hi, _ in built))
            assert reached[-1] == longest
            if longest <= thermo._BLOCK_ELEMENTS:
                # rows of at most a block are one piece each, from level 0
                assert {lo for lo, _, _ in built} == {0}
        assert reached == [776, 384, 384, 96, 100_001]
        # the last series' long row: one pass over its pieces in level order,
        # each level built once, joined equal to the levels built at once
        whole = excitation(edge, np.arange(100_001.0), 40)
        assert [lo for lo, _, _ in built] == [0] + [hi for _, hi, _ in built[:-1]]
        assert np.concatenate([d for _, _, d in built]).tobytes() == whole.tobytes()
        # k > 0 is refused before any level is built
        calls.clear()
        with pytest.raises(NonPhysicalError):
            sweep(SystemParams(alpha=1.0, k=0.5), 1, 100_000, [1e-4])
        assert calls == []

    @pytest.mark.parametrize("n", [128, 257, 100_000])
    def test_n_terms_counts_the_terms(self, n):
        """n_terms is the number of levels with beta d <= 746, the same at
        every N that holds them: 56 here, the count of nonzero weights."""
        p = SystemParams(alpha=1.0, k=-0.1)
        d = excitation(p, np.arange(n + 1.0), 0)
        n_terms = sweep(p, 0, n, [1.0]).diagnostics["n_terms"].item()
        assert n_terms == np.count_nonzero(d <= 746.0) == np.count_nonzero(np.exp(-d)) == 56

    @settings(max_examples=60)
    @given(alpha=box.ALPHA, k=box.K, m=box.M, n=box.N, beta=box.BETA)
    @example(alpha=1e150, k=-0.5, m=60, n=100_000, beta=1e-4)
    @example(alpha=1e150, k=-0.5, m=60, n=100_000, beta=1e3)
    def test_n_terms_over_the_box(self, alpha, k, m, n, beta):
        """n_terms counts the levels 0..N with beta d <= 746, and every
        weight beyond them is exactly 0.0."""
        p = SystemParams(alpha=alpha, k=k)
        n_terms = sweep(p, m, n, [beta]).diagnostics["n_terms"].item()
        d = excitation(p, np.arange(n + 1.0), m)
        assert n_terms == np.count_nonzero(beta * d <= 746.0)
        assert not np.exp(-beta * d[n_terms:]).any()

    @pytest.mark.parametrize("n", [100_000, 1_000_000])
    def test_direct_memory_flat_in_n(self, n):
        """A point that keeps all N+1 levels allocates a few blocks at most,
        whatever N: two work arrays of a block, and one piece's levels, which
        excitation builds in place, each under a block (the whole row took
        3.2 MB at N = 1e5 and 32 MB at N = 1e6)."""
        edge = SystemParams(alpha=1.0, k=-1e-6)
        sweep(edge, 40, 1000, [1e-4])  # one-off allocations of a first call
        tracemalloc.start()
        try:
            series = sweep(edge, 40, n, [1e-4])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert series.diagnostics["n_terms"].item() == n + 1
        assert peak < 5 * 8 * thermo._BLOCK_ELEMENTS


class TestPaperCoefficients:
    def test_d_vanishes_at_m0(self):
        """At m = 0 the verbatim d_t vanishes and its boundary level D/2 is
        E_0, both hypot(alpha, k) - k: a verbatim series equals the corrected
        one bit for bit, whatever lam, on both sides of the switch at s = 1."""
        p = SystemParams(alpha=1.0, k=-0.3, lam=7.0)
        e0, slope, _ = spectrum_terms(p, 0)
        assert slope / 2.0 == e0 == math.hypot(1.0, -0.3) + 0.3
        betas = np.geomspace(1e-4, 1e3, 30)
        corrected, verbatim = (sweep(p, 0, 500, betas, Strategy.PAPER_CLOSED_FORM, variant)
                               for variant in ("corrected", "verbatim"))
        for name in ("z", "log_z", "u", "c", "f", "s"):
            assert_bits_equal(getattr(verbatim, name), getattr(corrected, name))

    def test_a_coefficient_value(self):
        """a_t = -D/2."""
        p = SystemParams(alpha=1.0, k=-0.5)
        a_t = -spectrum_terms(p, 1)[1] / 2.0
        assert a_t == pytest.approx(-0.5 * 2.0 - math.sqrt(1.25), rel=1e-14)
        assert a_t == pytest.approx(-2.1180339887498949, abs=1e-12)

    def test_rejects_nonnegative_k(self):
        """sweep refuses k > 0 for every strategy; the closed form, whose
        erfcx arguments sqrt(beta/q) are not finite at q = -2k = 0, refuses
        k = 0.0 and -0.0 too, which the direct sum and the pipeline compute."""
        for k in (0.0, -0.0):
            p = SystemParams(alpha=1.0, k=k)
            with pytest.raises(NonPhysicalError, match="the closed form needs k < 0"):
                sweep(p, 1, 500, [1.0], Strategy.PAPER_CLOSED_FORM)
            for strategy in (Strategy.DIRECT_SUM, Strategy.POISSON_PIPELINE):
                series = sweep(p, 1, 500, [1.0], strategy)
                assert all(np.isfinite(getattr(series, q)).all()
                           for q in ("log_z", "u", "c", "s"))

    @settings(max_examples=200)
    @given(k=box.K_WIDE, m=box.M, n=box.N)
    def test_coefficients_are_spectrum_values(self, k, m, n):
        """a_t - d_t = -E_0 (corrected d_t), c_t = E_{N+1}, a_t = -E'(0)/2,
        b_t = E'(N+1)/2, (a_t^2 - alpha^2)/2k = -E_0 and
        (b_t^2 - alpha^2)/2k = -E_{N+1}, each to the roundoff of its terms,
        for the paper's literal a_t, b_t, c_t and corrected d_t expressions
        and for the values the closed form takes from spectrum_terms:
        a_t = -D/2, b_t = (D + 2 q X)/2 and c_t = E_0 + d(X), X = N + 1.

        E' is the three-point one-sided difference, exact for the quadratic E.
        k reaches the shell |k| <= 5: the identities hold for every k < 0,
        strong coupling (|k| > alpha) included.
        """
        p = SystemParams(alpha=1.0, k=k)
        s, am = math.hypot(1.0, k), abs(m)
        d_t = am * s - k * m * m / 2.0
        literal = (k * (am + 1.0) - s, -(3.0 + am + 2.0 * n) * k + s,
                   (2.0 * n + am + 3.0) * s - k * (
                       2.0 * n**2 + m * m / 2.0 + 6.0 * n + 5.0 + 2.0 * n * am + 3.0 * am))
        e_0, big_d, q = spectrum_terms(p, m)
        spectrum = (-big_d / 2.0, (big_d + 2.0 * q * (n + 1.0)) / 2.0,
                    e_0 + excitation(p, n + 1.0, m))
        e = lambda x: energy(p, x, m)
        e0, e1 = e(0.0), e(n + 1.0)

        def slope(x):
            return (-3.0 * e(x) + 4.0 * e(x + 1.0) - e(x + 2.0)) / 2.0, 8.0 * e(x + 2.0)

        def close(lhs, rhs, scale):
            assert abs(lhs - rhs) <= 1e-14 * scale

        d0, scale0 = slope(0.0)
        d1, scale1 = slope(n + 1.0)
        for a_t, b_t, c_t in (literal, spectrum):
            close(a_t - d_t, -e0, e0)
            close(c_t, e1, e1)
            close(a_t, -d0 / 2.0, scale0)
            close(b_t, d1 / 2.0, scale1)
            # the squares cancel as k -> 0-, so compare before dividing by 2k
            close(a_t**2 - 1.0, -2.0 * k * e0, a_t**2 + 1.0)
            close(b_t**2 - 1.0, -2.0 * k * e1, b_t**2 + 1.0)


class TestPartitionPaper:
    def test_both_variants_reported(self):
        corrected, verbatim = (sweep(PHYS, 1, 500, [0.2], Strategy.PAPER_CLOSED_FORM, v)
                               for v in ("corrected", "verbatim"))
        assert (corrected.variant, verbatim.variant) == ("corrected", "verbatim")
        default = sweep(PHYS, 1, 500, [0.2], Strategy.PAPER_CLOSED_FORM)
        assert default.variant == "corrected"
        assert default.z.item() == corrected.z.item()
        assert corrected.z.item() != verbatim.z.item()

    def test_variants_coincide_at_m0(self):
        corrected, verbatim = (sweep(PHYS, 0, 500, [0.2], Strategy.PAPER_CLOSED_FORM, v)
                               for v in ("corrected", "verbatim"))
        assert corrected.z.item() == verbatim.z.item()

    def test_high_temperature_agreement(self):
        """Best closed-form variant within 5% of the direct sum on T in [5, 50]."""
        for k in FIGURE_K_LIST:
            p = SystemParams(alpha=1.0, k=k)
            betas = [1.0 / t for t in np.linspace(5.0, 50.0, 10)]
            zd = sweep(p, 1, 500, betas).z
            best = np.minimum(*(np.abs(sweep(p, 1, 500, betas, Strategy.PAPER_CLOSED_FORM, v).z
                                       - zd) / zd for v in ("corrected", "verbatim")))
            assert np.max(best) <= 0.05

    def test_large_beta_sign_and_monotonicity(self):
        betas = (2.0, 3.0, 5.0)
        zs = sweep(PHYS, 1, 500, betas, Strategy.PAPER_CLOSED_FORM).z.tolist()
        zd = sweep(PHYS, 1, 500, betas).z.tolist()
        assert all(z > 0 for z in zs)
        assert all(b < a for a, b in zip(zs, zs[1:]))  # decreasing in beta
        assert all(b < a for a, b in zip(zd, zd[1:]))

    def test_no_spurious_nonpositive_flag(self):
        for variant in ("corrected", "verbatim"):
            series = sweep(PHYS, 1, 500, (0.05, 0.5, 5.0), Strategy.PAPER_CLOSED_FORM, variant)
            assert "nonpositive_z" not in series.diagnostics


class TestPartitionPoisson:
    def test_constant_integrand_formula_is_exact(self):
        """Degenerate harness: for f == c the summation formula gives (N+1) c."""
        n_max, c = 37, 0.8127
        f = lambda x, _=None: np.full(np.shape(x), c)
        integral = integrate(f, QuadratureSpec(0.0, n_max + 1.0)).value
        total = 0.5 * (f(0.0) - f(n_max + 1.0)) + integral
        assert total == pytest.approx((n_max + 1) * c, rel=1e-13)

    def test_matches_closed_form_to_quadrature_accuracy(self):
        """Same formula through independent algebra: agreement certifies the
        erf manipulations inside the closed form."""
        for k in (-0.1, -0.3):
            p = SystemParams(alpha=1.0, k=k)
            betas = (0.05, 0.2, 1.0)
            zps = sweep(p, 1, 500, betas, Strategy.POISSON_PIPELINE).z.tolist()
            zcs = sweep(p, 1, 500, betas, Strategy.PAPER_CLOSED_FORM, "corrected").z.tolist()
            for zp, zc in zip(zps, zcs):
                assert zp == pytest.approx(zc, rel=1e-9)

    def test_quadrature_diagnostics_present(self):
        """Each row starts from six segments, [0, u/32, ..., u/2, u], of 15
        evaluations each, and each refinement evaluates two halves."""
        diag = sweep(PHYS, 1, 500, [0.1], Strategy.POISSON_PIPELINE).diagnostics
        assert (diag["quadrature_evaluations"].item()
                == 15 * 6 + 30 * diag["quadrature_refinements"].item())
        # relative to each integral, worst over f, (E - E_0) f, (E - E_0)^2 f
        assert 0.0 < diag["quadrature_error_bound"].item() <= 1e-11

    def test_large_n_integral_not_falsely_zero(self):
        """At N = 1e5 the integrand's support, width ~ (beta |k|)^(-1/2), is
        far narrower than [0, N+1]; the quadrature must still find it
        (`thermo --T 10 --k -0.3 --m 1 --N 100000 --strategy poisson`): the
        gap to the direct sum, in the M_0 domain, is T1 within the certified
        bound on the Euler-Maclaurin remainder R3."""
        beta = 1.0 / (PHYS.kb * 10.0)
        z = sweep(PHYS, 1, 100_000, [beta], Strategy.POISSON_PIPELINE).z.item()
        e0, t1, r3_bound = _em_first_order_model(PHYS.alpha, PHYS.k, 1, 100_000, beta)
        gap = (sweep(PHYS, 1, 100_000, [beta]).z.item() - z) * math.exp(beta * e0)
        assert abs(gap - t1) <= r3_bound
        assert z == pytest.approx(
            sweep(PHYS, 1, 100_000, [beta], Strategy.PAPER_CLOSED_FORM).z.item(), rel=1e-12)


class TestAverageEnergy:
    def test_ground_state_limit(self):
        assert sweep(PHYS, 1, 500, [500.0]).u.item() == pytest.approx(energy(PHYS, 0, 1),
                                                                      abs=1e-10)

    def test_ladder_closed_form(self):
        p = SystemParams(alpha=1.0, k=0.0)
        betas = (0.05, 0.2, 1.0)
        for beta, u in zip(betas, sweep(p, 1, 500, betas).u.tolist()):
            assert u == pytest.approx(2.0 + 2.0 / (math.exp(2.0 * beta) - 1.0), rel=1e-10)

    def test_closed_form_matches_difference_quotient(self):
        for beta in (0.05, 0.1, 0.5):
            def log_z(b):
                return math.log(
                    sweep(PHYS, 1, 500, [b], Strategy.PAPER_CLOSED_FORM, "corrected").z.item()
                )

            # one one-point sweep per stencil point
            expected = -central_diff(np.vectorize(log_z, otypes=[float]), beta, 1, h=1e-3 * beta)
            u = sweep(PHYS, 1, 500, [beta], Strategy.PAPER_CLOSED_FORM).u.item()
            assert u == pytest.approx(expected, rel=1e-6)

    def test_strategies_converge_at_small_beta(self):
        beta = 0.005
        vals = [sweep(PHYS, 1, 500, [beta], s).u.item() for s in Strategy]
        assert max(vals) - min(vals) <= 0.02 * abs(vals[0])


class TestHeatCapacity:
    def test_ladder_equipartition(self):
        p = SystemParams(alpha=1.0, k=0.0)
        c = sweep(p, 1, 500, [1.0 / (p.kb * 100.0)]).c.item()
        assert c == pytest.approx(1.0, abs=0.01)

    def test_plateau_exists_per_k(self):
        for k in FIGURE_K_LIST:
            p = SystemParams(alpha=1.0, k=k)
            plateau = find_heat_capacity_plateau(p, 1, 500)
            assert plateau is not None
            assert plateau.variation < 0.01
            # saturation toward the quadratic-spectrum equipartition value
            assert 0.4 < plateau.value < 0.8

    @pytest.mark.parametrize("m, k", [(1, -0.1), (2, -0.3)])
    def test_plateau_lattice_matches_window_loop(self, m, k):
        """The scan's one sweep over the lattice T_i = 0.5 2^(i/24) gives the
        PlateauResult, bit for bit, of a loop that sweeps each window's nine
        lattice temperatures T_{i+3j} alone; each window ends at 2 T_i."""
        temps = 0.5 * np.exp2(np.arange(319) / 24.0)
        assert temps[294] <= 2500.0 < temps[295]
        np.testing.assert_allclose(temps[24:], 2.0 * temps[:295], rtol=1e-15, atol=0.0)
        p = SystemParams(alpha=1.0, k=k)
        expected = None
        for i in range(295):
            cs = sweep(p, m, 500, 1.0 / (p.kb * temps[i:i + 25:3])).c
            variation = (cs.max() - cs.min()) / cs.mean()
            if variation < 0.01:
                expected = thermo.PlateauResult(temps[i].item(), cs.mean().item(),
                                                variation.item())
                break
        assert expected is not None
        assert find_heat_capacity_plateau(p, m, 500) == expected

    def test_plateau_lattice_is_read_only(self):
        """The scan's lattice is the 319 temperatures 0.5 2^(i/24), and no
        caller can edit it in place under a later scan."""
        assert_bits_equal(thermo.PLATEAU_TEMPERATURES, 0.5 * np.exp2(np.arange(319) / 24.0))
        with pytest.raises(ValueError):
            thermo.PLATEAU_TEMPERATURES *= 2.0

    @pytest.mark.parametrize("n, kb", [(0, 1.0), (500, 1e300)])
    def test_plateau_zero_heat_capacity_never_qualifies(self, n, kb):
        """A single level makes C exactly 0 on every window: no window
        qualifies, and no 0/0 warns (a RuntimeWarning is an error here). At
        kb = 1e300 every beta = 1/(kb T) is at most 2e-300, so all 501 levels
        weigh alike and C = var / (kb T^2), about 2e-292 / T^2: nonzero, but
        it falls fourfold over each window, and none qualifies."""
        assert find_heat_capacity_plateau(SystemParams(alpha=1.0, k=-0.1, kb=kb), 1, n) is None

    def test_tiny_beta_keeps_its_heat_capacity(self):
        """C = kb beta beta var, formed left to right: at kb = 1e300 and
        beta = 2e-300, kb beta is 2 and C is about 1e-291, where beta^2
        alone underflows to 0."""
        p, beta = SystemParams(alpha=1.0, k=-0.1, kb=1e300), 2e-300
        _, _, var = one_dimensional_sums(excitation(p, np.arange(501.0), 1), beta)
        c = sweep(p, 1, 500, [beta]).c.item()
        assert c == p.kb * beta * beta * var
        assert 1e-292 < c < 1e-290

    def test_plateau_beta_square_overflow_refused(self):
        """At kb = 1e-300 the lattice's betas have no finite square: the scan
        refuses with sweep's typed error."""
        with pytest.raises(ValueError, match="beta must be positive with a finite square"):
            find_heat_capacity_plateau(SystemParams(alpha=1.0, k=-0.1, kb=1e-300), 1, 500)

    def test_poisson_strategy_close_to_closed_form(self):
        betas = (0.1, 2.0, 10.0)
        cp, cc = (sweep(PHYS, 1, 500, betas, strategy).c.tolist()
                  for strategy in (Strategy.POISSON_PIPELINE, Strategy.PAPER_CLOSED_FORM))
        assert cp == pytest.approx(cc, rel=1e-9)

    def test_poisson_against_mpmath_summation_formula(self):
        """At (k=-1e-6, m=40, N=1e5, beta=1e3) the pipeline's C matches the
        moments about E_0 of the summation formula, integrated at 60 digits."""
        p, m, n, beta = SystemParams(alpha=1.0, k=-1e-6), 40, 100_000, 1e3
        res = sweep(p, m, n, [beta], Strategy.POISSON_PIPELINE)
        u, c, _ = summation_formula_oracle(p, m, n, beta)
        assert res.c.item() == pytest.approx(c, rel=1e-9)
        assert res.u.item() == pytest.approx(u, rel=1e-13)


class TestMomentsAgainstOracle:
    """The closed form (corrected d_t) and the pipeline hold C, U and S to
    the 60-digit summation formula over the documented box (tests/box.py)
    at alpha = 1.
    The closed form is within 1e-10 of it and within 1e-9 of the pipeline;
    the pipeline, whose quadrature asks for 1e-11, within 1e-9. S is held
    relative to max(|S|, 0.01), as it crosses 0 where ln M_0 = -beta <d>."""

    @staticmethod
    def assert_matches_oracle(k, m, n, beta):
        p = SystemParams(alpha=1.0, k=k)
        u, c, s = summation_formula_oracle(p, m, n, beta)
        paper, poisson = ([getattr(series, q).item() for q in "cus"]
                          for series in (sweep(p, m, n, [beta], strategy) for strategy in (
                              Strategy.PAPER_CLOSED_FORM, Strategy.POISSON_PIPELINE)))
        for (c_got, u_got, s_got), rel in ((paper, 1e-10), (poisson, 1e-9)):
            assert c_got == pytest.approx(c, rel=rel, abs=0.0)
            assert u_got == pytest.approx(u, rel=rel, abs=0.0)
            assert s_got == pytest.approx(s, rel=rel, abs=0.01 * rel)
        assert paper[0] == pytest.approx(poisson[0], rel=1e-9, abs=0.0)
        assert paper[1] == pytest.approx(poisson[1], rel=1e-9, abs=0.0)
        assert paper[2] == pytest.approx(poisson[2], rel=1e-9, abs=1e-11)

    @pytest.mark.parametrize("k, m, n, beta", [
        (-1e-8, 0, 100_000, 1e3), (-1e-8, 0, 1, 1e-4), (-1e-6, 40, 100_000, 1e3),
        (-0.3, 1, 500, 1e3)])
    def test_named_points(self, k, m, n, beta):
        """Regime edges: k -> 0- at the ends of the beta and N ranges, large
        |m| near k = 0, and low temperature at a figure's k."""
        self.assert_matches_oracle(k, m, n, beta)

    def test_verbatim_low_boundary_level(self):
        """The verbatim boundary level lies below E_0 at m = 3 and carries
        nearly all of M_0 at beta = 9.1: its tiny variance must not cancel."""
        p, m, n, beta = SystemParams(alpha=1.0, k=-0.0877), 3, 500, 9.124087591240876
        u, c, s = summation_formula_oracle(p, m, n, beta, verbatim=True)
        res = sweep(p, m, n, [beta], Strategy.PAPER_CLOSED_FORM, "verbatim")
        assert res.c.item() == pytest.approx(c, rel=1e-12, abs=0.0) and 0.0 < c < 1e-12
        assert res.u.item() == pytest.approx(u, rel=1e-14, abs=0.0)
        assert res.s.item() == pytest.approx(s, rel=1e-12, abs=0.0)

    @settings(max_examples=12)
    @given(k=box.K, m=box.M, n=box.N, beta=box.BETA)
    def test_box(self, k, m, n, beta):
        self.assert_matches_oracle(k, m, n, beta)


class TestFreeEnergyEntropy:
    def test_single_level_free_energy(self):
        assert sweep(PHYS, 1, 0, [0.7]).f.item() == pytest.approx(energy(PHYS, 0, 1), rel=1e-13)

    def test_free_energy_decreasing(self):
        for k in FIGURE_K_LIST:
            p = SystemParams(alpha=1.0, k=k)
            fs = sweep(p, 1, 500, 1.0 / (p.kb * np.linspace(0.5, 50.0, 40))).f.tolist()
            assert all(b < a for a, b in zip(fs, fs[1:]))

    def test_identity(self):
        temps = np.geomspace(0.1, 50.0, 25)
        series = sweep(PHYS, 1, 500, 1.0 / (PHYS.kb * temps))
        for t, f, u, s in zip(temps.tolist(), series.f.tolist(), series.u.tolist(),
                              series.s.tolist()):
            assert abs(f - (u - t * s)) <= 1e-8 * max(1.0, abs(f))

    def test_third_law_limit(self):
        s = sweep(PHYS, 1, 500, [200.0]).s.item()
        assert 0.0 <= s <= 1e-100

    def test_entropy_increasing(self):
        for k in FIGURE_K_LIST:
            p = SystemParams(alpha=1.0, k=k)
            ss = sweep(p, 1, 500, 1.0 / (p.kb * np.geomspace(0.1, 50.0, 40))).s.tolist()
            assert all(b > a for a, b in zip(ss, ss[1:]))

    def test_entropy_triangulation(self):
        """Direct vs closed form within 5% over the high-temperature window."""
        for k in FIGURE_K_LIST:
            p = SystemParams(alpha=1.0, k=k)
            betas = 1.0 / (p.kb * np.linspace(5.0, 50.0, 8))
            sds, sps = (sweep(p, 1, 500, betas, strategy).s.tolist()
                        for strategy in (Strategy.DIRECT_SUM, Strategy.PAPER_CLOSED_FORM))
            for sd, sp in zip(sds, sps):
                assert abs(sp - sd) <= 0.05 * abs(sd)

    def test_negative_entropy_flagged_not_fixed(self):
        series = sweep(PHYS, 1, 500, [0.05, 10.0, 200.0], Strategy.PAPER_CLOSED_FORM)
        hot, s, deep = series.s.tolist()
        assert hot > 0.0 > s
        assert series.diagnostics["negative_entropy"].tolist() == [False, True, True]
        # the approximate Z tends to exp(-beta E0)/2, so S drifts to -ln 2
        # with an O(1/beta) tail
        assert deep == pytest.approx(-math.log(2.0), abs=0.01)
        # a NaN S is flagged too: S = kb ln M_0 here, with M_0 = 2, 1/2 and NaN
        flagged = thermo._from_moments(Strategy.DIRECT_SUM, 1.0, np.ones(3), 0.0,
                                       np.array([2.0, 0.5, math.nan]), np.zeros(3),
                                       np.zeros(3), {})
        assert flagged.diagnostics["negative_entropy"].tolist() == [False, True, True]


class TestTruncation:
    def test_insensitivity_from_300(self):
        for k in FIGURE_K_LIST:
            p = SystemParams(alpha=1.0, k=k)
            betas = 1.0 / (p.kb * np.array([1.0, 10.0, 50.0]))
            z300, z500 = (sweep(p, 1, n, betas).z for n in (300, 500))
            assert np.all(np.abs(z300 - z500) <= 1e-12 * z500)

    def test_z_monotone_in_temperature(self):
        for k in FIGURE_K_LIST:
            p = SystemParams(alpha=1.0, k=k)
            zs = sweep(p, 1, 500, 1.0 / (p.kb * np.geomspace(0.1, 50.0, 30))).z.tolist()
            assert all(b > a for a, b in zip(zs, zs[1:]))


# the diagnostics columns of a series under each strategy
DIAGNOSTIC_COLUMNS = {
    Strategy.DIRECT_SUM: ["n_terms", "tail_ratio", "subnormal_weights", "negative_entropy"],
    Strategy.PAPER_CLOSED_FORM: ["negative_entropy"],
    Strategy.POISSON_PIPELINE: ["quadrature_refinements", "quadrature_evaluations",
                                "quadrature_error_bound", "negative_entropy"],
}


def assert_points_equal_grid(params, m, n, betas, strategy, variant="corrected"):
    """Every quantity and diagnostic of point i of sweep(betas) equals that of
    the one-point sweep at betas[i], bit for bit."""
    series = sweep(params, m, n, betas, strategy, variant)
    points = [sweep(params, m, n, [beta], strategy, variant) for beta in betas]
    assert series.strategy is strategy
    assert series.variant == (variant if strategy is Strategy.PAPER_CLOSED_FORM else None)
    assert series.beta.tolist() == [float(b) for b in betas]
    assert list(series.diagnostics) == DIAGNOSTIC_COLUMNS[strategy]
    for name in ("z", "log_z", "u", "c", "f", "s"):
        assert_bits_equal(getattr(series, name),
                          np.concatenate([getattr(point, name) for point in points]))
    for name, column in series.diagnostics.items():
        assert_bits_equal(column, np.concatenate([point.diagnostics[name] for point in points]))


class TestSweep:
    """A point of a sweep does not depend on its grid: it equals the
    one-point sweep at its beta, bit for bit, diagnostics too."""

    def test_direct_grid_longer_than_one_block(self):
        # 501 levels fill a block with 130 beta rows; 400 betas span four blocks
        assert_points_equal_grid(PHYS, 1, 500, list(np.geomspace(1e-3, 50.0, 400)),
                                 Strategy.DIRECT_SUM)

    def test_direct_large_n(self):
        assert_points_equal_grid(PHYS, 2, 100_000, [1e-4, 0.01, 0.3, 7.0], Strategy.DIRECT_SUM)

    # the ids without k are PHYS's k = -0.3, and m is 1 unless named
    @pytest.mark.parametrize("k, m, n, shared", [
        (-0.3, 1, 1, False), (-0.3, 1, 500, False), (-0.3, 1, 100_000, False),
        (-1e-8, 1, 500, False), (-1e-8, 1, 100_000, False), (0.0, 1, 500, False),
        (-1e-8, 1, 300_000, False), (-1e-6, 40, 100_000, True)],
        ids=["1", "500", "100000", "k=-1e-08-500", "k=-1e-08-100000", "k=0-500",
             "k=-1e-08-300000", "k=-1e-06-m=40-100000-shared-cut"])
    def test_direct_matches_one_dimensional_sums(self, k, m, n, shared):
        """A row of at most a block is one piece: its sums equal the
        per-beta 1-D sums over all N+1 levels, bit for bit, though it builds
        no level beyond its cut and runs exp only where a weight is not
        exactly 0.0. A longer row is reduced piece by piece and the pieces
        merged: its sums are held to math.fsum of all its weights within
        merged_sums_error, plus dropped_weights_bound where the row stops at
        708.4. Either way the series is formed from the sums.
        The betas take in 1e3 and cuts whose last kept weight is subnormal,
        beta d_j in [708, 746]; C is beta * beta * var, and the betas added
        here are ones where libm's pow gives another beta**2. At N = 3e5 a
        row of all levels is 10 pieces; the shared grid is 40 betas whose
        rows all keep the 100,001 levels."""
        p = SystemParams(alpha=1.0, k=k)
        d = excitation(p, np.arange(n + 1.0), m)
        e0 = spectrum_terms(p, m)[0]
        if shared:
            betas = list(np.geomspace(1e-5, 3e-4, 40))
        else:
            betas = list(np.geomspace(1e-4, 100.0, 300 if n == 500 else 3)) + [1e3]
            betas += [b for b in np.geomspace(1e-4, 100.0, 20_000).tolist() if b**2 != b * b][:8]
            betas += [x / d[j - 1] for j in _spine(n + 1) if d[j - 1] > 0.0
                      for x in (708.5, 727.0, 745.9)]
        series = sweep(p, m, n, betas)
        _, slope, q = spectrum_terms(p, m)
        limits, lengths = thermo._row_cuts(slope, q, d[1].item(), np.array(betas), n + 1)
        full_lengths = thermo._cut_lengths(series.diagnostics["n_terms"], n + 1)
        sums = thermo._boltzmann_sums(p, m, np.array(betas), lengths, limits).T.tolist()
        if shared:
            assert set(series.diagnostics["n_terms"].tolist()) == {n + 1}
        got = zip(*(getattr(series, name).tolist() for name in ("log_z", "u", "c", "s")))
        for beta, limit, length, full_length, point, row in zip(
                betas, limits.tolist(), lengths.tolist(), full_lengths.tolist(), got, sums):
            if length > thermo._BLOCK_ELEMENTS:
                dropped = dropped_weights_bound(beta, slope, d[1].item(), limit)
                assert_merged_sums(row, d[:full_length], beta, length, dropped)
            else:
                assert row == list(one_dimensional_sums(d, beta))
            sw, mean, var = row
            assert point == (-beta * e0 + np.log(sw), e0 + mean, beta * beta * var,
                             np.log(sw) + beta * mean)
        assert (lengths > thermo._BLOCK_ELEMENTS).any() == (n >= 100_000)

    @pytest.mark.parametrize("wrong", ["dropped", "doubled"])
    def test_merged_sums_check_sees_a_lost_or_doubled_piece(self, wrong):
        """Negative control of assert_merged_sums: the sums of a row of four
        pieces with one piece left out, or counted twice, fail it, while
        the row's own reduction passes."""
        p, n, beta = SystemParams(alpha=1.0, k=-1e-6), 100_000, 1e-5
        d = excitation(p, np.arange(n + 1.0), 40)
        w = np.exp(-beta * d)
        size, limit = np.array([n + 1]), np.array([thermo._EXP_UNDERFLOW])
        assert_merged_sums(thermo._boltzmann_sums(p, 40, np.array([beta]), size, limit)[:, 0],
                           d, beta)
        block = thermo._BLOCK_ELEMENTS
        for lo in range(0, n + 1, block):
            piece = np.arange(lo, min(lo + block, n + 1))
            at = (np.delete(np.arange(n + 1), piece) if wrong == "dropped"
                  else np.concatenate([np.arange(n + 1), piece]))
            with pytest.raises(AssertionError):
                assert_merged_sums(fsum_sums(d[at], w[at]), d, beta)

    @pytest.mark.parametrize("variant", ["corrected", "verbatim"])
    def test_paper(self, variant):
        assert_points_equal_grid(PHYS, 3, 500, list(np.geomspace(0.01, 5.0, 150)),
                                 Strategy.PAPER_CLOSED_FORM, variant)

    def test_paper_across_erfcx_switch(self):
        # at N = 1 both erfcx arguments sqrt(-beta a_t^2 / 2k) and
        # sqrt(-beta b_t^2 / 2k) cross 1.5, and s = beta (E_2 - E_0) crosses 1,
        # where the closed form switches from its series to the half-line moments
        betas = list(np.linspace(0.05, 0.3, 80))
        s = [b * (energy(PHYS, 2.0, 3) - energy(PHYS, 0.0, 3)) for b in betas]
        assert min(s) < 1.0 < max(s)
        _, slope, q = spectrum_terms(PHYS, 3)
        a_t, b_t = -slope / 2.0, (slope + 2.0 * q * 2.0) / 2.0
        args = [math.sqrt(-b * c * c / (2.0 * PHYS.k)) for b in betas for c in (a_t, b_t)]
        assert sum(a < 1.5 for a in args[0::2]) * sum(a >= 1.5 for a in args[0::2]) > 0
        assert sum(a < 1.5 for a in args[1::2]) * sum(a >= 1.5 for a in args[1::2]) > 0
        for variant in ("corrected", "verbatim"):
            assert_points_equal_grid(PHYS, 3, 1, betas, Strategy.PAPER_CLOSED_FORM, variant)

    def test_direct_many_cut_lengths(self):
        betas = list(np.geomspace(1e-4, 1e3, 60))
        assert_points_equal_grid(PHYS, 2, 100_000, betas, Strategy.DIRECT_SUM)
        lengths = set(sweep(PHYS, 2, 100_000, betas).diagnostics["n_terms"].tolist())
        assert len(lengths) >= 6

    def test_poisson(self):
        # the 300-point temperature grid of the figures, T in [0.1, 50]
        temps = _temperature_grid({"T_min": 0.1, "T_max": 50.0, "T_count": 300,
                                   "T_spacing": "auto"})
        assert_points_equal_grid(PHYS, 1, 500, [1.0 / t for t in temps],
                                 Strategy.POISSON_PIPELINE)
        assert_points_equal_grid(SystemParams(alpha=1.0, k=-1e-6), 40, 100_000, [1e-4, 1e3],
                                 Strategy.POISSON_PIPELINE)

    def test_paper_flags_and_negative_entropy(self):
        """Both variants at m = 3 reach the beta where S < 0; the
        negative_entropy column flags it point by point."""
        betas = [0.05, 2.0, 10.0, 200.0]
        for variant in ("corrected", "verbatim"):
            assert_points_equal_grid(PHYS, 3, 500, betas, Strategy.PAPER_CLOSED_FORM, variant)
            series = sweep(PHYS, 3, 500, betas, Strategy.PAPER_CLOSED_FORM, variant)
            flags = series.diagnostics["negative_entropy"]
            assert flags[-1] and series.s[-1] < 0.0
            assert not flags[0] and series.s[0] >= 0.0

    @settings(max_examples=40)
    @given(k=box.K_WIDE, m=box.M, n=box.N, betas=st.lists(box.BETA, min_size=2, max_size=6),
           strategy=st.sampled_from(list(Strategy)),
           variant=st.sampled_from(["corrected", "verbatim"]))
    @example(k=-5.0, m=60, n=100_000, betas=[1e-4, 1e3], strategy=Strategy.DIRECT_SUM,
             variant="corrected")
    @example(k=-5.0, m=60, n=100_000, betas=[1e-4, 1e3], strategy=Strategy.PAPER_CLOSED_FORM,
             variant="corrected")
    @example(k=-5.0, m=60, n=100_000, betas=[1e-4, 1e3], strategy=Strategy.PAPER_CLOSED_FORM,
             variant="verbatim")
    @example(k=-5.0, m=60, n=100_000, betas=[1e-4, 1e3], strategy=Strategy.POISSON_PIPELINE,
             variant="corrected")
    def test_point_does_not_depend_on_grid(self, k, m, n, betas, strategy, variant):
        """Over the documented box, with k out to the shell |k| <= 5 (strong
        coupling, |k| > alpha), and 2 to 6 betas, under every strategy and
        variant; no grid of it is refused."""
        assert_points_equal_grid(SystemParams(alpha=1.0, k=k), m, n, betas, strategy, variant)

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_empty_grid(self, strategy):
        """An empty series has its strategy's diagnostic columns, each an
        empty array of the dtype a one-point series has."""
        series = sweep(PHYS, 1, 500, [], strategy)
        assert all(getattr(series, name).shape == (0,)
                   for name in ("beta", "z", "log_z", "u", "c", "f", "s"))
        assert list(series.diagnostics) == DIAGNOSTIC_COLUMNS[strategy]
        point = sweep(PHYS, 1, 500, [1.0], strategy).diagnostics
        for name, column in series.diagnostics.items():
            assert column.shape == (0,) and column.dtype == point[name].dtype

    def test_empty_series_fields_are_own_arrays(self):
        """Each field of an empty series is its own array, so writing to one
        cannot change another."""
        series = sweep(PHYS, 1, 500, [])
        fields = [getattr(series, name) for name in ("beta", "z", "log_z", "u", "c", "f", "s")]
        assert len({id(field) for field in fields}) == len(fields)

    def test_validates_every_beta(self):
        """Zero, negative, NaN, infinite and squared-to-overflow betas are
        refused wherever they sit in the grid."""
        for bad in (0.0, -1.0, math.nan, math.inf, 1e300):
            with pytest.raises(ValueError, match="beta must be positive"):
                sweep(PHYS, 1, 500, [0.1, bad])
            with pytest.raises(ValueError, match="beta must be positive"):
                sweep(PHYS, 1, 500, np.array([bad, 0.1]))


class TestSubnormalCut:
    """A direct row whose first excited weight is at least 2^-900 stops
    where its weights turn subnormal (thermo._row_cuts): its sums stay
    within dropped_weights_bound of the row cut at 746, and that bound is far
    below an ulp."""

    @settings(max_examples=40)
    @given(alpha=box.ALPHA, k=box.K, m=box.M, n=box.N,
           betas=st.lists(box.BETA, min_size=1, max_size=3))
    @example(alpha=1e150, k=-0.5, m=60, n=100_000, betas=[1e-4])
    @example(alpha=1e150, k=-0.5, m=60, n=100_000, betas=[1e3])
    def test_within_bound_over_the_box(self, alpha, k, m, n, betas):
        assert_subnormal_cut_within_bound(SystemParams(alpha=alpha, k=k), m, n, betas)

    @pytest.mark.parametrize("n", [1, 500, 100_000])
    def test_rows_near_the_limits(self, n):
        """Rows whose first excited level sits either side of 900 ln 2 and
        708.4, rows with a spine node's last level in (708.4, 746], and long
        rows of several pieces."""
        d = excitation(PHYS, np.arange(n + 1.0), 1)
        betas = [x / d[1] for x in (600.0, 623.8, 623.9, 708.0, 708.5, 745.0)]
        betas += [x / d[j - 1] for j in _spine(n + 1) if j > 1 for x in (708.5, 727.0)]
        assert_subnormal_cut_within_bound(PHYS, 1, n, betas + [1e-4, 1e-3])

    def test_cut_on_every_row_fails(self, monkeypatch):
        """Negative control: with the 708.4 cut on every row, a row whose
        beta d_1 is just below 708.4 has a first weight of about 2^-1021, and
        the dropped weights' bound on its variance is not below an ulp."""
        beta = 708.0 / excitation(PHYS, 1.0, 1)
        assert_subnormal_cut_within_bound(PHYS, 1, 500, [beta])
        monkeypatch.setattr(thermo, "_SUBNORMAL_CUT_D1", math.inf)
        with pytest.raises(AssertionError):
            assert_subnormal_cut_within_bound(PHYS, 1, 500, [beta])

    def test_subnormal_weights_flagged(self):
        """subnormal_weights is True where every excited weight is below
        2^-1022, beta d_1 > 708.4: there C rests on subnormal weights."""
        p = SystemParams(alpha=1.0, k=-0.01)
        series = sweep(p, 0, 1, [300.0, 365.17, 400.0])
        assert series.diagnostics["subnormal_weights"].tolist() == [False, True, True]
        assert 0.0 < series.c[1] < 1e-300 and series.c[2] == 0.0
        assert not sweep(p, 0, 0, [365.17]).diagnostics["subnormal_weights"].item()
        d1 = excitation(p, 1.0, 0)
        flags = sweep(p, 0, 500, [708.3 / d1, 708.5 / d1]).diagnostics["subnormal_weights"]
        assert flags.tolist() == [False, True]


class TestEvaluateBundle:
    """The five quantities of a point are one consistent bundle."""

    def test_direct_bundle_consistency(self):
        """Z = exp(ln Z), F = -ln Z / beta and S = beta (U - F) at a point,
        which is the same in a one-point sweep and in a grid."""
        series = sweep(PHYS, 1, 500, [0.25])
        z, log_z, u, f, s = (getattr(series, q).item() for q in ("z", "log_z", "u", "f", "s"))
        assert z == pytest.approx(math.exp(log_z), rel=1e-15)
        assert f == pytest.approx(-log_z / 0.25, rel=1e-14)
        assert s == pytest.approx(0.25 * (u - f), rel=1e-13)
        assert_points_equal_grid(PHYS, 1, 500, [0.1, 0.25, 4.0], Strategy.DIRECT_SUM)

    def test_poisson_bundle(self):
        beta = 0.1
        series = sweep(PHYS, 1, 500, [beta], Strategy.POISSON_PIPELINE)
        u, f, s = series.u.item(), series.f.item(), series.s.item()
        assert f == pytest.approx(u - s / (PHYS.kb * beta), rel=1e-10)
        assert_points_equal_grid(PHYS, 1, 500, [beta, 1.0], Strategy.POISSON_PIPELINE)

    def test_display_overflow_recorded_not_raised(self):
        """Z is ~1e-182 at this point; every primary value is finite."""
        p = SystemParams(alpha=1.0, k=-0.001)
        series = sweep(p, 40, 500, [10.0], Strategy.PAPER_CLOSED_FORM)
        assert all(np.isfinite(getattr(series, q)).all() for q in ("z", "u", "c", "f", "s"))

    def test_strategy_parser(self):
        """Strategies are looked up by their command-line names only."""
        assert [Strategy(name) for name in ("direct", "paper", "poisson")] == list(Strategy)
        for name in ("PAPER_CLOSED_FORM", "zzz"):
            with pytest.raises(ValueError):
                Strategy(name)


class TestRegimeEdges:
    """The strategies across the documented box (tests/box.py), with k out
    to the shell |k| <= 5: at strong coupling, |k| > alpha, each strategy
    must still give finite values, and none refuses a point."""

    @settings(max_examples=100)
    @given(k=box.K_WIDE, m=box.M, n=box.N, beta=box.BETA)
    def test_direct_sum(self, k, m, n, beta):
        """C >= 0, S >= 0 and F = U - TS. A sum cut at the underflow index
        to at most a block gives the full-length sums within 4 ulp; a longer
        row's sums are within merged_sums_error of math.fsum, plus
        dropped_weights_bound where it stops at 708.4, and the series
        is formed from them within 4 ulp."""
        p = SystemParams(alpha=1.0, k=k)
        series = sweep(p, m, n, [beta])
        z, u, c, f, s = (getattr(series, q).item() for q in ("z", "u", "c", "f", "s"))
        assert c >= 0.0 and s >= 0.0
        scale = abs(u) + abs(f) + abs(s) / beta
        assert abs(f - (u - s / beta)) <= 1e-12 * scale
        d = excitation(p, np.arange(n + 1.0), m)
        _, slope, q = spectrum_terms(p, m)
        limit, length = thermo._row_cuts(slope, q, d[min(n, 1)].item(), np.array([beta]), n + 1)
        if length.item() > thermo._BLOCK_ELEMENTS:
            sw, mean, var = thermo._boltzmann_sums(p, m, np.array([beta]), length, limit)[:, 0]
            full = thermo._cut_lengths(series.diagnostics["n_terms"], n + 1).item()
            dropped = dropped_weights_bound(beta, slope, d[1].item(), limit.item())
            assert_merged_sums((sw, mean, var), d[:full], beta, length.item(), dropped)
        else:
            sw, mean, var = one_dimensional_sums(d, beta)
        e0 = spectrum_terms(p, m)[0]
        log_z = -beta * e0 + np.log(sw)
        full = (np.exp(log_z) if log_z < 700.0 else math.inf, e0 + mean, beta * beta * var,
                np.log(sw) + beta * mean)
        for cut, want in zip((z, u, c, s), full):
            assert cut == want or abs(cut - want) <= 4.0 * math.ulp(max(abs(cut), abs(want)))

    @settings(max_examples=100)
    @given(k=box.K_WIDE, m=box.M, n=box.N, beta=box.BETA,
           series=st.sampled_from([(Strategy.PAPER_CLOSED_FORM, "corrected"),
                                   (Strategy.PAPER_CLOSED_FORM, "verbatim"),
                                   (Strategy.POISSON_PIPELINE, "corrected")]))
    @example(k=-5.0, m=60, n=100_000, beta=1e-4, series=(Strategy.PAPER_CLOSED_FORM, "corrected"))
    @example(k=-5.0, m=60, n=100_000, beta=1e3, series=(Strategy.PAPER_CLOSED_FORM, "corrected"))
    @example(k=-5.0, m=60, n=100_000, beta=1e-4, series=(Strategy.PAPER_CLOSED_FORM, "verbatim"))
    @example(k=-5.0, m=60, n=100_000, beta=1e3, series=(Strategy.PAPER_CLOSED_FORM, "verbatim"))
    @example(k=-5.0, m=60, n=100_000, beta=1e-4, series=(Strategy.POISSON_PIPELINE, "corrected"))
    @example(k=-5.0, m=60, n=100_000, beta=1e3, series=(Strategy.POISSON_PIPELINE, "corrected"))
    def test_finite_or_typed_error(self, k, m, n, beta, series):
        """Every value is finite: no point of the box is refused. Z is
        exp(ln Z), saturated like the direct sum's; S = beta (U - F)."""
        strategy, variant = series
        series = sweep(SystemParams(alpha=1.0, k=k), m, n, [beta], strategy, variant)
        z, log_z, u, c, f, s = (getattr(series, q).item()
                                for q in ("z", "log_z", "u", "c", "f", "s"))
        assert all(math.isfinite(v) for v in (log_z, u, c, f, s))
        assert z == (np.exp(log_z) if log_z < 700.0 else math.inf)
        scale = abs(s) + beta * (abs(u) + abs(f))
        assert abs(s - beta * (u - f)) <= 1e-12 * scale

    @settings(max_examples=60)
    @given(alpha=box.ALPHA, k=box.K_WIDE, m=box.M, n=box.N, beta=box.BETA)
    @example(alpha=1e150, k=-0.5, m=60, n=100_000, beta=1e-4)
    def test_poisson_matches_closed_form(self, alpha, k, m, n, beta):
        """The pipeline integrates the excitation d itself, so it keeps the
        closed form's Z, U and C within 1e-9 relative (the triangulation's
        bound) for alpha up to 1e150, where d is far below an ulp of E_0.
        Neither refuses a point of the box: at its corner (alpha = 1e150,
        k = -0.5, m = 60, N = 1e5) d(N+1)^2 is not finite, but neither
        squares it."""
        p = SystemParams(alpha=alpha, k=k)
        quad, closed = (sweep(p, m, n, [beta], strategy) for strategy in (
            Strategy.POISSON_PIPELINE, Strategy.PAPER_CLOSED_FORM))
        for q in "zuc":
            got, want = getattr(quad, q).item(), getattr(closed, q).item()
            assert abs(got - want) <= 1e-9 * abs(want)


def strictly_decreasing_loop(temps, fs, ss):
    """The point-by-point rule that strictly_decreasing_resolvable applies
    to whole arrays."""
    for i in range(len(fs) - 1):
        resolution = 8.0 * 2.220446049250313e-16 * max(1.0, abs(fs[i]))
        if ss[i] * (temps[i + 1] - temps[i]) > resolution:
            if not fs[i + 1] < fs[i]:
                return False
        elif fs[i + 1] > fs[i] + resolution:
            return False
    return True


@settings(max_examples=300)
@given(steps=st.lists(st.tuples(st.floats(1e-3, 1.0),
                                st.sampled_from([0.0, 1e-18, -1e-18, 1e-3, -1e-3, -5.0, math.nan]),
                                st.sampled_from([0.0, 1e-20, 1.0, math.nan])),
                      min_size=1, max_size=12))
def test_strictly_decreasing_resolvable_matches_loop(steps):
    """Ties below the resolution of F, resolvable rises and NaN, as arrays
    and as lists. The tables are made up, not points of the box: the rule
    reads only temperature steps, F steps and S, drawn at the scales that
    make a step resolvable or not."""
    temps, fs, ss = [1.0], [5.0], [1.0]
    for dt, df, s in steps:
        temps.append(temps[-1] + dt)
        fs.append(fs[-1] + df)
        ss.append(s)
    expected = strictly_decreasing_loop(temps, fs, ss)
    assert strictly_decreasing_resolvable(temps, fs, ss) is expected
    assert strictly_decreasing_resolvable(*map(np.array, (temps, fs, ss))) is expected
