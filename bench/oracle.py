"""Correctness oracle: checks each command's CSV files and stdout.

It shares no code with pdm_osc. Direct-sum results are recomputed from the
paper's closed-form spectrum; `paper` and `poisson` partition functions must
lie within twice the a-priori Euler-Maclaurin bound [f'(N+1) - f'(0)]/12 of
that direct sum (the criterion of `validate`'s triangulation check), their
F must lie within the band that bound maps to, and S must equal beta (U - F);
wavefunction samples are compared with a Jacobi form built from scipy's
`eval_jacobi` and normalized in closed form (DLMF 18.3). `validate` reports
its own verdict per check, which is read from stdout.

An operation is one thermo point (k, T, variant), one wavefunction state or
one validate check. A command that exits non-zero fails all its operations;
so does an operation with a non-finite value or one outside its error model.
Each checked operation also yields an error ratio: observed error over
allowed error (> 1 means failed).
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field

import numpy as np
from scipy.special import eval_jacobi, gammaln

from workloads import VALIDATE_CHECKS, Command, op_id

# direct sums are exact up to summation order: a relative 1e-9 leaves ample
# room for roundoff while any formula slip shows
DIRECT_RTOL = 1e-9
DIRECT_ATOL = 1e-12
# the same absolute floor validate adds to twice the truncation bound
EM_ATOL = 1e-12
WAVEFUNCTION_RTOL = 1e-8
# relative roundoff allowed on top of an error band, and in S = beta (U - F)
ROUNDOFF_RTOL = 1e-10
IDENTITY_RTOL = 1e-8
GRID_RTOL = 1e-9
QUANTITIES = "ZUCFS"
# the workloads pass neither --alpha nor --lam, so the CLI defaults hold
ALPHA = 1.0
LAM = 1.0


@dataclass
class Tally:
    """Operations checked for one command; failed_ops holds the ids of failures."""

    attempted: int = 0
    failed_ops: list[str] = field(default_factory=list)
    max_err_ratio: float = 0.0
    notes: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def record(self, op: str, ok: bool, ratio: float | None = None, note: str = "") -> None:
        self.attempted += 1
        if ratio is not None and math.isfinite(ratio):
            self.max_err_ratio = max(self.max_err_ratio, ratio)
        if not ok:
            self.failed_ops.append(op)
            if note and len(self.notes) < 3:
                self.notes.append(note)

    def fail_all(self, ops: list[str], note: str) -> None:
        self.attempted += len(ops)
        self.failed_ops.extend(ops)
        self.notes.append(note)


def spectrum(alpha: float, k: float, m: int, n: np.ndarray) -> np.ndarray:
    """E(n_r, m) = (2n+|m|+1) sqrt(alpha^2+k^2) - k [2n^2 + m^2/2 + (2n+1)(|m|+1)]."""
    am = abs(m)
    return (2.0 * n + am + 1.0) * math.sqrt(alpha * alpha + k * k) - k * (
        2.0 * n * n + m * m / 2.0 + (2.0 * n + 1.0) * (am + 1.0))


def direct_reference(alpha: float, k: float, m: int, N: int, betas) -> dict:
    """Z, U, C, F, S of the truncated state sum (kb = 1), ground-state shifted."""
    betas = np.asarray(betas, dtype=float)
    e = spectrum(alpha, k, m, np.arange(N + 1, dtype=float))
    e0 = float(e.min())
    de = e - e0
    out = {q: np.empty_like(betas) for q in QUANTITIES}
    chunk = max(1, 2_000_000 // de.size)
    for lo in range(0, betas.size, chunk):
        b = betas[lo:lo + chunk, None]
        w = np.exp(-b * de)
        sw = w.sum(axis=1)
        shift = (w * de).sum(axis=1) / sw
        var = (w * (de - shift[:, None]) ** 2).sum(axis=1) / sw
        b = b[:, 0]
        log_z = -b * e0 + np.log(sw)
        with np.errstate(over="ignore", under="ignore"):
            out["Z"][lo:lo + chunk] = np.exp(log_z)
        out["U"][lo:lo + chunk] = e0 + shift
        out["C"][lo:lo + chunk] = b * b * var
        out["F"][lo:lo + chunk] = -log_z / b
        out["S"][lo:lo + chunk] = np.log(sw) + b * shift
    return out


def em_bound(alpha: float, k: float, m: int, N: int, betas, e_shift: float = 0.0) -> np.ndarray:
    """A-priori truncation error |f'(N+1) - f'(0)|/12, f(x) = exp(-beta E(x)).

    With e_shift the bound is given in units of exp(-beta e_shift), which
    keeps it representable where Z underflows.
    """
    betas = np.asarray(betas, dtype=float)
    hyp = math.sqrt(alpha * alpha + k * k)
    am = abs(m)

    def f_prime(x: float) -> np.ndarray:
        e = float(spectrum(alpha, k, m, np.array(x))) - e_shift
        e_prime = 2.0 * hyp - k * (4.0 * x + 2.0 * (am + 1.0))
        with np.errstate(under="ignore"):
            return -betas * e_prime * np.exp(-betas * e)

    return np.abs(f_prime(N + 1.0) - f_prime(0.0)) / 12.0


def relative_em_bound(alpha: float, k: float, m: int, N: int, betas) -> np.ndarray:
    """em_bound / Z of the direct sum, computed without underflow."""
    betas = np.asarray(betas, dtype=float)
    e = spectrum(alpha, k, m, np.arange(N + 1, dtype=float))
    e0 = float(e.min())
    with np.errstate(under="ignore"):
        sw = np.exp(-betas[:, None] * (e - e0)).sum(axis=1)
    return em_bound(alpha, k, m, N, betas, e_shift=e0) / sw


def _check_points(tally: Tally, cmd: Command, k: float, variant: str, temps,
                  values: dict, label: str) -> None:
    """Check the points of one (k, variant) series against the error model.

    paper and poisson points: Z within twice the truncation bound of the
    direct sum; F within the band that bound maps to, -ln(1 -+ eps)/beta with
    eps the allowed relative error of Z; and S = beta (U - F).
    """
    temps = np.asarray(temps, dtype=float)
    betas = 1.0 / temps
    ref = direct_reference(ALPHA, k, cmd.m, cmd.N, betas)
    bound = em_bound(ALPHA, k, cmd.m, cmd.N, betas)
    rel_bound = relative_em_bound(ALPHA, k, cmd.m, cmd.N, betas)
    for i, t in enumerate(temps):
        op = op_id(k, variant, i)
        obs = {q: float(values[q][i]) for q in QUANTITIES}
        where = f"{label} k={k} T={t:.6g}"
        if not all(math.isfinite(v) for v in obs.values()):
            tally.record(op, False, None, f"{where}: non-finite {obs}")
            continue
        if cmd.strategy == "direct":
            ratio = max(abs(obs[q] - ref[q][i]) / (DIRECT_RTOL * abs(ref[q][i]) + DIRECT_ATOL)
                        for q in QUANTITIES)
            tally.record(op, ratio <= 1.0, ratio,
                         f"{where}: off the direct sum by {ratio:.3g}x tol")
            continue
        if variant == "verbatim":
            # the mass-scale d_t reading is a diagnostic with no stated error
            # model; it must only be finite
            tally.record(op, True)
            continue
        beta = betas[i]
        allowed = 2.0 * bound[i] + EM_ATOL
        z_ratio = abs(obs["Z"] - ref["Z"][i]) / allowed
        # eps = allowed / Z, from the shifted bound so that it survives an
        # underflowing Z; at eps >= 1 the Z band reaches 0 and F is unbounded
        eps = 2.0 * rel_bound[i] + (EM_ATOL / ref["Z"][i] if ref["Z"][i] > 0 else math.inf)
        f_allowed = (-math.log1p(-eps) / beta if eps < 1.0 else math.inf) \
            + ROUNDOFF_RTOL * (abs(ref["F"][i]) + 1.0 / beta)
        f_ratio = abs(obs["F"] - ref["F"][i]) / f_allowed
        s_scale = abs(obs["S"]) + beta * (abs(obs["U"]) + abs(obs["F"]))
        s_ratio = abs(obs["S"] - beta * (obs["U"] - obs["F"])) / (IDENTITY_RTOL * s_scale
                                                                  + DIRECT_ATOL)
        ratio = max(z_ratio, f_ratio, s_ratio)
        tally.record(op, ratio <= 1.0, ratio,
                     f"{where}: |Z - Z_direct| = {abs(obs['Z'] - ref['Z'][i]):.3e} "
                     f"(2 x EM bound {allowed:.3e}), F off by {f_ratio:.3g}x its band, "
                     f"S - beta (U - F) off by {s_ratio:.3g}x tol")


def read_csv(path: str) -> tuple[list[str], np.ndarray]:
    """(column names, rows) of one pdm-osc CSV table; metadata lines skipped."""
    header, rows = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("# "):
                continue
            if not header:
                header = line.rstrip("\n").split(",")
            else:
                rows.append([float(c) for c in line.split(",")])
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header))


_SERIES = re.compile(r"^([ZUCFS])\(k=([^;)]+)(?:;(\w+))?\)")


def check_table(cmd: Command, workdir: str, tally: Tally) -> None:
    series: dict[tuple[float, str], dict] = {}
    temps = None
    for q in QUANTITIES:
        path = next(p for p in cmd.outputs if p.endswith(f"_{q}.csv"))
        header, rows = read_csv(os.path.join(workdir, path))
        temps = rows[:, 0]
        for j, name in enumerate(header[1:], start=1):
            hit = _SERIES.match(name)
            if hit is None or hit.group(1) != q:
                raise ValueError(f"{path}: unexpected column {name!r}")
            key = (float(hit.group(2)), hit.group(3) or cmd.variants[0])
            series.setdefault(key, {})[q] = rows[:, j]
    expected = {(k, v) for k in cmd.k_list for v in cmd.variants}
    if set(series) != expected or temps is None or temps.size != cmd.t_count:
        raise ValueError(f"{cmd.name}: series {sorted(series)} or grid size differ "
                         f"from the command")
    for end, want in ((temps[0], cmd.t_min), (temps[-1], cmd.t_max)):
        if abs(end - want) > GRID_RTOL * want:
            raise ValueError(f"{cmd.name}: temperature grid ends at {end}, expected {want}")
    for (k, variant), values in sorted(series.items()):
        _check_points(tally, cmd, k, variant, temps, values, f"{cmd.name}[{variant}]")


_POINT = re.compile(r"^k=(\S+) T=(\S+) Z=(\S+) U=(\S+) C=(\S+) F=(\S+) S=(\S+)$")


def check_point(cmd: Command, stdout: str, tally: Tally) -> None:
    lines = [_POINT.match(line) for line in stdout.splitlines()]
    lines = [hit for hit in lines if hit]
    if len(lines) != len(cmd.k_list):
        raise ValueError(f"{cmd.name}: expected {len(cmd.k_list)} result lines, got {len(lines)}")
    for k, hit in zip(cmd.k_list, lines):
        values = {q: np.array([float(hit.group(i + 3))]) for i, q in enumerate(QUANTITIES)}
        _check_points(tally, cmd, k, "corrected", [cmd.temperature], values, cmd.name)


def wavefunction_reference(alpha: float, k: float, lam: float, m: int, n: int,
                           r: np.ndarray) -> np.ndarray:
    """Unit-normalized U(r) under the measure r dr / (1 + delta_sq r^2).

    With z = -delta_sq r^2 and x = 1 - 2z the measure becomes the Jacobi
    weight, so the norm integral is h_n^(|m|,s) / (2^(|m|+s+2) |delta_sq|).
    """
    d = -k * lam
    a, b = float(abs(m)), math.sqrt(alpha * alpha / (k * k) + 1.0)
    log_h = ((a + b + 1.0) * math.log(2.0) - math.log(2.0 * n + a + b + 1.0)
             + gammaln(n + a + 1.0) + gammaln(n + b + 1.0)
             - gammaln(n + a + b + 1.0) - gammaln(n + 1.0))
    log_norm = log_h - (a + b + 2.0) * math.log(2.0) - math.log(d)
    z = d * r * r
    return (math.exp(-0.5 * log_norm) * z ** (a / 2.0) * (1.0 - z) ** (0.5 * (1.0 + b))
            * eval_jacobi(n, a, b, 1.0 - 2.0 * z))


def check_wavefunction(cmd: Command, workdir: str, tally: Tally) -> None:
    header, rows = read_csv(os.path.join(workdir, cmd.outputs[0]))
    k = cmd.k_list[0]
    r = rows[:, 0]
    r_max = 1.0 / math.sqrt(-k * LAM)
    grid = r_max * (np.arange(cmd.r_count) + 0.5) / cmd.r_count
    if r.size != cmd.r_count or np.max(np.abs(r - grid)) > GRID_RTOL * r_max:
        raise ValueError(f"{cmd.name}: radial grid differs from the command")
    if header[1:] != [f"U_n{n} [1/length]" for n in range(cmd.n_max + 1)]:
        raise ValueError(f"{cmd.name}: unexpected columns {header[1:]}")
    for n in range(cmd.n_max + 1):
        obs = rows[:, n + 1]
        ref = wavefunction_reference(ALPHA, k, LAM, cmd.m, n, r)
        if not np.all(np.isfinite(obs)):
            tally.record(f"n={n}", False, None, f"{cmd.name} n={n}: non-finite samples")
            continue
        ratio = float(np.max(np.abs(obs - ref)) / (WAVEFUNCTION_RTOL * np.max(np.abs(ref))))
        tally.record(f"n={n}", ratio <= 1.0, ratio,
                     f"{cmd.name} n={n}: off the Jacobi form by {ratio:.3g}x tol")


_CHECK_LINE = re.compile(r"^(\w+)\s+(PASS|FAIL)\s+(.*)$")
_NUMBER = r"([-+0-9.eEinfa]+)"
# validate's own thresholds, read from its detail text: (pattern, limit, kind)
# kind "max": value must stay <= limit; "min": value must exceed limit
_CHECK_RATIOS = {
    "quantization_roundtrip": (r"= " + _NUMBER, 1e-9, "max"),
    "spectrum_bisection": (r"= " + _NUMBER, 1e-9, "max"),
    "ode_residual": (r"residual = " + _NUMBER, 1e-8, "max"),
    "ode_sensitivity": (r"= " + _NUMBER, 1e-3, "min"),
    "normalization": (r"= " + _NUMBER, 1e-8, "max"),
    "orthogonality": (r"= " + _NUMBER, 1e-6, "max"),
    "boltzmann_limit": (r"= " + _NUMBER, 1e-10, "max"),
    "strategy_triangulation": (r"max rel = " + _NUMBER, 0.05, "max"),
    "derivative_consistency": (r"max rel = " + _NUMBER, 1e-6, "max"),
    "thermo_identity": (r"rel = " + _NUMBER, 1e-8, "max"),
    "truncation_insensitivity": (r"max rel = " + _NUMBER, 1e-12, "max"),
}


def check_validate(stdout: str, tally: Tally) -> None:
    seen = {}
    for line in stdout.splitlines():
        hit = _CHECK_LINE.match(line)
        if hit:
            seen[hit.group(1)] = (hit.group(2) == "PASS", hit.group(3))
    names = list(dict.fromkeys(list(seen) + list(VALIDATE_CHECKS)))
    for name in names:
        passed, detail = seen.get(name, (False, "missing from the report"))
        ratio = None
        if name in _CHECK_RATIOS and name in seen:
            pattern, limit, kind = _CHECK_RATIOS[name]
            found = re.search(pattern, detail)
            if found:
                value = abs(float(found.group(1)))
                ratio = value / limit if kind == "max" else (limit / value if value else math.inf)
        tally.record(name, passed, ratio, f"validate {name}: {detail}")


def check_command(cmd: Command, workdir: str, stdout: str, returncode: int | None) -> Tally:
    """Tally of cmd's operations from its outputs under workdir."""
    tally = Tally()
    if returncode != 0:
        tally.fail_all(cmd.op_ids(), f"{cmd.name}: exit code {returncode}")
        return tally
    try:
        if cmd.kind == "table":
            check_table(cmd, workdir, tally)
        elif cmd.kind == "point":
            check_point(cmd, stdout, tally)
        elif cmd.kind == "wavefunction":
            check_wavefunction(cmd, workdir, tally)
        else:
            check_validate(stdout, tally)
    except (OSError, ValueError, StopIteration, IndexError) as exc:
        # unreadable or malformed output: every operation of the command fails
        tally = Tally()
        tally.fail_all(cmd.op_ids(), f"{cmd.name}: unreadable output ({exc})")
    return tally
