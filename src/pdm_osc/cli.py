"""Command-line front end.

Commands: spectrum, wavefunction, thermo, figures, validate. Configuration
precedence is CLI flags > config file (flat key=value lines, '#' comments) >
defaults. Exit codes: 0 success, 1 validation/computation failure, 2 config
error (single machine-parsable line on stderr).
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys

import numpy as np

from . import __version__, thermo, validate as validation
from .oscillator import (SystemParams, _turning_radius, energy, make_state,
                         radial_wavefunction)
from .output import SeriesTable, format_float

_DEFAULTS = {
    "alpha": 1.0,
    "k": None,
    "k_list": None,
    "lam": 1.0,
    "kb": 1.0,
    "m": 1,
    "n_max": 8,
    "N": 500,
    "T": None,
    "T_min": 0.1,
    "T_max": 50.0,
    "T_count": 500,
    "T_spacing": "auto",
    "strategy": "direct",
    "variant": "corrected",
    "out": ".",
    "format": "csv",
    "r_count": 200,
}

_QUANTITIES = "ZUCFS"


class ConfigError(Exception):
    def __init__(self, field: str, reason: str):
        super().__init__(f"config-error field={field} reason={reason}")
        self.field = field


def _parse_config_file(path: str) -> dict:
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError("config", f"line {lineno} is not key=value")
                key, value = (part.strip() for part in line.split("=", 1))
                values[key] = value
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    return values


def _coerce(field: str, value, kind):
    if value is None:
        return None
    try:
        number = kind(value)
    except (TypeError, ValueError):
        raise ConfigError(field, f"cannot parse {value!r} as {kind.__name__}") from None
    if kind is float and not math.isfinite(number):
        raise ConfigError(field, f"must be finite, got {number}")
    return number


def _parse_k_list(field: str, value) -> list[float] | None:
    if value is None:
        return None
    if isinstance(value, list):
        return value
    try:
        items = [float(part) for part in str(value).split(",") if part.strip()]
    except ValueError:
        raise ConfigError(field, f"cannot parse {value!r} as comma-separated floats") from None
    if not items:
        raise ConfigError(field, "empty list")
    if not all(math.isfinite(k) for k in items):
        raise ConfigError(field, "every value must be finite")
    return items


def _resolve(args: argparse.Namespace, command: str) -> dict:
    """Merge defaults, config file and CLI flags into one validated mapping."""
    cfg = dict(_DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(_parse_config_file(args.config))
    for key in _DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    if command == "figures" and cfg["k"] is None and cfg["k_list"] is None:
        cfg["k_list"] = "-0.1,-0.2,-0.3"
    for name, kind in (("alpha", float), ("lam", float), ("kb", float), ("m", int),
                       ("n_max", int), ("N", int), ("T", float), ("T_min", float),
                       ("T_max", float), ("T_count", int), ("r_count", int), ("k", float)):
        cfg[name] = _coerce(name, cfg[name], kind)
    cfg["k_list"] = _parse_k_list("k_list", cfg["k_list"])
    if cfg["k_list"] is None:
        cfg["k_list"] = [cfg["k"] if cfg["k"] is not None else -0.1]
    elif cfg["k"] is not None:
        raise ConfigError("k", "give either k or k_list, not both")
    if len(set(cfg["k_list"])) != len(cfg["k_list"]):
        raise ConfigError("k_list", "repeated k value")
    if cfg["alpha"] <= 0:
        raise ConfigError("alpha", "must be positive")
    if cfg["lam"] == 0:
        raise ConfigError("lam", "must be nonzero")
    if cfg["N"] < 1:
        raise ConfigError("N", "must be >= 1")
    if cfg["n_max"] < 0:
        raise ConfigError("n_max", "must be >= 0")
    if cfg["T"] is not None and cfg["T"] <= 0:
        raise ConfigError("T", "must be positive")
    if not (0 < cfg["T_min"] < cfg["T_max"]):
        raise ConfigError("T_grid", "need 0 < T_min < T_max")
    if cfg["T_count"] < 2:
        raise ConfigError("T_count", "must be >= 2")
    if cfg["r_count"] < 2:
        raise ConfigError("r_count", "must be >= 2")
    if cfg["T_spacing"] not in ("linear", "log", "auto"):
        raise ConfigError("T_spacing", "must be linear, log or auto")
    try:
        cfg["strategy_enum"] = thermo.Strategy.from_string(cfg["strategy"])
    except ValueError as exc:
        raise ConfigError("strategy", str(exc)) from None
    if cfg["variant"] not in ("corrected", "verbatim", "both"):
        raise ConfigError("variant", "must be corrected, verbatim or both")
    if cfg["format"] not in ("csv", "svg", "both"):
        raise ConfigError("format", "must be csv, svg or both")
    return cfg


def _system_params(cfg: dict, k: float) -> SystemParams:
    exploratory = k >= 0.0
    return SystemParams(alpha=cfg["alpha"], k=k, lam=cfg["lam"], kb=cfg["kb"],
                        exploratory=exploratory)


def _temperature_grid(cfg: dict) -> list[float]:
    t_min, t_max, count, spacing = cfg["T_min"], cfg["T_max"], cfg["T_count"], cfg["T_spacing"]
    if spacing == "linear":
        step = (t_max - t_min) / (count - 1)
        return [t_min + i * step for i in range(count)]
    if spacing == "log":
        ratio = (t_max / t_min) ** (1.0 / (count - 1))
        return [t_min * ratio**i for i in range(count)]
    # auto: log-spaced below T=1, linear above; a grid on one side of T=1,
    # or of two points, is all log or all linear
    if t_min >= 1.0 or count == 2:
        return _temperature_grid({**cfg, "T_spacing": "linear"})
    if t_max <= 1.0:
        return _temperature_grid({**cfg, "T_spacing": "log"})
    # the linear part keeps at least its two ends
    n_log = min(max(count // 5, 2), count - 2)
    n_lin = count - n_log
    ratio = (1.0 / t_min) ** (1.0 / n_log)
    log_part = [t_min * ratio**i for i in range(n_log)]
    step = (t_max - 1.0) / (n_lin - 1)
    lin_part = [1.0 + i * step for i in range(n_lin)]
    return log_part + lin_part


def _metadata(cfg: dict, command: str, extra: list[tuple[str, str]]) -> list[tuple[str, str]]:
    meta = [
        ("tool", f"pdm-osc {__version__}"),
        ("command", command),
        ("alpha", format_float(cfg["alpha"])),
        ("k_list", ",".join(format_float(k) for k in cfg["k_list"])),
        ("lam", format_float(cfg["lam"])),
        # k = delta_sq / lam always holds; echoed so outputs are self-checking
        ("delta_sq_list", ",".join(format_float(k * cfg["lam"]) for k in cfg["k_list"])),
        ("kb", format_float(cfg["kb"])),
        ("m", str(cfg["m"])),
        ("N", str(cfg["N"])),
        ("strategy", cfg["strategy"]),
        ("variant", cfg["variant"]),
    ]
    meta.extend(extra)
    return meta


def _out_path(cfg: dict, filename: str) -> str:
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, filename)


def _write_table(cfg: dict, table: SeriesTable, stem: str) -> list[str]:
    written = []
    if cfg["format"] in ("csv", "both"):
        path = _out_path(cfg, stem + ".csv")
        table.write_csv(path)
        written.append(path)
    if cfg["format"] in ("svg", "both"):
        path = _out_path(cfg, stem + ".svg")
        table.write_svg(path)
        written.append(path)
    return written


def cmd_spectrum(cfg: dict) -> int:
    n_values = list(range(cfg["n_max"] + 1))
    columns = []
    for k in cfg["k_list"]:
        p = _system_params(cfg, k)
        columns.append(
            (f"E(k={format_float(k)}) [energy]",
             [energy(p, n, cfg["m"]) for n in n_values])
        )
    table = SeriesTable(
        x_label="n_r [-]",
        y_label="E [energy, hbar=1]",
        x=[float(n) for n in n_values],
        columns=columns,
        metadata=_metadata(cfg, "spectrum", [("n_max", str(cfg["n_max"]))]),
    )
    for path in _write_table(cfg, table, f"spectrum_m{cfg['m']}"):
        print(path)
    return 0


def cmd_wavefunction(cfg: dict) -> int:
    if len(cfg["k_list"]) != 1:
        raise ConfigError("k_list", "wavefunction output needs exactly one k")
    p = _system_params(cfg, cfg["k_list"][0])
    wfs = [radial_wavefunction(p, make_state(p, n, cfg["m"]))
           for n in range(cfg["n_max"] + 1)]
    # the states live within a few turning radii of the origin, which is a
    # sliver of [0, r_max) as k -> 0-: sample up to four outer turning radii
    # of the highest state
    r_hi = min(p.r_max, 4.0 * _turning_radius(p, wfs[-1].state))
    r = r_hi * (np.arange(cfg["r_count"]) + 0.5) / cfg["r_count"]
    columns = [(f"U_n{n} [1/length]", wf.value(r)) for n, wf in enumerate(wfs)]
    table = SeriesTable(
        x_label="r [length]",
        y_label=f"U(r), m={cfg['m']} [1/length]",
        x=r,
        columns=columns,
        metadata=_metadata(cfg, "wavefunction", [("r_count", str(cfg["r_count"]))]),
    )
    for path in _write_table(cfg, table, f"wavefunction_m{cfg['m']}"):
        print(path)
    return 0


def _thermo_tables(cfg: dict, command: str, temps: np.ndarray,
                   one_variant: bool = False) -> list[SeriesTable]:
    """The Z, U, C, F and S tables over temps: one column per k and variant."""
    variants = ["corrected", "verbatim"] if cfg["variant"] == "both" else [cfg["variant"]]
    if one_variant or cfg["strategy_enum"] is not thermo.Strategy.PAPER_CLOSED_FORM:
        variants = variants[:1]
    by_series: dict[tuple[float, str], thermo.ThermoSeries] = {}
    for k in cfg["k_list"]:
        p = _system_params(cfg, k)
        for v in variants:
            by_series[(k, v)] = thermo.sweep(p, cfg["m"], cfg["N"], 1.0 / (p.kb * temps),
                                             cfg["strategy_enum"], v)
    grid_meta = (
        f"min={format_float(cfg['T_min'])} max={format_float(cfg['T_max'])} "
        f"count={cfg['T_count']} spacing={cfg['T_spacing']}"
    )
    tables = []
    unit = {"Z": "-", "U": "energy", "C": "kb", "F": "energy", "S": "kb"}
    for label in _QUANTITIES:
        columns = []
        for (k, v), series in by_series.items():
            tag = f";{v}" if len(variants) > 1 else ""
            columns.append(
                (f"{label}(k={format_float(k)}{tag}) [{unit[label]}]",
                 getattr(series, label.lower()))
            )
        tables.append(
            SeriesTable(
                x_label="T [energy; kb=1]",
                y_label=f"{label} [{unit[label]}]",
                x=temps,
                columns=columns,
                metadata=_metadata(cfg, command, [("T_grid", grid_meta), ("quantity", label)]),
            )
        )
    return tables


def cmd_thermo(cfg: dict) -> int:
    if cfg["T"] is None:
        return cmd_tables(cfg, "thermo")
    # single-point mode: the five quantities per k on one line, held to the
    # tables' finiteness rule
    tables = _thermo_tables(cfg, "thermo", np.array([cfg["T"]]), one_variant=True)
    values = [table.validate()[1] for table in tables]
    for j, k in enumerate(cfg["k_list"]):
        cells = " ".join(f"{q}={format_float(cols[j][0].item())}"
                         for q, cols in zip(_QUANTITIES, values))
        print(f"k={format_float(k)} T={format_float(cfg['T'])} {cells}")
    return 0


def cmd_tables(cfg: dict, command: str) -> int:
    """`figures`, and `thermo` without --T: the five tables over the
    temperature grid, one file per table and format."""
    tables = _thermo_tables(cfg, command, np.array(_temperature_grid(cfg)))
    for table, label in zip(tables, _QUANTITIES):
        for path in _write_table(cfg, table, f"{command}_m{cfg['m']}_{label}"):
            print(path)
    return 0


def cmd_validate(cfg: dict, quick: bool, inject_energy_perturbation: bool) -> int:
    results = validation.run_all(quick=quick,
                                 inject_energy_perturbation=inject_energy_perturbation)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  {r.detail}")
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"FAILED: {failed[0].name}", file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alpha", type=float, default=None, help="oscillation frequency (> 0)")
    sub.add_argument("--k", type=float, default=None, help="nonlinearity parameter (physical: k < 0)")
    sub.add_argument("--k-list", dest="k_list", type=str, default=None,
                     help="comma-separated k values, one output column each")
    sub.add_argument("--lam", type=float, default=None, help="mass scale (nonzero)")
    sub.add_argument("--kb", type=float, default=None, help="Boltzmann constant")
    sub.add_argument("--m", type=int, default=None, help="magnetic quantum number")
    sub.add_argument("--n-max", dest="n_max", type=int, default=None)
    sub.add_argument("--N", dest="N", type=int, default=None, help="truncation bound of the state sum")
    sub.add_argument("--strategy", type=str, default=None, choices=["direct", "paper", "poisson"])
    sub.add_argument("--variant", type=str, default=None, choices=["corrected", "verbatim", "both"])
    sub.add_argument("--out", type=str, default=None, help="output directory")
    sub.add_argument("--format", type=str, default=None, choices=["csv", "svg", "both"])
    sub.add_argument("--config", type=str, default=None, help="flat key=value config file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdm-osc",
        description="Spectra, wavefunctions and thermodynamics of the 2D "
                    "position-dependent-mass nonlinear oscillator",
    )
    # let values like "-0.1,-0.2" pass as arguments of --k-list
    parser._negative_number_matcher = re.compile(r"^-\d")
    parser.add_argument("--version", action="version", version=f"pdm-osc {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("spectrum", "bound-state energies E(n_r, m)"),
        ("wavefunction", "radial wavefunction samples"),
        ("thermo", "thermodynamic quantities on a temperature grid or at one T"),
        ("figures", "reproduce the standard figure CSVs (Z, U, C, F, S)"),
        ("validate", "run the self-validation oracle suites"),
    ):
        sub = subs.add_parser(name, help=help_text)
        sub._negative_number_matcher = parser._negative_number_matcher
        _add_common(sub)
        if name == "thermo":
            sub.add_argument("--T", type=float, default=None, help="single-point temperature")
        if name in ("thermo", "figures"):
            sub.add_argument("--T-min", dest="T_min", type=float, default=None)
            sub.add_argument("--T-max", dest="T_max", type=float, default=None)
            sub.add_argument("--T-count", dest="T_count", type=int, default=None)
            sub.add_argument("--T-spacing", dest="T_spacing", type=str, default=None,
                             choices=["linear", "log", "auto"])
        if name == "wavefunction":
            sub.add_argument("--r-count", dest="r_count", type=int, default=None)
        if name == "validate":
            sub.add_argument("--quick", action="store_true", help="run the sub-second subset")
            sub.add_argument("--inject-energy-perturbation", action="store_true",
                             help="test hook: negative control, must fail")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse reports its own usage errors; fold them into exit code 2
        return 2 if exc.code else 0
    try:
        cfg = _resolve(args, args.command)
        if args.command == "spectrum":
            return cmd_spectrum(cfg)
        if args.command == "wavefunction":
            return cmd_wavefunction(cfg)
        if args.command == "thermo":
            return cmd_thermo(cfg)
        if args.command == "figures":
            return cmd_tables(cfg, "figures")
        if args.command == "validate":
            return cmd_validate(cfg, args.quick, args.inject_energy_perturbation)
        parser.error(f"unknown command {args.command}")
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except Exception as exc:  # computation failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
