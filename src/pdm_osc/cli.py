"""Command-line front end.

Commands: spectrum, wavefunction, thermo, figures, validate. Configuration
precedence is CLI flags > config file (flat key=value lines, each key at
most once and among the command's options; a '#' at the start of a line or
after whitespace starts a comment) > defaults. `thermo --T` refuses the
grid and file options it would not read, and variant=both. Exit codes: 0
success, 1 validation/computation failure, 2 config error (single
machine-parsable line on stderr).
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from collections import namedtuple

import numpy as np

from . import __version__, thermo, validate as validation
from .oscillator import RadialFamily, SystemParams, _turning_radius, energy, make_state
from .output import SeriesTable, format_float

# the one declaration of each option: its name (the flag is "--" + name with
# "_" as "-"), type, default, choices, help and the commands that take it, in
# the order of each command's help
_Option = namedtuple("_Option", "name kind default choices help commands")
_STATES, _TABLES = ("spectrum", "wavefunction"), ("thermo", "figures")
_SYSTEM = _STATES + _TABLES
_OPTIONS = (
    _Option("alpha", float, 1.0, None, "oscillation frequency (> 0)", _SYSTEM),
    _Option("k", float, None, None, "nonlinearity parameter (physical: k < 0)", _SYSTEM),
    _Option("k_list", str, None, None, "comma-separated k values, one output column each",
            _SYSTEM),
    _Option("lam", float, 1.0, None, "mass scale (nonzero)", _SYSTEM),
    _Option("kb", float, 1.0, None, "Boltzmann constant", _SYSTEM),
    _Option("m", int, 1, None, "magnetic quantum number", _SYSTEM),
    _Option("n_max", int, 8, None, None, _STATES),
    _Option("N", int, 500, None, "truncation bound of the state sum", _TABLES),
    _Option("strategy", str, "direct", ("direct", "paper", "poisson"), None, _TABLES),
    _Option("variant", str, "corrected", ("corrected", "verbatim", "both"), None, _TABLES),
    _Option("out", str, ".", None, "output directory", _SYSTEM),
    _Option("format", str, "csv", ("csv", "svg", "both"), None, _SYSTEM),
    _Option("config", str, None, None, "flat key=value config file", _SYSTEM),
    _Option("T", float, None, None, "single-point temperature", ("thermo",)),
    _Option("T_min", float, 0.1, None, None, _TABLES),
    _Option("T_max", float, 50.0, None, None, _TABLES),
    _Option("T_count", int, 500, None, None, _TABLES),
    _Option("T_spacing", str, "auto", ("linear", "log", "auto"), None, _TABLES),
    _Option("r_count", int, 200, None, None, ("wavefunction",)),
    _Option("quick", bool, False, None, "run the sub-second subset", ("validate",)),
    _Option("inject_energy_perturbation", bool, False, None,
            "test hook: negative control, must fail", ("validate",)),
)

_QUANTITIES = "ZUCFS"

# a config-file comment runs from a '#' at the start of a line or after
# whitespace to the end of the line
_COMMENT = re.compile(r"(^|\s)#.*")

# the options single-point thermo (--T) does not read
_GRID_OPTIONS = ("out", "format", "T_min", "T_max", "T_count", "T_spacing")


class ConfigError(Exception):
    def __init__(self, field: str, reason: str):
        super().__init__(f"config-error field={field} reason={reason}")
        self.field = field


def _parse_config_file(path: str) -> dict:
    values: dict = {}
    lines: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = _COMMENT.sub("", raw).strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError("config", f"line {lineno} is not key=value")
                key, value = (part.strip() for part in line.split("=", 1))
                if key in values:
                    raise ConfigError(key, f"repeated on lines {lines[key]} and {lineno}")
                values[key], lines[key] = value, lineno
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    return values


def _coerce(option: _Option, value):
    """value, from a flag, a config file or the default, as option's type,
    finite and within its choices."""
    if value is None:
        return None
    try:
        number = option.kind(value)
    except (TypeError, ValueError):
        raise ConfigError(option.name,
                          f"cannot parse {value!r} as {option.kind.__name__}") from None
    if option.kind is float and not math.isfinite(number):
        raise ConfigError(option.name, f"must be finite, got {number}")
    if option.choices and number not in option.choices:
        raise ConfigError(option.name, f"must be {', '.join(option.choices[:-1])} "
                                       f"or {option.choices[-1]}")
    return number


def _parse_k_list(field: str, value) -> list[float] | None:
    if value is None:
        return None
    try:
        items = [float(part) for part in value.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(field, f"cannot parse {value!r} as comma-separated floats") from None
    if not items:
        raise ConfigError(field, "empty list")
    if not all(math.isfinite(k) for k in items):
        raise ConfigError(field, "every value must be finite")
    return items


def _resolve(args: argparse.Namespace, command: str) -> dict:
    """Merge defaults, config file and CLI flags into one validated mapping.
    Every option has its default; only the command's own take a config key
    or a flag."""
    cfg = {option.name: option.default for option in _OPTIONS}
    own = [option.name for option in _OPTIONS
           if command in option.commands and option.name != "config"]
    given = set()
    if args.config:
        for key, value in _parse_config_file(args.config).items():
            if key not in own:
                raise ConfigError(key, f"not an option of {command}")
            cfg[key] = value
            given.add(key)
    for key in own:
        flag = getattr(args, key)
        if flag is not None:
            cfg[key] = flag
            given.add(key)
    if command == "figures" and cfg["k"] is None and cfg["k_list"] is None:
        cfg["k_list"] = "-0.1,-0.2,-0.3"
    for option in _OPTIONS:
        cfg[option.name] = _coerce(option, cfg[option.name])
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
    if cfg["T"] is not None:
        for key in _GRID_OPTIONS:
            if key in given:
                raise ConfigError(key, "not read with T (single-point mode)")
        if cfg["variant"] == "both":
            raise ConfigError("variant", "both is not read with T (single-point mode)")
    cfg["strategy_enum"] = thermo.Strategy(cfg["strategy"])
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
    n_values = np.arange(cfg["n_max"] + 1)
    columns = [(f"E(k={format_float(k)}) [energy]",
                energy(_system_params(cfg, k), n_values, cfg["m"])) for k in cfg["k_list"]]
    table = SeriesTable(
        x_label="n_r [-]",
        y_label="E [energy, hbar=1]",
        x=n_values,
        columns=columns,
        metadata=_metadata(cfg, "spectrum", [("n_max", str(cfg["n_max"]))]),
    )
    for path in _write_table(cfg, table, f"spectrum_m{cfg['m']}"):
        print(path)
    return 0


def cmd_wavefunction(cfg: dict) -> int:
    if len(cfg["k_list"]) != 1:
        raise ConfigError("k_list", "wavefunction output needs exactly one k")
    p, m, n_max = _system_params(cfg, cfg["k_list"][0]), cfg["m"], cfg["n_max"]
    family = RadialFamily(p, m, n_max)
    # the states live within a few turning radii of the origin, which is a
    # sliver of [0, r_max) as k -> 0-: sample up to four outer turning radii
    # of the highest state
    r_hi = min(p.r_max, 4.0 * _turning_radius(p, make_state(p, n_max, m)))
    r = r_hi * (np.arange(cfg["r_count"]) + 0.5) / cfg["r_count"]
    # the family's rows are the table's columns
    columns = [(f"U_n{n} [1/length]", u) for n, u in enumerate(family.values(r))]
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


def cmd_validate(quick: bool, inject_energy_perturbation: bool) -> int:
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


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The pdm-osc parser. Given argv, only the subcommand it names (its first
    token not starting with "-", as the top level takes no option values)
    gets its options; the others keep their help line, so usage, help and
    error text stay the same. Without argv every subcommand gets its options."""
    command = None if argv is None else next((a for a in argv if a[:1] != "-"), None)
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
        if argv is not None and name != command:
            continue
        sub._negative_number_matcher = parser._negative_number_matcher
        for option in _OPTIONS:
            if name not in option.commands:
                continue
            flag = "--" + option.name.replace("_", "-")
            if option.kind is bool:
                sub.add_argument(flag, action="store_true", help=option.help)
            else:
                sub.add_argument(flag, type=option.kind, choices=option.choices,
                                 help=option.help)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse reports its own usage errors; fold them into exit code 2
        return 2 if exc.code else 0
    try:
        if args.command == "validate":
            return cmd_validate(args.quick, args.inject_energy_perturbation)
        cfg = _resolve(args, args.command)
        if args.command == "spectrum":
            return cmd_spectrum(cfg)
        if args.command == "wavefunction":
            return cmd_wavefunction(cfg)
        if args.command == "thermo":
            return cmd_thermo(cfg)
        return cmd_tables(cfg, "figures")
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except Exception as exc:  # computation failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
