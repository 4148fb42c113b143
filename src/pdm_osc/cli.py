"""Command-line front end.

Commands: spectrum, wavefunction, thermo, figures, validate. Configuration
precedence is CLI flags > config file (flat key=value lines, each key at
most once and among the command's options; a '#' at the start of a line or
after whitespace starts a comment) > defaults. `thermo --T` refuses the
grid and file options it would not read, and variant=both. Exit codes: 0
success; 1 a failed validation, or a refusal (PdmOscError) or OS failure
with one `error: ...` line; 2 a configuration error, SystemParams fields
included (one machine-parsable line). Any other exception is a bug: a traceback.

A plain argv is read straight from _OPTIONS (_plain_args); argparse parses
every other argv, so help, usage and error text are always its own.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import re
import sys
from collections import namedtuple

import numpy as np

from . import __version__, thermo, validate as validation
from .errors import ConfigError, DomainError, PdmOscError
from .oscillator import RadialFamily, SystemParams, _turning_radius, energy
from .output import TableHead, check_rows, format_float, write_tables
from .specfun import JACOBI_DEGREE_CAP

# the one declaration of each option: its name (the flag is "--" + name with
# "_" as "-"), type, default, choices, help, the commands that take it (in the
# order of each command's help) and its bound: a test and the reason it fails
_Option = namedtuple("_Option", "name kind default choices help commands bound", defaults=(None,))
_STATES, _TABLES = ("spectrum", "wavefunction"), ("thermo", "figures")
_SYSTEM = _STATES + _TABLES
# a T or r grid has 2 to 10**7 rows. Its memory is flat in the row count (a
# command sweeps, checks and writes _ROW_BLOCK rows at a time); the cap bounds
# its files and its time: at 10**7 rows a three-k thermo table is about 3.9 GB
# of CSV, written in about 1.5 (direct) to 3 (poisson) minutes on 2 cores
_ROWS = (lambda n: 2 <= n <= 10**7, "must be in [2, 10000000]")
_ROW_BLOCK = 4096
_OPTIONS = (
    _Option("alpha", float, 1.0, None, "oscillation frequency (> 0)", _SYSTEM),
    _Option("k", float, None, None, "nonlinearity parameter (physical: k < 0)", _SYSTEM),
    _Option("k_list", str, None, None, "comma-separated k values, one output column each",
            _SYSTEM),
    _Option("lam", float, 1.0, None, "mass scale (nonzero)", _SYSTEM),
    _Option("kb", float, 1.0, None, "Boltzmann constant", _SYSTEM),
    _Option("m", int, 1, None, "magnetic quantum number", _SYSTEM),
    _Option("n_max", int, 8, None, None, _STATES,
            (lambda n: 0 <= n <= JACOBI_DEGREE_CAP, f"must be in [0, {JACOBI_DEGREE_CAP}]")),
    _Option("N", int, 500, None, "truncation bound of the state sum", _TABLES,
            (lambda n: n >= 1, "must be >= 1")),
    _Option("strategy", str, "direct", ("direct", "paper", "poisson"), None, _TABLES),
    _Option("variant", str, "corrected", ("corrected", "verbatim", "both"), None, _TABLES),
    _Option("out", str, ".", None, "output directory", _SYSTEM),
    _Option("format", str, "csv", ("csv", "svg", "both"), None, _SYSTEM),
    _Option("config", str, None, None, "flat key=value config file", _SYSTEM),
    _Option("T", float, None, None, "single-point temperature", ("thermo",),
            (lambda t: t > 0.0, "must be positive")),
    _Option("T_min", float, 0.1, None, None, _TABLES),
    _Option("T_max", float, 50.0, None, None, _TABLES),
    _Option("T_count", int, 500, None, None, _TABLES, _ROWS),
    _Option("T_spacing", str, "auto", ("linear", "log", "auto"), None, _TABLES),
    _Option("r_count", int, 200, None, None, ("wavefunction",), _ROWS),
    _Option("quick", bool, False, None, "run the sub-second subset", ("validate",)),
    _Option("inject_energy_perturbation", bool, False, None,
            "test hook: negative control, must fail", ("validate",)),
)

# the commands and their help lines, in the order of the help
_COMMANDS = {
    "spectrum": "bound-state energies E(n_r, m)",
    "wavefunction": "radial wavefunction samples",
    "thermo": "thermodynamic quantities on a temperature grid or at one T",
    "figures": "reproduce the standard figure CSVs (Z, U, C, F, S)",
    "validate": "run the self-validation oracle suites",
}
# each command's flags, "--" + name with "_" as "-", and their options
_FLAGS = {command: {"--" + option.name.replace("_", "-"): option for option in _OPTIONS
                    if command in option.commands} for command in _COMMANDS}
# an argument that starts with "-" is an option value only if it matches this
_NEGATIVE_NUMBER = re.compile(r"^-\d")

_QUANTITIES = "ZUCFS"

# a config-file comment runs from a '#' at the start of a line or after
# whitespace to the end of the line
_COMMENT = re.compile(r"(^|\s)#.*")

# the options single-point thermo (--T) does not read
_GRID_OPTIONS = ("out", "format", "T_min", "T_max", "T_count", "T_spacing")


def _parse_config_file(path: str) -> dict:
    values, lines = {}, {}
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    return values


def _coerce(option: _Option, value):
    """value, from a flag, a config file or the default, as option's type,
    finite, within its choices and its bound."""
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
    if option.bound and not option.bound[0](number):
        raise ConfigError(option.name, option.bound[1])
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
    """Merge defaults, config file and CLI flags into one mapping, with the
    SystemParams of each k ("systems"), checking the relations between
    options (_coerce checks each value, SystemParams its fields). Every option
    has its default; only the command's own take a config key or a flag."""
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
    for option in _OPTIONS:
        cfg[option.name] = _coerce(option, cfg[option.name])
    cfg["k_list"] = _parse_k_list("k_list", cfg["k_list"])
    if cfg["k_list"] is None:
        default = list(validation.FIGURE_K_LIST) if command == "figures" else [-0.1]
        cfg["k_list"] = [cfg["k"]] if cfg["k"] is not None else default
    elif cfg["k"] is not None:
        raise ConfigError("k", "give either k or k_list, not both")
    if len(set(cfg["k_list"])) != len(cfg["k_list"]):
        raise ConfigError("k_list", "repeated k value")
    cfg["systems"] = [SystemParams(cfg["alpha"], k, cfg["lam"], cfg["kb"]) for k in cfg["k_list"]]
    if not (0 < cfg["T_min"] < cfg["T_max"]):
        raise ConfigError("T_grid", "need 0 < T_min < T_max")
    if cfg["T"] is not None:
        for key in _GRID_OPTIONS:
            if key in given:
                raise ConfigError(key, "not read with T (single-point mode)")
        if cfg["variant"] == "both":
            raise ConfigError("variant", "both is not read with T (single-point mode)")
    cfg["strategy_enum"] = thermo.Strategy(cfg["strategy"])
    return cfg


def _temperature_grid(cfg: dict, start: int = 0, stop: int | None = None) -> list[float]:
    """Points start..stop - 1 of the T grid (all of them by default), each
    from its index alone."""
    t_min, t_max, count, spacing = cfg["T_min"], cfg["T_max"], cfg["T_count"], cfg["T_spacing"]
    indices = range(start, count if stop is None else stop)
    # auto: log-spaced below T=1, linear above; a grid on one side of T=1,
    # or of two points, is all log or all linear
    if spacing == "auto" and (t_min >= 1.0 or count == 2):
        spacing = "linear"
    elif spacing == "auto" and t_max <= 1.0:
        spacing = "log"
    if spacing == "linear":
        step = (t_max - t_min) / (count - 1)
        return [t_min + i * step for i in indices]
    if spacing == "log":
        ratio = (t_max / t_min) ** (1.0 / (count - 1))
        return [t_min * ratio**i for i in indices]
    # the linear part keeps at least its two ends
    n_log = min(max(count // 5, 2), count - 2)
    ratio = (1.0 / t_min) ** (1.0 / n_log)
    step = (t_max - 1.0) / (count - n_log - 1)
    return [t_min * ratio**i if i < n_log else 1.0 + (i - n_log) * step for i in indices]


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


def _write(cfg: dict, heads: list[TableHead], stems: list[str], count: int, rows) -> int:
    """Write the tables of count rows to the files stem.csv and stem.svg of
    the format, a block of rows at a time (output.write_tables), and print
    their paths, each table's CSV before its SVG."""
    paths = {kind: [os.path.join(cfg["out"], f"{stem}.{kind}") for stem in stems]
             if cfg["format"] in (kind, "both") else [] for kind in ("csv", "svg")}
    write_tables(heads, paths["csv"], paths["svg"], count, _ROW_BLOCK, rows)
    for pair in itertools.zip_longest(paths["csv"], paths["svg"]):
        for path in filter(None, pair):
            print(path)
    return 0


def cmd_spectrum(cfg: dict) -> int:
    head = TableHead("n_r [-]", "E [energy, hbar=1]",
                     [f"E(k={format_float(p.k)}) [energy]" for p in cfg["systems"]],
                     _metadata(cfg, "spectrum", [("n_max", str(cfg["n_max"]))]))

    def rows(start, stop, columns):
        n_values = np.arange(start, stop)
        return n_values, [[energy(p, n_values, cfg["m"]) for p in cfg["systems"][columns]]]

    return _write(cfg, [head], [f"spectrum_m{cfg['m']}"], cfg["n_max"] + 1, rows)


def cmd_wavefunction(cfg: dict) -> int:
    if len(cfg["k_list"]) != 1:
        raise ConfigError("k_list", "wavefunction output needs exactly one k")
    (p,), m, n_max, count = cfg["systems"], cfg["m"], cfg["n_max"], cfg["r_count"]
    family = RadialFamily(p, m, n_max)
    # the states live within a few turning radii of the origin, which is a
    # sliver of [0, r_max) as k -> 0-: sample up to four outer turning radii
    # of the highest state
    r_hi = min(p.r_max, 4.0 * _turning_radius(p, n_max, m))
    held = np.zeros(n_max + 1, dtype=bool)  # the states with a nonzero sample so far

    def rows(start, stop, columns):
        r = r_hi * (np.arange(start, stop) + 0.5) / count
        values = family.values(r)[columns]
        np.logical_or(held[columns], values.any(axis=1), out=held[columns])
        # at large |m| a state peaks so near z = 1 that every sample underflows
        missed = np.flatnonzero(~held)
        if stop == count and missed.size:
            raise DomainError(f"k={p.k}, m={m}, n_max={n_max}: every r sample of state "
                              f"n={missed[0]} is exactly 0; the grid misses where it lives")
        # the family's rows are the table's columns
        return r, [values]

    head = TableHead("r [length]", f"U(r), m={m} [1/length]",
                     [f"U_n{n} [1/length]" for n in range(n_max + 1)],
                     _metadata(cfg, "wavefunction", [("n_max", str(n_max)),
                                                     ("r_count", str(count))]))
    return _write(cfg, [head], [f"wavefunction_m{m}"], count, rows)


def _thermo_heads(cfg: dict, command: str) -> tuple[list[TableHead], list[tuple]]:
    """The Z, U, C, F and S tables' heads, one column per k and variant, and
    the (params, variant) of each column's series."""
    variants = ["corrected", "verbatim"] if cfg["variant"] == "both" else [cfg["variant"]]
    if cfg["strategy_enum"] is not thermo.Strategy.PAPER_CLOSED_FORM:
        variants = variants[:1]
    series = [(p, v) for p in cfg["systems"] for v in variants]
    grid_meta = (
        f"min={format_float(cfg['T_min'])} max={format_float(cfg['T_max'])} "
        f"count={cfg['T_count']} spacing={cfg['T_spacing']}"
    )
    unit = {"Z": "-", "U": "energy", "C": "kb", "F": "energy", "S": "kb"}
    tag = {v: f";{v}" if len(variants) > 1 else "" for v in variants}
    heads = [TableHead("T [energy; kb=1]", f"{label} [{unit[label]}]",
                       [f"{label}(k={format_float(p.k)}{tag[v]}) [{unit[label]}]"
                        for p, v in series],
                       _metadata(cfg, command, [("T_grid", grid_meta), ("quantity", label)]))
             for label in _QUANTITIES]
    return heads, series


def _thermo_rows(cfg: dict, series: list[tuple], temps: np.ndarray) -> list[list[np.ndarray]]:
    """Z, U, C, F and S (the tables) of each (params, variant) series over
    temps, one sweep per series."""
    swept = [thermo.sweep(p, cfg["m"], cfg["N"], 1.0 / (p.kb * temps), cfg["strategy_enum"], v)
             for p, v in series]
    return [[getattr(s, label.lower()) for s in swept] for label in _QUANTITIES]


def cmd_thermo(cfg: dict) -> int:
    if cfg["T"] is None:
        return cmd_tables(cfg, "thermo")
    # single-point mode: the five quantities per k on one line, held to the
    # tables' finiteness rule
    heads, series = _thermo_heads(cfg, "thermo")
    temps = np.array([cfg["T"]])
    values = _thermo_rows(cfg, series, temps)
    check_rows(heads, temps, values)
    for j, k in enumerate(cfg["k_list"]):
        cells = " ".join(f"{q}={format_float(cols[j][0].item())}"
                         for q, cols in zip(_QUANTITIES, values))
        print(f"k={format_float(k)} T={format_float(cfg['T'])} {cells}")
    return 0


def cmd_tables(cfg: dict, command: str) -> int:
    """`figures`, and `thermo` without --T: the five tables over the
    temperature grid, one file per table and format, swept a block of rows
    at a time."""
    heads, series = _thermo_heads(cfg, command)
    count = cfg["T_count"]

    def rows(start, stop, columns):
        temps = np.array(_temperature_grid(cfg, start, stop))
        return temps, _thermo_rows(cfg, series[columns], temps)

    if count > _ROW_BLOCK:
        # a sweep's range refusals read only its grid's ends: sweeping those
        # refuses the grid as a whole, before any file is begun
        _thermo_rows(cfg, series, np.array(_temperature_grid(cfg, 0, 1)
                                           + _temperature_grid(cfg, count - 1, count)))
    return _write(cfg, heads, [f"{command}_m{cfg['m']}_{label}" for label in _QUANTITIES],
                  count, rows)


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


def _plain_args(argv: list[str]) -> argparse.Namespace | None:
    """The namespace build_parser().parse_args(argv) returns, read from
    _OPTIONS, where argv is plain: a command, then its options, each spelled
    in full and given once, as --name=value or --name value (a value that
    starts with "-" only as in "-0.1") or, for a bool, as a bare flag, every
    value of its option's type and within its choices. None for any other
    argv: help, --version, abbreviations, repeats, unknown flags, bad values
    and "--" are left to argparse."""
    flags = _FLAGS.get(argv[0]) if argv else None
    if flags is None:
        return None
    values = {option.name: False if option.kind is bool else None for option in flags.values()}
    given = set()
    tokens = iter(argv[1:])
    for token in tokens:
        flag, equals, value = token.partition("=")
        option = flags.get(flag)
        if option is None or flag in given:
            return None
        given.add(flag)
        if option.kind is bool:
            if equals:
                return None
            values[option.name] = True
            continue
        if not equals:
            value = next(tokens, None)
        # argparse drops a value "--" and takes a separate "-x" for an option
        if value is None or value[:1] == "-" and not _NEGATIVE_NUMBER.match(value):
            return None
        try:
            value = option.kind(value)
        except (TypeError, ValueError):
            return None
        if option.choices and value not in option.choices:
            return None
        values[option.name] = value
    return argparse.Namespace(command=argv[0], **values)


def build_parser() -> argparse.ArgumentParser:
    """The pdm-osc parser, every subcommand with its options. main builds it
    only for an argv that is not plain (_plain_args), where its help, usage
    or error text may be read."""
    parser = argparse.ArgumentParser(
        prog="pdm-osc",
        description="Spectra, wavefunctions and thermodynamics of the 2D "
                    "position-dependent-mass nonlinear oscillator",
    )
    # let values like "-0.1,-0.2" pass as arguments of --k-list
    parser._negative_number_matcher = _NEGATIVE_NUMBER
    parser.add_argument("--version", action="version", version=f"pdm-osc {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        sub._negative_number_matcher = _NEGATIVE_NUMBER
        for flag, option in _FLAGS[name].items():
            if option.kind is bool:
                sub.add_argument(flag, action="store_true", help=option.help)
            else:
                sub.add_argument(flag, type=option.kind, choices=option.choices,
                                 help=option.help)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
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
    except (PdmOscError, OSError, MemoryError) as exc:  # a refusal or an OS failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
