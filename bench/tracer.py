"""Span tracer for one pdm-osc command, plus the analysis of its spans.

`bench/child.py` installs the tracer before it calls `pdm_osc.cli.main`.
Each public name of the package (and a few private ones) is wrapped *where it
is looked up*: `thermo.integrate`, `oscillator.jacobi_p`,
`cli.radial_wavefunction` and so on, so every call through that binding
records one span. Spans stay in memory in flat arrays and are written to an
.npz file when the command ends. A binding that no longer exists is noted as
absent; the metrics that depend on it are then reported as absent, never as
an error.

Self time is a span's duration minus the time its child spans cover (the
union of their intervals, so overlapping worker-thread children are not
counted twice).
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from array import array

import numpy as np

from workloads import VALIDATE_CHECKS

STRATEGIES = ("", "direct", "paper", "poisson")

# (module, attribute, span name, strategy rule, attribute recorder)
# strategy rule: a strategy name, "arg" (read ThermoInput.strategy from the
# first argument) or None (inherit the parent span's strategy)
BINDINGS = (
    ("thermo", "evaluate", "thermo.evaluate", "arg", None),
    ("thermo", "levels", "thermo.levels", "arg", "levels"),
    ("thermo", "_direct_moments", "thermo.direct_moments", "direct", None),
    ("thermo", "partition_direct", "thermo.partition_direct", "direct", None),
    ("thermo", "partition_paper", "thermo.partition_paper", "paper", None),
    ("thermo", "_paper_machinery", "thermo.paper_machinery", "paper", None),
    ("thermo", "paper_z_coefficients", "thermo.paper_z_coefficients", "paper", None),
    ("thermo", "partition_poisson_independent", "thermo.partition_poisson", "poisson", None),
    ("thermo", "_poisson_z", "thermo.poisson_z", "poisson", None),
    ("thermo", "_beta_derivative", "thermo.beta_derivative", None, None),
    ("thermo", "average_energy", "thermo.average_energy", "arg", None),
    ("thermo", "heat_capacity", "thermo.heat_capacity", "arg", None),
    ("thermo", "free_energy", "thermo.free_energy", "arg", None),
    ("thermo", "entropy", "thermo.entropy", "arg", None),
    ("thermo", "compare_strategies", "thermo.compare", None, None),
    ("thermo", "find_heat_capacity_plateau", "thermo.plateau", "direct", None),
    ("thermo", "parallel_map", "thermo.parallel_map", None, "pool"),
    ("thermo", "integrate", "specfun.integrate", None, "quadrature"),
    ("thermo", "erfcx", "specfun.erfcx", None, None),
    ("oscillator", "integrate", "specfun.integrate", None, "quadrature"),
    ("oscillator", "jacobi_p", "specfun.jacobi_p", None, "degree"),
    ("oscillator", "radial_wavefunction", "oscillator.radial_wavefunction", None, None),
    ("oscillator", "energy", "oscillator.energy", None, None),
    ("oscillator", "RadialWavefunction.value", "oscillator.value", None, None),
    ("cli", "radial_wavefunction", "oscillator.radial_wavefunction", None, None),
    ("cli", "energy", "oscillator.energy", None, None),
    ("validate", "energy", "oscillator.energy", None, None),
    ("validate", "ode_residual", "oscillator.ode_residual", None, None),
    ("validate", "radial_overlap", "oscillator.radial_overlap", None, None),
    ("validate", "solve_energy", "oscillator.solve_energy", None, None),
    ("validate", "central_diff", "specfun.central_diff", None, None),
    ("nu", "derive_coefficients", "nu.derive_coefficients", None, None),
    ("nu", "quantization_residual", "nu.quantization_residual", None, None),
    ("nu", "find_roots_by_scan", "nu.find_roots_by_scan", None, None),
    ("output", "SeriesTable.to_csv", "output.csv", None, "text"),
    ("output", "SeriesTable.to_svg", "output.svg", None, "text"),
    ("output", "SeriesTable.write_csv", "output.write", None, None),
    ("output", "SeriesTable.write_svg", "output.write", None, None),
)

# exp(-x) is exactly 0.0 in double precision beyond this exponent
_EXP_UNDERFLOW = 745.1332191019412


def _levels_attrs(args, result):
    inp = args[0]
    shifted = inp.beta * (result - result.min())
    return float(result.size), float(np.count_nonzero(shifted < _EXP_UNDERFLOW))


def _quadrature_attrs(args, result):
    return float(result.evaluations), float(result.refinements)


def _degree_attrs(args, result):
    return float(args[0].n), 0.0


def _text_attrs(args, result):
    return float(len(result.encode("utf-8"))), 0.0


_ATTRS = {"levels": _levels_attrs, "quadrature": _quadrature_attrs,
          "degree": _degree_attrs, "text": _text_attrs}


class Tracer:
    """In-memory span store; one per traced command (process)."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.thread = array("i")
        self.strategy = array("b")
        self.start = array("d")
        self.end = array("d")
        self.a1 = array("d")
        self.a2 = array("d")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: dict[int, int] = {}
        self.installed: set[str] = set()
        self.absent: list[str] = []
        self.level_keys: set = set()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _begin(self, nid: int, rule, args) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if rule is None or rule == "arg":
            strategy = self.strategy[parent] if parent >= 0 else 0
            if rule == "arg" and args:
                value = getattr(getattr(args[0], "strategy", None), "value", None)
                if value in STRATEGIES:
                    strategy = STRATEGIES.index(value)
        else:
            strategy = STRATEGIES.index(rule)
        with self._lock:
            tid = self._threads.setdefault(threading.get_ident(), len(self._threads))
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(parent)
            self.thread.append(tid)
            self.strategy.append(strategy)
            self.a1.append(0.0)
            self.a2.append(0.0)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(idx)
        return idx

    def _finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack().pop()

    def wrap(self, fn, name: str, rule=None, recorder: str | None = None):
        nid = self._span_id(name)
        attrs = _ATTRS.get(recorder)
        tracer = self

        if recorder == "pool":
            @functools.wraps(fn)
            def pool_wrapper(task, items, *args, **kw):
                idx = tracer._begin(nid, rule, ())

                def in_worker(item):
                    # worker threads start with an empty stack: parent their
                    # spans on the pool span that caused them
                    stack = tracer._stack()
                    stack.append(idx)
                    try:
                        return task(item)
                    finally:
                        stack.pop()

                try:
                    return fn(in_worker, items, *args, **kw)
                finally:
                    tracer._finish(idx)
            return pool_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            idx = tracer._begin(nid, rule, args)
            try:
                result = fn(*args, **kw)
            finally:
                tracer._finish(idx)
            if attrs is not None:
                tracer.a1[idx], tracer.a2[idx] = attrs(args, result)
                if recorder == "levels":
                    inp = args[0]
                    tracer.level_keys.add((inp.params, inp.m, inp.truncation_n))
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every binding in BINDINGS and each validate check."""
        self.installed.add("cli")
        for module_name, attr, name, rule, recorder in BINDINGS:
            module = importlib.import_module(f"pdm_osc.{module_name}")
            owner, _, leaf = attr.rpartition(".")
            target = getattr(module, owner, None) if owner else module
            fn = getattr(target, leaf, None) if target is not None else None
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(target, leaf, self.wrap(fn, name, rule, recorder))
            self.installed.add(name)
        self._install_checks()

    def _install_checks(self) -> None:
        validate = importlib.import_module("pdm_osc.validate")
        checks = getattr(validate, "_CHECKS", None)
        if checks is None:
            self.absent.append("validate._CHECKS")
            return
        wrapped = []
        for check in checks:
            short = check.__name__.removeprefix("check_")
            span = f"validate.{short}"
            w = self.wrap(check, span)
            # run_all compares checks by identity with the module globals
            if getattr(validate, check.__name__, None) is check:
                setattr(validate, check.__name__, w)
            wrapped.append(w)
            self.installed.add(span)
        validate._CHECKS = tuple(wrapped)

    def root(self, fn, *args):
        """Run fn as the root span "cli" (the command itself)."""
        idx = self._begin(self._span_id("cli"), None, ())
        try:
            return fn(*args)
        finally:
            self._finish(idx)

    def dump(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=object),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            thread=np.frombuffer(self.thread, dtype=np.int32),
            strategy=np.frombuffer(self.strategy, dtype=np.int8),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            a1=np.frombuffer(self.a1, dtype=np.float64),
            a2=np.frombuffer(self.a2, dtype=np.float64),
            installed=np.array(sorted(self.installed), dtype=object),
            absent=np.array(self.absent, dtype=object),
            level_distinct=np.array(len(self.level_keys)),
        )


def self_times(parent, thread, start, end) -> np.ndarray:
    """Duration minus the union of child intervals, per span."""
    dur = end - start
    n = dur.size
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    # children on another thread than their parent may overlap each other
    cross = has_parent & (thread != thread[np.where(has_parent, parent, 0)])
    for p in np.unique(parent[cross]):
        kids = np.flatnonzero(parent == p)
        order = kids[np.argsort(start[kids])]
        union, reach = 0.0, -np.inf
        for k in order:
            lo, hi = max(start[k], reach), end[k]
            if hi > lo:
                union += hi - lo
            reach = max(reach, hi)
        covered[p] = union
    return dur - covered


def summarize(path: str) -> dict:
    """Raw per-command sums from one span file.

    Keys: "calls:<span>", "self:<span>", "dur:<span>", "a1:<span>",
    "a2:<span>", "zero_a2:<span>", "self_strategy:<layer>.<strategy>",
    "child_dur:<span>", plus "level_distinct". "installed" and "absent" list
    the span names that were and were not bound.
    """
    with np.load(path, allow_pickle=True) as z:
        names = list(z["names"])
        nid, parent, thread = z["name_id"], z["parent"], z["thread"]
        strategy, start, end = z["strategy"], z["start"], z["end"]
        a1, a2 = z["a1"], z["a2"]
        installed = set(z["installed"])
        absent = list(z["absent"])
        level_distinct = int(z["level_distinct"])
    dur = end - start
    own = self_times(parent, thread, start, end)
    raw: dict[str, float] = {"level_distinct": float(level_distinct)}
    k = len(names)
    calls = np.bincount(nid, minlength=k)
    sums = {key: np.bincount(nid, weights=w, minlength=k)
            for key, w in (("self", own), ("dur", dur), ("a1", a1), ("a2", a2))}
    zero_a2 = np.bincount(nid, weights=(a2 == 0.0).astype(float), minlength=k)
    has_parent = parent >= 0
    child_dur = np.bincount(nid[parent[has_parent]], weights=dur[has_parent], minlength=k)
    for i, name in enumerate(names):
        raw[f"calls:{name}"] = float(calls[i])
        for key, arr in sums.items():
            raw[f"{key}:{name}"] = float(arr[i])
        raw[f"zero_a2:{name}"] = float(zero_a2[i])
        raw[f"child_dur:{name}"] = float(child_dur[i])
    in_thermo = np.array([n.startswith("thermo.") for n in names] + [False])[nid]
    for s_idx, s_name in enumerate(STRATEGIES[1:], start=1):
        mask = (strategy == s_idx) & in_thermo
        raw[f"self_strategy:thermo.{s_name}"] = float(own[mask].sum())
    return {"raw": raw, "installed": installed, "absent": absent}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (metric, unit, better, span the metric depends on, value from raw sums)
LAYER_METRICS = (
    ("cli.self_s", "s", "lower", "cli", lambda r: r["self:cli"]),
    ("thermo.evaluate.calls", "count", "lower", "thermo.evaluate",
     lambda r: r["calls:thermo.evaluate"]),
    ("thermo.evaluate.self_s", "s", "lower", "thermo.evaluate",
     lambda r: r["self:thermo.evaluate"]),
    ("thermo.direct.self_s", "s", "lower", "thermo.evaluate",
     lambda r: r["self_strategy:thermo.direct"]),
    ("thermo.paper.self_s", "s", "lower", "thermo.evaluate",
     lambda r: r["self_strategy:thermo.paper"]),
    ("thermo.poisson.self_s", "s", "lower", "thermo.evaluate",
     lambda r: r["self_strategy:thermo.poisson"]),
    ("thermo.levels.calls", "count", "lower", "thermo.levels",
     lambda r: r["calls:thermo.levels"]),
    ("thermo.levels.distinct", "count", "lower", "thermo.levels",
     lambda r: r["level_distinct"]),
    ("thermo.levels.reuse_ratio", "ratio", "higher", "thermo.levels",
     lambda r: _ratio(r["level_distinct"], r["calls:thermo.levels"])),
    ("thermo.boltzmann.terms", "count", "lower", "thermo.levels",
     lambda r: r["a1:thermo.levels"]),
    ("thermo.boltzmann.nonzero_share", "ratio", "higher", "thermo.levels",
     lambda r: _ratio(r["a2:thermo.levels"], r["a1:thermo.levels"])),
    ("thermo.parallel_map.wall_s", "s", "lower", "thermo.parallel_map",
     lambda r: r["dur:thermo.parallel_map"]),
    ("thermo.parallel_map.overlap", "ratio", "higher", "thermo.parallel_map",
     lambda r: _ratio(r["child_dur:thermo.parallel_map"], r["dur:thermo.parallel_map"])),
    ("thermo.plateau.self_s", "s", "lower", "thermo.plateau",
     lambda r: r["self:thermo.plateau"]),
    ("thermo.compare.self_s", "s", "lower", "thermo.compare",
     lambda r: r["self:thermo.compare"]),
    ("specfun.integrate.calls", "count", "lower", "specfun.integrate",
     lambda r: r["calls:specfun.integrate"]),
    ("specfun.integrate.self_s", "s", "lower", "specfun.integrate",
     lambda r: r["self:specfun.integrate"]),
    ("specfun.integrate.evals", "count", "lower", "specfun.integrate",
     lambda r: r["a1:specfun.integrate"]),
    ("specfun.integrate.refinements", "count", "lower", "specfun.integrate",
     lambda r: r["a2:specfun.integrate"]),
    ("specfun.integrate.zero_refinement_share", "ratio", "lower", "specfun.integrate",
     lambda r: _ratio(r["zero_a2:specfun.integrate"], r["calls:specfun.integrate"])),
    ("specfun.jacobi_p.calls", "count", "lower", "specfun.jacobi_p",
     lambda r: r["calls:specfun.jacobi_p"]),
    ("specfun.jacobi_p.self_s", "s", "lower", "specfun.jacobi_p",
     lambda r: r["self:specfun.jacobi_p"]),
    ("specfun.jacobi_p.steps", "count", "lower", "specfun.jacobi_p",
     lambda r: r["a1:specfun.jacobi_p"]),
    ("specfun.erfcx.calls", "count", "lower", "specfun.erfcx",
     lambda r: r["calls:specfun.erfcx"]),
    ("specfun.central_diff.calls", "count", "lower", "specfun.central_diff",
     lambda r: r["calls:specfun.central_diff"]),
    ("oscillator.radial_wavefunction.calls", "count", "lower",
     "oscillator.radial_wavefunction", lambda r: r["calls:oscillator.radial_wavefunction"]),
    ("oscillator.radial_wavefunction.self_s", "s", "lower",
     "oscillator.radial_wavefunction", lambda r: r["self:oscillator.radial_wavefunction"]),
    ("oscillator.value.calls", "count", "lower", "oscillator.value",
     lambda r: r["calls:oscillator.value"]),
    ("oscillator.value.self_s", "s", "lower", "oscillator.value",
     lambda r: r["self:oscillator.value"]),
    ("oscillator.ode_residual.self_s", "s", "lower", "oscillator.ode_residual",
     lambda r: r["self:oscillator.ode_residual"]),
    ("oscillator.radial_overlap.self_s", "s", "lower", "oscillator.radial_overlap",
     lambda r: r["self:oscillator.radial_overlap"]),
    ("oscillator.energy.calls", "count", "lower", "oscillator.energy",
     lambda r: r["calls:oscillator.energy"]),
    ("nu.derive_coefficients.calls", "count", "lower", "nu.derive_coefficients",
     lambda r: r["calls:nu.derive_coefficients"]),
    ("nu.derive_coefficients.self_s", "s", "lower", "nu.derive_coefficients",
     lambda r: r["self:nu.derive_coefficients"]),
    ("nu.quantization_residual.calls", "count", "lower", "nu.quantization_residual",
     lambda r: r["calls:nu.quantization_residual"]),
    ("nu.find_roots_by_scan.self_s", "s", "lower", "nu.find_roots_by_scan",
     lambda r: r["self:nu.find_roots_by_scan"]),
    ("output.csv.self_s", "s", "lower", "output.csv", lambda r: r["self:output.csv"]),
    ("output.svg.self_s", "s", "lower", "output.svg", lambda r: r["self:output.svg"]),
    ("output.write_s", "s", "lower", "output.write", lambda r: r["self:output.write"]),
)

# one duration per validate.run_all check
CHECK_METRICS = tuple(
    (f"validate.{c}.s", "s", "lower", f"validate.{c}",
     (lambda span: lambda r: r[f"dur:{span}"])(f"validate.{c}"))
    for c in VALIDATE_CHECKS
)


def layer_values(raw: dict, installed: set) -> dict:
    """Per-layer metric values from summed raw counts; absent ones omitted."""
    values = {}
    for name, _unit, _better, span, fn in LAYER_METRICS + CHECK_METRICS:
        if span in installed:
            values[name] = fn(_Zero(raw))
    return values


class _Zero(dict):
    """Raw sums where a span that never ran reads as zero."""

    def __missing__(self, key):
        return 0.0
