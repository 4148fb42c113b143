"""Workload definitions: the pdm-osc commands one benchmark pass runs.

Every command is described by a Command record that carries both the argv
handed to `pdm_osc.cli.main` and what the oracle needs to check its outputs
(parameters, strategy, how many operations it stands for). The seed draws
only the inputs; the program never sees it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Two workloads, each of two command groups: "thermo" runs the sweep and
# poisson groups, "states" the wavefunction and validate groups. Fewer,
# longer runs average over the minute-scale swings in speed of a shared
# machine, which runs of four separate workloads could not.
WORKLOADS = ("thermo", "states")

# a seed selects one of this many input sets (seed modulo INPUT_SETS), each
# with committed reference hashes in reference_outputs.json, so output
# identity is known at any seed; seed 0 reproduces the paper figure set
INPUT_SETS = 32
PAPER_K_LIST = (-0.1, -0.2, -0.3)
PAPER_M = 1
PAPER_T_RANGE = (0.1, 50.0)

# one k per stratum keeps every seed's k list spread over [-0.5, -0.05], so
# the per-pass cost of k-dependent strategies (quadrature) varies little
# between seeds
K_STRATA = ((-0.15, -0.05), (-0.25, -0.15), (-0.5, -0.25))

# regime edges of the documented parameter space: k -> 0-, large |m|,
# beta = 1e-4 and 1e3, N = 1e5
EDGE_K = -1e-6
EDGE_M = 40
EDGE_N = 100_000
EDGE_TEMPERATURES = (1e4, 1e-3)
# (strategy, T) of the edge points that fail at the commit that added the
# benchmark: the paper strategy at beta = 1e3 returns Z = 0 and NaN U, C, S
# (defects 4b and 4c)
EDGE_DEFECTS = {("paper", 1e-3): "4b-4c"}

SWEEP_T_COUNT = 2000
BIG_N_T_COUNT = 100
POISSON_T_COUNT = 300
POISSON_BIG_N_T_COUNT = 10
# The N = 1e5 poisson slice is a fixed fixture, like the edge points: seed 0's
# k list, m and T grid at every seed, so the operations that fail on it are
# known exactly. These T-grid indices, per k, fail at the commit that added
# the benchmark because specfun.integrate converges falsely (defect 4a).
POISSON_BIG_N_FAILURES = {-0.1: range(2, 10), -0.2: range(2, 10), -0.3: range(3, 10)}
WAVEFUNCTION_N_MAX = 40
DENSE_N_MAX = 6
DENSE_R_COUNT = 20_000

# validate.run_all's checks, in run order
VALIDATE_CHECKS = (
    "quantization_roundtrip", "spectrum_bisection", "tau_slope", "ode_residual",
    "ode_sensitivity", "normalization", "orthogonality", "limits", "boltzmann_limit",
    "strategy_triangulation", "derivative_consistency", "thermo_identity",
    "truncation_insensitivity", "figure_properties",
)


@dataclass(frozen=True)
class Inputs:
    """What a seed draws: the k list, m and the temperature-grid ends."""

    seed: int
    k_list: tuple[float, ...]
    m: int
    t_min: float
    t_max: float


@dataclass(frozen=True)
class Command:
    """One pdm-osc invocation and the facts the oracle checks it against.

    kind is "table" (CSV tables over a T grid), "point" (one `thermo --T`
    line per k on stdout), "wavefunction" or "validate". expected_failures
    holds the ids (see op_ids) of the operations that fail at the commit
    that added the benchmark, and known_defect names the open defect behind
    them. Those failures are counted, never hidden; a failure of any other
    operation is unexpected.
    """

    name: str
    argv: tuple[str, ...]
    kind: str
    strategy: str = "direct"
    variants: tuple[str, ...] = ("corrected",)
    k_list: tuple[float, ...] = ()
    m: int = 0
    N: int = 500
    t_count: int = 0
    t_min: float = 0.0
    t_max: float = 0.0
    temperature: float | None = None
    n_max: int = 0
    r_count: int = 0
    known_defect: str | None = None
    expected_failures: frozenset[str] = frozenset()
    outputs: tuple[str, ...] = ()

    @property
    def n_ops(self) -> int:
        """Operations this command stands for: points, states or checks."""
        return len(self.op_ids())

    def op_ids(self) -> list[str]:
        """Ids of this command's operations, as the oracle names them."""
        if self.kind in ("table", "point"):
            return [op_id(k, v, i) for k in self.k_list for v in self.variants
                    for i in range(self.t_count if self.kind == "table" else 1)]
        if self.kind == "wavefunction":
            return [f"n={n}" for n in range(self.n_max + 1)]
        return list(VALIDATE_CHECKS)


def op_id(k: float, variant: str, index: int) -> str:
    """Id of one thermo point: k, variant and position on the T grid."""
    return f"k={k!r} {variant} T#{index}"


def draw_inputs(seed: int) -> Inputs:
    seed %= INPUT_SETS
    if seed == 0:
        return Inputs(0, PAPER_K_LIST, PAPER_M, *PAPER_T_RANGE)
    rng = random.Random(seed)
    k_list = tuple(round(rng.uniform(lo, hi), 4) for lo, hi in K_STRATA)
    m = rng.randint(-3, 3)
    t_min = round(rng.uniform(0.08, 0.12), 4)
    t_max = round(rng.uniform(40.0, 60.0), 2)
    return Inputs(seed, k_list, m, t_min, t_max)


def _fmt(x: float) -> str:
    return repr(float(x))


def _grid_args(inp: Inputs, t_count: int) -> list[str]:
    return [f"--k-list={','.join(_fmt(k) for k in inp.k_list)}", f"--m={inp.m}",
            f"--T-min={_fmt(inp.t_min)}", f"--T-max={_fmt(inp.t_max)}",
            f"--T-count={t_count}"]


def _table(name: str, command: str, inp: Inputs, strategy: str, t_count: int,
           N: int = 500, variant: str = "corrected", fmt: str = "csv",
           known_defect: str | None = None,
           expected_failures: frozenset[str] = frozenset()) -> Command:
    argv = [command, f"--strategy={strategy}", f"--N={N}", f"--variant={variant}",
            f"--format={fmt}", f"--out={name}"] + _grid_args(inp, t_count)
    variants = ("corrected", "verbatim") if (variant == "both" and strategy == "paper") \
        else ("corrected",)
    exts = ("csv", "svg") if fmt == "both" else (fmt,)
    outputs = tuple(f"{name}/{command}_m{inp.m}_{q}.{ext}"
                    for q in "ZUCFS" for ext in exts)
    return Command(name=name, argv=tuple(argv), kind="table", strategy=strategy,
                   variants=variants, k_list=inp.k_list, m=inp.m, N=N,
                   t_count=t_count, t_min=inp.t_min, t_max=inp.t_max,
                   known_defect=known_defect, expected_failures=expected_failures,
                   outputs=outputs)


def _edge_point(strategy: str, temperature: float) -> Command:
    name = f"edge_{strategy}_T{temperature:g}"
    argv = ("thermo", f"--strategy={strategy}", f"--T={_fmt(temperature)}",
            f"--k={_fmt(EDGE_K)}", f"--m={EDGE_M}", f"--N={EDGE_N}")
    known_defect = EDGE_DEFECTS.get((strategy, temperature))
    expected = frozenset({op_id(EDGE_K, "corrected", 0)}) if known_defect else frozenset()
    return Command(name=name, argv=argv, kind="point", strategy=strategy,
                   k_list=(EDGE_K,), m=EDGE_M, N=EDGE_N, temperature=temperature,
                   known_defect=known_defect, expected_failures=expected)


def _wavefunction(name: str, inp: Inputs, n_max: int, r_count: int) -> Command:
    # the middle stratum, where the norm quadrature's effort is flat in k
    k = inp.k_list[1]
    argv = ("wavefunction", f"--k={_fmt(k)}", f"--m={inp.m}", f"--n-max={n_max}",
            f"--r-count={r_count}", f"--out={name}")
    return Command(name=name, argv=argv, kind="wavefunction", k_list=(k,), m=inp.m,
                   n_max=n_max, r_count=r_count,
                   outputs=(f"{name}/wavefunction_m{inp.m}.csv",))


def commands(workload: str, seed: int) -> list[Command]:
    """The commands of one pass of `workload`, in the order they run."""
    inp = draw_inputs(seed)
    if workload == "thermo":
        # the sweep group: the Boltzmann reduction and the output layer
        sweep = [
            _table("figures", "figures", inp, "direct", SWEEP_T_COUNT, fmt="both"),
            _table("paper_sweep", "thermo", inp, "paper", SWEEP_T_COUNT, variant="both"),
            _table("direct_big_n", "thermo", inp, "direct", BIG_N_T_COUNT, N=EDGE_N),
        ] + [
            _edge_point(strategy, t) for strategy in ("direct", "paper") for t in EDGE_TEMPERATURES
        ]
        # the poisson group: quadrature, which bypasses the Boltzmann reduction
        poisson = [
            _table("poisson_sweep", "thermo", inp, "poisson", POISSON_T_COUNT),
            _table("poisson_big_n", "thermo", draw_inputs(0), "poisson",
                   POISSON_BIG_N_T_COUNT, N=EDGE_N, known_defect="4a",
                   expected_failures=frozenset(
                       op_id(k, "corrected", i)
                       for k, indices in POISSON_BIG_N_FAILURES.items() for i in indices)),
        ] + [_edge_point("poisson", t) for t in EDGE_TEMPERATURES]
        return sweep + poisson
    if workload == "states":
        return [
            _wavefunction("wavefunction_norm", inp, WAVEFUNCTION_N_MAX, 200),
            _wavefunction("wavefunction_dense", inp, DENSE_N_MAX, DENSE_R_COUNT),
            Command(name="validate", argv=("validate",), kind="validate"),
        ]
    raise ValueError(f"unknown workload {workload!r}; use one of {', '.join(WORKLOADS)}")
