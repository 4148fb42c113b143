"""Tests of the benchmark itself: python3 -m pytest bench -q (from the repo root).

They run real pdm-osc commands on tiny inputs, so they take a few seconds.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import oracle
import run
import tracer
import workloads
from workloads import Command

ROOT = run.ROOT


def _child(tmp_path, argv, trace: bool, src: str = run.SRC) -> dict:
    """Run one traced or untraced command the way a benchmark pass does."""
    result = str(tmp_path / "result.json")
    env = dict(run.child_env(), PYTHONPATH=src)
    proc = subprocess.run([sys.executable, run.CHILD, result, "1" if trace else "0", "--", *argv],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    with open(result, encoding="utf-8") as fh:
        record = json.load(fh)
    record["stdout"] = proc.stdout
    if trace:
        record["spans"] = tracer.summarize(result + ".npz")
    return record


def _table(strategy: str, t_count: int, N: int = 50, k_list=(-0.2,)) -> Command:
    inp = workloads.Inputs(0, tuple(k_list), 1, 0.5, 20.0)
    return workloads._table("tiny", "thermo", inp, strategy, t_count, N=N)


def _layer(record: dict) -> dict:
    spans = record["spans"]
    return tracer.layer_values(spans["raw"], spans["installed"])


@pytest.mark.parametrize("quantity", ["Z", "U"])
def test_perturbed_value_is_counted_as_failure(tmp_path, quantity):
    cmd = _table("direct", 4)
    record = _child(tmp_path, cmd.argv, trace=False)
    clean = oracle.check_command(cmd, str(tmp_path), record["stdout"], record["rc"])
    assert (clean.attempted, clean.failed) == (4, 0)

    path = tmp_path / next(p for p in cmd.outputs if p.endswith(f"_{quantity}.csv"))
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[-1].rstrip("\n").split(",")
    cells[1] = repr(float(cells[1]) * (1.0 + 1e-6))
    lines[-1] = ",".join(cells) + "\n"
    path.write_text("".join(lines))
    perturbed = oracle.check_command(cmd, str(tmp_path), record["stdout"], record["rc"])
    assert (perturbed.attempted, perturbed.failed) == (4, 1)
    assert perturbed.max_err_ratio > 1.0


def test_injected_energy_perturbation_fails_validate_operations(tmp_path):
    cmd = Command(name="validate", argv=("validate", "--quick", "--inject-energy-perturbation"),
                  kind="validate")
    record = _child(tmp_path, cmd.argv, trace=False)
    tally = oracle.check_command(cmd, str(tmp_path), record["stdout"], record["rc"])
    assert record["rc"] == 1
    assert tally.failed == tally.attempted == len(workloads.VALIDATE_CHECKS)


def test_nonzero_exit_fails_every_operation():
    cmd = _table("direct", 7, k_list=(-0.1, -0.3))
    tally = oracle.check_command(cmd, "/nonexistent", "", 1)
    assert (tally.attempted, tally.failed) == (14, 14)


def _poisson_point(**scale) -> oracle.Tally:
    """Tally of one poisson point whose values are the direct sum's, rescaled."""
    cmd = _table("poisson", 1)
    ref = oracle.direct_reference(1.0, -0.2, 1, 50, [1.0 / 20.0])
    values = {q: [float(ref[q][0]) * scale.get(q, 1.0)] for q in oracle.QUANTITIES}
    tally = oracle.Tally()
    oracle._check_points(tally, cmd, -0.2, "corrected", [20.0], values, "test")
    return tally


def test_paper_z_outside_twice_the_truncation_bound_fails():
    beta = 1.0 / 20.0
    z = float(oracle.direct_reference(1.0, -0.2, 1, 50, [beta])["Z"][0])
    allowed = 2.0 * float(oracle.em_bound(1.0, -0.2, 1, 50, [beta])[0]) + oracle.EM_ATOL
    for offset, ok in ((0.5 * allowed, True), (1.5 * allowed, False)):
        assert _poisson_point(Z=1.0 + offset / z).failed == (0 if ok else 1)


@pytest.mark.parametrize("quantity", ["F", "U", "S"])
def test_perturbed_poisson_f_u_or_s_is_counted_as_failure(quantity):
    assert _poisson_point().failed == 0
    tally = _poisson_point(**{quantity: 1.0 + 1e-6})
    assert (tally.attempted, tally.failed) == (1, 1)
    assert tally.failed_ops == [workloads.op_id(-0.2, "corrected", 0)]


def test_failure_outside_the_expected_set_is_unexpected():
    cmd = next(c for c in workloads.commands("thermo", 7) if c.name == "poisson_big_n")
    ops = cmd.op_ids()
    assert len(cmd.expected_failures) == 23 and cmd.expected_failures <= set(ops)
    passing = sorted(set(ops) - cmd.expected_failures)
    expected_only = oracle.Tally(attempted=len(ops), failed_ops=sorted(cmd.expected_failures))
    assert run.unexpected_failures([cmd], [expected_only]) == []
    one_more = oracle.Tally(attempted=len(ops), failed_ops=[*cmd.expected_failures, passing[0]])
    assert run.unexpected_failures([cmd], [one_more]) == [f"poisson_big_n {passing[0]}"]
    crashed = oracle.check_command(cmd, "/nonexistent", "", 1)
    assert len(run.unexpected_failures([cmd], [crashed])) == len(passing)


def test_wavefunction_reference_matches_program(tmp_path):
    inp = workloads.Inputs(0, (-0.1, -0.2, -0.3), 2, 0.1, 50.0)
    cmd = workloads._wavefunction("wf", inp, 3, 50)
    record = _child(tmp_path, cmd.argv, trace=False)
    tally = oracle.check_command(cmd, str(tmp_path), record["stdout"], record["rc"])
    assert (tally.attempted, tally.failed) == (4, 0)
    assert tally.max_err_ratio < 1e-2


def test_trace_counts_repeat_exactly(tmp_path):
    direct = _table("direct", 4, k_list=(-0.1, -0.3))
    poisson = _table("poisson", 5)
    units = {name: unit for name, unit, _ in run.per_layer_catalogue()}
    seen = []
    for _ in range(2):
        d = _layer(_child(tmp_path, direct.argv, trace=True))
        p = _layer(_child(tmp_path, poisson.argv, trace=True))
        assert d["thermo.levels.calls"] == 2 * direct.n_ops
        assert d["thermo.evaluate.calls"] == direct.n_ops
        assert d["thermo.levels.distinct"] == 2
        assert p["specfun.integrate.calls"] == 10 * poisson.n_ops
        seen.append([{k: v for k, v in values.items() if units[k] == "count"}
                     for values in (d, p)])
    assert seen[0] == seen[1]


def test_self_time_subtracts_union_of_overlapping_children():
    import numpy as np

    # span 0 on thread 0 with two overlapping children on threads 1 and 2
    parent = np.array([-1, 0, 0])
    thread = np.array([0, 1, 2])
    start = np.array([0.0, 1.0, 2.0])
    end = np.array([10.0, 4.0, 5.0])
    assert tracer.self_times(parent, thread, start, end).tolist() == [6.0, 3.0, 3.0]


def test_deleted_name_leaves_run_working_and_metric_absent(tmp_path):
    src = tmp_path / "src"
    shutil.copytree(os.path.join(run.SRC, "pdm_osc"), src / "pdm_osc",
                    ignore=shutil.ignore_patterns("__pycache__"))
    # delete thermo.levels the way a refactor would: rename it and its call sites
    thermo_py = src / "pdm_osc" / "thermo.py"
    thermo_py.write_text(re.sub(r"\blevels\b", "_spectrum", thermo_py.read_text()))
    init_py = src / "pdm_osc" / "__init__.py"
    init_py.write_text(init_py.read_text().replace("    levels,\n", "")
                       .replace('"levels", ', ""))
    work = tmp_path / "work"
    work.mkdir()
    cmd = _table("direct", 4)
    record = _child(work, cmd.argv, trace=True, src=str(src))
    assert record["rc"] == 0
    assert "thermo.levels" in record["spans"]["absent"]
    values = _layer(record)
    assert "thermo.levels.calls" not in values
    assert "thermo.boltzmann.terms" not in values
    assert values["thermo.evaluate.calls"] == 4


def test_benchmark_json_matches_the_metric_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        run.result_layer_catalogue()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    with open(os.path.join(run.HERE, "METRICS.md"), encoding="utf-8") as fh:
        catalogue = fh.read()
    for name, _unit, _better in run.per_layer_catalogue():
        short = name.split(".")[1] if name.startswith("validate.") else None
        assert f"`{name}`" in catalogue or f"`{short}`" in catalogue
    for name, _unit in run.END_TO_END:
        assert f"`{name}`" in catalogue


def test_result_line_contract(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
                           "states", "--seconds", "0.1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {n for n, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_result_line_has_every_manifest_metric_even_when_absent():
    record = {"trace": 1, "correct": True, "attempted": 1, "failed": 0,
              "per_layer": {"cli.self_s": {"value": 0.5, "unit": "s"}}}
    metrics = json.loads(run.result_line(record))["metrics"]
    assert [(n, m["unit"]) for n, m in metrics.items()] == \
        [(n, u) for n, u, _ in run.result_layer_catalogue()]
    assert metrics["cli.self_s"]["value"] == 0.5
    assert metrics["thermo.levels.calls"]["value"] == 0.0


def test_inputs_cycle_through_the_sets_with_reference_hashes():
    reference = run.load_reference()
    for seed in (0, 31, 32, 416733501):
        inp = workloads.draw_inputs(seed)
        assert inp == workloads.draw_inputs(seed % workloads.INPUT_SETS)
        for workload in workloads.WORKLOADS:
            assert str(inp.seed) in reference[workload]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "thermo", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
