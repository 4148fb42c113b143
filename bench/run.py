"""Benchmark of the pdm-osc command line, end to end and per layer.

    python3 bench/run.py --workload {thermo,states,all}
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Each pass runs the workload's commands one at
a time (a closed loop with one client), each in a fresh interpreter that
imports `pdm_osc` from ./src, with PDM_OSC_THREADS removed from its
environment. Passes repeat until --seconds have elapsed, with set-up probes
before each one. Outputs of every pass are hashed; the oracle checks the
first pass and any pass whose outputs differ from it.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced passes: the traced ones give the per-layer metrics, and the untraced
ones the tracing overhead (and the end-to-end metrics, in the report). The
report lines come first; the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. See bench/METRICS.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np
import scipy

import oracle
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference_outputs.json")
WORK = os.path.join(ROOT, ".bench_work")

# set-up probes before every pass spread the set-up samples over the run
SETUP_PROBES_PER_PASS = 3
CHILD_TIMEOUT_S = 150.0

END_TO_END = (
    ("setup_s", "s"), ("pass_s", "s"), ("cpu_s", "s"),
    ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"),
)
EXTRA_LAYER_METRICS = (
    ("output.bytes", "B", "lower"), ("output.files", "count", "lower"),
    ("output.identical_share", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"), ("trace.overhead_share", "ratio", "lower"),
    ("oracle.fail_ratio", "ratio", "lower"), ("oracle.max_err_ratio", "ratio", "lower"),
)


# times of layers every workload reaches; the other per-layer times read
# exactly 0 on the workloads that never reach their layer
TIMES_ON_EVERY_WORKLOAD = ("cli.self_s", "trace.overhead_s")


def per_layer_catalogue() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    return [(name, unit, better) for name, unit, better, _span, _fn
            in tracer.LAYER_METRICS + tracer.CHECK_METRICS] + list(EXTRA_LAYER_METRICS)


def result_layer_catalogue() -> list[tuple[str, str, str]]:
    """The per-layer metrics of the JSON result line (and of BENCHMARK.json).

    Counts, ratios and bytes, plus the times that are measured on every
    workload. The report prints the full catalogue.
    """
    return [(name, unit, better) for name, unit, better in per_layer_catalogue()
            if unit != "s" or name in TIMES_ON_EVERY_WORKLOAD]


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PDM_OSC_THREADS", None)
    env["PYTHONPATH"] = SRC
    return env


def run_child(argv, cwd: str, result_path: str, trace: bool) -> dict:
    """Run one command (or, with empty argv, a set-up probe) in a fresh interpreter."""
    cmd = [sys.executable, CHILD, result_path, "1" if trace else "0"]
    if argv:
        cmd += ["--", *argv]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=cwd, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        stdout, stderr = proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:
        # run() has killed and reaped the child; its partial output is bytes
        stdout = (exc.stdout or b"").decode(errors="replace")
        stderr = f"timed out after {CHILD_TIMEOUT_S} s"
    record = {"rc": None}
    try:
        with open(result_path, encoding="utf-8") as fh:
            record.update(json.load(fh))
    except (OSError, ValueError):
        pass
    if "ready" in record:
        record["setup_s"] = record["ready"] - spawned
    record["stdout"] = stdout
    record["stderr"] = stderr[-2000:]
    return record


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_pass(cmds, pass_dir: str, traced: bool) -> dict:
    os.makedirs(pass_dir)
    results, artifacts, sizes = [], {}, {}
    for i, cmd in enumerate(cmds):
        rec = run_child(cmd.argv, pass_dir, os.path.join(pass_dir, f".cmd{i}.json"), traced)
        artifacts[f"{cmd.name}.stdout"] = hashlib.sha256(rec["stdout"].encode()).hexdigest()
        for rel in cmd.outputs:
            path = os.path.join(pass_dir, rel)
            if os.path.exists(path):
                artifacts[rel] = _sha256(path)
                sizes[rel] = os.path.getsize(path)
        if traced and os.path.exists(os.path.join(pass_dir, f".cmd{i}.json.npz")):
            rec["spans"] = tracer.summarize(os.path.join(pass_dir, f".cmd{i}.json.npz"))
        results.append(rec)
    return {
        "dir": pass_dir,
        "traced": traced,
        "commands": results,
        "artifacts": artifacts,
        "sizes": sizes,
        "pass_s": sum(r.get("wall_s", 0.0) for r in results),
        "cpu_s": sum(r.get("cpu_s", 0.0) for r in results),
        "peak_rss_mb": max(r.get("peak_rss_kb", 0) for r in results) / 1024.0,
    }


def check_pass(cmds, p: dict) -> list[oracle.Tally]:
    return [oracle.check_command(cmd, p["dir"], rec["stdout"], rec["rc"])
            for cmd, rec in zip(cmds, p["commands"])]


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def provenance(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], text=True,
                                    capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    src_hash = hashlib.sha256()
    pkg = os.path.join(SRC, "pdm_osc")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            src_hash.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                src_hash.update(fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "seed": seed,
        "pdm_osc_threads": "cleared" + (f" (was {os.environ['PDM_OSC_THREADS']!r})"
                                        if "PDM_OSC_THREADS" in os.environ else ""),
        "loadavg_before": list(os.getloadavg()),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cmds = workloads.commands(workload, seed)
    record = {"workload": workload, "trace": int(trace), "seconds": seconds,
              "provenance": provenance(seed),
              "inputs": vars(workloads.draw_inputs(seed)),
              "commands": [{"name": c.name, "argv": list(c.argv), "ops": c.n_ops,
                            "known_defect": c.known_defect,
                            "expected_failures": len(c.expected_failures)} for c in cmds]}
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    try:
        # the first interpreter compiles bytecode; users pay that once, so
        # one probe warms up before the timed ones
        run_child([], work, os.path.join(work, ".warmup.json"), False)
        started = time.monotonic()
        # start a pass only if it is expected to end within --seconds, once
        # the passes a report needs have run
        passes, probes, durations = [], [], []
        while len(passes) < (2 if trace else 1) or \
                time.monotonic() - started + statistics.mean(durations) <= seconds:
            t0 = time.monotonic()
            probes += [run_child([], work, os.path.join(work, f".probe{len(probes) + i}.json"),
                                 False) for i in range(SETUP_PROBES_PER_PASS)]
            traced = trace and len(passes) % 2 == 1
            passes.append(run_pass(cmds, os.path.join(work, f"pass{len(passes)}"), traced))
            durations.append(time.monotonic() - t0)
            if len(passes) > 1 and passes[-1]["artifacts"] == passes[0]["artifacts"]:
                shutil.rmtree(passes[-1]["dir"])
        record["provenance"]["loadavg_after"] = list(os.getloadavg())
        summarize_run(record, cmds, passes, probes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return record


def unexpected_failures(cmds, tallies: list[oracle.Tally]) -> list[str]:
    """Failed operations that are not among their command's expected failures."""
    return [f"{cmd.name} {op}" for cmd, t in zip(cmds, tallies)
            for op in t.failed_ops if op not in cmd.expected_failures]


def summarize_run(record: dict, cmds, passes: list, probes: list) -> None:
    first = check_pass(cmds, passes[0])
    tallies = []
    for p in passes:
        tallies.append(first if p["artifacts"] == passes[0]["artifacts"] else check_pass(cmds, p))
    # attempted and failed are one pass's tally, the worst pass's if they differ
    worst = max(tallies, key=lambda ts: sum(t.failed for t in ts))
    attempted = sum(t.attempted for t in worst)
    failed = sum(t.failed for t in worst)
    unexpected = sorted({op for ts in tallies for op in unexpected_failures(cmds, ts)})
    deterministic = all(p["artifacts"] == passes[0]["artifacts"] for p in passes)
    record["correct"] = not unexpected and deterministic
    record["attempted"], record["failed"] = attempted, failed
    record["unexpected_failures"] = unexpected
    record["deterministic_outputs"] = deterministic
    record["artifacts"] = passes[0]["artifacts"]
    record["failures"] = [
        {"command": cmd.name, "known_defect": cmd.known_defect, "failed": t.failed,
         "attempted": t.attempted, "expected": len(cmd.expected_failures),
         "unexpected": len(set(t.failed_ops) - cmd.expected_failures),
         "now_passing": len(cmd.expected_failures - set(t.failed_ops)), "examples": t.notes}
        for cmd, t in zip(cmds, worst) if t.failed or cmd.expected_failures]
    max_err = max(t.max_err_ratio for t in worst)
    plain = [(p, ts) for p, ts in zip(passes, tallies) if not p["traced"]]
    setup = [r["setup_s"] for r in probes if "setup_s" in r] + [
        r["setup_s"] for p, _ in plain for r in p["commands"] if "setup_s" in r]
    if not setup:
        raise RuntimeError("no set-up probe produced a timestamp: "
                           + (probes[0]["stderr"] if probes else ""))
    samples = {
        "setup_s": setup,
        "pass_s": [p["pass_s"] for p, _ in plain],
        "cpu_s": [p["cpu_s"] for p, _ in plain],
        "ops_per_s": [sum(t.attempted - t.failed for t in ts) / p["pass_s"]
                      if p["pass_s"] else 0.0 for p, ts in plain],
        "peak_rss_mb": [p["peak_rss_mb"] for p, _ in plain],
    }
    record["samples"] = samples
    record["end_to_end"] = {name: {"unit": unit, **quartiles(samples[name])}
                            for name, unit in END_TO_END}
    record["quality"] = {"fail_ratio": failed / attempted if attempted else 0.0,
                         "max_err_ratio": max_err}
    traced = [p for p in passes if p["traced"]]
    if traced:
        record["per_layer"] = layer_metrics(record, traced, passes[0], plain)


def layer_metrics(record: dict, traced: list, first: dict, plain: list) -> dict:
    per_pass, installed = [], None
    for p in traced:
        raw: dict[str, float] = {}
        for rec in p["commands"]:
            spans = rec.get("spans")
            if spans is None:
                continue
            for key, value in spans["raw"].items():
                raw[key] = raw.get(key, 0.0) + value
            installed = spans["installed"] if installed is None else installed & spans["installed"]
        per_pass.append(raw)
    installed = installed or set()
    values = [tracer.layer_values(raw, installed) for raw in per_pass]
    units = {name: unit for name, unit, _ in per_layer_catalogue()}
    counts = [{k: x for k, x in vals.items() if units[k] == "count"} for vals in values]
    counts_repeat = all(c == counts[0] for c in counts)
    out = {name: statistics.median(v[name] for v in values) for name in values[0]} \
        if values else {}
    out["output.bytes"] = float(sum(first["sizes"].values()))
    out["output.files"] = float(len(first["sizes"]))
    ref = load_reference().get(record["workload"], {}).get(str(record["inputs"]["seed"]))
    if ref:
        same = sum(1 for name, digest in ref.items() if first["artifacts"].get(name) == digest)
        out["output.identical_share"] = same / len(ref)
    plain_s = statistics.median(p["pass_s"] for p, _ in plain)
    traced_s = statistics.median(p["pass_s"] for p in traced)
    out["trace.overhead_s"] = traced_s - plain_s
    out["trace.overhead_share"] = (traced_s - plain_s) / plain_s
    out["oracle.fail_ratio"] = record["quality"]["fail_ratio"]
    out["oracle.max_err_ratio"] = record["quality"]["max_err_ratio"]
    record["trace_counts_repeat"] = counts_repeat
    record["absent"] = [name for name in units if name not in out]
    return {name: {"value": out[name], "unit": unit} for name, unit in units.items()
            if name in out}


def load_reference() -> dict:
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def report(record: dict) -> None:
    prov = record["provenance"]
    print(f"# pdm-osc benchmark: workload={record['workload']} seed={prov['seed']} "
          f"trace={record['trace']} seconds={record['seconds']}")
    print("# machine: " + " ".join(f"{k}={v}" for k, v in prov.items() if k != "seed"))
    inputs = record["inputs"]
    print(f"# inputs (set {inputs['seed']} of {workloads.INPUT_SETS}): "
          f"k_list={list(inputs['k_list'])} m={inputs['m']} "
          f"T=[{inputs['t_min']}, {inputs['t_max']}]")
    print("# commands: " + "; ".join(
        f"{c['name']} ({c['ops']} ops"
        + (f", {c['expected_failures']} expected to fail: known defect {c['known_defect']}"
           if c["expected_failures"] else "") + ")"
        for c in record["commands"]))
    for name, m in record["end_to_end"].items():
        print(f"{name:<14} {m['median']:.6g} {m['unit']}  (median; q1 {m['q1']:.6g}, "
              f"q3 {m['q3']:.6g}; n={m['n']})")
    q = record["quality"]
    print(f"{'fail_ratio':<14} {q['fail_ratio']:.6g}  ({record['failed']} of "
          f"{record['attempted']} operations)")
    print(f"{'max_err_ratio':<14} {q['max_err_ratio']:.6g}  (observed / allowed error, "
          f"worst checked operation)")
    for f in record["failures"]:
        print(f"# failed: {f['command']} {f['failed']}/{f['attempted']} ({f['expected']} "
              f"expected, known defect {f['known_defect']}; {f['unexpected']} UNEXPECTED; "
              f"{f['now_passing']} expected failures now pass): "
              + " | ".join(f["examples"][:2]))
    if record["unexpected_failures"]:
        print("# UNEXPECTED failures: " + ", ".join(record["unexpected_failures"][:10]))
    if "per_layer" in record:
        for name, m in record["per_layer"].items():
            print(f"{name:<44} {m['value']:.6g} {m['unit']}")
        print(f"# trace counts repeat exactly across traced passes: "
              f"{record['trace_counts_repeat']}")
        if record["absent"]:
            print("# absent: " + ", ".join(record["absent"]))
    print(f"# correct={record['correct']} deterministic_outputs="
          f"{record['deterministic_outputs']}")


def result_line(record: dict) -> str:
    if record["trace"]:
        # a metric whose binding was deleted reads 0 here (the name is never
        # called) and is listed on the report's "# absent:" line
        metrics = {name: record["per_layer"].get(name, {"value": 0.0, "unit": unit})
                   for name, unit, _ in result_layer_catalogue()}
    else:
        metrics = {name: {"value": m["median"], "unit": m["unit"]}
                   for name, m in record["end_to_end"].items()}
    return json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pdm_osc", "cli.py")):
        print(f"error: no pdm_osc sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(record)
        print(result_line(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
