"""Benchmark of the cmereg command line: three workloads, end to end and per layer.

    python3 clibench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each repetition is a fresh process
(workload.py) that imports cmereg from ./src, writes its inputs from the
seed and runs the workload's command sequence through cmereg.cli.main.
A run makes round(S / NOMINAL_S) repetitions, at least one, where NOMINAL_S
is the workload's sequence time on the reference machine, so S sets the run
length and every commit runs the same number. The run starts with one
set-up-only warm-up process, whose time is dropped; set-up is then measured
in SETUPS processes, the repetitions and extra set-up-only ones. Every
output is checked (checks.py).

--trace 0 reports the end-to-end metrics of BENCHMARK.json: medians of set-up
time, command wall and CPU time and peak resident set, and the share of
operations that succeeded. --trace 1 adds one traced repetition (tracer.py),
checks its call counts and that its outputs are byte-identical to the
untraced ones, and reports the per-layer metrics of BENCHMARK.json.

The last line of standard output is one JSON object: correct, attempted,
failed, metrics. The lines before it give a readable table and the
provenance of the run. Scratch files live under .clibench_work/ and are
removed at exit, except the last trace of each workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import tracer
from workload import EXPECTED_CALLS, NOMINAL_S, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".clibench_work")
SETUPS = 10  # set-up samples per run, for a steady median
DEADLINE_S = 170.0  # a run must end within 180 s


class HarnessError(Exception):
    pass


def spawn(run_dir: str, tag: str, workload: str, seed: int, deadline: float,
          trace: str | None = None, setup_only: bool = False) -> dict:
    """Run workload.py in a fresh process; return its result.json plus setup_s."""
    work = os.path.join(run_dir, tag)
    os.makedirs(work)
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", workload,
           "--seed", str(seed), "--work", work]
    if trace:
        cmd += ["--trace", trace]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=SRC)
    stderr_path = os.path.join(work, "stderr.txt")
    with open(stderr_path, "w") as err:
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err,
                                  timeout=max(deadline - start, 1.0))
        except subprocess.TimeoutExpired as exc:
            raise HarnessError(f"{tag}: no result before the run deadline") from exc
    with open(stderr_path) as fh:
        stderr = fh.read()
    if proc.returncode != 0:
        raise HarnessError(f"{tag}: workload process exited {proc.returncode}\n{stderr[-2000:]}")
    with open(os.path.join(work, "result.json")) as fh:
        result = json.load(fh)
    result["setup_s"] = result["ready"] - start
    result["elapsed_s"] = time.monotonic() - start
    result["stderr"] = stderr
    return result


class Tally:
    """Operations attempted and failed, and reasons the outputs are not correct."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.facts = []

    def add(self, rep: dict):
        for op in rep["ops"]:
            self.attempted += 1
            problems, facts = [], {}
            if op["exit"] == 0:
                problems, facts = checks.check(op["command"], op["config"], op["out"])
            elif op["exit"] != 3:  # 3 is the CLI's reported numeric failure; anything else breaks its contract
                problems = [f"{op['command']}: exit {op['exit']}"]
            if op["exit"] != 0 or problems:
                self.failed += 1
            self.problems += problems
            self.facts.append({"command": op["command"], "exit": op["exit"], "wall_s": op["wall_s"], **facts})


def _tree(path: str) -> dict:
    files = {}
    for dirpath, _, names in os.walk(path):
        for name in names:
            full = os.path.join(dirpath, name)
            with open(full, "rb") as fh:
                files[os.path.relpath(full, path)] = fh.read()
    return files


def trace_self_check(workload: str, summary: dict, untraced: dict, traced: dict) -> list:
    problems = []
    expected = dict(EXPECTED_CALLS[workload])
    for op in traced["ops"]:
        key = f"cli.run_{op['command']}"
        expected[key] = expected.get(key, 0) + 1
    for name, count in expected.items():
        got = summary.get(name, {}).get("calls", 0)
        if got != count:
            problems.append(f"trace: {name} called {got} times, expected {count}")
    for a, b in zip(untraced["ops"], traced["ops"]):
        if _tree(a["out"]) != _tree(b["out"]):
            problems.append(f"trace: {a['command']} outputs differ between traced and untraced runs")
    return problems


SPAN_STAT = re.compile(r"(?P<span>.+)\.(?P<stat>calls|self_s|total_s)")


def layer_metrics(names, summary: dict, overhead_s: float) -> dict:
    """Per-layer values: <span>.<calls|self_s|total_s> from the spans, plus the derived ones."""

    def entry(name):
        return summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "attrs": []})

    def attrs(name, key):
        return [a[key] for a in entry(name)["attrs"] if key in a]

    fista, act = entry("sparse.fista_solve"), entry("pendulum.Policy.act")
    iterations = sum(attrs("sparse.fista_solve", "iterations"))
    rollouts = entry("pendulum.evaluate_policy")["attrs"]
    derived = {
        "linalg.solve_spd.max_residual": max(attrs("linalg.solve_spd", "residual"), default=0.0),
        "sparse.fista_solve.iterations": iterations,
        "sparse.fista_solve.capped": sum(attrs("sparse.fista_solve", "capped")),
        "sparse.fista_solve.s_per_iter": fista["total_s"] / iterations if iterations else 0.0,
        "linalg.sym_eig_max.failed": len(attrs("linalg.sym_eig_max", "error")),
        "pendulum.evaluate_policy.learned.total_s":
            sum(a["duration_s"] for a in rollouts if a.get("policy") == "Policy"),
        "pendulum.evaluate_policy.random.total_s":
            sum(a["duration_s"] for a in rollouts if a.get("policy") == "RandomTorquePolicy"),
        "pendulum.Policy.act.us_per_call": 1e6 * act["total_s"] / act["calls"] if act["calls"] else 0.0,
        "pendulum.policy_iteration.sweeps": sum(attrs("pendulum.policy_iteration", "sweeps")),
        "cli.write_csv.bytes": sum(attrs("cli.write_csv", "bytes")),
        "trace.overhead_s": overhead_s,
    }
    for command in checks.CHECKS:
        derived[f"cli.{command}.total_s"] = entry(f"cli.run_{command}")["total_s"]
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
        elif m := SPAN_STAT.fullmatch(name):
            out[name] = entry(m["span"])[m["stat"]]
        else:
            raise HarnessError(f"no rule computes per-layer metric {name}")
    return out


def provenance(workload: str, seed: int) -> dict:
    """Machine, library and code identity, so a noisy or foreign run can be told apart."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "cmereg")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def measure(args, names: dict, run_dir: str) -> tuple[dict, Tally, dict]:
    deadline = time.monotonic() + DEADLINE_S
    tally = Tally()
    # The first process of a run may find cold file caches or write .pyc files; its set-up is dropped.
    spawn(run_dir, "warmup", args.workload, args.seed, deadline, setup_only=True)
    reps = []
    for i in range(max(1, round(args.seconds / NOMINAL_S[args.workload]))):
        # Keep room for one more repetition and the traced one before the deadline.
        if reps and time.monotonic() + 2.5 * max(r["elapsed_s"] for r in reps) > deadline:
            break
        rep = spawn(run_dir, f"rep{i}", args.workload, args.seed, deadline)
        tally.add(rep)
        reps.append(rep)
    setups = [r["setup_s"] for r in reps]
    while len(setups) < SETUPS:
        setups.append(spawn(run_dir, f"setup{len(setups)}", args.workload, args.seed, deadline,
                            setup_only=True)["setup_s"])
    wall = statistics.median(r["wall_s"] for r in reps)
    info = {"reps": len(reps), "wall_s_each": [r["wall_s"] for r in reps], "setup_s_each": setups,
            "versions": reps[0]["versions"], "blas": reps[0]["blas"],
            "stderr": [r["stderr"] for r in reps]}
    if not args.trace:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "cpu_s": statistics.median(r["cpu_s"] for r in reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
        }
        return {n: metrics[n] for n in names}, tally, info
    trace_path = os.path.join(WORK, f"trace-{args.workload}.jsonl")
    traced = spawn(run_dir, "traced", args.workload, args.seed, deadline, trace=trace_path)
    tally.add(traced)
    info["stderr"].append(traced["stderr"])
    summary = tracer.summarize(trace_path)
    tally.problems += trace_self_check(args.workload, summary, reps[0], traced)
    info["trace_file"] = os.path.relpath(trace_path, ROOT)
    info["traced_wall_s"] = traced["wall_s"]
    return layer_metrics(names, summary, traced["wall_s"] - wall), tally, info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "cmereg", "cli.py")):
        print(f"no cmereg sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    prov = provenance(args.workload, args.seed)
    prov["loadavg_before"] = os.getloadavg()
    os.makedirs(WORK, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-", dir=WORK)
    try:
        values, tally, info = measure(args, units, run_dir)
    except HarnessError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    prov["loadavg_after"] = os.getloadavg()
    stderr = info.pop("stderr")
    prov.update(info)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} reps={info['reps']}: "
          f"attempted={tally.attempted} failed={tally.failed} "
          f"fail_frac={tally.failed / tally.attempted:.4f}")
    for name, value in values.items():
        print(f"{name:44s} {value:14.6g} {units[name]}")
    for fact in tally.facts:
        print("op " + json.dumps(fact))
    for line in dict.fromkeys(line for text in stderr for line in text.splitlines()):
        print("stderr: " + line)
    for problem in tally.problems:
        print("problem: " + problem)
    print("provenance " + json.dumps(prov))
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
