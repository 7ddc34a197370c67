"""Measure a baseline: run.py over seeds 1-10 per workload, plus one traced run.

    python3 clibench/baseline.py --out baseline.json

For each workload it runs ``run.py --trace 0 --seconds <run_seconds of
BENCHMARK.json>`` once per seed, one after the other, and records each end-to-end metric's median, first and third quartile
(statistics.quantiles, n=4) and spread = (q3 - q1) / median, with the
operation counts. Then one ``--trace 1`` run on the first seed gives the
per-layer values. Writes JSON to --out and prints a table.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

from workload import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = list(range(1, 11))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    prov = next(json.loads(line[len("provenance "):]) for line in lines if line.startswith("provenance "))
    return json.loads(lines[-1]), prov


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    report = {"measured_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
              "seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for workload in WORKLOADS:
        values, attempted, failed, correct, loads = {}, 0, 0, True, []
        for seed in SEEDS:
            result, prov = run(workload, seed, seconds, 0)
            attempted, failed = attempted + result["attempted"], failed + result["failed"]
            correct = correct and result["correct"]
            loads.append(prov["loadavg_before"][0])
            for name, metric in result["metrics"].items():
                values.setdefault(name, {"unit": metric["unit"], "values": []})["values"].append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)
        for name, entry in values.items():
            q1, _, q3 = statistics.quantiles(entry["values"], n=4)
            med = statistics.median(entry["values"])
            entry.update(median=med, q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
            print(f"  {name:12s} median {med:10.4f} {entry['unit']:8s} spread {entry['spread']:.4f}")
        traced, prov = run(workload, SEEDS[0], seconds, 1)
        report["workloads"][workload] = {
            "end_to_end": values,
            "attempted": attempted,
            "failed": failed,
            "fail_frac": failed / attempted,
            "correct": correct and traced["correct"],
            "loadavg_1min_before_each": loads,
            "per_layer_seed": SEEDS[0],
            "per_layer": {n: m["value"] for n, m in traced["metrics"].items()},
        }
        report.setdefault("provenance", {k: prov[k] for k in ("nproc", "versions", "blas", "git_commit", "src_sha256")})
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
