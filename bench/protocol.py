#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise it, e.g. for a baseline.

Run from the repository root::

    python3 bench/protocol.py --out bench/baseline.json

For each workload, runs ``run.py --trace 0`` once for each of the seeds 0-9
and reports each end-to-end metric's median, quartiles and spread (the
distance between the quartiles as a share of the median). It then makes one
traced run per workload at seed 0 for the per-layer table and the tracing
overhead.
With ``--out``, the summary and the machine facts are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from run import BENCH_DIR, ROOT, WORKLOAD_NAMES

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = list(range(10))


def bench(workload: str, seed: int, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def machine() -> dict:
    import numpy

    model = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                  if line.startswith("model name")), platform.processor())
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": 1}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="write the summary here as JSON")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    summary: dict = {"run_seconds": BENCHMARK["run_seconds"], "seeds": SEEDS,
                     "machine": machine(), "end_to_end": {}, "per_layer": {}}
    for workload in WORKLOAD_NAMES:
        values: dict[str, list[float]] = {}
        failed = attempted = 0
        for seed in SEEDS:
            start = time.perf_counter()
            result, _ = bench(workload, seed, 0)
            failed += result["failed"]
            attempted += result["attempted"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: correct {result['correct']}, "
                  f"{time.perf_counter() - start:.0f} s wall, run_s {result['metrics']['run_s']['value']:.4f}",
                  flush=True)
        table = {name: summarise(v) for name, v in values.items()}
        table["fail_ratio"] = failed / attempted
        summary["end_to_end"][workload] = table
        for name, row in table.items():
            if name != "fail_ratio":
                print(f"  {name:<14} median {row['median']:.6g}  spread {row['spread']:.4f}  "
                      f"bound {bounds[name]}  (a third: {bounds[name] / 3:.4f})")
        print(f"  fail_ratio {table['fail_ratio']}", flush=True)
        result, lines = bench(workload, SEEDS[0], 1)
        summary["per_layer"][workload] = {k: v["value"] for k, v in result["metrics"].items()}
        print("\n".join(lines[:13]), flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
