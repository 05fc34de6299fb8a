"""Run the benchmark over several seeds and summarise it.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Runs ``run.py`` once per (seed, workload) for seeds 1 to 10, seeds in the
outer loop so that drift of the machine spreads over all workloads, then
one traced run per workload with the first seed. For every end-to-end
metric it records the ten values, their median and quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (Q3 - Q1) /
median. The machine, the Python and numpy versions and the git commit are
recorded beside the figures.
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
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": sha}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    chosen = [w["name"] for w in spec["workloads"]]

    runs: dict[str, list] = {w: [] for w in chosen}
    for seed in SEEDS:
        for workload in chosen:
            result = run_once(workload, seed, seconds, 0)
            runs[workload].append(result)
            print(f"{workload} seed {seed}: {result['wall_s']:.1f} s wall, "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
    report = {"machine": machine(), "seeds": SEEDS, "run_seconds": seconds,
              "workloads": {}}
    for workload in chosen:
        metrics = {m["name"]: summarise([r["metrics"][m["name"]]["value"]
                                         for r in runs[workload]])
                   for m in spec["end_to_end"]}
        entry = {"why": next(w["why"] for w in spec["workloads"] if w["name"] == workload),
                 "wall_s": summarise([r["wall_s"] for r in runs[workload]]),
                 "failed": sum(r["failed"] for r in runs[workload]),
                 "attempted": sum(r["attempted"] for r in runs[workload]),
                 "end_to_end": metrics}
        traced = run_once(workload, SEEDS[0], seconds, 1)
        entry["traced"] = {"seed": SEEDS[0], "wall_s": traced["wall_s"],
                           "per_layer": {k: v["value"] for k, v in traced["metrics"].items()}}
        report["workloads"][workload] = entry
        print(f"{workload}: " + ", ".join(f"{k} spread {v['spread']:.3f}"
                                          for k, v in metrics.items()), flush=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
