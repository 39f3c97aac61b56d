#!/usr/bin/env python3
"""Run the benchmark over several seeds and record a baseline.

Usage, from the root of a checkout::

    python3 perfbench/baseline.py

For every workload of ``BENCHMARK.json`` it runs ``perfbench/run.py``
once per seed (seeds 1..10, one process at a time) and once traced,
then reports each end-to-end metric's median, quartiles and spread
(interquartile range over the median) next to the metric's bound.  A
spread above a third of its bound is flagged, except for ``setup_s``,
whose bound guards the median only.  It writes the figures, the
environment and the commit to ``perfbench/baseline.json``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    sys.path[:0] = [str(ROOT / "src")]
    import numpy
    import midisync

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "offsets_backend": midisync.OFFSETS_BACKEND,
        "commit": commit,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"run_seconds": spec["run_seconds"], "seeds": len(SEEDS), "workloads": {}}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, spec["run_seconds"], 0) for seed in SEEDS]
        layers = run_once(workload, 1, spec["run_seconds"], 1)["metrics"]
        figures = {}
        print(f"{workload}:")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            flag = name != "setup_s" and spread > bound / 3
            steady &= not flag
            figures[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                             "unit": runs[0]["metrics"][name]["unit"]}
            print(f"  {name:<14} median {median:12.4f}  spread {spread:6.3f}  "
                  f"bound {bound:.2f}{'  NOT STEADY' if flag else ''}")
        record["workloads"][workload] = {
            "end_to_end": figures,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "per_layer_seed1": {k: m["value"] for k, m in layers.items()},
        }
    record["environment"] = environment()
    (ROOT / "perfbench" / "baseline.json").write_text(json.dumps(record, indent=2) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
