"""Record the benchmark's numbers for the default and the held-out seed.

    python3 perfbench/record_baseline.py [--seconds 44]

Runs every workload on seed 0 (the default) and seed 1 (held out), once
untraced and once traced, one run at a time, and writes the end-to-end
and per-layer metrics to ``perfbench/baseline.json``.  Takes about
twelve times ``--seconds``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

from common import HERE, ROOT
from run import WORKLOADS

SEEDS = {"0": "default", "1": "held-out"}


def run_once(workload: str, seed: str, seconds: str, trace: str) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", seed,
         "--seconds", seconds, "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[1:3]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", default="44")
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json") as fh:
        why = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}
    out = {
        "machine": f"{platform.machine()}, {os.cpu_count()} cores, "
                   f"{platform.python_implementation()} {platform.python_version()}",
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds} "
                   "--trace 0|1",
        "seeds": SEEDS,
        "workloads": {},
    }
    for workload in WORKLOADS:
        entry = {"why": why[workload]}
        for seed in SEEDS:
            e2e, notes = run_once(workload, seed, args.seconds, "0")
            layers, _ = run_once(workload, seed, args.seconds, "1")
            entry[seed] = {
                "correct": e2e["correct"] and layers["correct"],
                "attempted": e2e["attempted"] + layers["attempted"],
                "failed": e2e["failed"] + layers["failed"],
                "notes": notes,
                "end_to_end": {k: v["value"] for k, v in e2e["metrics"].items()},
                "per_layer": {k: v["value"] for k, v in layers["metrics"].items()},
            }
            print(workload, seed, entry[seed]["correct"], flush=True)
        out["workloads"][workload] = entry
    with open(HERE / "baseline.json", "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
