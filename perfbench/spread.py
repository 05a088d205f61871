"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload numeric-eval --seeds 1-10 [--out FILE]

Runs ``run.py`` once per seed, one after another, and prints for each
metric the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread, which is the distance between the quartiles as a share of the
median. ``--out`` stores the summary, with the environment of the runs,
under the workload's name in a JSON file such as ``baseline.json``; the
other workloads in that file are kept.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for piece in text.split(","):
        lo, _, hi = piece.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description="run-to-run spread over seeds")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    runs = []
    for seed in parse_seeds(args.seeds):
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=200,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        line["seed"], line["elapsed_s"] = seed, time.monotonic() - started
        record = json.loads((HERE / "results" / f"{args.workload}-seed{seed}-trace0.json").read_text())
        line["env"] = record["env"]
        runs.append(line)
        values = " ".join(f"{k}={v['value']:.5g}" for k, v in line["metrics"].items())
        print(f"seed {seed:3d} {line['elapsed_s']:6.1f}s correct={line['correct']} "
              f"failed={line['failed']}/{line['attempted']} {values}", flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    env = {k: v for k, v in runs[0]["env"].items() if k != "seed"}
    summary = {"seconds": seconds, "seeds": [r["seed"] for r in runs], "env": env, "metrics": {}}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        summary["metrics"][name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                                    "bound": bounds[name]}
        print(f"{name:16s} median {median:10.5g}  q1 {q1:10.5g}  q3 {q3:10.5g}  "
              f"spread {spread:.4f}  bound {bounds[name]}")
    summary["attempted"] = sum(r["attempted"] for r in runs)
    summary["failed"] = sum(r["failed"] for r in runs)
    summary["run_wall_s"] = [round(r["elapsed_s"], 1) for r in runs]
    if args.out:
        stored = json.loads(args.out.read_text()) if args.out.exists() else {}
        stored[args.workload] = summary
        args.out.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
