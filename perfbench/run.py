"""tmzv benchmark: one command, one workload, one JSON line of metrics.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` (no install). With ``--trace 0`` the last stdout line carries every
end-to-end metric named in ``BENCHMARK.json``; with ``--trace 1`` every
per-layer metric, taken in a traced pass, plus the tracing overhead against
an untraced pass of the same work. A per-layer metric whose probe no
longer finds its name in the package is left out of the line and listed as
absent on stderr. A human-readable summary goes to stderr and the full
record, with the environment, to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
RESULTS = HERE / "results"
DEADLINE_S = 170.0  # the whole run, set-up included
SETUP_SAMPLES = 7

# Import of the CLI plus building its parser, in a fresh interpreter.
SETUP_PROBE = """
import contextlib, io, time
start = time.perf_counter()
import tmzv.cli
with contextlib.redirect_stdout(io.StringIO()):
    tmzv.cli.main(["--help"])
print(time.perf_counter() - start)
"""


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("TMZV_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv: list[str], deadline: float) -> str:
    """Run a child to completion within the run's deadline; return stdout."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting " + " ".join(argv[1:3]))
    with subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    ) as proc:
        try:
            out, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"child exceeded the {DEADLINE_S:.0f} s deadline: {argv[1:]}")
    if proc.returncode != 0:
        raise BenchError(f"child failed with exit {proc.returncode}: {err.strip()[-2000:]}")
    return out


def timed_child(code: str, deadline: float) -> float:
    return float(run_child([sys.executable, "-c", code], deadline).split()[-1])


def measure_setup(deadline: float) -> tuple[list[float], list[float]]:
    """Scaled and raw set-up samples in seconds. Reference imports run
    before, between and after the set-up samples, and each sample is
    scaled by the two around it (see calibration.py). The first interpreter
    only warms the bytecode cache and is discarded."""
    timed_child(SETUP_PROBE, deadline)
    refs = [timed_child(calibration.IMPORT_PROBE, deadline)]
    raw = []
    for _ in range(SETUP_SAMPLES):
        raw.append(timed_child(SETUP_PROBE, deadline))
        refs.append(timed_child(calibration.IMPORT_PROBE, deadline))
    scaled = [
        sec * 2 * calibration.REFERENCE_IMPORT_S / (refs[i] + refs[i + 1])
        for i, sec in enumerate(raw)
    ]
    return scaled, raw


def run_worker(args, trace: int, rounds: int, deadline: float) -> dict:
    argv = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--rounds", str(rounds),
    ]
    lines = run_child(argv, deadline).strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def load_spec() -> dict:
    if not SPEC.is_file():
        raise BenchError(f"{SPEC.name} not found at the checkout root")
    return json.loads(SPEC.read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description="tmzv benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {names}")
        if not (ROOT / "src" / "tmzv" / "__init__.py").is_file():
            raise BenchError("src/tmzv not found: run from the root of a tmzv checkout")
        if args.trace:
            # one round each, so counts do not depend on speed; a fixed
            # round count also means no kernel slices, which would fall
            # inside spans
            plain = run_worker(args, 0, 1, deadline)
            traced = run_worker(args, 1, 1, deadline)
            values = dict(traced["per_layer"])
            values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
            wanted = spec["per_layer"]
            record = {"untraced": plain, "traced": traced}
            runs = (plain, traced)
            absent = traced.get("absent", [])
        else:
            setup, setup_raw = measure_setup(deadline)
            plain = run_worker(args, 0, 0, deadline)
            values = {k: plain[k] for k in ("ops_per_s", "latency_p50_ms", "latency_p99_ms", "peak_rss_mb")}
            values["setup_s"] = statistics.median(setup)
            plain["raw"]["setup_s"] = statistics.median(setup_raw)
            wanted = spec["end_to_end"]
            record = {"run": plain, "setup_samples_s": setup, "setup_raw_samples_s": setup_raw}
            runs = (plain,)
            absent = []
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name in values:
            metrics[name] = {"value": values[name], "unit": metric["unit"]}
        elif name not in absent:
            print(f"perfbench: metric {name} was not produced", file=sys.stderr)
            return 1
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    env = dict(plain["env"], caller_TMZV_THREADS=os.environ.get("TMZV_THREADS", "unset"))
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  env=env, absent=absent, result=line)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  rounds {plain['rounds']}  "
          f"ops {attempted}  failed {failed}  error_rate {failed / attempted:.6g}", file=sys.stderr)
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()), file=sys.stderr)
    raw = plain.get("raw", {}) if not args.trace else {}
    for name, m in metrics.items():
        note = f"   (raw {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}{note}", file=sys.stderr)
    if absent:
        print("absent " + " ".join(absent), file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
