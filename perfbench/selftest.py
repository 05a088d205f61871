"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [--workload NAME]

Checks that:

* ``BENCHMARK.json`` names only metrics the benchmark produces, and that
  every per-layer metric is produced by some workload's traced pass;
* the same seed gives the same inputs, and another seed other inputs;
* every count of the traced pass (each per-layer metric not measured in
  seconds) repeats exactly across two passes with the same seed. Only such
  counts may back a claim made on a count;
* the probes of private names report their metrics as absent, and do not
  fail, once those names are gone from the package.

Takes about two minutes for all workloads, most of it verify-all.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

END_TO_END = {"ops_per_s", "latency_p50_ms", "latency_p99_ms", "peak_rss_mb", "setup_s"}


def traced_pass(workload: str, seed: int) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--trace", "1", "--rounds", "1"]
    out = subprocess.run(argv, cwd=ROOT, env=run.child_env(), capture_output=True, text=True,
                         timeout=run.DEADLINE_S, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


PRIVATE_METRICS = {
    "products.memo.entries", "products.memo.entries_per_call", "zeta.memo.hit_ratio",
    "zeta.memo.misses", "zeta.terms_summed", "zeta.bytes_computed",
}


def check_absent_probes() -> list[str]:
    """Remove the private names the probes read, in this process only, and
    check that their metrics come out absent."""
    sys.path.insert(0, str(ROOT / "src"))
    from tmzv import products, zeta

    private = [(products, "_CACHE_T"), (products, "_CACHE_O"), (zeta, "_truncated")]
    saved = [(module, name, getattr(module, name)) for module, name in private]
    tracer = tracing.Tracer()
    try:
        for module, name in private:
            delattr(module, name)
        tracing._probe_truncated(tracer, zeta)
        produced = tracing.memo_stats(tracer)
    except Exception as exc:  # any failure of a probe is what this check reports
        return [f"a probe failed once private names were gone: {exc!r}"]
    finally:
        for module, name, value in saved:
            setattr(module, name, value)
    failures = [f"{name} was produced without its private name" for name in sorted(set(produced))]
    failures += [f"{name} was not marked absent" for name in sorted(PRIVATE_METRICS - set(tracer.absent))]
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark self-test")
    parser.add_argument("--workload", action="append", help="limit to these workloads")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    spec = run.load_spec()
    failures = []

    named = {m["name"] for m in spec["end_to_end"]}
    if named != END_TO_END:
        failures.append(f"end-to-end metrics {sorted(named)} differ from {sorted(END_TO_END)}")
    if set(w["name"] for w in spec["workloads"]) != set(worker.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from worker.WORKLOADS")

    failures += check_absent_probes()
    for name, make in (
        ("product_requests", lambda seed: worker.product_requests(seed, 0)),
        ("numeric_requests", worker.numeric_requests),
    ):
        if make(args.seed) != make(args.seed) or make(args.seed) == make(args.seed + 1):
            failures.append(f"{name} is not a function of the seed alone")
    if worker.product_requests(args.seed, 0) == worker.product_requests(args.seed, 1):
        failures.append("product_requests gives every round the same requests")

    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    produced: set[str] = {"trace.overhead_s"}
    for workload in args.workload or list(worker.WORKLOADS):
        first, second = traced_pass(workload, args.seed), traced_pass(workload, args.seed)
        layer = first["per_layer"]
        produced.update(layer)
        produced.update(first.get("absent", []))
        for name in sorted(set(layer) - set(units)):
            failures.append(f"{workload}: {name} is produced but not in BENCHMARK.json")
        counts = [n for n in layer if units.get(n) != "s"]
        for name in counts:
            if layer[name] != second["per_layer"].get(name):
                failures.append(f"{workload}: count {name} moved: {layer[name]} then "
                                f"{second['per_layer'].get(name)}")
        for result in (first, second):
            if result["failed"]:
                failures.append(f"{workload}: {result['failed']} wrong outputs")
        print(f"{workload}: {len(counts)} counts repeat" if not failures else f"{workload}: done")

    if not args.workload:
        for name in sorted(set(units) - produced):
            failures.append(f"{name} is in BENCHMARK.json but no workload produces it")
    for failure in failures:
        print("FAIL " + failure)
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
