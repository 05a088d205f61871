"""One measured pass of one workload, in a fresh interpreter.

Started by ``run.py`` with ``PYTHONPATH=src``; prints one JSON object on
its last stdout line. A single client drives the package in a closed loop
from this one thread. Outputs are checked outside the timed region, with the
tracer paused, and every wrong output counts as a failed op.

Workloads:

* ``verify-all``: ``tmzv verify all --max 3 --json`` through ``cli.main``;
  the reports are compared with a stored reference. One op is one check.
* ``product-stream``: rounds of seeded single products, each done as
  ``tmzv product --json`` does it. Memos are cleared at the start of each
  round and kept through it. Each round draws its own requests from the
  seed and the round's number, and is checked as soon as it ends.
* ``numeric-eval``: rounds of seeded ``mzv`` / ``mzv_star`` /
  ``zeta_t_boxes`` / ``z_t_eval`` requests at cutoff 1e5, memo cleared at
  the start of each round. Its rounds are identical.

Rounds repeat until their measured time reaches ``--seconds`` and they hold
MIN_SAMPLES latencies (``--rounds`` fixes their number instead).
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import calibration
import tracing

perf_counter = time.perf_counter
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "verify_all_reference.json.gz"
VERIFY_ARGV = ["verify", "all", "--max", "3", "--json"]

PRODUCT_DEPTHS = range(1, 6)
PRODUCT_MAX_PART = 4
PRODUCT_COPIES = 5  # of each (left depth, right depth, op) class per round
PRODUCT_SPECIALISED = 4  # one request in this many is specialised at a rational t

NUMERIC_CUTOFF = 100_000
NUMERIC_MAX_WEIGHT = 10
NUMERIC_MAX_DEPTH = 5
# requests per index; the mix puts the median latency inside the cluster of
# st hits, not on an edge between two clusters
NUMERIC_REPEATS = {"mzv": 1, "mzv_star": 1, "boxes": 2, "st": 4}
NUMERIC_REL_TOL = 1e-10

# The 99th percentile needs ten samples beyond it.
MIN_SAMPLES = 1000


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quantile(samples: list[float], q: int) -> float:
    """The q-th percentile (inclusive method) of at least two samples."""
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def timing_stats(rounds: list[list[float]]) -> dict:
    """Throughput is the median over rounds of ops per second of op time;
    latency percentiles pool every op of every round."""
    pooled = [x for lat in rounds for x in lat]
    return {
        "ops_per_s": statistics.median(len(lat) / sum(lat) for lat in rounds),
        "latency_p50_ms": quantile(pooled, 50) * 1e3,
        "latency_p99_ms": quantile(pooled, 99) * 1e3,
    }


def summarise(latencies: list[list[tuple[float, int]]], walls: list[float], clock) -> dict:
    """Scaled timing metrics, with the raw ones beside them under "raw"."""
    scaled = [[clock.scale(sec, window) for sec, window in lat] for lat in latencies]
    raw = [[sec for sec, _ in lat] for lat in latencies]
    result = timing_stats(scaled)
    result.update(
        rounds=len(latencies),
        latency_samples=sum(len(lat) for lat in latencies),
        wall_s=sum(walls),
        raw=timing_stats(raw),
        kernel_slices=len(clock.slices),
        kernel_median_s=statistics.median(clock.slices) if clock.slices else None,
    )
    return result


def run_rounds(run_round, args, clock, after_round=None) -> tuple[list, list, list]:
    """Call ``run_round(round_number)`` until the rounds have taken
    ``--seconds`` and hold MIN_SAMPLES latencies, or exactly ``--rounds``
    times when that is positive. ``after_round(output)`` runs after each
    round, outside its measured time."""
    latencies, outputs, walls = [], [], []
    while True:
        clock.sample()
        round_start = perf_counter()
        lat, out = run_round(len(latencies))
        walls.append(perf_counter() - round_start)
        clock.sample()
        latencies.append(lat)
        outputs.append(out)
        if after_round is not None:
            after_round(out)
        if args.rounds > 0:
            if len(latencies) >= args.rounds:
                break
        elif sum(walls) >= args.seconds and sum(map(len, latencies)) >= MIN_SAMPLES:
            break
    return latencies, outputs, walls


# ---------------------------------------------------------------------------
# verify-all


def load_reference() -> list[dict]:
    with gzip.open(REFERENCE, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def mask_timing(reports: list) -> list:
    """Drop the wall-clock ``seconds`` field that some sweeps put in params."""
    for report in reports:
        params = report.get("params") if isinstance(report, dict) else None
        if isinstance(params, dict):
            params.pop("seconds", None)
    return reports


def witness_ok(got, want) -> bool:
    """Witnesses equal, except that a numeric report's float values may move
    within the report's own tolerance: a faster evaluator may change their
    last bits and still pass."""
    tol = want.get("tolerance") if isinstance(want, dict) else None
    if not isinstance(tol, float) or not isinstance(got, dict) or got.get("tolerance") != tol:
        return got == want
    return got.keys() >= want.keys() and all(
        abs(got[key] - value) <= tol
        if isinstance(value, float) and isinstance(got[key], float)
        else got[key] == value
        for key, value in want.items()
    )


def report_ok(got, want: dict) -> bool:
    """A passed report equal to the reference in every field the reference
    has; fields it lacks (run statistics, say) are allowed."""
    return (
        isinstance(got, dict)
        and got.get("passed") is True
        and all(
            witness_ok(got.get(key), value) if key == "witness" else got.get(key) == value
            for key, value in want.items()
        )
    )


def verify_all(args, tracer, clock) -> dict:
    from tmzv import cli
    from tmzv.identities import VerifyReport

    # Kernel slices go between checks: a check ends when its report is built.
    init = VerifyReport.__init__

    def report_init(self, *a, **k):
        init(self, *a, **k)
        clock.maybe_sample()

    VerifyReport.__init__ = report_init
    if tracer is not None:
        tracing.instrument(tracer)

    buf = io.StringIO()
    clock.sample()
    started = perf_counter()
    with redirect_stdout(buf):
        code = cli.main(list(VERIFY_ARGV))
    ended = perf_counter()
    rss = peak_rss_mb()
    clock.sample()
    if tracer is not None:
        tracer.paused = True
    text = buf.getvalue()

    reference = load_reference()
    try:
        reports = json.loads(text)
    except json.JSONDecodeError:
        reports = []
    reports = mask_timing(reports if isinstance(reports, list) else [])
    attempted = max(len(reference), len(reports))
    failed = abs(len(reference) - len(reports))
    failed += sum(1 for got, want in zip(reports, reference) if not report_ok(got, want))
    if code != 0 and failed == 0:
        failed = 1

    # The command is the request: its reports are printed together when it
    # ends, so its latency is the command's time, one sample per run.
    slices = sum(b - a for a, b in clock.bounds if started <= a < ended) if clock.slices else 0.0

    def stats(seconds: float) -> dict:
        return {"ops_per_s": len(reports) / seconds,
                "latency_p50_ms": seconds * 1e3, "latency_p99_ms": seconds * 1e3}

    result = stats(clock.scale_interval(started, ended))
    result.update(
        raw=stats(ended - started - slices),
        rounds=1,
        latency_samples=1,
        wall_s=ended - started,
        kernel_slices=len(clock.slices),
        kernel_median_s=statistics.median(clock.slices) if clock.slices else None,
    )
    result.update(peak_rss_mb=rss, attempted=attempted, failed=failed, exit_code=code)
    if tracer is not None:
        result["per_layer"] = layer_metrics(tracer, output_bytes=len(text.encode()))
    return result


def make_reference() -> None:
    """Write the verify-all reference from the current package."""
    from tmzv import cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(VERIFY_ARGV))
    if code != 0:
        raise SystemExit(f"verify all exited {code}; not writing a reference")
    reports = mask_timing(json.loads(buf.getvalue()))
    with gzip.GzipFile(REFERENCE, "wb", mtime=0) as fh:
        fh.write(json.dumps(reports, sort_keys=True).encode())
    print(f"wrote {len(reports)} reports to {REFERENCE.name}")


# ---------------------------------------------------------------------------
# product-stream


def product_requests(seed: int, round_number: int) -> list[tuple[str, tuple, tuple, Fraction | None]]:
    """Every (left depth, right depth, op) class PRODUCT_COPIES times, in a
    seeded order, with seeded parts. No unordered index pair repeats within
    an op, so no request is a whole-product memo hit. Each round draws anew:
    a run's latency tail then spans more distinct heavy products than
    repeating one round would give."""
    rng = random.Random(f"product-stream:{seed}:{round_number}")
    classes = [
        (d1, d2, op)
        for d1 in PRODUCT_DEPTHS
        for d2 in PRODUCT_DEPTHS
        for op in ("t", "o")
    ] * PRODUCT_COPIES
    rng.shuffle(classes)
    specialised = set(rng.sample(range(len(classes)), len(classes) // PRODUCT_SPECIALISED))
    seen = set()
    requests = []
    for i, (d1, d2, op) in enumerate(classes):
        for _ in range(10_000):
            a = tuple(rng.randint(1, PRODUCT_MAX_PART) for _ in range(d1))
            b = tuple(rng.randint(1, PRODUCT_MAX_PART) for _ in range(d2))
            key = (op, min(a, b), max(a, b))
            if key not in seen:
                break
        else:
            raise ValueError(f"too few distinct index pairs of depths {d1} and {d2}")
        seen.add(key)
        t0 = Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if i in specialised else None
        requests.append((op, a, b, t0))
    return requests


def serve_product(products, words, op, a, b, t0):
    """One request as ``tmzv product --json`` serves it; returns the
    product, the served element and the printed text."""
    product = products.stuffle_t if op == "t" else products.stuffle_o
    elem = product(words.word_of_index(a), words.word_of_index(b))
    served = elem if t0 is None else elem.eval_at(t0)
    return elem, served, json.dumps(served.to_json_obj(), sort_keys=True)


def product_stream(args, tracer, clock) -> dict:
    from tmzv import products, words
    from tmzv.words import Element

    if tracer is not None:
        tracing.instrument(tracer)
    out_bytes = [0]
    peak_rss = []
    failed = [0]

    def run_round(number):
        requests = product_requests(args.seed, number)
        products.clear_caches()
        gc.collect()  # each round starts without the last one's garbage
        lat, digests = [], []
        for op, a, b, t0 in requests:
            start = perf_counter()
            _, _, text = serve_product(products, words, op, a, b, t0)
            lat.append((perf_counter() - start, clock.window))
            digests.append(hashlib.sha256(text.encode()).digest())
            out_bytes[0] += len(text)
            clock.maybe_sample()
        return lat, (requests, digests)

    def check_round(output):
        """Serve the round again from its memo, and check every product
        against the independent implementations."""
        if not peak_rss:
            peak_rss.append(peak_rss_mb())  # before any check has run
        if tracer is not None:
            tracer.paused = True
        requests, digests = output
        for (op, a, b, t0), digest in zip(requests, digests):
            elem, served, text = serve_product(products, words, op, a, b, t0)
            ok = hashlib.sha256(text.encode()).digest() == digest
            ok = ok and Element.from_json_obj(json.loads(text)) == served
            if op == "t":
                ok = ok and elem == products.stuffle_combinatorial(a, b)
            else:
                ok = ok and elem.eval_at(Fraction(0)) == products.stuffle_classical(a, b)
            failed[0] += not ok
        if tracer is not None:
            tracer.paused = False

    latencies, outputs, walls = run_rounds(run_round, args, clock, check_round)
    result = summarise(latencies, walls, clock)
    result["peak_rss_mb"] = peak_rss[0]
    if tracer is not None:
        result["per_layer"] = layer_metrics(tracer, out_bytes[0])
    result["attempted"] = sum(len(requests) for requests, _ in outputs)
    result["failed"] = failed[0]
    return result


# ---------------------------------------------------------------------------
# numeric-eval


def admissible_indices(max_weight: int, max_depth: int) -> list[tuple[int, ...]]:
    """Indices with first part >= 2, weight <= max_weight, depth <= max_depth."""
    out = []

    def extend(prefix: tuple[int, ...], remaining: int) -> None:
        if prefix:
            out.append(prefix)
        if len(prefix) == max_depth:
            return
        for part in range(2 if not prefix else 1, remaining + 1):
            extend(prefix + (part,), remaining - part)

    extend((), max_weight)
    return out


def numeric_requests(seed: int) -> list[tuple[str, tuple, float]]:
    """Every admissible index NUMERIC_REPEATS[op] times with each op. For
    ``boxes`` and ``st`` one request is at t0 = 0 or 1 (the endpoint
    checks) and the rest at seeded t0 in [-1, 1]. Depth ascends and the
    order within a depth is seeded, so every contraction of an index is
    cached before the index is asked for and a request misses the memo at
    most once."""
    rng = random.Random(f"numeric-eval:{seed}")
    by_depth: dict[int, list] = {}
    for idx in admissible_indices(NUMERIC_MAX_WEIGHT, NUMERIC_MAX_DEPTH):
        batch = by_depth.setdefault(len(idx), [])
        for op, repeats in NUMERIC_REPEATS.items():
            if op in ("mzv", "mzv_star"):
                batch += [(op, idx, 0.0)] * repeats
            else:
                batch.append((op, idx, float(rng.randint(0, 1))))
                batch += [(op, idx, rng.uniform(-1.0, 1.0)) for _ in range(repeats - 1)]
    requests = []
    for depth in sorted(by_depth):
        rng.shuffle(by_depth[depth])
        requests += by_depth[depth]
    return requests


def evaluate(zeta, words, op: str, idx: tuple, t0: float) -> float:
    cfg = zeta.EvalConfig(NUMERIC_CUTOFF, t0)
    if op == "mzv":
        return zeta.mzv(idx, cfg)
    if op == "mzv_star":
        return zeta.mzv_star(idx, cfg)
    if op == "boxes":
        return zeta.zeta_t_boxes(idx, cfg)
    return zeta.z_t_eval(words.word_of_index(idx), cfg)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= NUMERIC_REL_TOL * max(1.0, abs(a), abs(b))


def numeric_eval(args, tracer, clock) -> dict:
    from tmzv import words, zeta

    requests = numeric_requests(args.seed)
    if tracer is not None:
        tracing.instrument(tracer)

    def run_round(number):
        zeta.clear_cache()
        lat, values = [], []
        for op, idx, t0 in requests:
            start = perf_counter()
            value = evaluate(zeta, words, op, idx, t0)
            lat.append((perf_counter() - start, clock.window))
            values.append(value)
            clock.maybe_sample()
        return lat, values

    latencies, values, walls = run_rounds(run_round, args, clock)
    result = summarise(latencies, walls, clock)
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        result["per_layer"] = layer_metrics(tracer, 0)
        tracer.paused = True

    failed = 0
    for i, (op, idx, t0) in enumerate(requests):
        value = values[0][i]
        if op in ("boxes", "st"):
            other = evaluate(zeta, words, "st" if op == "boxes" else "boxes", idx, t0)
            ok = close(value, other)
            if t0 == 0.0:
                ok = ok and close(value, evaluate(zeta, words, "mzv", idx, t0))
            elif t0 == 1.0:
                ok = ok and close(value, evaluate(zeta, words, "mzv_star", idx, t0))
        else:
            ok = close(value, evaluate(zeta, words, "boxes", idx, 0.0 if op == "mzv" else 1.0))
        failed += sum(1 for rnd in values if not ok or rnd[i] != value)
    result["attempted"] = len(requests) * len(values)
    result["failed"] = failed
    return result


# ---------------------------------------------------------------------------


def layer_metrics(tracer: tracing.Tracer, output_bytes: int) -> dict[str, float]:
    counts = tracer.counts

    def calls(name):
        return tracer.span_value(name, 0)

    def secs(name):
        return tracer.span_value(name, 1)

    def self_s(name):
        return tracer.span_value(name, 2)

    mul_calls = calls("exact.tpoly_mul")
    out = {
        "exact.tpoly_mul.calls": mul_calls,
        "exact.tpoly_mul.s": secs("exact.tpoly_mul"),
        "exact.tpoly_mul.unit_ratio": counts["exact.tpoly_mul.unit"] / mul_calls if mul_calls else 0.0,
        "exact.tpoly_add.calls": counts["exact.tpoly_add"],
        "products.combinatorial.s": secs("products.combinatorial"),
        "products.classical.s": secs("products.classical"),
        "products.terms_out": counts["products.terms_out"],
        "words.element_eq.calls": calls("words.element_eq"),
        "words.element_eq.s": secs("words.element_eq"),
        "words.eval_at.s": secs("words.eval_at"),
        "words.to_json.s": secs("words.to_json"),
        "identities.rhs.calls": calls("identities.rhs"),
        "identities.rhs.s": secs("identities.rhs"),
        "identities.rhs.self_s": self_s("identities.rhs"),
        "identities.pivot_rhs.s": secs("identities.pivot_rhs"),
        "identities.recursive_rhs.s": secs("identities.recursive_rhs"),
        "identities.closed_form_rhs.s": secs("identities.closed_form_rhs"),
        "identities.compare.s": secs("identities.compare"),
        "sweeps.checks": counts["sweeps.checks"],
        "cli.self_s": self_s("cli"),
        "cli.output_bytes": output_bytes,
        "interpolation.s_t.calls": calls("interpolation.s_t"),
        "interpolation.s_t.s": secs("interpolation.s_t"),
        "interpolation.s_t.terms_out": counts["interpolation.s_t.terms_out"],
        "zeta.mzv.s": secs("zeta.mzv"),
        "zeta.mzv_star.s": secs("zeta.mzv_star"),
        "zeta.boxes.s": secs("zeta.boxes"),
        "zeta.z_t_eval.s": secs("zeta.z_t_eval"),
    }
    for product in ("stuffle_t", "stuffle_o"):
        name = f"products.{product}"
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.s"] = secs(name)
        out[f"{name}.self_s"] = self_s(name)
    for sweep in tracing.SWEEP_NAMES:
        out[f"sweeps.{sweep}.s"] = secs(f"sweeps.{sweep}")
    out.update(tracing.memo_stats(tracer))
    return out


def environment(seed: int) -> dict:
    import numpy
    import tmzv

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "tmzv": getattr(tmzv, "__version__", "unknown"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
        "TMZV_THREADS": os.environ.get("TMZV_THREADS", "unset"),
    }


WORKLOADS = {
    "verify-all": verify_all,
    "product-stream": product_stream,
    "numeric-eval": numeric_eval,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--rounds", type=int, default=0, help="fixed round count (0: until --seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-reference", action="store_true", help="rewrite the verify-all reference")
    args = parser.parse_args()
    if args.make_reference:
        make_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    tracer = tracing.Tracer() if args.trace else None
    # Only a run measured for --seconds takes kernel slices: a fixed-round
    # pass is a traced pass or its untraced twin, whose spans must hold none.
    clock = calibration.SpeedClock() if args.rounds == 0 else calibration.RawClock()
    result = WORKLOADS[args.workload](args, tracer, clock)
    result["workload"] = args.workload
    result["env"] = environment(args.seed)
    if tracer is not None:
        result["absent"] = sorted(set(tracer.absent))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
