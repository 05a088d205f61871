"""Acceptance suite: every shipped criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all);
the sweeps come from :mod:`tmzv.sweeps` with their default ranges, which are
exactly the shipped ones.
"""

import time

from tmzv.sweeps import STATEMENTS, SweepArgs, run_statement


def _finish(name, reports, elapsed, limit=None):
    failures = [report for report in reports if not report.passed]
    over_time = limit is not None and elapsed >= limit
    status = "FAIL" if failures or over_time else "PASS"
    budget = f", limit {limit:.0f}s" if limit is not None else ""
    print(f"ACCEPTANCE {name}: {status} ({len(reports)} checks, {elapsed:.2f}s{budget})")
    assert not failures, failures[0].to_json_obj()
    if limit is not None:
        assert elapsed < limit, f"{name} took {elapsed:.2f}s (limit {limit}s)"


def test_criterion_01_recursive_expansion_sweep():
    started = time.perf_counter()
    reports = run_statement("recursive", max_size=3)
    _finish("01 recursive expansion sweep", reports, time.perf_counter() - started, limit=60)


def test_criterion_02_closed_form_sweep():
    started = time.perf_counter()
    reports = run_statement("closed-form", max_size=3)
    _finish("02 closed-form expansion sweep", reports, time.perf_counter() - started, limit=120)


def test_criterion_03_supporting_identity_sweeps():
    started = time.perf_counter()
    reports = (
        run_statement("power-product", max_size=3)
        + run_statement("head-tail", max_size=3)
        + run_statement("pivot", max_size=3)
        + run_statement("alternating", max_size=3)
    )
    _finish("03 supporting identity sweeps", reports, time.perf_counter() - started)


def test_criterion_04_combinatorial_oracle():
    started = time.perf_counter()
    reports = run_statement("combinatorial", max_size=3)
    _finish("04 combinatorial oracle", reports, time.perf_counter() - started)


def test_criterion_05_t0_reduction():
    started = time.perf_counter()
    reports = run_statement("t0-reduction", max_size=3)
    _finish("05 t=0 reduction vs classical product", reports, time.perf_counter() - started)


def test_criterion_06_zeta_closed_forms():
    statement = STATEMENTS["zeta-formulas"]
    started = time.perf_counter()
    reports = []
    for params in statement.grid(SweepArgs()):
        check_started = time.perf_counter()
        reports.append(statement.check(**params))
        seconds = time.perf_counter() - check_started
        assert seconds < 1.0, (params, seconds)
    _finish("06 truncated zeta closed forms", reports, time.perf_counter() - started)


def test_criterion_07_box_map_agreement():
    started = time.perf_counter()
    reports = run_statement("box-map")
    _finish("07 contraction/map agreement", reports, time.perf_counter() - started)


def test_criterion_08_decomposition_numeric():
    started = time.perf_counter()
    reports = run_statement("decomposition", cutoff=100_000)
    _finish("08 numeric decomposition", reports, time.perf_counter() - started)


def test_criterion_09_exact_scalar_identities():
    started = time.perf_counter()
    reports = run_statement("factorial") + run_statement("gaussian")
    _finish("09 exact scalar identities", reports, time.perf_counter() - started, limit=1)


def test_criterion_10_randomized_property_suites():
    started = time.perf_counter()
    reports = run_statement("properties", seed=0, cases=1000)
    for report in reports:
        assert report.params["cases"] >= 1000
    _finish("10 randomized property suites", reports, time.perf_counter() - started)
