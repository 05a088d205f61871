"""Sweep plumbing: ranges, the statement registry, failure paths."""

import dataclasses
import json
import re
import sys
from pathlib import Path

import pytest

from tmzv.cli import main
from tmzv.exact import POLY_ONE
from tmzv.identities import VerifyReport, _compositions
from tmzv.products import stuffle_o
from tmzv.sweeps import STATEMENTS, SweepArgs, admissible_indices, indices_up_to, run_statement
from tmzv.words import Element
from tmzv.zeta import clear_cache


class TestRanges:
    def test_recursive_default_count(self):
        # m, u, p in {1..3} and n, v in {0..3}
        assert len(run_statement("recursive", max_size=3)) == 3 * 3 * 3 * 4 * 4

    def test_head_tail_default_count(self):
        # head in {2,3}, p in {1,2}, k in {0..2}, m in {0..4}
        assert len(run_statement("head-tail", max_size=3)) == 2 * 2 * 3 * 5

    def test_alternating_default_range(self):
        reports = run_statement("alternating", max_size=3)
        ks = {r.params["k"] for r in reports if r.statement == "alternating"}
        ps = {r.params["p"] for r in reports if r.statement == "alternating"}
        assert ks == set(range(1, 9))
        assert ps == {1, 2}

    def test_indices_enumeration_is_deterministic(self):
        first = list(indices_up_to(2, 2, include_empty=True))
        assert first == [(), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]


def recursive_compositions(total, length):
    if length == 0:
        if total == 0:
            yield ()
        return
    for first in range(1, total - (length - 1) + 1):
        for rest in recursive_compositions(total - first, length - 1):
            yield (first,) + rest


def recursive_admissible_indices(max_weight, max_depth):
    def extend(prefix, remaining):
        if prefix:
            yield prefix
        if len(prefix) == max_depth:
            return
        for part in range(2 if not prefix else 1, remaining + 1):
            yield from extend(prefix + (part,), remaining - part)

    yield from extend((), max_weight)


class TestEnumerations:
    """The enumerations keep the order of their recursive definitions
    without recursing."""

    def test_compositions_match_recursive_reference(self):
        for total in range(9):
            for length in range(9):
                got = list(_compositions(total, length))
                assert got == list(recursive_compositions(total, length)), (total, length)

    def test_admissible_indices_match_recursive_reference(self):
        for max_weight in range(10):
            for max_depth in range(6):
                got = list(admissible_indices(max_weight, max_depth))
                assert got == list(recursive_admissible_indices(max_weight, max_depth))

    def test_compositions_longer_than_the_recursion_limit(self):
        assert sys.getrecursionlimit() < 1100
        assert list(_compositions(1100, 1100)) == [(1,) * 1100]
        assert list(_compositions(1099, 1100)) == []
        assert list(_compositions(1101, 1100)) == [
            (1,) * i + (2,) + (1,) * (1099 - i) for i in range(1099, -1, -1)
        ]


class TestRegistry:
    def test_every_statement_dispatches(self):
        for name in STATEMENTS:
            if name in ("box-map", "decomposition"):
                continue  # exercised in the acceptance suite at full cutoff
            reports = run_statement(name, max_size=1, cases=5)
            assert reports and all(isinstance(r, VerifyReport) for r in reports)

    def test_numeric_cutoff_override(self):
        reports = run_statement("decomposition", cutoff=1_000)
        assert all(r.passed for r in reports)
        assert all(r.params["cutoff"] == 1_000 for r in reports)

    @pytest.mark.parametrize("name", [name for name, s in STATEMENTS.items() if s.needs])
    def test_single_instance_matches_sweep(self, capsys, name):
        # the single-instance verify at the first --max 1 grid point reports
        # what the sweep reports there
        params = STATEMENTS[name].grid(SweepArgs(max_size=1))[0]
        argv = ["verify", name, "--json"]
        plain = []
        for key, value in params.items():
            if key in ("left", "right"):
                argv += [f"--{key}", ",".join(map(str, value))]
            elif key == "t0":
                argv += ["--t", repr(value)]
            elif key == "cutoff":
                argv += ["--cutoff", str(value)]
            else:
                plain.append(f"{key}={value}")
        if plain:
            argv += ["--params", ",".join(plain)]
        assert main(argv) == 0
        single = json.loads(capsys.readouterr().out)
        assert single == [run_statement(name, max_size=1)[0].to_json_obj()]

    def test_readme_lists_every_statement(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Verification statements", 1)[1]
        accepted = section.split("accepts:", 1)[1].split("or `all`", 1)[0]
        assert re.findall(r"`([^`]+)`", accepted) == list(STATEMENTS)

    def test_zeta_formulas_json_is_deterministic(self, capsys):
        outputs = []
        for _ in range(2):
            clear_cache()
            assert main(["verify", "zeta-formulas", "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestFailurePaths:
    def test_verify_exit_code_on_failure(self, capsys, monkeypatch):
        import tmzv.sweeps as sweeps

        def fake_check(m, u, p, n, v):
            return VerifyReport(
                "recursive", {"m": m}, False, {"lhs": {"terms": []}, "rhs": {"terms": []}}
            )

        entry = dataclasses.replace(sweeps.STATEMENTS["recursive"], check=fake_check)
        monkeypatch.setitem(sweeps.STATEMENTS, "recursive", entry)
        code = main(["verify", "recursive", "--params", "m=2,u=2,p=1,n=1,v=0"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out

    def test_sweep_failure_prints_first_witness(self, capsys, monkeypatch):
        import tmzv.sweeps as sweeps

        bad = VerifyReport("factorial", {"k": 2}, False, {"lhs": "0", "rhs": "1"})
        entry = dataclasses.replace(
            sweeps.STATEMENTS["factorial"], check=lambda: bad, grid=lambda args: [{}]
        )
        monkeypatch.setitem(sweeps.STATEMENTS, "factorial", entry)
        code = main(["verify", "factorial"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FIRST FAILURE" in out
        assert json.loads(out.splitlines()[-1]) == {"lhs": "0", "rhs": "1"}

    def test_roundtrip_law_catches_order_dependent_text(self, monkeypatch):
        # text in term insertion order changes over the JSON round trip, which
        # inserts the terms in canonical order
        def insertion_order_text(self):
            return " + ".join(f"({coeff}) {word}" for word, coeff in self.items())

        monkeypatch.setattr(Element, "to_text", insertion_order_text)
        reports = run_statement("properties", cases=200)
        roundtrip = next(r for r in reports if r.statement == "properties:roundtrip")
        assert not roundtrip.passed
        assert roundtrip.witness["law"] == "deterministic-text"

    def test_commutativity_law_catches_a_wrong_open_product(self, monkeypatch):
        # symmetric in its inputs but twice the open product
        import tmzv.sweeps as sweeps

        real = sweeps.stuffle_o
        monkeypatch.setattr(sweeps, "stuffle_o", lambda a, b: real(a, b).scale(2))
        reports = run_statement("properties", cases=20)
        law = next(r for r in reports if r.statement == "properties:commutativity")
        assert not law.passed
        assert law.witness["product"] == "open"

    def test_an_engine_defect_fails_properties_instead_of_raising(self, capsys, monkeypatch):
        # the open product is what the t-stuffle engine computes when its
        # x-run guard is always true: some product words then end in x
        import tmzv.sweeps as sweeps

        monkeypatch.setattr(sweeps, "stuffle_t", stuffle_o)
        reports = run_statement("properties", cases=200)
        assert [r.statement for r in reports] == [name for name, _ in sweeps._PROPERTIES]
        law = next(r for r in reports if r.statement == "properties:admissibility")
        assert not law.passed
        assert law.witness["word"].endswith("x")
        assert main(["verify", "properties", "--cases", "200"]) == 1
        assert "FIRST FAILURE" in capsys.readouterr().out

    def test_an_engine_defect_fails_decomposition_instead_of_raising(self, capsys, monkeypatch):
        # with the open product in the engine's place, decomposition meets an
        # x-ended word in its engine side: verify all fails, with exit 1
        import tmzv.identities as identities
        import tmzv.sweeps as sweeps

        monkeypatch.setattr(identities, "stuffle_t", stuffle_o)
        monkeypatch.setattr(sweeps, "stuffle_t", stuffle_o)
        assert main(["verify", "all", "--max", "2", "--json"]) == 1
        reports = json.loads(capsys.readouterr().out)
        failing = {r["statement"] for r in reports if not r["passed"]}
        assert len(failing) == 10 and "decomposition" in failing
        report = next(r for r in reports if r["statement"] == "decomposition" and not r["passed"])
        assert report["witness"] == {"side": "engine", "error": "word 'xxxx' is not admissible"}

    @pytest.mark.parametrize(
        "name, bad",
        [
            ("properties:admissibility", lambda word, n: not (word.startswith("x") and word.endswith("y"))),
            ("properties:weight", lambda word, n: len(word) != n),
        ],
    )
    def test_witness_is_the_first_bad_word_in_words_order(self, monkeypatch, name, bad):
        # bad words of several lengths, two of them of equal length, inserted
        # out of order: the witness is the one a scan of Element.words() meets first
        import tmzv.sweeps as sweeps

        def product(wa, wb):
            n = len(wa) + len(wb)
            words = ["y" * (n + 2), "xy" + "x" * n, "y" * (n + 1), "x" * (n + 1), "x" * n + "y",
                     "yx" + "y" * n, "y" * n, "x" * n]
            return Element._unsafe({word: POLY_ONE for word in words})

        monkeypatch.setattr(sweeps, "stuffle_t", product)
        report = next(r for r in run_statement("properties", cases=5) if r.statement == name)
        witness = report.witness
        n = sum(witness["left"]) + sum(witness["right"])
        words = product("x" * n, "").words()
        assert sum(bad(word, n) for word in words) >= 3
        assert witness["word"] == next(word for word in words if bad(word, n))
        assert witness["word"] == ("x" * n if name == "properties:admissibility" else "x" * (n + 1))
