"""CLI behavior: output formats, determinism, exit codes."""

import json

import pytest

from tmzv.cli import main
from tmzv.products import stuffle_t
from tmzv.words import Element
from tmzv.zeta import EvalConfig, mzv


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestProduct:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "product", "--left", "2,1", "--right", "3", "--op", "t")
        assert code == 0
        assert out.strip() == stuffle_t("xyy", "xxy").to_text()

    def test_deterministic(self, capsys):
        first = run(capsys, "product", "--left", "2,2", "--right", "1,3")
        second = run(capsys, "product", "--left", "2,2", "--right", "1,3")
        assert first == second

    def test_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "product", "--left", "2,1", "--right", "3", "--json")
        assert code == 0
        assert Element.from_json_obj(json.loads(out)) == stuffle_t("xyy", "xxy")

    def test_classical_op(self, capsys):
        code, out, _ = run(capsys, "product", "--left", "2", "--right", "3", "--op", "classical")
        assert code == 0
        assert "z5" in out

    def test_exact_specialization(self, capsys):
        # at t = 1/2 the (1 - 2t) merge term vanishes
        code, out, _ = run(capsys, "product", "--left", "2", "--right", "3", "--t", "1/2")
        assert code == 0
        assert "z5" not in out

    def test_empty_index(self, capsys):
        code, out, _ = run(capsys, "product", "--left", "", "--right", "2")
        assert code == 0
        assert out.strip() == "(1) z2"

    def test_malformed_index(self, capsys):
        code, _, err = run(capsys, "product", "--left", "2,0,1", "--right", "3")
        assert code == 2
        assert "malformed" in err


class TestSt:
    def test_output(self, capsys):
        code, out, _ = run(capsys, "st", "--word", "xyy")
        assert code == 0
        assert out.strip() == "(t) z3 + (1) z2 z1"

    def test_bad_word(self, capsys):
        code, _, err = run(capsys, "st", "--word", "xz")
        assert code == 2
        assert "alphabet" in err


class TestZeta:
    def test_twelve_significant_digits(self, capsys):
        code, out, _ = run(capsys, "zeta", "--index", "2", "--cutoff", "100000")
        assert code == 0
        value = mzv((2,), EvalConfig(100_000))
        assert out.strip() == f"{value:.12g}"
        assert out.startswith("1.644924")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "zeta", "--index", "2,1", "--cutoff", "1000", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["index"] == [2, 1]
        assert payload["cutoff"] == 1000
        assert payload["value"] == pytest.approx(mzv((2, 1), EvalConfig(1000)), abs=0)

    def test_divergent_index(self, capsys):
        code, _, err = run(capsys, "zeta", "--index", "1,2", "--cutoff", "100")
        assert code == 2
        assert "admissible" in err

    def test_star(self, capsys):
        code, out, _ = run(capsys, "zeta-star", "--index", "2,2", "--cutoff", "1000")
        assert code == 0
        assert float(out) > 0


class TestZetaT:
    def test_methods_agree(self, capsys):
        _, boxes, _ = run(capsys, "zeta-t", "--index", "2,1", "--t", "0.5", "--cutoff", "2000")
        _, mapped, _ = run(
            capsys, "zeta-t", "--index", "2,1", "--t", "1/2", "--cutoff", "2000", "--method", "st"
        )
        assert abs(float(boxes) - float(mapped)) <= 1e-10


class TestVerify:
    def test_single_instance(self, capsys):
        code, out, _ = run(
            capsys, "verify", "recursive", "--params", "m=2,u=2,p=1,n=1,v=0"
        )
        assert code == 0
        assert "pass" in out

    def test_single_instance_with_indices(self, capsys):
        code, out, _ = run(
            capsys, "verify", "pivot", "--left", "2,1", "--right", "3", "--params", "j=1"
        )
        assert code == 0

    def test_sweep_json(self, capsys):
        code, out, _ = run(capsys, "verify", "factorial", "--json")
        assert code == 0
        reports = json.loads(out)
        assert all(report["passed"] for report in reports)
        assert {report["params"]["k"] for report in reports} == {2, 4, 6, 8, 10, 12}

    def test_small_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "recursive", "--max", "2")
        assert code == 0
        assert "pass" in out

    def test_unknown_statement(self, capsys):
        code, _, err = run(capsys, "verify", "nonsense")
        assert code == 2
        assert "unknown statement" in err

    def test_all_small(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--max", "1", "--cases", "25")
        assert code == 0


class TestScalarIdentityCommands:
    def test_eq31(self, capsys):
        code, out, _ = run(capsys, "eq31", "--max", "8")
        assert code == 0
        assert out.count("pass") == 4

    def test_zeta8(self, capsys):
        code, out, _ = run(capsys, "zeta8", "--max", "2")
        assert code == 0
        assert out.count("pass") == 2

    def test_eq31_json(self, capsys):
        code, out, _ = run(capsys, "eq31", "--max", "4", "--json")
        assert code == 0
        assert all(report["passed"] for report in json.loads(out))


RECURSIVE = "m=2,u=2,p=1,n=1,v=0"


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["zeta-t", "--index", "2,1", "--t", "1e400"], "out of float range"),
            (
                ["verify", "decomposition", "--params", "m=2,u=2,p=1,n=1,v=0", "--t", "1e400"],
                "out of float range",
            ),
            (["verify", "recursive", "--params", "m=2"], "recursive is missing parameters u, p, n, v"),
            (["verify", "pivot", "--params", "m=2"], "--left and --right"),
            (["verify", "properties", "--cases", "0"], "--cases must be at least 1"),
            (["verify", "pivot", "--max", "0"], "--max must be at least 1"),
            (["verify", "pivot", "--max", "-2"], "--max must be at least 1"),
            (["eq31", "--max", "1"], "--max must be at least 2"),
            (["zeta8", "--max", "0"], "--max must be at least 1"),
            (["verify", "pivot", "--right", "3", "--max", "1"], "--left and --right"),
            (["verify", "recursive", "--params", RECURSIVE, "--left", "2"], "no --left/--right"),
            (["verify", "recursive", "--params", RECURSIVE, "--right", "2"], "no --left/--right"),
            (["verify", "recursive", "--params", RECURSIVE, "--t", "1/2"], "takes no --t"),
            (["verify", "pivot", "--left", "2", "--right", "3", "--t", "0"], "takes no --t"),
        ],
    )
    def test_exit_2_with_one_line(self, capsys, argv, needle):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert needle in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "pivot", "--max", "1", "--json"],
            ["verify", "properties", "--cases", "1", "--json"],
            ["eq31", "--max", "2", "--json"],
            ["zeta8", "--max", "1", "--json"],
            ["verify", "decomposition", "--params", RECURSIVE, "--t", "1/2", "--json"],
        ],
    )
    def test_smallest_runs_still_check(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        reports = json.loads(out)
        assert reports and all(report["passed"] for report in reports)


class TestParsing:
    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "zeta", "--index", "2", "--bogus")
        assert code == 2

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2
