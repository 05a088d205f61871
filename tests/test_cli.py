"""CLI behavior: output formats, determinism, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tmzv
from tmzv.cli import _build_parser, _print_reports, main
from tmzv.products import stuffle_t
from tmzv.sweeps import STATEMENTS, SweepArgs, run_statement
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
        assert "index parts must be positive integers" in err


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

    @pytest.mark.parametrize(
        "statement, params", [("power-product", "m=1100,n=0,p=1"), ("closed-form", "m=2,u=2,p=1,n=1100,v=0")]
    )
    def test_compositions_deeper_than_the_recursion_limit(self, capsys, statement, params):
        code, out, err = run(capsys, "verify", statement, "--params", params)
        assert (code, err) == (0, "")
        assert out.endswith(": pass\n")

    def test_unknown_statement(self, capsys):
        code, _, err = run(capsys, "verify", "nonsense")
        assert code == 2
        assert "unknown statement" in err

    def test_all_small(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--max", "1", "--cases", "25")
        assert code == 0


class TestSweepDefaults:
    """``SweepArgs`` holds the one set of sweep defaults: the verify flags
    restate none, and ``run_statement`` reads them."""

    def test_verify_flags_default_to_sweep_args(self, monkeypatch):
        # a flag left out reaches run_statement as no knob at all, so each
        # sweep runs at the SweepArgs default; a flag given passes through
        import tmzv.sweeps as sweeps

        args = _build_parser().parse_args(["verify", "all"])
        assert (args.max, args.cutoff, args.seed, args.cases) == (None,) * 4
        calls = []
        monkeypatch.setattr(sweeps, "run_statement", lambda name, **knobs: calls.append(knobs) or [])
        assert main(["verify", "gaussian"]) == 0
        assert main(["verify", "gaussian", "--max", "2", "--cases", "5"]) == 0
        assert calls == [{}, {"max_size": 2, "cases": 5}]

    def test_run_statement_defaults_are_sweep_args(self):
        want = SweepArgs()
        explicit = run_statement(
            "alternating", max_size=want.max_size, cutoff=want.cutoff, seed=want.seed, cases=want.cases
        )
        assert run_statement("alternating") == explicit and explicit

    def test_misspelt_knob_raises(self):
        with pytest.raises(TypeError):
            run_statement("alternating", max_sise=1)


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
HEADS = "m=2,u=2,p=1,n=1,v=1"
LONG = "1" * 5000  # past Python's 4,300-digit limit on reading an int
HUGE_PART = "1" + "0" * 400  # an index part past MAX_PART and the float range
NINES = "9" * 30  # a --params value past MAX_PART


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
            (["verify", "closed-form", "--params", RECURSIVE + ",q=9"], "no parameter 'q'"),
            (
                ["verify", "decomposition", "--params", RECURSIVE + ",cutoff=1000,t0=1"],
                "from --cutoff, not --params",
            ),
            (["verify", "decomposition", "--params", RECURSIVE + ",t0=1"], "from --t, not --params"),
            (["verify", "pivot", "--left", "2", "--right", "3", "--params", "left=1"], "from --left"),
            (["verify", "recursive", "--params", RECURSIVE + ",t0=1"], "no parameter 't0'"),
            (["zeta", "--index", "2", "--cutoff", "0"], "cutoff must be >= 1"),
            (["verify", "box-map", "--cutoff", "0"], "cutoff must be >= 1"),
            (["verify", "decomposition", "--params", RECURSIVE, "--cutoff", "0"], "cutoff must be >= 1"),
            (["verify", "head-tail", "--params", "head=2,p=0,k=1,m=1"], "parts must be positive"),
            (["verify", "recursive", "--params", "m=2,u=2,p=0,n=1,v=0"], "parts must be positive"),
            (["verify", "power-product", "--params", "m=1,n=1,p=0"], "parts must be positive"),
            (["verify", "decomposition", "--params", "m=2,u=2,p=0,n=1,v=0"], "p >= 1"),
            (["zeta-t", "--index", "2,1,1", "--t", "1e300", "--cutoff", "10"], "overflows"),
            (
                ["zeta-t", "--index", "2,1,1", "--t", "1e300", "--cutoff", "10", "--method", "st"],
                "overflows",
            ),
            (
                ["verify", "decomposition", "--params", HEADS, "--t", "1e200", "--cutoff", "100"],
                "overflows the float range",
            ),
            (["verify", "recursive", "--params", HEADS, "--cutoff", "0"], "takes no --cutoff"),
            (["verify", "pivot", "--left", "2", "--right", "3", "--cutoff", "1000"], "takes no --cutoff"),
            (["product", "--left", "2", "--right", "3", "--t", "--json"], "--t: expected one argument"),
            (["zeta", "--index", "2", "--bogus"], "unrecognized arguments: --bogus"),
            (["frobnicate"], "invalid choice: 'frobnicate'"),
            ([], "required: command"),
            (["product", "--left", "²", "--right", "3"], "malformed index"),
            (["zeta", "--index", "2,¹", "--cutoff", "10"], "malformed index"),
            (["verify", "pivot", "--left", "³", "--right", "1"], "malformed index"),
            (["verify", "power-product", "--params", "m=1,n=1,p=１"], "malformed --params value"),
            (["verify", "power-product", "--params", "m=1,n=1,p=1_0"], "malformed --params value"),
            (["product", "--left", "2", "--right", "3", "--t=３/4"], "malformed t value"),
            (["product", "--left", "2", "--right", "3", "--t=3/1_0"], "malformed t value"),
            (["product", "--left", "2", "--right", "3", "--t=1_0"], "malformed t value"),
            (["zeta-t", "--index", "2", "--t", "٣"], "malformed t value"),
            (["zeta", "--index", "2", "--cutoff", "1_000"], "--cutoff: malformed integer"),
            (["zeta-star", "--index", "2", "--cutoff", "１０"], "--cutoff: malformed integer"),
            (["verify", "pivot", "--max", "²"], "--max: malformed integer"),
            (["verify", "properties", "--seed", "1_0"], "--seed: malformed integer"),
            (["verify", "properties", "--cases", "٣"], "--cases: malformed integer"),
            (["eq31", "--max", "+"], "--max: malformed integer"),
            (["zeta", "--index", "2", "--cutoff", "10000001"], "MAX_CUTOFF = 10,000,000"),
            (["zeta-t", "--index", "2", "--t", "0.5", "--cutoff", "10000001"], "MAX_CUTOFF"),
            (["verify", "all", "--cutoff", "100000000"], "MAX_CUTOFF = 10,000,000"),
            (
                ["verify", "decomposition", "--params", RECURSIVE, "--cutoff", "100000000"],
                "MAX_CUTOFF",
            ),
            (["zeta-t", "--index", "2" + ",1" * 16, "--t", "0.5", "--cutoff", "10"], "MAX_BOXES_DEPTH = 16"),
            (["verify", "power-product", "--params", "m=1,n=1,p=1,m=2"], "--params names 'm' more than once"),
            (["product", "--left", LONG, "--right", "2"], "past MAX_DIGITS = 4,300"),
            (["zeta", "--index", "2," + LONG, "--cutoff", "10"], "past MAX_DIGITS = 4,300"),
            (["verify", "power-product", "--params", f"m={LONG},n=0,p=1"], "past MAX_DIGITS = 4,300"),
            (["product", "--left", "2", "--right", "3", "--t", "1e5000"], "MAX_DIGITS = 4,300"),
            (["product", "--left", "2", "--right", "3", "--t", "1e5000", "--json"], "MAX_DIGITS = 4,300"),
            (["product", "--left", "2,2,2,2", "--right", "2,2,2,2", "--t", "1e900"], "too long to print"),
            (
                ["product", "--left", "2,2,2,2", "--right", "2,2,2,2", "--t", "1e900", "--json"],
                "too long to print",
            ),
            (["zeta-t", "--index", "2", "--cutoff", "10", "--t", "1e10000000"], "MAX_DIGITS = 4,300"),
            (["zeta-t", "--index", "2", "--cutoff", "10", "--t", "1e100000000"], "MAX_DIGITS = 4,300"),
            (["product", "--left", "1" * 30, "--right", "2"], "MAX_PART = 1,000,000"),
            (["zeta", "--index", HUGE_PART, "--cutoff", "10"], "MAX_PART = 1,000,000"),
            (["verify", "power-product", "--params", "m=1,n=1,p=" + "9" * 30], "MAX_PART = 1,000,000"),
            # refused for its part, not for its t value
            (["zeta-t", "--index", HUGE_PART, "--t", "0.5"], "index parts must be at most MAX_PART"),
            (["zeta-t", "--index", HUGE_PART, "--t", "0.5", "--method", "st"], "MAX_PART = 1,000,000"),
            (["product", "--left", "1000001", "--right", "2", "--op", "classical"], "MAX_PART = 1,000,000"),
            (["verify", "power-product", "--params", f"m={NINES},n=1,p=1"], "MAX_PART = 1,000,000"),
            (["verify", "recursive", "--params", f"m=2,u=2,p=1,n={NINES},v=0"], "MAX_PART = 1,000,000"),
            (["verify", "closed-form", "--params", f"m=2,u=2,p=1,n={NINES},v=0"], "MAX_PART = 1,000,000"),
            (["verify", "decomposition", "--params", f"m=2,u=2,p=1,n={NINES},v=0"], "MAX_PART = 1,000,000"),
            (["verify", "head-tail", "--params", f"head=2,p=1,k={NINES},m=1"], "MAX_PART = 1,000,000"),
            (["verify", "gaussian", "--params", f"l={NINES}"], "MAX_PART = 1,000,000"),
            (["verify", "factorial", "--params", f"k={10**30}"], "MAX_PART = 1,000,000"),
            (["st", "--word", "xy" * 17], "MAX_BOXES_DEPTH = 16"),
            (
                ["zeta-t", "--index", "2" + ",1" * 16, "--t", "0.5", "--cutoff", "10", "--method", "st"],
                "MAX_BOXES_DEPTH = 16",
            ),
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
            ["product", "--left", "1000000", "--right", "1", "--op", "classical"],
            ["verify", "pivot", "--left", "1000000", "--right", "1"],
            ["verify", "combinatorial", "--left", "1000000", "--right", "1"],
            ["verify", "t0-reduction", "--left", "1000000", "--right", "1"],
            ["verify", "recursive", "--params", "m=1000000,u=1,p=1,n=0,v=0"],
            ["verify", "closed-form", "--params", "m=1000000,u=2,p=1,n=0,v=0"],
            ["verify", "head-tail", "--params", "head=1000000,p=1,k=0,m=1"],
        ],
    )
    def test_a_merged_letter_past_max_part_is_no_usage_error(self, capsys, argv):
        # a part of MAX_PART merged with another makes a letter past it
        code, out, err = run(capsys, *argv)
        assert code == 0 and out and not err

    @pytest.mark.parametrize("t", ["1e10000000", "1e100000000"])
    def test_long_t_exponent_is_refused_before_it_is_built(self, capsys, t):
        start = time.perf_counter()
        code, _, err = run(capsys, "zeta-t", "--index", "2", "--cutoff", "10", "--t", t)
        assert code == 2 and "MAX_DIGITS" in err
        assert time.perf_counter() - start < 1.0

    def test_a_lowered_interpreter_digit_limit_is_a_usage_error(self, capsys):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run(capsys, "product", "--left", "1" * 1000, "--right", "2")
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "past sys.get_int_max_str_digits() = 640" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "pivot", "--max", "1", "--json"],
            ["verify", "properties", "--cases", "1", "--json"],
            ["eq31", "--max", "2", "--json"],
            ["zeta8", "--max", "1", "--json"],
            ["verify", "decomposition", "--params", RECURSIVE, "--t", "1/2", "--json"],
            # float rounding at a large t stays within the relative tolerance
            ["verify", "decomposition", "--params", HEADS, "--t", "1e20", "--cutoff", "100", "--json"],
        ],
    )
    def test_smallest_runs_still_check(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        reports = json.loads(out)
        assert reports and all(report["passed"] for report in reports)


# an argv grammar of good and bad tokens; sizes stay small (--max and --cases
# at most 1, cutoffs at most 1000, parameters at most 3) so that every drawn
# argv runs well under a second. A run that may use a cutoff (a sweep, or a
# statement that takes one) always gets --cutoff 1000; a single check of a
# statement without a cutoff gets one only rarely, as it gets a stray --t, so
# that it mostly runs and passes and sometimes hits the usage error
_FLAGS = [
    "--left", "--right", "--op", "--t", "--json", "--word", "--index", "--cutoff",
    "--method", "--params", "--max", "--cases", "--seed", "--bogus",
]
_VALUES = [
    "", "0", "1", "-1", "2,1", "2,1,1", "1,2", "3,1", "1,0", "x", "xyy", "xz", "t", "o", "st",
    "classical", "boxes", "1/2", "1/0", "1e300", "1e400", "nan", "=", "m=2", "q=9", LONG,
    f"n={NINES}",
]
_INDICES = ["", "1", "2", "2,1", "1,2,1", "0", "1,0", "x", "²", "2,¹", LONG, "2,1000001", HUGE_PART]
_T_VALUES = ["0", "1", "1/2", "-1", "1/0", "1e300", "1e400", "x", "-3/4", "-1/2"]
_PAIRS = st.lists(st.tuples(st.sampled_from(_FLAGS), st.sampled_from(_VALUES)), max_size=2).map(
    lambda pairs: [token for pair in pairs for token in pair]
)
_OFTEN = st.sampled_from([True, True, True, False])
_RARELY = st.sampled_from([False, False, False, True])


@st.composite
def _verify_argvs(draw):
    """``verify`` on a statement, mostly with the parameters and flags it
    takes, at values from -1 to 3, sometimes with an unknown or misplaced one."""
    single = [name for name, statement in STATEMENTS.items() if statement.needs]
    others = ["all", "nonsense", *(name for name in STATEMENTS if name not in single)]
    name = draw(st.sampled_from(single if draw(_OFTEN) else others))
    statement = STATEMENTS.get(name)
    known = [*statement.needs, *statement.optional] if statement else []
    argv = ["verify", name, "--max", "1", "--cases", "1"]
    params = [
        f"{key}={draw(st.sampled_from([2, 1, 0, 3, -1]))}"
        for key in [*known, "q"]
        if draw(_RARELY if key in ("q", "left", "right", "t0", "cutoff") else _OFTEN)
    ]
    if params or draw(_RARELY):
        argv += ["--params", ",".join(params)]
    flags = (("--left", "left", _INDICES), ("--right", "right", _INDICES), ("--t", "t0", _T_VALUES))
    for flag, key, values in flags:
        if draw(_OFTEN if key in known else _RARELY):
            argv += [flag, draw(st.sampled_from(values))]
    if name not in single or "cutoff" in known or draw(_RARELY):
        argv += ["--cutoff", "1000"]
    return argv + draw(_PAIRS)


_OTHER_ARGVS = st.builds(
    lambda prefix, pairs: prefix + pairs,
    st.sampled_from(
        [
            ["product"], ["st"], ["zeta", "--cutoff", "1000"], ["zeta-star", "--cutoff", "1000"],
            ["zeta-t", "--cutoff", "1000"], ["eq31"], ["zeta8", "--max", "1"], ["frobnicate"], [],
            # an index part past MAX_PART, which the pairs may replace
            ["product", "--left", "1" * 30], ["zeta", "--cutoff", "1000", "--index", HUGE_PART],
            ["zeta-t", "--cutoff", "1000", "--index", "2," + HUGE_PART],
        ]
    ),
    _PAIRS,
)


class TestArgvFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_verify_argvs(), _OTHER_ARGVS))
    def test_every_argv_exits_0_1_or_2(self, argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")


class TestNegativeT:
    @pytest.mark.parametrize(
        "argv, value",
        [
            (["product", "--left", "2,1", "--right", "3"], "-3/4"),
            (["product", "--left", "2,1", "--right", "3", "--op", "o", "--json"], "-1/2"),
            (["zeta-t", "--index", "2,1", "--cutoff", "100"], "-3/4"),
            (["zeta-t", "--index", "2,1", "--cutoff", "100", "--method", "st"], "-1e-1"),
            (["verify", "decomposition", "--params", HEADS, "--cutoff", "100"], "-1/2"),
        ],
    )
    def test_spaced_value_reads_as_joined(self, capsys, argv, value):
        spaced = run(capsys, *argv, "--t", value)
        assert spaced == run(capsys, *argv, f"--t={value}")
        code, out, err = spaced
        assert code == 0 and out and not err

    def test_flag_after_t_is_still_a_usage_error(self, capsys):
        code, out, err = run(capsys, "product", "--left", "2", "--right", "3", "--t", "--json")
        assert code == 2
        assert out == ""
        assert err == "error: argument --t: expected one argument\n"


class TestLazyNumpy:
    def test_exact_commands_do_not_load_numpy(self):
        # numpy is loaded on the first truncated evaluation, not on import
        script = (
            "import sys, contextlib, io, tmzv, tmzv.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    tmzv.cli.main(['--help'])\n"
            "    assert tmzv.cli.main(['product', '--left', '2,1', '--right', '3']) == 0\n"
            "assert 'numpy' not in sys.modules\n"
            "assert tmzv.cli.main(['zeta', '--index', '2', '--cutoff', '10']) == 0\n"
            "assert 'numpy' in sys.modules\n"
        )
        src = str(Path(tmzv.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr

    # Each command imports only the modules it runs. A child interpreter runs
    # one command and prints the modules loaded since before tmzv's import.
    @staticmethod
    def loaded(*argv: str) -> set[str]:
        script = (
            "import contextlib, io, sys\n"
            "before = set(sys.modules)\n"
            "from tmzv.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(sys.argv[1:])\n"
            "print(code, *set(sys.modules) - before)\n"
        )
        src = str(Path(tmzv.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script, *argv], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        code, *modules = done.stdout.split()
        assert code == "0"
        return set(modules)

    @pytest.mark.parametrize(
        "argv, package",
        [
            (["--help"], set()),
            (["product", "--left", "2,1", "--right", "3", "--t", "1/2"], {"exact", "words", "products"}),
            (["st", "--word", "xyy"], {"exact", "words", "interpolation"}),
        ],
    )
    def test_exact_commands_load_only_their_modules(self, argv, package):
        loaded = self.loaded(*argv)
        assert {name for name in loaded if name.split(".")[0] == "tmzv"} == {
            "tmzv", "tmzv.cli", "tmzv.errors", *(f"tmzv.{name}" for name in package)
        }
        assert not loaded & {"dataclasses", "numpy"}

    def test_zeta_loads_numpy_and_verify_the_sweeps(self):
        loaded = self.loaded("zeta", "--index", "2", "--cutoff", "10")
        assert {"tmzv.zeta", "numpy"} <= loaded
        assert not loaded & {"tmzv.sweeps", "tmzv.identities"}
        assert "tmzv.sweeps" in self.loaded("verify", "recursive", "--params", "m=2,u=2,p=1,n=1,v=0")


class TestFailureReports:
    """The text a failing verify prints, as a sweep and as a single check,
    with one registry entry patched to fail at l = 2: the command reads the
    registry of ``tmzv.sweeps`` when it runs, so the patch reaches it."""

    WITNESS = {"lhs": "0", "rhs": "1"}

    @pytest.fixture(autouse=True)
    def failing_gaussian(self, monkeypatch):
        import dataclasses

        import tmzv.sweeps as sweeps
        from tmzv.identities import VerifyReport

        def check(l):
            return VerifyReport("gaussian", {"l": l}, l != 2, self.WITNESS if l == 2 else {})

        entry = dataclasses.replace(sweeps.STATEMENTS["gaussian"], check=check)
        monkeypatch.setitem(sweeps.STATEMENTS, "gaussian", entry)

    def test_a_sweep_prints_its_first_failure_and_exits_1(self, capsys):
        code, out, err = run(capsys, "verify", "gaussian")
        lines = out.splitlines()
        assert code == 1 and err == ""
        assert lines[0].endswith("] gaussian: 2/3 pass")
        assert lines[1:] == ["FIRST FAILURE gaussian {'l': 2}:", json.dumps(self.WITNESS)]

    def test_a_single_check_prints_fail_and_its_witness_and_exits_1(self, capsys):
        code, out, err = run(capsys, "verify", "gaussian", "--params", "l=2")
        assert code == 1 and err == ""
        assert out.splitlines() == ["gaussian {'l': 2}: FAIL", json.dumps(self.WITNESS)]


class TestOutOfMemory:
    def test_memory_error_exits_2_with_one_error_line(self):
        # the product of 40 ones by 40 ones outgrows a 512 MiB address space
        ones = ",".join(["1"] * 40)
        script = (
            "import resource, sys\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, hard))\n"
            "from tmzv.cli import main\n"
            f"sys.exit(main(['product', '--left', '{ones}', '--right', '{ones}']))\n"
        )
        src = str(Path(tmzv.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 2, done.stderr
        assert done.stdout == ""
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), done.stderr
        assert "Traceback" not in done.stderr


_LONG_OUTPUTS = [
    ["verify", "all", "--max", "2", "--json"],
    ["product", "--left", "2,1,1,1,1,1", "--right", "3,1,1,1,1,1", "--json"],
]


class TestClosedStdout:
    # each output is far past a pipe's 64 KiB buffer, so the reader closes
    # the pipe while the command is still writing
    @staticmethod
    def _start_and_close(argv, stderr):
        src = str(Path(tmzv.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.Popen(
            [sys.executable, "-m", "tmzv", *argv], env=env, stdout=subprocess.PIPE, stderr=stderr,
        )
        assert proc.stdout.read(1) in (b"[", b"{")
        proc.stdout.close()
        return proc

    @pytest.mark.parametrize("argv", _LONG_OUTPUTS)
    def test_closed_pipe_exits_2_with_one_error_line(self, argv):
        proc = self._start_and_close(argv, subprocess.PIPE)
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 2
        assert err == "error: stdout was closed before all output was written\n"

    @pytest.mark.parametrize("argv", _LONG_OUTPUTS)
    def test_closed_pipe_shared_with_stderr_exits_2(self, argv):
        # as `tmzv ... 2>&1 | head -c 1`: the error line meets the closed pipe too
        proc = self._start_and_close(argv, subprocess.STDOUT)
        assert proc.wait(timeout=60) == 2


class TestParsing:
    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "zeta", "--index", "2", "--bogus")
        assert code == 2

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"], ["zeta8", "-h"]])
    def test_help_exits_0(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert out.startswith("usage: tmzv") and err == ""


_RECURSIVE_ONE = ["verify", "recursive", "--params", RECURSIVE]


class TestGoldenOutput:
    """The stdout bytes and exit code of each command, pinned by sha256; a
    sweep's ``[  n.nns]`` timing column is masked first. The zeta values are
    printed at 12 significant digits, or as the one float in ``--json``."""

    @pytest.mark.parametrize(
        "argv, code, digest",
        [
            (
                ["product", "--left", "2,1", "--right", "3,1", "--op", "t"],
                0, "00df6822605d03d3868803efb2de62ab122cea51f3547a620350b4d99e02974b",
            ),
            (
                ["product", "--left", "2,1", "--right", "3,1", "--op", "o"],
                0, "b3a907468e8b5c0fd3f08326ba851a8c04383877d1f096f9ee7d72b5b84e3e32",
            ),
            (
                ["product", "--left", "2,1", "--right", "3,1", "--op", "classical"],
                0, "0afe22d0a4d538a3e4f296103fe712732160f2f17b2d0bece3ba4895ce3be16c",
            ),
            (
                ["product", "--left", "2,1", "--right", "3", "--t", "-1/2"],
                0, "4927bc741032ebb0ebc1407054ff9e7f4d486a02af6db342dcca11402251ca55",
            ),
            (
                ["product", "--left", "2,1", "--right", "3", "--op", "o", "--json"],
                0, "6bfd1317c165cd6fa344b71a0dcf49a3b5ce91cc24cef7f4086c145d3690e34a",
            ),
            (
                ["st", "--word", "xyxxyy"],
                0, "a8df99ccf1a614b97efe91fc62288e9045342488b064475d3717ac8a267534cb",
            ),
            (
                ["st", "--word", "xyxy", "--json"],
                0, "33424cea2bd0e5696dd20b8eea0054be982452b734019aace0906b873e2964a7",
            ),
            (
                ["zeta", "--index", "2,1", "--cutoff", "1000"],
                0, "9c7c91638b93b9f84a0fc3cb8eaee39d5b0fe79ff405de6d9c5a89ce1d73c77a",
            ),
            (
                ["zeta-star", "--index", "2,2", "--cutoff", "1000"],
                0, "eff8754ef55620e5157ebd6ba6f3c9db4bf71c29405660cb673b154810a3541e",
            ),
            (
                ["zeta", "--index", "3,1", "--cutoff", "1000", "--json"],
                0, "10613e80cd629b37a88354de56a5e6695f04bcf89764d2009c07532c1e007e33",
            ),
            (
                ["zeta-t", "--index", "2,1,1", "--t", "1/2", "--cutoff", "1000"],
                0, "0099375496abd36be3d146602a0a3e0a7aa6ae24394f5599fa13fd5ea3e5a870",
            ),
            (
                ["zeta-t", "--index", "2,1,1", "--t", "1/2", "--cutoff", "1000", "--method", "st"],
                0, "0099375496abd36be3d146602a0a3e0a7aa6ae24394f5599fa13fd5ea3e5a870",
            ),
            (
                _RECURSIVE_ONE,
                0, "a85ccaa20f225b0bd8e3e86475f3398a9dcfdbc79c4b5dabfc28f2e16427000e",
            ),
            (
                [*_RECURSIVE_ONE, "--json"],
                0, "ff34f104451987699ecb70a6b47e0c2c3ababfdc17b114cb16254bb6b0884fbd",
            ),
            (
                ["verify", "pivot", "--left", "2,1", "--right", "3", "--params", "j=2"],
                0, "52b2dc6074856a1ebe00d528153bdd017f0e2e3e96b4184d19836ff25727bb27",
            ),
            (
                ["eq31", "--max", "12"],
                0, "be930e7e7cd0ed512736fcf7e598d0745c72a013d1b232627b9b6316c8f8e5fc",
            ),
            (
                ["eq31", "--max", "12", "--json"],
                0, "23833fede7f00257200485479f2bfc8366720410d73dc9305d91423396d7bd56",
            ),
            (
                ["zeta8", "--max", "2"],
                0, "16eb052a7345a2ba5b506941effe3ecbc6fb30c200efdbbf2ab584b885c3c0c6",
            ),
            (
                ["zeta8", "--max", "2", "--json"],
                0, "c6fd4b089602d89d9d38b8a3089831f2464eaa12066ff41f2db1dcafc4713a62",
            ),
            (
                ["verify", "power-product", "--max", "2"],
                0, "6ca3ce41d178e4b52df9319edcb9741332796fb32cdb589b1440017ead60d76e",
            ),
            (["--help"], 0, "12c2741ee5ddd9236e708f87d4d4b1e6e7b273063d442da53e6ae10ae7629bc9"),
            (["eq31", "--help"], 0, "c13014a80a356a90095b5ffadefdd46e1c1ba4504e6dba3f1d8eb8479217a648"),
            (["zeta8", "--help"], 0, "688055daf8319a8de2bc37e51ae42f2edd876391875bc8c7303e15c46617e08e"),
            (["frobnicate"], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ],
    )
    def test_stdout_and_exit_code_are_unchanged(self, capsys, monkeypatch, argv, code, digest):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its help to the terminal width
        got, out, _ = run(capsys, *argv)
        masked = re.sub(r"^\[ *\d+\.\d\ds\]", "[TIME]", out, flags=re.M)
        assert (got, hashlib.sha256(masked.encode()).hexdigest()) == (code, digest)


class TestVerifyAllBytes:
    @pytest.mark.parametrize(
        "extra, size, digest",
        [
            ([], 468_292, "f8ade017076cdc2255a16e1438f74040bec8a92c9e46a01ce5c525e09feff054"),
            (["--t=-3/4"], 348_399, "6e60361d2990bda163d31cadf1ae2202e00c9ce93972838180b348eacaf8189a"),
        ],
    )
    def test_large_product_json_is_unchanged(self, capsys, extra, size, digest):
        # 5,443 terms and 40 distinct coefficients, served as `tmzv product --json` serves them
        argv = ["product", "--left", "1,1,4,4,4", "--right", "3,4,2,3,3", "--op", "o", "--json", *extra]
        code, out, err = run(capsys, *argv)
        data = out.encode()
        assert code == 0 and err == ""
        assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)

    def test_verify_all_json_is_unchanged(self, capsys):
        # the reports of `tmzv verify all --max 3 --json`, which every change
        # to the kernel must leave byte for byte as they are
        code, out, err = run(capsys, "verify", "all", "--max", "3", "--json")
        data = out.encode()
        assert code == 0 and err == ""
        assert len(data) == 1_023_535
        assert (
            hashlib.sha256(data).hexdigest()
            == "0d69e5c13d42e117406c42fae19c77a30357280b0f42804c0b86719dc1bb551f"
        )

    def test_exact_statements_json_is_unchanged(self, capsys):
        # the reports of every statement with no float result, dumped as
        # `verify --json` dumps them; the numeric statements are left out
        # because their float bits may vary with the numpy build
        numeric = {"zeta-formulas", "box-map", "decomposition", "alternating-numeric"}
        reports = [
            report
            for name in STATEMENTS
            if name not in numeric
            for report in run_statement(name, max_size=2)
        ]
        _print_reports(reports)
        data = capsys.readouterr().out.encode()
        assert len(reports) == 326 and len(data) == 35_270
        assert (
            hashlib.sha256(data).hexdigest()
            == "d63e8463c2a30657f4ec85711259febd2bee8c7471579630362b22154f298dea"
        )
