"""Command-line front end: products, interpolation map, evaluators, sweeps.

Exit codes: 0 on success / all checks pass, 1 when a verification fails, 2 on
usage errors (malformed indices or words, non-admissible index for an
evaluator, unknown flags, numbers past ``MAX_DIGITS``), when the memory runs
out and when stdout is closed before the output is written. Each of these
prints one ``error:`` line on stderr, argparse's own usage errors included.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from typing import NoReturn

from .errors import BadParamsError, DivergentError, NotInH0Error, NotInH1Error
from .identities import VerifyReport
from .interpolation import s_t
from .products import stuffle_classical, stuffle_o, stuffle_t
from .sweeps import STATEMENTS, SweepArgs, run_statement
from .words import MAX_PART, Element, word_of_index
from .zeta import EvalConfig, mzv, mzv_star, z_t_eval, zeta_t_boxes


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise :class:`UsageError` instead
    of printing the usage block; its subparsers inherit the class."""

    def error(self, message: str) -> NoReturn:
        raise UsageError(message)


# The most digits an integer or a t value may spell: Python's default limit
# on the digits of an int read from or written to a string.
MAX_DIGITS = 4300


def _ascii_int(text: str, signed: bool = False) -> int | None:
    """The integer ``text`` spells in ASCII digits, after an optional sign when
    ``signed``; None for anything else, such as the other scripts' digits and
    the underscores that ``int`` also reads. More than ``MAX_DIGITS`` digits,
    or than the interpreter's own limit when a host process lowered it, are a
    usage error."""
    s = text.strip()
    digits = s[1:] if signed and s[:1] in ("+", "-") else s
    if not (digits.isascii() and digits.isdigit()):
        return None
    limit = min(MAX_DIGITS, sys.get_int_max_str_digits() or MAX_DIGITS)  # 0 means no limit
    if len(digits) > limit:
        name = "MAX_DIGITS" if limit == MAX_DIGITS else "sys.get_int_max_str_digits()"
        raise UsageError(f"an integer of {len(digits):,} digits is past {name} = {limit:,}")
    return int(s)


def _int_flag(text: str) -> int:
    """The ``type`` of the integer options; the commands check their ranges."""
    value = _ascii_int(text, signed=True)
    if value is None:
        raise argparse.ArgumentTypeError(f"malformed integer {text!r}")
    return value


def _parse_index(text: str) -> tuple[int, ...]:
    s = text.strip()
    if not s:
        return ()
    parts = tuple(map(_ascii_int, s.split(",")))
    if None in parts:  # a part below 1 is for its command's check to refuse
        raise UsageError(f"malformed index {text!r}: parts must be positive integers")
    return parts


def _parse_t(text: str) -> Fraction:
    s = text.strip()
    # 10^exponent is built in full, so a long exponent is refused before it
    mantissa, _, exponent = s.lower().partition("e")
    if sum(map(str.isdigit, mantissa)) + abs(_ascii_int(exponent, signed=True) or 0) > MAX_DIGITS:
        raise UsageError(f"t value has more than MAX_DIGITS = {MAX_DIGITS:,} digits")
    try:
        if "/" in s:
            num, den = (_ascii_int(part, signed=True) for part in s.split("/", 1))
            if num is not None and den is not None:
                return Fraction(num, den)
        elif s.isascii() and "_" not in s:
            return Fraction(s)
    except (ValueError, ZeroDivisionError):
        pass
    raise UsageError(f"malformed t value {text!r}")


def _parse_t_float(text: str) -> float:
    try:
        return float(_parse_t(text))
    except OverflowError as exc:
        raise UsageError(f"t value {text!r} out of float range") from exc


def _parse_params(text: str) -> dict[str, int]:
    out: dict[str, int] = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise UsageError(f"malformed --params entry {piece!r} (expected name=value)")
        key, value = piece.split("=", 1)
        key, number = key.strip(), _ascii_int(value, signed=True)
        if number is None:
            raise UsageError(f"malformed --params value {piece!r}")
        if key in out:
            raise UsageError(f"--params names {key!r} more than once")
        if abs(number) > MAX_PART:
            raise UsageError(f"--params value {key}={number} has absolute value past MAX_PART = {MAX_PART:,}")
        out[key] = number
    return out


def _print_element(elem: Element, as_json: bool) -> None:
    try:
        text = json.dumps(elem.to_json_obj(), sort_keys=True) if as_json else elem.to_text()
    except ValueError:  # an int past the interpreter's limit on printed digits
        limit = sys.get_int_max_str_digits()
        raise UsageError(
            f"the exact result holds a number of more than {limit:,} digits, too long to print"
        ) from None
    print(text)


def _print_value(command: str, value: float, meta: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps({"command": command, **meta, "value": value}, sort_keys=True))
    else:
        print(f"{value:.12g}")


def _cmd_product(args: argparse.Namespace) -> int:
    left = _parse_index(args.left)
    right = _parse_index(args.right)
    if args.op == "classical":
        elem = stuffle_classical(left, right)
    elif args.op == "o":
        elem = stuffle_o(word_of_index(left), word_of_index(right))
    else:
        elem = stuffle_t(word_of_index(left), word_of_index(right))
    if args.t is not None:
        elem = elem.eval_at(_parse_t(args.t))
    _print_element(elem, args.json)
    return 0


def _cmd_st(args: argparse.Namespace) -> int:
    _print_element(s_t(args.word), args.json)
    return 0


def _cmd_zeta(args: argparse.Namespace) -> int:
    idx = _parse_index(args.index)
    cfg = EvalConfig(args.cutoff)
    value = mzv_star(idx, cfg) if args.command == "zeta-star" else mzv(idx, cfg)
    _print_value(args.command, value, {"index": list(idx), "cutoff": args.cutoff}, args.json)
    return 0


def _cmd_zeta_t(args: argparse.Namespace) -> int:
    idx = _parse_index(args.index)
    t0 = _parse_t_float(args.t)
    cfg = EvalConfig(args.cutoff, t0)
    value = z_t_eval(word_of_index(idx), cfg) if args.method == "st" else zeta_t_boxes(idx, cfg)
    meta = {"index": list(idx), "cutoff": args.cutoff, "t": t0, "method": args.method}
    _print_value("zeta-t", value, meta, args.json)
    return 0


# the params a single-instance verify takes from a flag of its own, not --params
_PARAM_FLAGS = {"left": "--left", "right": "--right", "t0": "--t", "cutoff": "--cutoff"}


def _single_check(args: argparse.Namespace) -> VerifyReport:
    params = _parse_params(args.params) if args.params else {}
    name = args.statement
    statement = STATEMENTS.get(name)
    if statement is None or not statement.needs:
        raise UsageError(f"statement {name!r} does not support single-instance parameters")
    if "left" in statement.needs:
        if args.left is None or args.right is None:
            raise UsageError(f"verify {name} needs both --left and --right indices")
    elif args.left is not None or args.right is not None:
        raise UsageError(f"verify {name} takes no --left/--right indices")
    if args.t is not None and "t0" not in statement.optional:
        raise UsageError(f"verify {name} takes no --t value")
    if args.cutoff is not None and "cutoff" not in statement.optional:
        raise UsageError(f"verify {name} takes no --cutoff value")
    known = (*statement.needs, *statement.optional)
    names = [key for key in known if key not in _PARAM_FLAGS]
    for key in params:
        if key in known and key in _PARAM_FLAGS:
            raise UsageError(f"verify {name} takes {key} from {_PARAM_FLAGS[key]}, not --params")
        if key not in names:
            takes = ", ".join(names) or "none"
            raise UsageError(f"verify {name} has no parameter {key!r} (--params takes {takes})")
    if args.left is not None:
        params.update(left=list(_parse_index(args.left)), right=list(_parse_index(args.right)))
    missing = [key for key in statement.needs if key not in params]
    if missing:
        raise UsageError(
            f"verify {name} is missing parameters {', '.join(missing)} "
            f"(needs {', '.join(statement.needs)})"
        )
    if args.t is not None:
        params["t0"] = _parse_t_float(args.t)
    if args.cutoff is not None:
        params["cutoff"] = args.cutoff
    values = {key: params[key] for key in statement.needs}
    values.update({key: params.get(key, default) for key, default in statement.optional.items()})
    return statement.check(**values)


def _print_reports(reports: list[VerifyReport]) -> None:
    print(json.dumps([report.to_json_obj() for report in reports], sort_keys=True))


def _at_least(flag: str, value: int, least: int) -> None:
    """Refuse a size flag that would leave nothing to check."""
    if value < least:
        raise UsageError(f"{flag} must be at least {least}, got {value}")


def _cmd_verify(args: argparse.Namespace) -> int:
    _at_least("--max", args.max, 1)
    _at_least("--cases", args.cases, 1)
    if any(flag is not None for flag in (args.params, args.left, args.right, args.t)):
        report = _single_check(args)
        if args.json:
            _print_reports([report])
        else:
            verdict = "pass" if report.passed else "FAIL"
            print(f"{report.statement} {report.params}: {verdict}")
            if not report.passed:
                print(json.dumps(report.witness, sort_keys=True))
        return 0 if report.passed else 1

    if args.statement == "all":
        names = list(STATEMENTS)
    elif args.statement in STATEMENTS:
        names = [args.statement]
    else:
        raise UsageError(
            f"unknown statement {args.statement!r}; choose from: all, " + ", ".join(STATEMENTS)
        )
    if args.cutoff is not None:
        EvalConfig(args.cutoff)  # refuses a cutoff out of range before any sweep runs
    reports: list[VerifyReport] = []
    for name in names:
        started = time.perf_counter()
        batch = run_statement(
            name, max_size=args.max, cutoff=args.cutoff, seed=args.seed, cases=args.cases
        )
        reports += batch
        if not args.json:
            elapsed = time.perf_counter() - started
            passed = sum(report.passed for report in batch)
            print(f"[{elapsed:7.2f}s] {name}: {passed}/{len(batch)} pass")
    failures = [report for report in reports if not report.passed]
    if args.json:
        _print_reports(reports)
    elif failures:
        first = failures[0]
        print(f"FIRST FAILURE {first.statement} {first.params}:")
        print(json.dumps(first.witness, sort_keys=True))
    return 1 if failures else 0


# eq31 and zeta8: the statement each checks, its least --max (also the step
# between the checked values) and the line printed for each report
_SCALAR = {
    "eq31": ("factorial", 2, "k={k}: {verdict} (lhs={lhs}, rhs={rhs})"),
    "zeta8": ("gaussian", 1, "l={l}: {verdict} (re={lhs_re}, im={lhs_im})"),
}


def _cmd_scalar(args: argparse.Namespace) -> int:
    name, least, line = _SCALAR[args.command]
    _at_least("--max", args.max, least)
    reports = [STATEMENTS[name].check(value) for value in range(least, args.max + 1, least)]
    if args.json:
        _print_reports(reports)
    else:
        for report in reports:
            verdict = "pass" if report.passed else "FAIL"
            print(line.format(verdict=verdict, **report.params, **report.witness))
    return 0 if all(report.passed for report in reports) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tmzv",
        description="Interpolated multiple zeta values: deformed stuffle products, "
        "interpolation map, truncated evaluators, and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_product = sub.add_parser("product", help="expand a product of two indices")
    p_product.add_argument("--left", required=True, help='left index, e.g. "2,1" ("" = empty)')
    p_product.add_argument("--right", required=True, help="right index")
    p_product.add_argument("--op", choices=("t", "o", "classical"), default="t")
    p_product.add_argument("--t", help="optionally specialize the result at t (float or p/q)")
    p_product.add_argument("--json", action="store_true")
    p_product.set_defaults(run=_cmd_product)

    p_st = sub.add_parser("st", help="apply the last-letter-fixed substitution map to a word")
    p_st.add_argument("--word", required=True, help="word over {x, y}")
    p_st.add_argument("--json", action="store_true")
    p_st.set_defaults(run=_cmd_st)

    for name in ("zeta", "zeta-star"):
        p_z = sub.add_parser(name, help=f"truncated {name} value of an admissible index")
        p_z.add_argument("--index", required=True)
        p_z.add_argument("--cutoff", type=_int_flag, default=100_000)
        p_z.add_argument("--json", action="store_true")
        p_z.set_defaults(run=_cmd_zeta)

    p_zt = sub.add_parser("zeta-t", help="truncated interpolated value")
    p_zt.add_argument("--index", required=True)
    p_zt.add_argument("--cutoff", type=_int_flag, default=100_000)
    p_zt.add_argument("--t", required=True, help="interpolation parameter (float or p/q)")
    p_zt.add_argument("--method", choices=("boxes", "st"), default="boxes")
    p_zt.add_argument("--json", action="store_true")
    p_zt.set_defaults(run=_cmd_zeta_t)

    p_verify = sub.add_parser("verify", help="run verification sweeps")
    p_verify.add_argument("statement", help="statement name or 'all'")
    p_verify.add_argument("--max", type=_int_flag, default=SweepArgs.max_size, help="size knob for exact sweeps")
    p_verify.add_argument("--cutoff", type=_int_flag, help="cutoff override for numeric sweeps")
    p_verify.add_argument("--seed", type=_int_flag, default=SweepArgs.seed, help="seed for the property suites")
    p_verify.add_argument("--cases", type=_int_flag, default=SweepArgs.cases, help="cases per property suite")
    p_verify.add_argument("--params", help='single instance, e.g. "m=2,u=2,p=1,n=1,v=0"')
    p_verify.add_argument("--left", help="left index for pivot/combinatorial/t0-reduction")
    p_verify.add_argument("--right", help="right index for pivot/combinatorial/t0-reduction")
    p_verify.add_argument("--t", help="t value for single decomposition checks")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(run=_cmd_verify)

    for name, help_text, default in (
        ("eq31", "exact alternating factorial identity, even k", 12),
        ("zeta8", "exact Gaussian-rational factorial identity", 3),
    ):
        p_scalar = sub.add_parser(name, help=help_text)
        p_scalar.add_argument("--max", type=_int_flag, default=default)
        p_scalar.add_argument("--json", action="store_true")
        p_scalar.set_defaults(run=_cmd_scalar)

    return parser


def _join_negative_t(argv: list[str]) -> list[str]:
    """Glue a negative t value to its flag, ``--t -3/4`` to ``--t=-3/4``:
    argparse reads a token that starts with ``-`` and is not a plain
    negative number as a flag, and would leave ``--t`` without a value."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--t" and token[:1] == "-" and token[1:2].isdigit():
            out[-1] = f"--t={token}"
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = _join_negative_t(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(argv)
        code = args.run(args)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
        return code
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (UsageError, BadParamsError, DivergentError, NotInH0Error, NotInH1Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: the input is too large for the memory available", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout, and stderr with it if they share the pipe:
        # what a closed stream still buffers goes to devnull, so the
        # interpreter's last flush fails no more
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        try:
            print("error: stdout was closed before all output was written", file=sys.stderr)
        except BrokenPipeError:
            os.dup2(devnull, sys.stderr.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
