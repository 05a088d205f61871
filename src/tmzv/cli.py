"""Command-line front end: products, interpolation map, evaluators, sweeps.

Exit codes: 0 on success / all checks pass, 1 when a verification fails, 2 on
usage errors (malformed indices or words, non-admissible index for an
evaluator, unknown flags).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from .errors import BadParamsError, DivergentError, NotInH0Error, NotInH1Error
from .identities import (
    VerifyReport,
    check_closed_form,
    check_combinatorial,
    check_head_tail,
    check_pivot,
    check_power_product,
    check_recursive,
    check_t0_reduction,
    decomposition_numeric_check,
    factorial_identity_check,
    gaussian_identity_check,
)
from .interpolation import s_t
from .sweeps import SWEEPS, run_statement
from .words import Element, validate_word, word_of_index
from .zeta import EvalConfig, mzv, mzv_star, z_t_eval, zeta_t_boxes


class UsageError(Exception):
    pass


def _parse_index(text: str) -> tuple[int, ...]:
    s = text.strip()
    if not s:
        return ()
    parts = []
    for piece in s.split(","):
        piece = piece.strip()
        if not piece.isdigit() or int(piece) < 1:
            raise UsageError(f"malformed index {text!r}: parts must be positive integers")
        parts.append(int(piece))
    return tuple(parts)


def _parse_t(text: str) -> Fraction:
    s = text.strip()
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"malformed t value {text!r}") from exc


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
        try:
            out[key.strip()] = int(value)
        except ValueError as exc:
            raise UsageError(f"malformed --params value {piece!r}") from exc
    return out


def _print_element(elem: Element, as_json: bool) -> None:
    if as_json:
        print(json.dumps(elem.to_json_obj(), sort_keys=True))
    else:
        print(elem.to_text())


def _print_value(command: str, value: float, meta: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps({"command": command, **meta, "value": value}, sort_keys=True))
    else:
        print(f"{value:.12g}")


def _cmd_product(args: argparse.Namespace) -> int:
    from .products import stuffle_classical, stuffle_o, stuffle_t

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
    try:
        word = validate_word(args.word)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _print_element(s_t(word), args.json)
    return 0


def _cmd_zeta(args: argparse.Namespace, star: bool) -> int:
    idx = _parse_index(args.index)
    cfg = EvalConfig(args.cutoff)
    try:
        value = mzv_star(idx, cfg) if star else mzv(idx, cfg)
    except DivergentError as exc:
        raise UsageError(str(exc)) from exc
    _print_value(
        "zeta-star" if star else "zeta",
        value,
        {"index": list(idx), "cutoff": args.cutoff},
        args.json,
    )
    return 0


def _cmd_zeta_t(args: argparse.Namespace) -> int:
    idx = _parse_index(args.index)
    t0 = _parse_t_float(args.t)
    cfg = EvalConfig(args.cutoff, t0)
    try:
        if args.method == "st":
            value = z_t_eval(word_of_index(idx), cfg)
        else:
            value = zeta_t_boxes(idx, cfg)
    except (DivergentError, NotInH0Error) as exc:
        raise UsageError(str(exc)) from exc
    _print_value(
        "zeta-t",
        value,
        {"index": list(idx), "cutoff": args.cutoff, "t": t0, "method": args.method},
        args.json,
    )
    return 0


_NEEDED_PARAMS = {
    "recursive": ("m", "u", "p", "n", "v"),
    "closed-form": ("m", "u", "p", "n", "v"),
    "power-product": ("m", "n", "p"),
    "head-tail": ("head", "p", "k", "m"),
    "factorial": ("k",),
    "gaussian": ("l",),
    "decomposition": ("m", "u", "p", "n", "v"),
}


def _single_check(args: argparse.Namespace) -> VerifyReport:
    params = _parse_params(args.params) if args.params else {}
    name = args.statement
    if name in ("pivot", "combinatorial", "t0-reduction"):
        if args.left is None or args.right is None:
            raise UsageError(f"verify {name} needs both --left and --right indices")
        left, right = _parse_index(args.left), _parse_index(args.right)
        if name == "pivot":
            return check_pivot(left, right, params.get("j", 1))
        if name == "combinatorial":
            return check_combinatorial(left, right)
        return check_t0_reduction(left, right)
    if name not in _NEEDED_PARAMS:
        raise UsageError(f"statement {name!r} does not support single-instance parameters")
    needed = _NEEDED_PARAMS[name]
    missing = [key for key in needed if key not in params]
    if missing:
        raise UsageError(
            f"verify {name} is missing parameters {', '.join(missing)} "
            f"(needs {', '.join(needed)})"
        )
    values = [params[key] for key in needed]
    if name == "recursive":
        return check_recursive(*values)
    if name == "closed-form":
        return check_closed_form(*values)
    if name == "power-product":
        return check_power_product(*values)
    if name == "head-tail":
        return check_head_tail(*values)
    if name == "factorial":
        return factorial_identity_check(*values)
    if name == "gaussian":
        return gaussian_identity_check(*values)
    t0 = _parse_t_float(args.t) if args.t is not None else 0.0
    return decomposition_numeric_check(*values, t0, args.cutoff or 100_000)


def _emit_reports(grouped: dict[str, list[VerifyReport]], as_json: bool) -> int:
    all_reports = [report for reports in grouped.values() for report in reports]
    failures = [report for report in all_reports if not report.passed]
    if as_json:
        print(json.dumps([report.to_json_obj() for report in all_reports], sort_keys=True))
    else:
        for name, reports in grouped.items():
            passed = sum(report.passed for report in reports)
            print(f"{name}: {passed}/{len(reports)} pass")
        if failures:
            first = failures[0]
            print(f"FIRST FAILURE {first.statement} {first.params}:")
            print(json.dumps(first.witness, sort_keys=True))
    return 1 if failures else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    single = args.params is not None or args.left is not None
    if single:
        report = _single_check(args)
        if args.json:
            print(json.dumps([report.to_json_obj()], sort_keys=True))
        else:
            verdict = "pass" if report.passed else "FAIL"
            print(f"{report.statement} {report.params}: {verdict}")
            if not report.passed:
                print(json.dumps(report.witness, sort_keys=True))
        return 0 if report.passed else 1

    if args.statement == "all":
        names = list(SWEEPS)
    elif args.statement in SWEEPS:
        names = [args.statement]
    else:
        raise UsageError(
            f"unknown statement {args.statement!r}; choose from: all, " + ", ".join(SWEEPS)
        )
    grouped: dict[str, list[VerifyReport]] = {}
    for name in names:
        started = time.perf_counter()
        grouped[name] = run_statement(
            name,
            max_size=args.max,
            cutoff=args.cutoff,
            seed=args.seed,
            cases=args.cases,
        )
        if not args.json:
            elapsed = time.perf_counter() - started
            passed = sum(report.passed for report in grouped[name])
            print(f"[{elapsed:7.2f}s] {name}: {passed}/{len(grouped[name])} pass")
    if args.json:
        return _emit_reports(grouped, as_json=True)
    failures = [report for reports in grouped.values() for report in reports if not report.passed]
    if failures:
        first = failures[0]
        print(f"FIRST FAILURE {first.statement} {first.params}:")
        print(json.dumps(first.witness, sort_keys=True))
        return 1
    return 0


def _cmd_eq31(args: argparse.Namespace) -> int:
    reports = [factorial_identity_check(k) for k in range(2, args.max + 1, 2)]
    if args.json:
        print(json.dumps([report.to_json_obj() for report in reports], sort_keys=True))
    else:
        for report in reports:
            verdict = "pass" if report.passed else "FAIL"
            lhs = report.witness["lhs"]
            rhs = report.witness["rhs"]
            print(f"k={report.params['k']}: {verdict} (lhs={lhs}, rhs={rhs})")
    return 0 if all(report.passed for report in reports) else 1


def _cmd_zeta8(args: argparse.Namespace) -> int:
    reports = [gaussian_identity_check(l) for l in range(1, args.max + 1)]
    if args.json:
        print(json.dumps([report.to_json_obj() for report in reports], sort_keys=True))
    else:
        for report in reports:
            verdict = "pass" if report.passed else "FAIL"
            print(
                f"l={report.params['l']}: {verdict} (re={report.witness['lhs_re']}, "
                f"im={report.witness['lhs_im']})"
            )
    return 0 if all(report.passed for report in reports) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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

    p_st = sub.add_parser("st", help="apply the last-letter-fixed substitution map to a word")
    p_st.add_argument("--word", required=True, help="word over {x, y}")
    p_st.add_argument("--json", action="store_true")

    for name in ("zeta", "zeta-star"):
        p_z = sub.add_parser(name, help=f"truncated {name} value of an admissible index")
        p_z.add_argument("--index", required=True)
        p_z.add_argument("--cutoff", type=int, default=100_000)
        p_z.add_argument("--json", action="store_true")

    p_zt = sub.add_parser("zeta-t", help="truncated interpolated value")
    p_zt.add_argument("--index", required=True)
    p_zt.add_argument("--cutoff", type=int, default=100_000)
    p_zt.add_argument("--t", required=True, help="interpolation parameter (float or p/q)")
    p_zt.add_argument("--method", choices=("boxes", "st"), default="boxes")
    p_zt.add_argument("--json", action="store_true")

    p_verify = sub.add_parser("verify", help="run verification sweeps")
    p_verify.add_argument("statement", help="statement name or 'all'")
    p_verify.add_argument("--max", type=int, default=3, help="size knob for exact sweeps")
    p_verify.add_argument("--cutoff", type=int, help="cutoff override for numeric sweeps")
    p_verify.add_argument("--seed", type=int, default=0, help="seed for the property suites")
    p_verify.add_argument("--cases", type=int, default=1000, help="cases per property suite")
    p_verify.add_argument("--params", help='single instance, e.g. "m=2,u=2,p=1,n=1,v=0"')
    p_verify.add_argument("--left", help="left index for pivot/combinatorial/t0-reduction")
    p_verify.add_argument("--right", help="right index for pivot/combinatorial/t0-reduction")
    p_verify.add_argument("--t", help="t value for single decomposition checks")
    p_verify.add_argument("--json", action="store_true")

    p_eq31 = sub.add_parser("eq31", help="exact alternating factorial identity, even k")
    p_eq31.add_argument("--max", type=int, default=12)
    p_eq31.add_argument("--json", action="store_true")

    p_zeta8 = sub.add_parser("zeta8", help="exact Gaussian-rational factorial identity")
    p_zeta8.add_argument("--max", type=int, default=3)
    p_zeta8.add_argument("--json", action="store_true")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "product":
            return _cmd_product(args)
        if args.command == "st":
            return _cmd_st(args)
        if args.command == "zeta":
            return _cmd_zeta(args, star=False)
        if args.command == "zeta-star":
            return _cmd_zeta(args, star=True)
        if args.command == "zeta-t":
            return _cmd_zeta_t(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "eq31":
            return _cmd_eq31(args)
        if args.command == "zeta8":
            return _cmd_zeta8(args)
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, BadParamsError, NotInH1Error, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
