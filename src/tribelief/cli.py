"""Command-line interface.

Exit codes: 0 on success (and for property checks that hold), 1 when a
checked property is violated (a witness is printed), 2 on malformed input
with a one-line diagnostic on stderr and nothing on stdout.
"""

import argparse
import sys

from .definability import format_nondefinability_report, verify_nondefinability
from .operators import (
    OperatorTable,
    check_characterization,
    check_ci_postulates,
    revise,
    sweep_all_tables,
)
from .ranking import Ranking, capture_set, formula_of_ranking, ranking_of_formula
from .semantics import (
    classify,
    eval_formula,
    format_interpretation,
    interpretations,
    parse_interpretation,
    truth_table_lines,
)
from .syntax import Formula, FormulaSyntaxError, parse, render


class CliError(Exception):
    """Bad input; the command exits with code 2."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _formula(text: str) -> Formula:
    try:
        return parse(text)
    except FormulaSyntaxError as exc:
        raise CliError(f"bad formula: {exc}") from None


def _checked(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _literal(w) -> str:
    return format_interpretation(w, ",")


def _cmd_eval(args) -> tuple[list[str], int]:
    f = _formula(args.formula)
    w = _checked(parse_interpretation, args.at, args.n)
    value = _checked(eval_formula, f, w)
    return [value.symbol], 0


def _cmd_table(args) -> tuple[list[str], int]:
    f = _formula(args.formula)
    return _checked(truth_table_lines, f, args.n), 0


def _cmd_classify(args) -> tuple[list[str], int]:
    f = _formula(args.formula)
    models, quasi, counter = _checked(classify, f, args.n)
    lines = []
    for label, worlds in (("models", models), ("quasi-models", quasi), ("countermodels", counter)):
        body = " ".join(_literal(w) for w in worlds)
        lines.append(f"{label}: {body}" if body else f"{label}:")
    return lines, 0


def _cmd_capture(args) -> tuple[list[str], int]:
    worlds = [_checked(parse_interpretation, text, args.n) for text in args.interpretation]
    f = _checked(capture_set, worlds, args.n)
    return [render(f)], 0


def _cmd_encode_ranking(args) -> tuple[list[str], int]:
    try:
        if args.file == "-":
            text = sys.stdin.read()
        else:
            with open(args.file, encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(str(exc)) from None
    r = _checked(Ranking.from_lines, text)
    f = _checked(formula_of_ranking, r)
    return [render(f)], 0


def _cmd_revise(args) -> tuple[list[str], int]:
    table = _checked(OperatorTable.parse, args.op)
    f = _formula(args.old)
    g = _formula(args.new)
    revised = _checked(revise, table, f, g, args.n)
    r = ranking_of_formula(revised, args.n)
    pairs = " ".join(f"{_literal(w)}:{level}" for w, level in zip(interpretations(args.n), r.levels))
    return [pairs], 0


def _cmd_check_ci(args) -> tuple[list[str], int]:
    report = _checked(check_ci_postulates, args.n)
    lines = []
    for result in report.results:
        if result.holds:
            lines.append(f"{result.name} PASS")
        else:
            lines.append(f"{result.name} FAIL {result.witness}")
    lines.append(f"checked {report.pairs_checked} ranking pair(s)")
    return lines, 0 if report.ok else 1


def _cmd_check_charac(args) -> tuple[list[str], int]:
    table = _checked(OperatorTable.parse, args.op)
    result = _checked(check_characterization, table, args.n)
    if result.ok:
        return [f"table {table.serialize()}: characterization PASS ({result.pairs_checked} pair(s))"], 0
    return [f"table {table.serialize()}: characterization FAIL: {result.failure}"], 1


def _cmd_check_all(args) -> tuple[list[str], int]:
    result = _checked(sweep_all_tables, args.n)
    if args.machine:
        lines = [f"{serial} FAIL" for serial, _ in result.failures]
        lines.append(f"checked {result.total} failed {len(result.failures)}")
    else:
        lines = [f"table {serial}: {reason}" for serial, reason in result.failures]
        if result.ok:
            lines.append(f"all {result.total} operator tables pass characterization at n={result.n}")
        else:
            lines.append(
                f"{len(result.failures)} of {result.total} operator tables fail characterization at n={result.n}"
            )
    return lines, 0 if result.ok else 1


def _cmd_closure(args) -> tuple[list[str], int]:
    report = _checked(verify_nondefinability, args.variant, include_bot=args.include_bot)
    text = format_nondefinability_report(report, machine=args.machine)
    return text.splitlines(), 0 if report.disjoint else 1


def _build_parser() -> _ArgumentParser:
    top = _ArgumentParser(prog="tri", description="Three-valued logic, rankings and belief change.")
    sub = top.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)

    p = sub.add_parser("eval", help="evaluate a formula at one interpretation")
    p.add_argument("-n", type=int, required=True, help="number of variables")
    p.add_argument("--at", required=True, help="interpretation, digits 0/u/1 (comma-joined for n>1)")
    p.add_argument("formula")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("table", help="print a formula's truth table")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("formula")
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("classify", help="list models, quasi-models and countermodels")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("formula")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("capture", help="formula whose models are exactly the given interpretations")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("interpretation", nargs="+")
    p.set_defaults(handler=_cmd_capture)

    p = sub.add_parser("encode-ranking", help="read a ranking file and print its formula")
    p.add_argument("file", help="path to a ranking file, or - for stdin")
    p.set_defaults(handler=_cmd_encode_ranking)

    p = sub.add_parser("revise", help="combine two formulas through an operator table")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--op", required=True, help="9 cells from {1,2,3}, or ci, or drastic")
    p.add_argument("old")
    p.add_argument("new")
    p.set_defaults(handler=_cmd_revise)

    check = sub.add_parser("check", help="verify postulates and characterizations")
    check_sub = check.add_subparsers(dest="what", required=True, parser_class=_ArgumentParser)

    p = check_sub.add_parser("ci", help="the cautious operator's postulate suite")
    p.add_argument("-n", type=int, default=1)
    p.set_defaults(handler=_cmd_check_ci)

    p = check_sub.add_parser("charac", help="postulate characterization of one table")
    p.add_argument("-n", type=int, default=1)
    p.add_argument("--op", required=True)
    p.set_defaults(handler=_cmd_check_charac)

    p = check_sub.add_parser("all-operators", help="characterization sweep over every table")
    p.add_argument("-n", type=int, default=1)
    p.add_argument("--machine", action="store_true")
    p.set_defaults(handler=_cmd_check_all)

    p = sub.add_parser("closure", help="reachable rankings under one box's operations")
    p.add_argument("--variant", required=True, choices=("box1", "box2"))
    p.add_argument("--include-bot", action="store_true", help="add the all-rejected ranking to the generators")
    p.add_argument("--machine", action="store_true")
    p.set_defaults(handler=_cmd_closure)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        lines, code = args.handler(args)
    except CliError as exc:
        print(f"tri: error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
