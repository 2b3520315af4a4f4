"""Command-line entry point: evaluate workbooks, run the corpus, REPL.

Exit codes for ``eval``: 0 when every requested region is error-free, 1 when
a requested region contains an error value, 2 on file or parse failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import cases as corpus_mod
from .engine import NameCollision, Workbook, WorkbookFormatError, _apply_statement, load_workbook
from .evaluator import BUILTINS, TraceSink
from .parser import LexError, ParseError
from .values import Array, ErrorValue, render_cell

ENV_MAX_RECURSION = "GRIDLAMBDA_MAX_RECURSION"


def _default_depth() -> int:
    raw = os.environ.get(ENV_MAX_RECURSION)
    if raw is None:
        return 1024
    try:
        value = int(raw)
    except ValueError:
        return 1024
    return max(1, value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridlambda",
        description="Batch spreadsheet formula engine with dynamic arrays and lambdas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="recalculate a workbook and print regions")
    p_eval.add_argument("workbook", help="workbook file (.wb text format)")
    p_eval.add_argument(
        "--print", dest="targets", action="append", default=[], metavar="REF",
        help="region to print (address, range, name, or spill ref); repeatable",
    )
    p_eval.add_argument("--trace", action="store_true", help="emit evaluation trace lines to stderr")
    p_eval.add_argument("--max-recursion", type=int, default=None, metavar="N")
    p_eval.add_argument("--format", choices=("table", "tsv"), default="table")

    p_corpus = sub.add_parser("corpus", help="run every golden case in a corpus directory")
    p_corpus.add_argument("directory")
    p_corpus.add_argument("--max-recursion", type=int, default=None, metavar="N")

    p_repl = sub.add_parser("repl", help="interactive session")
    p_repl.add_argument("--trace", action="store_true")
    p_repl.add_argument("--max-recursion", type=int, default=None, metavar="N")

    sub.add_parser("functions", help="list built-in functions and arities")
    return parser


def _depth(args) -> int:
    if getattr(args, "max_recursion", None) is not None:
        return max(1, args.max_recursion)
    return _default_depth()


def _grid_rows(value) -> list[list[str]]:
    if isinstance(value, Array):
        return [[render_cell(cell) for cell in row] for row in value.rows]
    return [[render_cell(value)]]


def _print_grid(rows: list[list[str]], fmt: str, out) -> None:
    if fmt == "tsv":
        for row in rows:
            out.write("\t".join(row) + "\n")
        return
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    for row in rows:
        out.write("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n")


def _value_has_error(value) -> bool:
    if isinstance(value, ErrorValue):
        return True
    if isinstance(value, Array):
        return any(isinstance(cell, ErrorValue) for cell in value.cells())
    return False


def cmd_eval(args) -> int:
    trace = TraceSink(writer=(lambda line: print(line, file=sys.stderr)) if args.trace else None)
    try:
        wb = load_workbook(args.workbook, depth_limit=_depth(args), trace=trace)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (WorkbookFormatError, ParseError, LexError, NameCollision) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wb.recalculate()
    saw_error = False
    first = True
    for target in args.targets:
        try:
            value = wb.evaluate_formula("=" + target)
        except (ParseError, LexError) as exc:
            print(f"error: bad --print target {target!r}: {exc}", file=sys.stderr)
            return 2
        if not first and args.format == "table":
            sys.stdout.write("\n")
        if args.format == "table":
            sys.stdout.write(f"{target}:\n")
        _print_grid(_grid_rows(value), args.format, sys.stdout)
        saw_error = saw_error or _value_has_error(value)
        first = False
    return 1 if saw_error else 0


def cmd_corpus(args) -> int:
    try:
        reports = corpus_mod.run_corpus(args.directory, depth_limit=_depth(args))
    except (corpus_mod.CorpusError, WorkbookFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = 0
    for report in reports:
        print(report.summary())
        if not report.passed:
            failed += 1
    print(f"{len(reports) - failed}/{len(reports)} cases passed")
    return 0 if failed == 0 else 1


def cmd_functions(_args) -> int:
    print("LAMBDA  (language form: LAMBDA(params..., body))")
    print("LET     (language form: LET(name, value, ..., body))")
    for key in sorted(BUILTINS):
        b = BUILTINS[key]
        print(f"{b.name:<10} {b.min_args}..{b.max_args} args")
    return 0


def cmd_repl(args) -> int:
    trace_writer = lambda line: print(line, file=sys.stderr)  # noqa: E731
    trace = TraceSink(writer=trace_writer if args.trace else None)
    wb = Workbook(depth_limit=_depth(args), trace=trace)
    current_sheet = wb.default_sheet
    interactive = sys.stdin.isatty()
    if interactive:
        print("gridlambda repl — ':quit' to exit, ':trace on|off' to toggle tracing")
    while True:
        try:
            line = input("> " if interactive else "")
        except EOFError:
            break
        line = line.strip()
        if line in (":quit", ":q"):
            break
        if line.startswith(":trace"):
            arg = line.split()[-1].lower()
            trace.writer = trace_writer if arg == "on" else None
            print(f"trace {'on' if trace.writer else 'off'}")
            continue
        if line.startswith(":"):
            print(f"unknown command {line!r}", file=sys.stderr)
            continue
        try:
            if line.startswith("="):
                wb.recalculate()
                value = wb.evaluate_formula(line, caller=(current_sheet.casefold(), 1, 1))
                _print_grid(_grid_rows(value), "table", sys.stdout)
                continue
            done = _apply_statement(wb, line, current_sheet, {})
            if done is None:
                continue
            kind, target = done
            if kind == "sheet":
                current_sheet = target
                print(f"sheet {target}")
                continue
            wb.recalculate()
            if kind == "name":
                print(f"name {target} defined")
                continue
            shown = wb.spill_array(*target)
            if shown is None:
                shown = wb.cell_value(*target)
            _print_grid(_grid_rows(shown), "table", sys.stdout)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "eval": cmd_eval,
        "corpus": cmd_corpus,
        "repl": cmd_repl,
        "functions": cmd_functions,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
