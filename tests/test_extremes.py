"""Extreme floats in every builtin and operator: no exception escapes the
evaluator, no Inf or NaN reaches a cell.

Each builtin gets ±1e308, ±5e-324, ±(2^53+1) and 0, as a scalar and as a
two-element row, in every parameter position except the sizes that allocate
(SEQUENCE and MAKEARRAY rows/cols, the WRAPROWS width); those wait for a cell
budget. A ``#NUM!`` whose detail starts with an exception's name is the mark
of the per-cell barrier, so it counts as an escaped exception.
"""

import builtins
import math

import pytest

from gridlambda import Workbook
from gridlambda.values import Array, ErrorValue

from test_arguments import BASE

EXTREMES = ["1e308", "-1e308", "5e-324", "-5e-324", "9007199254740993", "-9007199254740993", "0"]

SIZES = {("SEQUENCE", 0), ("SEQUENCE", 1), ("MAKEARRAY", 0), ("MAKEARRAY", 1), ("WRAPROWS", 1)}

BINARY_OPS = ["+", "-", "*", "/", "^", "&", "=", "<>", "<", "<=", ">", ">="]


def _builtin_formulas(name):
    base = BASE[name]
    for pos in range(len(base)):
        if (name, pos) in SIZES:
            continue
        for x in EXTREMES:
            for value in (x, f"{{{x},{x}}}"):
                args = list(base)
                args[pos] = value
                yield f"={name}({', '.join(args)})"


def _operator_formulas(op):
    if op in ("-x", "x%"):
        for x in EXTREMES:
            yield f"=-({x})" if op == "-x" else f"=({x})%"
        return
    for a in EXTREMES:
        for b in EXTREMES:
            yield f"=({a}){op}({b})"


def _escaped_exception(detail: str) -> bool:
    head = detail.partition(":")[0]
    cls = getattr(builtins, head, None)
    return isinstance(cls, type) and issubclass(cls, BaseException)


def _bad_cells(value):
    if isinstance(value, Array):
        return [bad for c in value.cells() for bad in _bad_cells(c)]
    if isinstance(value, float) and not math.isfinite(value):
        return [value]
    if isinstance(value, ErrorValue) and _escaped_exception(value.detail):
        return [value]
    return []


def _check_cells(formulas):
    wb = Workbook()
    failures = {}
    for formula in formulas:
        wb.set_cell("A1", formula)
        wb.recalculate()
        bad = _bad_cells(wb.cells[wb.address("A1")].value)
        if bad:
            failures[formula] = bad
    assert failures == {}


@pytest.mark.parametrize("name", sorted(BASE))
def test_builtin_extremes(name):
    _check_cells(_builtin_formulas(name))


@pytest.mark.parametrize("op", BINARY_OPS + ["-x", "x%"])
def test_operator_extremes(op):
    _check_cells(_operator_formulas(op))

