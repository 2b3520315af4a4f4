"""Argument failures per builtin and parameter position.

Each builtin is called on a valid base argument list with one position
replaced by a failing input; the table pins what comes back. Errors show as
their kind, other values in a compact form (``blank`` for an empty cell,
``LAMBDA`` for a closure, ``{a,b;c,d}`` for an array).
"""

import pytest

from gridlambda import Workbook
from gridlambda.functions import registry
from gridlambda.values import EMPTY, OMITTED, Array, Closure, ErrorValue, Ref

# A valid call of each builtin; the table replaces one argument at a time.
BASE = {
    "MAP": ["{1,2}", "{3,4}", "LAMBDA(p, q, p + q)"],
    "BYROW": ["{1,2;3,4}", "LAMBDA(r, SUM(r))"],
    "BYCOL": ["{1,2;3,4}", "LAMBDA(r, SUM(r))"],
    "SCAN": ["0", "{1,2}", "LAMBDA(a, b, a + b)"],
    "REDUCE": ["0", "{1,2}", "LAMBDA(a, b, a + b)"],
    "MAKEARRAY": ["2", "2", "LAMBDA(r, c, r + c)"],
    "ISOMITTED": ["1"],
    "VSTACK": ["{1,2}", "3"],
    "HSTACK": ["{1;2}", "3"],
    "TAKE": ["{1,2;3,4}", "1", "1"],
    "DROP": ["{1,2;3,4}", "1", "1"],
    "WRAPROWS": ["{1,2,3}", "2", "0"],
    "SEQUENCE": ["2", "2", "1", "1"],
    "FILTER": ["{1;2;3}", "{TRUE;FALSE;TRUE}", "0"],
    "SORT": ["{3,1;2,2}", "1", "-1"],
    "SUM": ["1", "2"],
    "COUNT": ["1", "2"],
    "AVERAGE": ["1", "2"],
    "MOD": ["7", "3"],
    "QUOTIENT": ["7", "3"],
    "MMULT": ["{1,2;3,4}", "{1;1}"],
    "EOMONTH": ["45000", "1"],
    "MONTH": ["45000"],
    "YEAR": ["45000"],
    "INDEX": ["{1,2;3,4}", "2", "1"],
    "IF": ["TRUE", "1", "2"],
    "ROW": ["A5"],
    "CONVOLVE": ["{1,2}", "{1,1}"],
}

# An error other than #VALUE!, text that does not coerce, a blank cell, an
# omitted slot, a lambda, and a 2x2 array where a scalar is wanted.
INPUTS = ["#N/A", '"x"', "Z99", "", "LAMBDA(p, p)", "{1,2;3,4}"]

# (builtin, position) -> the result for each input, in INPUTS order.
TABLE = {
    ("MAP", 0): ['#N/A', '{#VALUE!,#VALUE!}', '{3,4}', '#VALUE!', '#VALUE!', '{4,6;6,8}'],
    ("MAP", 1): ['#N/A', '{#VALUE!,#VALUE!}', '{1,2}', '#VALUE!', '#VALUE!', '{2,4;4,6}'],
    ("MAP", 2): ['#VALUE!', '#VALUE!', '#VALUE!', '#VALUE!', '#VALUE!', '#VALUE!'],
    ("BYROW", 0): ['#N/A', '{0}', '{0}', '#VALUE!', '#VALUE!', '{3;7}'],
    ("BYROW", 1): ['#VALUE!', '#VALUE!', '#VALUE!', '#VALUE!', '{#CALC!;#CALC!}', '#VALUE!'],
    ("BYCOL", 0): ['#N/A', '{0}', '{0}', '#VALUE!', '#VALUE!', '{4,6}'],
    ("BYCOL", 1): ['#VALUE!', '#VALUE!', '#VALUE!', '#VALUE!', '{#CALC!,#CALC!}', '#VALUE!'],
    ("SCAN", 0): ['#N/A', '{#VALUE!,#VALUE!}', '{1,3}', '{1,3}', '#VALUE!', '#VALUE!'],
    ("SCAN", 1): ['#N/A', '{#VALUE!}', '{0}', '#VALUE!', '#VALUE!', '{1,3;6,10}'],
    ("SCAN", 2): ['#VALUE!', '#VALUE!', '#VALUE!', '#VALUE!', '#VALUE!', '#VALUE!'],
    ("REDUCE", 0): ['#N/A', '#VALUE!', '3', '3', '#VALUE!', '{4,5;6,7}'],
    ("REDUCE", 1): ['#N/A', '#VALUE!', '0', '#VALUE!', '#VALUE!', '10'],
    ("REDUCE", 2): ['#VALUE!', '#VALUE!', '#VALUE!', '#VALUE!', '#VALUE!', '#VALUE!'],
    ("MAKEARRAY", 0): ['#N/A', '#VALUE!', '#VALUE!', '#VALUE!', '#VALUE!', '#VALUE!'],
    ("MAKEARRAY", 1): ['#N/A', '#VALUE!', '#VALUE!', '#VALUE!', '#VALUE!', '#VALUE!'],
    ("MAKEARRAY", 2): ['#VALUE!', '#VALUE!', '#VALUE!', '#VALUE!', '#VALUE!', '#VALUE!'],
    ("ISOMITTED", 0): ['FALSE', 'FALSE', 'FALSE', '#VALUE!', 'FALSE', 'FALSE'],
    ("VSTACK", 0): ['{#N/A;3}', "{'x';3}", '{blank;3}', '{blank;3}', '{#CALC!;3}', '{1,2;3,4;3,#N/A}'],
    ("VSTACK", 1): ['{1,2;#N/A,#N/A}', "{1,2;'x',#N/A}", '{1,2;blank,#N/A}', '{1,2;blank,#N/A}', '{1,2;#CALC!,#N/A}', '{1,2;1,2;3,4}'],
    ("HSTACK", 0): ['{#N/A,3}', "{'x',3}", '{blank,3}', '{blank,3}', '{#CALC!,3}', '{1,2,3;3,4,#N/A}'],
    ("HSTACK", 1): ['{1,#N/A;2,#N/A}', "{1,'x';2,#N/A}", '{1,blank;2,#N/A}', '{1,blank;2,#N/A}', '{1,#CALC!;2,#N/A}', '{1,1,2;2,3,4}'],
    ("TAKE", 0): ['#N/A', "{'x'}", '{blank}', '#VALUE!', '#VALUE!', '{1}'],
    ("TAKE", 1): ['#N/A', '#VALUE!', '{1;3}', '{1;3}', '#VALUE!', '#VALUE!'],
    ("TAKE", 2): ['#N/A', '#VALUE!', '{1,2}', '{1,2}', '#VALUE!', '#VALUE!'],
    ("DROP", 0): ['#N/A', '#VALUE!', '#VALUE!', '#VALUE!', '#VALUE!', '{4}'],
    ("DROP", 1): ['#N/A', '#VALUE!', '{2;4}', '{2;4}', '#VALUE!', '#VALUE!'],
    ("DROP", 2): ['#N/A', '#VALUE!', '{3,4}', '{3,4}', '#VALUE!', '#VALUE!'],
    ("WRAPROWS", 0): ['#N/A', "{'x',0}", '{blank,0}', '#VALUE!', '#VALUE!', '#VALUE!'],
    ("WRAPROWS", 1): ['#N/A', '#VALUE!', '#VALUE!', '#VALUE!', '#VALUE!', '#VALUE!'],
    ("WRAPROWS", 2): ['{1,2;3,#N/A}', "{1,2;3,'x'}", '{1,2;3,blank}', '{1,2;3,#N/A}', '{1,2;3,#CALC!}', '{1,2;3,#CALC!}'],
    ("SEQUENCE", 0): ['#N/A', '#VALUE!', '#VALUE!', '#VALUE!', '#VALUE!', '#VALUE!'],
    ("SEQUENCE", 1): ['#N/A', '#VALUE!', '{1;2}', '{1;2}', '#VALUE!', '#VALUE!'],
    ("SEQUENCE", 2): ['#N/A', '#VALUE!', '{1,2;3,4}', '{1,2;3,4}', '#VALUE!', '#VALUE!'],
    ("SEQUENCE", 3): ['#N/A', '#VALUE!', '{1,2;3,4}', '{1,2;3,4}', '#VALUE!', '#VALUE!'],
    ("FILTER", 0): ['#N/A', '#VALUE!', '#VALUE!', '#VALUE!', '#VALUE!', '#VALUE!'],
    ("FILTER", 1): ['#N/A', '#VALUE!', '#VALUE!', '#VALUE!', '#VALUE!', '#VALUE!'],
    ("FILTER", 2): ['{1;3}', '{1;3}', '{1;3}', '{1;3}', '{1;3}', '{1;3}'],
    ("SORT", 0): ['#N/A', "{'x'}", '{blank}', '#VALUE!', '#VALUE!', '{3,4;1,2}'],
    ("SORT", 1): ['#N/A', '#VALUE!', '{3,1;2,2}', '{3,1;2,2}', '#VALUE!', '#VALUE!'],
    ("SORT", 2): ['#N/A', '#VALUE!', '{2,2;3,1}', '{2,2;3,1}', '#VALUE!', '#VALUE!'],
    ("SUM", 0): ['#N/A', '#VALUE!', '2', '2', '#VALUE!', '12'],
    ("SUM", 1): ['#N/A', '#VALUE!', '1', '1', '#VALUE!', '11'],
    ("COUNT", 0): ['#N/A', '1', '1', '1', '#VALUE!', '5'],
    ("COUNT", 1): ['#N/A', '1', '1', '1', '#VALUE!', '5'],
    ("AVERAGE", 0): ['#N/A', '#VALUE!', '2', '2', '#VALUE!', '2.4'],
    ("AVERAGE", 1): ['#N/A', '#VALUE!', '1', '1', '#VALUE!', '2.2'],
    ("MOD", 0): ['#N/A', '#VALUE!', '0', '0', '#VALUE!', '{1,2;0,1}'],
    ("MOD", 1): ['#N/A', '#VALUE!', '#DIV/0!', '#DIV/0!', '#VALUE!', '{0,1;1,3}'],
    ("QUOTIENT", 0): ['#N/A', '#VALUE!', '0', '0', '#VALUE!', '{0,0;1,1}'],
    ("QUOTIENT", 1): ['#N/A', '#VALUE!', '#DIV/0!', '#DIV/0!', '#VALUE!', '{7,3;2,1}'],
    ("MMULT", 0): ['#N/A', '#VALUE!', '#VALUE!', '#VALUE!', '#VALUE!', '{3;7}'],
    ("MMULT", 1): ['#N/A', '#VALUE!', '#VALUE!', '#VALUE!', '#VALUE!', '{7,10;15,22}'],
    ("EOMONTH", 0): ['#N/A', '#VALUE!', '#NUM!', '#NUM!', '#VALUE!', '{#NUM!,#NUM!;#NUM!,#NUM!}'],
    ("EOMONTH", 1): ['#N/A', '#VALUE!', '#VALUE!', '#VALUE!', '#VALUE!', '{45046,45077;45107,45138}'],
    ("MONTH", 0): ['#N/A', '#VALUE!', '#NUM!', '#VALUE!', '#VALUE!', '{#NUM!,#NUM!;#NUM!,#NUM!}'],
    ("YEAR", 0): ['#N/A', '#VALUE!', '#NUM!', '#VALUE!', '#VALUE!', '{#NUM!,#NUM!;#NUM!,#NUM!}'],
    ("INDEX", 0): ['#N/A', '#REF!', '#REF!', '#VALUE!', '#VALUE!', '3'],
    ("INDEX", 1): ['#N/A', '#VALUE!', '#VALUE!', '#VALUE!', '#VALUE!', '#VALUE!'],
    ("INDEX", 2): ['#N/A', '#VALUE!', '{3,4}', '{3,4}', '#VALUE!', '#VALUE!'],
    ("IF", 0): ['#N/A', '#VALUE!', '2', '2', '#VALUE!', '{1,1;1,1}'],
    ("IF", 1): ['#N/A', "'x'", 'blank', 'FALSE', 'LAMBDA', '{1,2;3,4}'],
    ("IF", 2): ['1', '1', '1', '1', '1', '1'],
    ("ROW", 0): ['#N/A', '#VALUE!', '99', '#VALUE!', '#VALUE!', '#VALUE!'],
    ("CONVOLVE", 0): ['#N/A', '#VALUE!', '{0,0}', '#VALUE!', '#VALUE!', '#VALUE!'],
    ("CONVOLVE", 1): ['#N/A', '#VALUE!', '{0,0}', '#VALUE!', '#VALUE!', '#VALUE!'],
}

# An earlier argument fails its range check and a later one fails to coerce:
# every argument coerces before any range check, so the coercion failure wins.
PRECEDENCE = {
    "=SEQUENCE(0, 1, #N/A)": "#N/A",
    "=TAKE({1,2}, 5, #N/A)": "#N/A",
    "=DROP({1,2}, 0, #DIV/0!)": "#DIV/0!",
    "=INDEX({1,2;3,4}, 9, #N/A)": "#N/A",
}


def show(v) -> str:
    if isinstance(v, ErrorValue):
        return v.kind.value
    if isinstance(v, Closure):
        return "LAMBDA"
    if isinstance(v, Array):
        return "{" + ";".join(",".join(show(c) for c in row) for row in v.rows) + "}"
    if v is EMPTY:
        return "blank"
    if v is OMITTED:
        return "omitted"
    if isinstance(v, bool):
        return "TRUE" if v else "FALSE"
    if isinstance(v, float):
        return f"{v:g}"
    return repr(v)


@pytest.fixture(scope="module")
def wb():
    return Workbook()


def test_table_covers_every_builtin_and_position():
    assert set(BASE) == {b.name for b in registry().values()}
    assert set(TABLE) == {(name, pos) for name, base in BASE.items() for pos in range(len(base))}


def results(wb, name, pos):
    """The result of the base call of ``name`` with each of INPUTS at ``pos``."""
    for value in INPUTS:
        args = list(BASE[name])
        args[pos] = value
        yield wb.evaluate_formula(f"={name}({', '.join(args)})")


@pytest.mark.parametrize("name, pos", list(TABLE), ids=[f"{n}-{p}" for n, p in TABLE])
def test_argument_failures(wb, name, pos):
    got = [show(v) for v in results(wb, name, pos)]
    assert dict(zip(INPUTS, got)) == dict(zip(INPUTS, TABLE[name, pos]))


@pytest.mark.parametrize("name, pos", list(TABLE), ids=[f"{n}-{p}" for n, p in TABLE])
def test_array_elements_are_scalars_or_errors(wb, name, pos):
    for value, result in zip(INPUTS, results(wb, name, pos)):
        assert not isinstance(result, Ref), value
        if isinstance(result, Array):
            for cell in result.cells():
                assert not isinstance(cell, (Array, Closure, Ref)) and cell is not OMITTED, value


@pytest.mark.parametrize("formula", list(PRECEDENCE))
def test_coercion_precedes_range_checks(wb, formula):
    assert show(wb.evaluate_formula(formula)) == PRECEDENCE[formula]
