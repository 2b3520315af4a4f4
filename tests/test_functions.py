"""Built-in function library against independent oracles and properties."""

import datetime as dt
import math
import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from gridlambda import Workbook
from gridlambda.values import Array, ErrorKind, ErrorValue


@pytest.fixture(scope="module")
def wb():
    wb = Workbook()
    wb.define_name("Sumλ", "=LAMBDA(x, SUM(x))")
    wb.define_name("Addλ", "=LAMBDA(x, y, x + y)")
    return wb


def kind(v):
    assert isinstance(v, ErrorValue), f"expected an error, got {v!r}"
    return v.kind


def col(arr):
    assert isinstance(arr, Array), f"expected array, got {arr!r}"
    return arr.column()


def lit(values):
    if isinstance(values[0], (list, tuple)):
        return "{" + ";".join(",".join(repr(float(v)) for v in row) for row in values) + "}"
    return "{" + ";".join(repr(float(v)) for v in values) + "}"


# -- BYROW / BYCOL ---------------------------------------------------------------


def test_byrow_investment_rows(wb):
    out = wb.evaluate_formula("=BYROW({500,480;525,499}, Sumλ)")
    assert col(out) == [980.0, 1024.0]
    assert out.shape == (2, 1)


def test_bycol(wb):
    out = wb.evaluate_formula("=BYCOL({1,2;3,4}, Sumλ)")
    assert out.shape == (1, 2) and col(out) == [4.0, 6.0]


def test_bycol_seasonality(wb):
    sales = [10, 20, 30, 40, 20, 40, 60, 80]
    total = sum(sales)
    expected = [(sales[c] + sales[c + 4]) / total for c in range(4)]
    out = wb.evaluate_formula(
        "=LET(salesArray, WRAPROWS({10,20,30,40,20,40,60,80}, 4),"
        " BYCOL(salesArray / SUM(salesArray), Sumλ))"
    )
    assert col(out) == pytest.approx(expected, rel=1e-12)


def test_byrow_nonscalar_slice_is_calc(wb):
    out = wb.evaluate_formula("=BYROW({1,2;3,4}, LAMBDA(x, x * 2))")
    assert [kind(v) for v in col(out)] == [ErrorKind.CALC, ErrorKind.CALC]


def test_byrow_wrong_arity_lambda(wb):
    assert kind(wb.evaluate_formula("=BYROW({1;2}, Addλ)")) == ErrorKind.VALUE


# -- SCAN / REDUCE ---------------------------------------------------------------


def test_scan_prefix_sums(wb):
    assert col(wb.evaluate_formula("=SCAN(0, {1;2;3}, Addλ)")) == [1.0, 3.0, 6.0]


def test_scan_corkscrew_balances(wb):
    revenue = [105000 * 1.05 ** k for k in range(6)]
    cogs = [135000, 125000, 115000, 105000, 95000, 85000]
    flows = [r - c for r, c in zip(revenue, cogs)]
    acc, expected = 0.0, []
    for f in flows:
        acc += f
        expected.append(acc)
    out = wb.evaluate_formula(
        "=SCAN(0, 105000 * 1.05 ^ SEQUENCE(1, 6, 0) - {135000,125000,115000,105000,95000,85000}, Addλ)"
    )
    assert col(out) == expected


def test_scan_preserves_shape(wb):
    out = wb.evaluate_formula("=SCAN(0, {1,2;3,4}, Addλ)")
    assert out.shape == (2, 2)
    assert out.rows == ((1.0, 3.0), (6.0, 10.0))


def test_scan_array_init_rejected(wb):
    assert kind(wb.evaluate_formula("=SCAN({1;2}, {1;2}, Addλ)")) == ErrorKind.VALUE


def test_reduce_fold(wb):
    assert wb.evaluate_formula("=REDUCE(0, {1;2;3}, Addλ)") == 6.0
    assert wb.evaluate_formula("=REDUCE(1, {2;3;4}, LAMBDA(a, b, a*b))") == 24.0


def test_reduce_array_accumulator_builds_trajectory(wb):
    # Row-stacking through REDUCE: the loophole a scan-of-rows rides on.
    out = wb.evaluate_formula(
        "=REDUCE({0,0}, SEQUENCE(3), LAMBDA(acc, k, VSTACK(acc, TAKE(acc, -1) + HSTACK(k, 2*k))))"
    )
    assert out.rows == ((0.0, 0.0), (1.0, 2.0), (3.0, 6.0), (6.0, 12.0))


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=12))
@settings(max_examples=40, deadline=None)
def test_scan_reduce_coherence(values):
    wb = Workbook()
    wb.define_name("Addλ", "=LAMBDA(x, y, x + y)")
    arr = lit(values)
    scan = wb.evaluate_formula(f"=SCAN(0, {arr}, Addλ)")
    reduce_ = wb.evaluate_formula(f"=REDUCE(0, {arr}, Addλ)")
    assert col(scan)[-1] == reduce_


# -- MAP / MAKEARRAY ---------------------------------------------------------------


def test_map_single(wb):
    assert col(wb.evaluate_formula("=MAP({1;2}, LAMBDA(x, x*x))")) == [1.0, 4.0]


def test_map_two_arrays(wb):
    assert col(wb.evaluate_formula("=MAP({1;2}, {10;20}, Addλ)")) == [11.0, 22.0]


def test_map_error_cell_passes_through(wb):
    out = wb.evaluate_formula("=MAP({1;#N/A}, LAMBDA(x, x+1))")
    assert out.at(0, 0) == 2.0
    assert kind(out.at(1, 0)) == ErrorKind.NA


def test_map_arity_mismatch(wb):
    assert kind(wb.evaluate_formula("=MAP({1;2}, {3;4}, LAMBDA(x, x))")) == ErrorKind.VALUE


def test_makearray(wb):
    out = wb.evaluate_formula("=MAKEARRAY(2, 3, LAMBDA(r, c, r*c))")
    assert out.rows == ((1.0, 2.0, 3.0), (2.0, 4.0, 6.0))
    assert wb.evaluate_formula("=MAKEARRAY(1, 1, LAMBDA(r, c, 7))").rows == ((7.0,),)
    assert kind(wb.evaluate_formula("=MAKEARRAY(0, 1, LAMBDA(r, c, 7))")) == ErrorKind.VALUE


# -- stacking and shaping --------------------------------------------------------


def test_vstack(wb):
    assert wb.evaluate_formula("=VSTACK({1,2}, {3,4})").rows == ((1.0, 2.0), (3.0, 4.0))


def test_vstack_presentation_block(wb):
    out = wb.evaluate_formula('=VSTACK({"",""}, {500,480}, {"",""}, {980,1024})')
    assert out.rows[0] == ("", "")
    assert out.rows[1] == (500.0, 480.0)
    assert out.shape == (4, 2)


def test_hstack_ragged_pads_na(wb):
    out = wb.evaluate_formula("=HSTACK({1;2}, {3})")
    assert out.at(0, 0) == 1.0 and out.at(0, 1) == 3.0
    assert out.at(1, 0) == 2.0
    assert kind(out.at(1, 1)) == ErrorKind.NA


def test_vstack_ragged_pads_na(wb):
    out = wb.evaluate_formula("=VSTACK({1,2}, {9})")
    assert out.rows[0] == (1.0, 2.0)
    assert out.at(1, 0) == 9.0 and kind(out.at(1, 1)) == ErrorKind.NA


def test_vstack_shares_full_width_rows():
    from gridlambda.functions import _vstack

    wide = Array(((1.0, 2.0), (3.0, 4.0)))
    out = _vstack(None, wide, Array(((9.0,),)), wide)
    assert out.shape == (5, 2)
    assert all(out.rows[r] is wide.rows[r % 3] for r in (0, 1, 3, 4))
    assert out.rows[2][0] == 9.0 and kind(out.rows[2][1]) == ErrorKind.NA


def test_take_drop_examples(wb):
    assert col(wb.evaluate_formula("=DROP({1;2;3}, -1)")) == [1.0, 2.0]
    assert col(wb.evaluate_formula("=TAKE({1;2;3}, 2)")) == [1.0, 2.0]
    assert wb.evaluate_formula("=DROP({1,2;3,4}, , 1)").rows == ((2.0,), (4.0,))
    assert col(wb.evaluate_formula("=TAKE({1;2;3}, -2)")) == [2.0, 3.0]


def test_take_drop_beyond_extent_errors(wb):
    assert kind(wb.evaluate_formula("=TAKE({1;2}, 3)")) == ErrorKind.VALUE
    assert kind(wb.evaluate_formula("=DROP({1;2}, 2)")) == ErrorKind.VALUE
    assert kind(wb.evaluate_formula("=TAKE({1;2}, 0)")) == ErrorKind.VALUE


@given(st.integers(1, 7), st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_take_drop_partition(k, rows):
    if k >= rows:
        return
    wb = Workbook()
    values = [[float(r * 10 + c) for c in range(2)] for r in range(rows)]
    arr = lit(values)
    joined = wb.evaluate_formula(f"=VSTACK(TAKE({arr}, {k}), DROP({arr}, {k}))")
    original = wb.evaluate_formula(f"={arr}")
    assert joined.rows == original.rows


def test_wraprows(wb):
    out = wb.evaluate_formula("=WRAPROWS({1,2,3,4,5,6,7,8}, 4)")
    assert out.rows == ((1.0, 2.0, 3.0, 4.0), (5.0, 6.0, 7.0, 8.0))
    padded = wb.evaluate_formula("=WRAPROWS({1,2,3}, 2)")
    assert padded.at(1, 0) == 3.0 and kind(padded.at(1, 1)) == ErrorKind.NA
    custom = wb.evaluate_formula("=WRAPROWS({1,2,3}, 2, 0)")
    assert custom.at(1, 1) == 0.0
    assert kind(wb.evaluate_formula("=WRAPROWS({1,2;3,4}, 2)")) == ErrorKind.VALUE


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=20), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_wraprows_inverse(values, width):
    wb = Workbook()
    out = wb.evaluate_formula(f"=WRAPROWS({lit(values)}, {width})")
    flat = [v for v in out.column() if not isinstance(v, ErrorValue)]
    assert flat == [float(v) for v in values]


def test_sequence(wb):
    assert col(wb.evaluate_formula("=SEQUENCE(4, , 0)")) == [0.0, 1.0, 2.0, 3.0]
    row = wb.evaluate_formula("=SEQUENCE(1, 24)")
    assert row.shape == (1, 24) and col(row) == [float(k) for k in range(1, 25)]
    assert wb.evaluate_formula("=SEQUENCE(2, 2, 10, 5)").rows == ((10.0, 15.0), (20.0, 25.0))
    assert col(wb.evaluate_formula("=SEQUENCE(2, , 3, 4)")) == [3.0, 7.0]
    assert kind(wb.evaluate_formula("=SEQUENCE(0)")) == ErrorKind.VALUE


def test_sequence_overflow_is_num_error(wb):
    out = wb.evaluate_formula("=SEQUENCE(2, 1, 1e308, 1e308)")
    assert out.at(0, 0) == 1e308
    assert kind(out.at(1, 0)) == ErrorKind.NUM
    assert kind(wb.evaluate_formula("=SEQUENCE(1, 3, -1e308, -1e308)").at(0, 2)) == ErrorKind.NUM


# -- FILTER / SORT -----------------------------------------------------------------


def test_filter(wb):
    assert col(wb.evaluate_formula("=FILTER({1;2;3}, {TRUE;FALSE;TRUE})")) == [1.0, 3.0]
    assert kind(wb.evaluate_formula("=FILTER({1;2}, {FALSE;FALSE})")) == ErrorKind.CALC
    assert wb.evaluate_formula('=FILTER({1;2}, {FALSE;FALSE}, "none")') == "none"
    assert kind(wb.evaluate_formula("=FILTER({1;2;3}, {TRUE;FALSE})")) == ErrorKind.VALUE


def test_filter_columns_with_row_include(wb):
    out = wb.evaluate_formula("=FILTER({1,2,3;4,5,6}, {TRUE,FALSE,TRUE})")
    assert out.rows == ((1.0, 3.0), (4.0, 6.0))


def test_sort(wb):
    assert col(wb.evaluate_formula("=SORT({3;1;2})")) == [1.0, 2.0, 3.0]
    out = wb.evaluate_formula('=SORT({2,"b";1,"a"}, 1)')
    assert out.rows == ((1.0, "a"), (2.0, "b"))
    assert col(wb.evaluate_formula("=SORT({1;3;2}, 1, -1)")) == [3.0, 2.0, 1.0]
    assert kind(wb.evaluate_formula("=SORT({1;2}, 5)")) == ErrorKind.VALUE


def test_sort_numbers_before_text_errors_last(wb):
    out = wb.evaluate_formula('=SORT(VSTACK("b", 10, #N/A, 2, "A"))')
    cells = col(out)
    assert cells[:2] == [2.0, 10.0]
    assert [c.casefold() if isinstance(c, str) else c for c in cells[2:4]] == ["a", "b"]
    assert kind(cells[4]) == ErrorKind.NA


def test_sort_stable(wb):
    out = wb.evaluate_formula('=SORT({1,"first";2,"x";1,"second"}, 1)')
    assert out.rows == ((1.0, "first"), (1.0, "second"), (2.0, "x"))


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=15))
@settings(max_examples=40, deadline=None)
def test_sort_is_permutation(values):
    wb = Workbook()
    out = wb.evaluate_formula(f"=SORT({lit(values)})")
    assert sorted(col(out)) == sorted(float(v) for v in values)


# -- reductions ----------------------------------------------------------------------


def test_sum_count_average(wb):
    assert wb.evaluate_formula("=SUM({1;2;3})") == 6.0
    assert wb.evaluate_formula("=COUNT({5%;4%;3%})") == 3.0
    assert wb.evaluate_formula("=AVERAGE({1;2;3})") == 2.0
    assert kind(wb.evaluate_formula('=AVERAGE({"a";"b"})')) == ErrorKind.DIV0


def test_reductions_overflow_to_num_error(wb):
    assert kind(wb.evaluate_formula("=SUM(1e308,1e308)")) == ErrorKind.NUM
    assert kind(wb.evaluate_formula("=AVERAGE(1e308,1e308)")) == ErrorKind.NUM


def test_sum_ignores_booleans_in_arrays(wb):
    assert wb.evaluate_formula("=SUM(IF({1;2}={3;2}, 100))") == 100.0
    assert wb.evaluate_formula('=SUM(VSTACK(1, TRUE, "7", 2))') == 3.0


def test_sum_accumulates_left_to_right(wb):
    # Compensated summation would give 1; the engine adds in argument order.
    assert wb.evaluate_formula("=SUM(1e16, 1, -1e16)") == 0.0
    assert wb.evaluate_formula("=SUM({1e16;1;-1e16})") == 0.0
    assert wb.evaluate_formula("=AVERAGE(1e16, 1, -1e16)") == 0.0


def test_reduction_errors_win_in_argument_order(wb):
    assert kind(wb.evaluate_formula('=SUM(1, "abc", 1/0)')) == ErrorKind.VALUE
    assert kind(wb.evaluate_formula('=SUM({1;#N/A}, "abc")')) == ErrorKind.NA
    assert kind(wb.evaluate_formula('=COUNT(1, "abc", {2;#DIV/0!})')) == ErrorKind.DIV0
    assert wb.evaluate_formula('=COUNT(1, "abc", TRUE, "2")') == 3.0


def test_sum_direct_scalars_coerce(wb):
    assert wb.evaluate_formula('=SUM(1, TRUE, "2")') == 4.0
    assert kind(wb.evaluate_formula('=SUM(1, "abc")')) == ErrorKind.VALUE


def test_count_ignores_text_cells(wb):
    assert wb.evaluate_formula('=COUNT(VSTACK(1, "x", TRUE, 2))') == 2.0


def test_sum_error_cell_propagates(wb):
    assert kind(wb.evaluate_formula("=SUM({1;#REF!})")) == ErrorKind.REF


# -- integer math ----------------------------------------------------------------------


def test_mod_sign_of_divisor_table(wb):
    for a in range(-7, 8):
        for b in (-3, -2, 2, 3, 5):
            out = wb.evaluate_formula(f"=MOD({a}, {b})")
            assert out == a - b * math.floor(a / b), (a, b)


def test_mod_examples(wb):
    assert wb.evaluate_formula("=MOD(10, 3)") == 1.0
    assert wb.evaluate_formula("=MOD(-1, 3)") == 2.0
    assert kind(wb.evaluate_formula("=MOD(1, 0)")) == ErrorKind.DIV0


def test_quotient(wb):
    assert wb.evaluate_formula("=QUOTIENT(9, 3)") == 3.0
    assert wb.evaluate_formula("=QUOTIENT(-7, 2)") == -3.0
    assert kind(wb.evaluate_formula("=QUOTIENT(1, 0)")) == ErrorKind.DIV0


def test_mod_and_quotient_overflow_is_num_error(wb):
    assert kind(wb.evaluate_formula("=MOD(1e308,1e-308)")) == ErrorKind.NUM
    assert kind(wb.evaluate_formula("=QUOTIENT(1e308,1e-308)")) == ErrorKind.NUM


def test_mod_lifts_over_arrays(wb):
    out = wb.evaluate_formula("=MOD({1;2;3;4;5;6;7;8;9;10}, 3)")
    assert col(out) == [float(k % 3) for k in range(1, 11)]


# -- MMULT --------------------------------------------------------------------------


def test_mmult(wb):
    assert wb.evaluate_formula("=MMULT({1,2;3,4}, {1;1})").rows == ((3.0,), (7.0,))
    assert wb.evaluate_formula("=MMULT({1,2,3}, {1;1;1})").rows == ((6.0,),)
    assert kind(wb.evaluate_formula("=MMULT({1,2;3,4}, {1;2;3})")) == ErrorKind.VALUE
    assert kind(wb.evaluate_formula('=MMULT({1,"x"}, {1;1})')) == ErrorKind.VALUE


def test_mmult_overflow_is_num_error(wb):
    out = wb.evaluate_formula("=MMULT({1e308,1e308},{1e308;1e308})")
    assert kind(out.at(0, 0)) == ErrorKind.NUM


def test_byrow_sum_equals_mmult_with_ones():
    wb = Workbook()
    wb.define_name("Sumλ", "=LAMBDA(x, SUM(x))")
    rng = random.Random(5)
    for _ in range(25):
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 7)
        values = [[rng.uniform(-100, 100) for _ in range(cols)] for _ in range(rows)]
        arr = lit(values)
        ones = lit([[1.0]] * cols)
        byrow = wb.evaluate_formula(f"=BYROW({arr}, Sumλ)")
        mm = wb.evaluate_formula(f"=MMULT({arr}, {ones})")
        assert col(byrow) == pytest.approx(col(mm), abs=1e-12)


# -- dates -------------------------------------------------------------------------


EPOCH = dt.date(1899, 12, 30)


def serial(date: dt.date) -> float:
    return float((date - EPOCH).days)


def test_serial_epoch_cross_check():
    # Calendar oracle for the documented anchor serial.
    assert serial(dt.date(2013, 10, 1)) == 41548.0


def test_eomonth_examples(wb):
    assert wb.evaluate_formula("=EOMONTH(41548, 0)") == serial(dt.date(2013, 10, 31))
    assert wb.evaluate_formula("=1 + EOMONTH(41578, -1)") == 41548.0
    assert wb.evaluate_formula("=YEAR(41670)") == 2014.0
    assert wb.evaluate_formula("=MONTH(41548)") == 10.0


def test_pre_1900_serials_rejected(wb):
    assert kind(wb.evaluate_formula("=EOMONTH(60, 0)")) == ErrorKind.NUM
    assert kind(wb.evaluate_formula("=YEAR(1)")) == ErrorKind.NUM


# Serials start at 3000 so a 60-month hop can never land the intermediate
# date inside the rejected pre-1900-03 zone.
@given(st.integers(3000, 80000), st.integers(-60, 60), st.integers(-60, 60))
@settings(max_examples=60, deadline=None)
def test_eomonth_composes(d, a, b):
    wb = Workbook()
    nested = wb.evaluate_formula(f"=EOMONTH(EOMONTH({d}, {a}), {b})")
    direct = wb.evaluate_formula(f"=EOMONTH({d}, {a + b})")
    assert nested == direct


def test_eomonth_lifts(wb):
    out = wb.evaluate_formula("=EOMONTH(41548, SEQUENCE(1, 3, 0))")
    assert col(out) == [serial(dt.date(2013, m, last)) for m, last in ((10, 31), (11, 30), (12, 31))]


# -- INDEX / ROW -------------------------------------------------------------------


def test_index_vector(wb):
    assert wb.evaluate_formula("=INDEX({5%;4%;3%}, 2)") == 0.04
    assert wb.evaluate_formula("=INDEX({1,2;3,4}, 2, 1)") == 3.0
    assert kind(wb.evaluate_formula("=INDEX({1;2}, 5)")) == ErrorKind.REF
    assert kind(wb.evaluate_formula("=INDEX({1;2}, 0)")) == ErrorKind.REF


@pytest.mark.parametrize("literal", ["{7}", "{1,2,3,4}", "{1;2;3;4}", "{#N/A,2}"])
def test_index_vector_reads_the_flattened_cell(wb, literal):
    flat = col(wb.evaluate_formula(f"={literal}"))
    for i in range(0, len(flat) + 2):
        got = wb.evaluate_formula(f"=INDEX({literal}, {i})")
        if 1 <= i <= len(flat):
            assert got == flat[i - 1]
        else:
            assert kind(got) == ErrorKind.REF


def test_index_whole_row_of_matrix(wb):
    out = wb.evaluate_formula("=INDEX({1,2;3,4}, 2)")
    assert out.rows == ((3.0, 4.0),)


def test_row():
    wb = Workbook()
    assert wb.evaluate_formula("=ROW(B7)") == 7.0
    out = wb.evaluate_formula("=ROW(A2:A4)")
    assert col(out) == [2.0, 3.0, 4.0]


def test_row_through_lambda_parameter():
    wb = Workbook()
    wb.define_name("Rowλ", "=LAMBDA(record, table, ROW(record) - ROW(INDEX(table, 1, 1)) + 1)")
    wb.set_cell("B5", 1.0)
    wb.recalculate()
    assert wb.evaluate_formula("=Rowλ(B7:C7, B5:C10)") == 3.0


@pytest.mark.parametrize("formula", [
    "=ROW(LET(i, INDEX(B1:B3, 2, 1), i))",
    "=LAMBDA(c, ROW(c))(INDEX(B1:B3, 2, 1))",
])
def test_row_of_a_reference_held_by_a_name(wb, formula):
    # INDEX returns a reference, which a LET name or a lambda parameter keeps.
    assert wb.evaluate_formula(formula) == 2.0


@pytest.fixture
def one_cell_region():
    wb = Workbook()
    wb.set_cell("E1", "=SEQUENCE(1)")
    wb.recalculate()
    return wb


def test_a_one_by_one_lambda_result_is_an_element(wb):
    assert col(wb.evaluate_formula("=MAP({1,2}, LAMBDA(x, SEQUENCE(1)))")) == [1.0, 1.0]


def test_index_into_a_one_by_one_region_is_an_element(one_cell_region):
    out = one_cell_region.evaluate_formula("=MAP({1,2}, LAMBDA(x, INDEX(E1#, 1, 1) * 2))")
    assert col(out) == [2.0, 2.0]


def test_a_one_by_one_region_read_whole_places_a_region(one_cell_region):
    wb = one_cell_region
    wb.set_cell("F1", "=E1#")
    wb.recalculate()
    assert wb.spill_region("F1") == (1, 1)
    assert wb.evaluate_formula("=F1#").rows == ((1.0,),)


def test_a_one_cell_range_reads_as_the_cell_value():
    wb = Workbook()
    wb.set_cell("A9", 5.0)
    wb.set_cell("G1", "=A9:A9")
    wb.recalculate()
    assert wb.cell_value("Sheet1", 1, 7) == 5.0
    assert wb.spill_region("G1") is None


@pytest.mark.parametrize("formula, value", [
    ("=SEQUENCE(INDEX(E1#, 1, 1))", 1.0),
    ("=INDEX(B1:B9, INDEX(E1#, 1, 1))", 7.0),
    ("=SEQUENCE(INDEX(D1:D3, 2))", 1.0),
    ("=INDEX(D1:D3, 2) * 2", 2.0),
    ("=INDEX(E1#, 1, 1) * 2", 2.0),
])
def test_one_cell_of_a_one_by_one_region_is_a_scalar(one_cell_region, formula, value):
    # Only ``E1#`` itself reads as the placed 1x1 array; a one-cell part of a
    # reference, or a range over the anchor, reads as the cell's value.
    wb = one_cell_region
    wb.set_cell("B1", 7.0)
    wb.set_cell("D2", "=SEQUENCE(1)")
    wb.set_cell("G1", formula)
    wb.set_cell("G2", "=D2:D2")
    wb.recalculate()
    assert wb.cell_value("Sheet1", 1, 7) == value
    assert (wb.spill_region("G1") is not None) == formula.startswith("=SEQUENCE")
    assert wb.cell_value("Sheet1", 2, 7) == 1.0
    assert wb.spill_region("G2") is None


def test_row_of_a_range_needs_no_workbook():
    from gridlambda import parse_formula
    from gridlambda.evaluator import Environment, EvalContext, evaluate

    def run(text):
        return evaluate(parse_formula(text), Environment(), EvalContext())

    assert col(run("=ROW(A1:A3)")) == [1.0, 2.0, 3.0]
    assert run("=ROW(INDEX(A1:A3, 2))") == 2.0
    assert kind(run("=SUM(A1:A3)")) == ErrorKind.REF
    assert kind(run("=@A1:A3")) == ErrorKind.REF


# -- CONVOLVE bridge ------------------------------------------------------------------


def test_convolve_matches_direct_oracle(wb):
    out = wb.evaluate_formula("=CONVOLVE({1;2}, {3;4})")
    assert col(out) == pytest.approx([3.0, 10.0, 8.0], abs=1e-9)
    assert out.n_cols == 1  # column in, column out
    row_out = wb.evaluate_formula("=CONVOLVE({1,2}, {3,4})")
    assert row_out.n_rows == 1


def test_convolve_overflow_is_num_error(wb):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = wb.evaluate_formula("=CONVOLVE({1e308,1e308}, {1e308,1})")
    assert out.shape == (1, 3)
    assert all(kind(c) == ErrorKind.NUM for c in col(out))


def test_convolve_needs_vectors(wb):
    assert kind(wb.evaluate_formula("=CONVOLVE({1,2;3,4}, {1;2})")) == ErrorKind.VALUE


# -- registry ---------------------------------------------------------------------------


def test_registry_enumerable_and_case_insensitive():
    from gridlambda.functions import registry

    names = {b.name for b in registry().values()}
    assert {"MAP", "BYROW", "BYCOL", "SCAN", "REDUCE", "MAKEARRAY", "VSTACK",
            "HSTACK", "TAKE", "DROP", "WRAPROWS", "SEQUENCE", "FILTER", "SORT",
            "SUM", "COUNT", "AVERAGE", "MOD", "QUOTIENT", "MMULT", "EOMONTH",
            "MONTH", "YEAR", "INDEX", "ROW", "ISOMITTED", "CONVOLVE"} <= names
    wb = Workbook()
    assert wb.evaluate_formula("=sum({1;2})") == wb.evaluate_formula("=SUM({1;2})")


def test_registry_holds_one_coercer_per_parameter():
    from gridlambda.functions import registry

    reg = registry()
    assert len(reg["sequence"].coercers) == 4
    assert all(reg["sequence"].coercers)
    # pad reaches WRAPROWS as given; SUM, MAP and the raw IF coerce nothing.
    assert reg["wraprows"].coercers[2] is None
    assert reg["sum"].coercers == reg["map"].coercers == reg["if"].coercers == ()


def test_scan_nonscalar_step_is_calc(wb):
    out = wb.evaluate_formula("=SCAN(0, {1;2}, LAMBDA(a, b, {1;2}))")
    assert [kind(v) for v in col(out)] == [ErrorKind.CALC, ErrorKind.CALC]
