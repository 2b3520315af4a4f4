import math

import pytest
from hypothesis import given, strategies as st

from gridlambda.values import (
    EMPTY,
    NA,
    Array,
    DateSerial,
    ErrorKind,
    ErrorValue,
    broadcast_shape,
    cell_in,
    coerce_to_number,
    coerce_to_text,
    common_shape,
    compare_scalars,
    lift_elementwise,
    render_cell,
)


def add(a, b):
    na, nb = coerce_to_number(a), coerce_to_number(b)
    if isinstance(na, ErrorValue):
        return na
    if isinstance(nb, ErrorValue):
        return nb
    return na + nb


# -- coercion -----------------------------------------------------------------


def test_boolean_coercion():
    assert coerce_to_number(True) == 1.0
    assert coerce_to_number(False) == 0.0


def test_decimal_text_parse_matches_float():
    for text in ["2.5", " 2.5 ", "1e3", "-4.25", "0.125"]:
        assert coerce_to_number(text) == float(text)


def test_non_numeric_text_is_value_error():
    out = coerce_to_number("abc")
    assert isinstance(out, ErrorValue) and out.kind == ErrorKind.VALUE


def test_empty_coerces_to_zero():
    assert coerce_to_number(EMPTY) == 0.0


# -- broadcasting -------------------------------------------------------------


def test_column_times_row_broadcast():
    assert broadcast_shape((2, 1), (1, 8)) == (2, 8)


def test_scalar_stretch():
    assert broadcast_shape((3, 3), (1, 1)) == (3, 3)


def test_mismatch_resolves_to_max_with_na_fill():
    assert broadcast_shape((2, 3), (3, 3)) == (3, 3)
    a = Array(((1.0, 2.0, 3.0), (4.0, 5.0, 6.0)))
    b = Array(((10.0,) * 3,) * 3)
    out = lift_elementwise(add, (a, b))
    assert out.shape == (3, 3)
    assert out.rows[0] == (11.0, 12.0, 13.0)
    assert out.rows[2] == (NA, NA, NA)


@given(
    st.tuples(st.integers(1, 9), st.integers(1, 9)),
    st.tuples(st.integers(1, 9), st.integers(1, 9)),
)
def test_broadcast_commutative(a, b):
    assert broadcast_shape(a, b) == broadcast_shape(b, a)


# -- lifting ------------------------------------------------------------------


def mod3(a, b=3.0):
    n = coerce_to_number(a)
    if isinstance(n, ErrorValue):
        return n
    return n - 3.0 * math.floor(n / 3.0)


def test_mod_column_against_scalar():
    col = Array.col([float(k) for k in range(1, 11)])
    out = lift_elementwise(lambda a, b: mod3(a), (col, 3.0))
    expected = [float(k % 3) for k in range(1, 11)]
    assert [r[0] for r in out.rows] == expected


def test_aligned_addition():
    out = lift_elementwise(add, (Array.col([1.0, 2.0]), Array.col([10.0, 20.0])))
    assert out.rows == ((11.0,), (22.0,))


def test_error_cell_passes_through():
    ref = ErrorValue(ErrorKind.REF)
    out = lift_elementwise(add, (Array.col([1.0, ref]), 2.0))
    assert out.rows == ((3.0,), (ref,))


def test_all_scalar_inputs_give_scalar():
    assert lift_elementwise(add, (1.0, 2.0)) == 3.0


scalars = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(float),
    st.just(ErrorValue(ErrorKind.NA)),
    st.just(ErrorValue(ErrorKind.REF)),
)


@st.composite
def small_arrays(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    data = [[draw(scalars) for _ in range(cols)] for _ in range(rows)]
    return Array(data)


@given(small_arrays(), small_arrays())
def test_lift_output_shape_is_broadcast_shape(a, b):
    out = lift_elementwise(add, (a, b))
    assert out.shape == broadcast_shape(a.shape, b.shape)


def lift_by_cell(op, args):
    """The definition of lifting: each cell of the broadcast shape read with
    `cell_in`, the first error operand winning."""
    if not any(isinstance(a, Array) for a in args):
        err = next((a for a in args if isinstance(a, ErrorValue)), None)
        return err if err is not None else op(*args)
    shape = common_shape(args)
    out = []
    for r in range(shape[0]):
        row = []
        for c in range(shape[1]):
            cells = [cell_in(a, shape, r, c) for a in args]
            err = next((x for x in cells if isinstance(x, ErrorValue)), None)
            row.append(err if err is not None else op(*cells))
        out.append(row)
    return Array(out)


@given(st.lists(st.one_of(scalars, small_arrays()), min_size=1, max_size=3))
def test_lift_matches_per_cell_definition(args):
    # The op returns its operands, so every cell shows which inputs reached it;
    # error cells compare by kind, so the first error operand must win.
    assert lift_elementwise(lambda *cells: cells, args) == lift_by_cell(lambda *cells: cells, args)


@given(small_arrays())
def test_lift_maps_error_cells_identically(arr):
    out = lift_elementwise(lambda x: coerce_to_number(x), (arr,))
    for r in range(arr.n_rows):
        for c in range(arr.n_cols):
            if isinstance(arr.at(r, c), ErrorValue):
                assert out.at(r, c) == arr.at(r, c)


# -- comparison ---------------------------------------------------------------


def test_text_comparison_case_insensitive():
    assert compare_scalars("ABC", "abc") == 0
    assert compare_scalars("a", "B") < 0


def test_type_ordering_numbers_text_booleans():
    assert compare_scalars(1e9, "a") < 0
    assert compare_scalars("zzz", False) < 0
    assert compare_scalars(False, True) < 0


def test_empty_equals_empty_text_and_zero():
    assert compare_scalars(EMPTY, "") == 0
    assert compare_scalars(EMPTY, 0.0) == 0
    assert compare_scalars(EMPTY, False) == 0


def test_error_operand_propagates():
    assert compare_scalars(NA, 1.0) == NA


# -- rendering ----------------------------------------------------------------


def test_render_error_strings_exact():
    expected = {
        ErrorKind.DIV0: "#DIV/0!", ErrorKind.VALUE: "#VALUE!", ErrorKind.REF: "#REF!",
        ErrorKind.NAME: "#NAME?", ErrorKind.NUM: "#NUM!", ErrorKind.NA: "#N/A",
        ErrorKind.CALC: "#CALC!", ErrorKind.SPILL: "#SPILL!", ErrorKind.CIRCULAR: "#CIRC!",
    }
    for kind, text in expected.items():
        assert render_cell(ErrorValue(kind)) == text


def test_render_numbers():
    assert render_cell(3.0) == "3"
    assert render_cell(0.1) == "0.1"
    assert render_cell(17958.5632602213) == "17958.5632602213"
    assert render_cell(True) == "TRUE"
    assert render_cell(EMPTY) == ""


def test_render_date_serial_iso():
    assert render_cell(DateSerial(41548)) == "2013-10-01"
    assert coerce_to_text(DateSerial(41578)) == "2013-10-31"


def test_fifteen_significant_digits():
    assert render_cell(1 / 3) == "0.333333333333333"


def test_rectangularity_enforced():
    with pytest.raises(ValueError):
        Array(((1.0, 2.0), (3.0,)))
    with pytest.raises(ValueError):
        Array(())
    with pytest.raises(ValueError):
        Array([()])
    with pytest.raises(ValueError):
        Array([[1.0], [2.0, 3.0]])
    with pytest.raises(ValueError):
        Array(((), (1.0,)))
    with pytest.raises(ValueError):
        Array(((1.0,), ()))
