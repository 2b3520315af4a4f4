"""Workbook recalculation, spill lifecycle, dependency graph, file format."""

import random
import sys
import threading

import pytest

from gridlambda import NameCollision, Workbook, WorkbookFormatError, engine, load_workbook_text
from gridlambda.expr import Literal, col_to_letters, print_expr
from gridlambda.parser import ParseError
from gridlambda.values import Array, Closure, DateSerial, EMPTY, ErrorKind, ErrorValue, render_cell


def kind(v):
    assert isinstance(v, ErrorValue), f"expected an error, got {v!r}"
    return v.kind


def region_cells(wb, anchor):
    """The cells of the region placed at ``anchor``, the anchor included;
    none when it has no region."""
    sheet, row, col = anchor
    nr, nc = wb.spill_region(anchor) or (0, 0)
    return {(sheet, r, c) for r in range(row, row + nr) for c in range(col, col + nc)}


def grid_snapshot(wb):
    """Every visible cell value (content cells and spill members). A lambda
    shows as "a lambda", since closures compare by identity."""
    out = {}
    for addr in {*wb.cells, *(m for anchor in wb.cells for m in region_cells(wb, anchor))}:
        value = wb.cell_value(*addr)
        out[addr] = "a lambda" if isinstance(value, Closure) else value
    return out


def assert_layout_matches_content(wb):
    """Check the layout against one rebuilt from ``cells`` and
    ``spill_region`` alone: placed regions are disjoint, no content cell lies
    in another anchor's region, and over A1:H12 of each sheet ``cell_value``
    shows the content value (the top-left element for an anchor), else the
    element of the region that covers the cell, else a blank."""
    covering = {}
    for anchor in wb.cells:
        for member in region_cells(wb, anchor):
            assert member not in covering, f"{member} is in two regions"
            assert member == anchor or member not in wb.cells, f"{member} is content in a region"
            covering[member] = anchor
    for sheet in wb.sheet_names:
        for r in range(1, 13):
            for c in range(1, 9):
                anchor = covering.get((sheet, r, c), (sheet, r, c))
                value = wb.cells[anchor].value if anchor in wb.cells else None
                if isinstance(value, Array):
                    value = value.at(r - anchor[1], c - anchor[2])
                assert wb.cell_value(sheet, r, c) is (EMPTY if value is None else value)


def assert_matches_fresh_load(wb):
    """Recalculate ``wb`` and check it shows what a fresh load of its content
    shows: every name and cell written back as the text of its formula.
    Both share the column index, so ``wb`` is also checked against a layout
    rebuilt from its content."""
    wb.recalculate()
    assert_layout_matches_content(wb)
    lines = [f"name {n.name} := {print_expr(n.expr)}" for n in wb.names.values()]
    sheet = None
    for (key, row, col), cell in sorted(wb.cells.items()):
        if key != sheet:
            sheet = key
            lines.append(f"sheet {wb.sheet_names[key]}")
        lines.append(f"{col_to_letters(col)}{row} := {print_expr(cell.formula)}")
    fresh = load_workbook_text("\n".join(lines))
    fresh.recalculate()
    assert grid_snapshot(wb) == grid_snapshot(fresh)


# -- recalculation order and determinism --------------------------------------


def test_chain_independent_of_entry_order():
    for order in ([1, 2, 3], [3, 2, 1], [2, 3, 1]):
        wb = Workbook()
        cells = {1: ("A1", "1"), 2: ("A2", "=A1+1"), 3: ("A3", "=A2+1")}
        for k in order:
            addr, content = cells[k]
            wb.set_cell(addr, content if content.startswith("=") else float(content))
        wb.recalculate()
        assert wb.cell_value("Sheet1", 3, 1) == 3.0


def test_recalculate_idempotent():
    wb = Workbook()
    wb.set_cell("A1", "=SEQUENCE(4)")
    wb.set_cell("B1", "=SUM(A1#)")
    wb.recalculate()
    first = grid_snapshot(wb)
    report = wb.recalculate()
    assert grid_snapshot(wb) == first
    assert report.evaluated == 0


def test_confluence_under_shuffled_edit_orders():
    edits = [
        ("A1", 5.0),
        ("A2", "=A1*2"),
        ("B1", "=SEQUENCE(3)"),
        ("C1", "=SUM(B1#) + A2"),
        ("D1", "=IF(C1 > 10, A1, B2)"),
        ("E5", "hello"),
    ]
    baseline = None
    rng = random.Random(99)
    for _ in range(6):
        shuffled = edits[:]
        rng.shuffle(shuffled)
        wb = Workbook()
        for addr, content in shuffled:
            wb.set_cell(addr, content)
        wb.recalculate()
        snap = grid_snapshot(wb)
        if baseline is None:
            baseline = snap
        assert snap == baseline


def test_edit_propagates_through_names():
    wb = Workbook()
    wb.define_name("doubled", "=A1 * 2")
    wb.set_cell("A1", 10.0)
    wb.set_cell("B1", "=doubled + 1")
    wb.recalculate()
    assert wb.cell_value("Sheet1", 1, 2) == 21.0
    wb.set_cell("A1", 100.0)
    wb.recalculate()
    assert wb.cell_value("Sheet1", 1, 2) == 201.0


def test_name_redefinition_dirties_referents():
    wb = Workbook()
    wb.define_name("k", "=1")
    wb.set_cell("A1", "=k + 1")
    wb.recalculate()
    assert wb.cell_value("Sheet1", 1, 1) == 2.0
    wb.define_name("k", "=41")
    wb.recalculate()
    assert wb.cell_value("Sheet1", 1, 1) == 42.0


def test_untaken_branch_still_creates_edge():
    wb = Workbook()
    wb.set_cell("A1", "=IF(TRUE, 1, B9)")
    wb.recalculate()
    assert ("sheet1", 9, 2) in wb.cells[("sheet1", 1, 1)].reads


# -- cycles --------------------------------------------------------------------


def test_two_cycle_both_circ():
    wb = Workbook()
    wb.set_cell("A1", "=A2")
    wb.set_cell("A2", "=A1")
    wb.recalculate()
    assert kind(wb.cell_value("Sheet1", 1, 1)) == ErrorKind.CIRCULAR
    assert kind(wb.cell_value("Sheet1", 2, 1)) == ErrorKind.CIRCULAR


def test_self_reference_circ():
    wb = Workbook()
    wb.set_cell("A1", "=A1+1")
    wb.recalculate()
    assert kind(wb.cell_value("Sheet1", 1, 1)) == ErrorKind.CIRCULAR


def test_downstream_of_cycle_evaluates():
    wb = Workbook()
    wb.set_cell("A1", "=A2")
    wb.set_cell("A2", "=A1")
    wb.set_cell("A3", "=IF(TRUE, 7, A1)")
    wb.set_cell("A4", "=A1+1")
    wb.recalculate()
    assert wb.cell_value("Sheet1", 3, 1) == 7.0
    assert kind(wb.cell_value("Sheet1", 4, 1)) == ErrorKind.CIRCULAR


def test_cycle_resolution_after_breaking_edit():
    wb = Workbook()
    wb.set_cell("A1", "=A2")
    wb.set_cell("A2", "=A1")
    wb.recalculate()
    wb.set_cell("A2", 5.0)
    wb.recalculate()
    assert wb.cell_value("Sheet1", 1, 1) == 5.0


def test_lambda_recursion_is_not_circular():
    wb = Workbook()
    wb.define_name(
        "Factλ", "=LAMBDA(n, IF(n <= 1, 1, n * Factλ(n - 1)))"
    )
    wb.set_cell("A1", "=Factλ(10)")
    wb.recalculate()
    assert wb.cell_value("Sheet1", 1, 1) == 3628800.0


# -- spill lifecycle -------------------------------------------------------------


def test_spill_placement_and_member_values():
    wb = Workbook()
    wb.set_cell("A1", "=SEQUENCE(3)")
    wb.recalculate()
    assert wb.spill_region("A1") == (3, 1)
    assert [wb.cell_value("Sheet1", r, 1) for r in (1, 2, 3)] == [1.0, 2.0, 3.0]


def test_spill_collision_and_unblock():
    wb = Workbook()
    wb.set_cell("A1", "=SEQUENCE(3)")
    wb.set_cell("A3", 99.0)
    wb.recalculate()
    v = wb.cell_value("Sheet1", 1, 1)
    assert kind(v) == ErrorKind.SPILL
    assert "A3" in v.detail
    assert wb.spill_region("A1") is None
    wb.clear_cell("A3")
    wb.recalculate()
    assert wb.spill_region("A1") == (3, 1)
    assert wb.cell_value("Sheet1", 3, 1) == 3.0


def test_writing_into_live_region_blocks_anchor():
    wb = Workbook()
    wb.set_cell("A1", "=SEQUENCE(3)")
    wb.recalculate()
    wb.set_cell("A2", 7.0)
    wb.recalculate()
    assert kind(wb.cell_value("Sheet1", 1, 1)) == ErrorKind.SPILL
    assert wb.cell_value("Sheet1", 2, 1) == 7.0


def test_one_by_one_spill_is_anchor_alone():
    wb = Workbook()
    wb.set_cell("A1", "=SEQUENCE(1)")
    wb.recalculate()
    assert wb.spill_region("A1") == (1, 1)
    assert wb.evaluate_formula("=A1#").shape == (1, 1)


def test_anchor_read_gives_top_left():
    wb = Workbook()
    wb.set_cell("A1", "=SEQUENCE(3, 1, 10)")
    wb.set_cell("C1", "=A1")
    wb.recalculate()
    assert wb.cell_value("Sheet1", 1, 3) == 10.0


def test_resize_vacates_stale_members():
    wb = Workbook()
    wb.set_cell("A1", "=SEQUENCE(B1)")
    wb.set_cell("B1", 4.0)
    wb.set_cell("C1", "=SUM(A1:A10)")
    wb.recalculate()
    assert wb.cell_value("Sheet1", 1, 3) == 10.0
    wb.set_cell("B1", 2.0)
    wb.recalculate()
    assert wb.spill_region("A1") == (2, 1)
    assert wb.cell_value("Sheet1", 3, 1) is EMPTY
    assert wb.cell_value("Sheet1", 1, 3) == 3.0


def test_no_partial_spills_and_exclusive_membership():
    wb = Workbook()
    wb.set_cell("A1", "=SEQUENCE(4)")
    wb.set_cell("B1", "=SEQUENCE(1, 3)")  # spills B1:D1
    wb.recalculate()
    # The two regions are disjoint.
    assert wb.spill_region("A1") == (4, 1)
    assert wb.spill_region("B1") == (1, 3)
    assert not region_cells(wb, ("sheet1", 1, 1)) & region_cells(wb, ("sheet1", 1, 2))
    # New content inside B1's region bounces B1 to #SPILL!; the new anchor
    # itself places cleanly. No cell ever belongs to two regions.
    wb.set_cell("C1", "=SEQUENCE(2)")
    wb.recalculate()
    assert kind(wb.cell_value("Sheet1", 1, 2)) == ErrorKind.SPILL
    assert wb.spill_region("B1") is None
    assert wb.spill_region("C1") == (2, 1)
    regions = [region_cells(wb, anchor) for anchor in wb.cells if wb.spill_region(anchor)]
    assert len(regions) == 2
    for i, a in enumerate(regions):
        for b in regions[i + 1:]:
            assert not (a & b)


def test_contested_region_goes_to_the_earlier_anchor_whatever_the_edit_order():
    # B4:B6 and A6:B7 both want B6. B4 comes first in address order, so it
    # holds B6 even when A6 placed its region first.
    wb = Workbook()
    wb.set_cell("A6", "=SEQUENCE(2,2)")
    wb.recalculate()
    wb.set_cell("B4", "=SEQUENCE(3,1)")
    wb.recalculate()
    assert wb.spill_region("B4") == (3, 1)
    assert wb.spill_region("A6") is None
    assert kind(wb.cell_value("Sheet1", 6, 1)) == ErrorKind.SPILL
    assert wb.cell_value("Sheet1", 6, 2) == 3.0
    assert_matches_fresh_load(wb)


def test_blocked_anchor_retries_when_a_region_shrinks_in_recalculation():
    wb = Workbook()
    wb.define_name("N", 3)
    wb.set_cell("B1", "=SEQUENCE(N)")
    wb.set_cell("A2", "=SEQUENCE(1,2)")
    wb.recalculate()
    assert kind(wb.cell_value("Sheet1", 2, 1)) == ErrorKind.SPILL
    wb.define_name("N", 1)
    wb.recalculate()
    assert wb.spill_region("B1") == (1, 1)
    assert wb.spill_region("A2") == (1, 2)
    assert wb.cell_value("Sheet1", 2, 2) == 2.0
    assert_matches_fresh_load(wb)


def test_spill_beyond_grid_bounds():
    wb = Workbook()
    wb.set_cell("A1048575", "=SEQUENCE(3)")
    wb.recalculate()
    assert kind(wb.cell_value("Sheet1", 1048575, 1)) == ErrorKind.SPILL


def test_spill_dependent_sees_resize():
    wb = Workbook()
    wb.set_cell("A1", "=SEQUENCE(3)")
    wb.set_cell("C1", "=SUM(A1#)")
    wb.recalculate()
    assert wb.cell_value("Sheet1", 1, 3) == 6.0
    wb.set_cell("A1", "=SEQUENCE(4)")
    wb.recalculate()
    assert wb.cell_value("Sheet1", 1, 3) == 10.0


def test_two_regions_stacked_in_one_column():
    wb = load_workbook_text(
        "name n := 3\nA1 := =SEQUENCE(n)\nA5 := =SEQUENCE(3,1,10)\nC1 := =SUM(A1:A8)"
    )
    wb.recalculate()
    assert wb.cell_value("Sheet1", 4, 1) is EMPTY and wb.cell_value("Sheet1", 8, 1) is EMPTY
    assert wb.cell_value("Sheet1", 7, 1) == 12.0
    assert wb.cell_value("Sheet1", 1, 3) == 39.0
    wb.define_name("n", 4)  # the regions now meet: A1:A4 and A5:A7
    wb.recalculate()
    assert wb.cell_value("Sheet1", 1, 3) == 43.0
    assert_matches_fresh_load(wb)
    wb.define_name("n", 5)
    wb.recalculate()
    assert kind(wb.cell_value("Sheet1", 1, 1)) == ErrorKind.SPILL
    assert kind(wb.cell_value("Sheet1", 1, 3)) == ErrorKind.SPILL
    assert_matches_fresh_load(wb)
    wb.clear_cell("A5")
    wb.recalculate()
    assert [wb.cell_value("Sheet1", r, 1) for r in range(1, 8)] == [1, 2, 3, 4, 5, EMPTY, EMPTY]
    assert wb.cell_value("Sheet1", 1, 3) == 15.0
    assert_matches_fresh_load(wb)


@pytest.mark.parametrize(
    "contents, anchor, blocker",
    [
        ([("A1", "=SEQUENCE(3,3)"), ("C2", "1"), ("B3", "1")], "A1", "Sheet1!C2"),
        ([("A1", "=SEQUENCE(3,3)"), ("B3", "1"), ("C2", "1")], "A1", "Sheet1!C2"),
        # An earlier region's cell comes before content in row-major order.
        ([("D1", "=SEQUENCE(3)"), ("A2", "=SEQUENCE(2,4)"), ("B3", "5")], "A2", "Sheet1!D2"),
        ([("D1", "=SEQUENCE(3)"), ("A2", "=SEQUENCE(2,4)"), ("C2", "5")], "A2", "Sheet1!C2"),
    ],
)
def test_spill_error_names_the_first_blocked_cell_in_row_major_order(contents, anchor, blocker):
    wb = Workbook()
    for addr, content in contents:
        wb.set_cell(addr, float(content) if content[0] != "=" else content)
        wb.recalculate()
    fresh = load_workbook_text("\n".join(f"{addr} := {content}" for addr, content in contents))
    fresh.recalculate()
    for book in (wb, fresh):
        value = book.cell_value(*book.address(anchor))
        assert kind(value) == ErrorKind.SPILL and value.detail == f"blocked by {blocker}"
    assert_matches_fresh_load(wb)


def test_a_new_anchor_inside_an_older_region_takes_its_cells():
    wb = Workbook()
    wb.set_cell("A1", "=SEQUENCE(3)")
    wb.recalculate()
    wb.set_cell("A2", "=SEQUENCE(1,2)")
    report = wb.recalculate()
    assert report.passes == 1
    assert kind(wb.cell_value("Sheet1", 1, 1)) == ErrorKind.SPILL
    assert [wb.cell_value("Sheet1", 2, c) for c in (1, 2)] == [1, 2]
    assert wb.cell_value("Sheet1", 3, 1) is EMPTY
    assert_matches_fresh_load(wb)


# -- spill references -----------------------------------------------------------


def test_spill_ref_through_defined_name():
    wb = Workbook()
    wb.set_cell("F2", "=SEQUENCE(6, 2)")
    wb.define_name("return", "=F2")  # any identifier works as a name
    wb.recalculate()
    arr = wb.evaluate_formula("=return#")
    assert arr.shape == (6, 2)
    totals = wb.evaluate_formula("=BYROW(return#, LAMBDA(x, SUM(x)))")
    assert totals.shape == (6, 1)


def test_spill_ref_on_plain_scalar_is_ref_error():
    wb = Workbook()
    wb.set_cell("A1", 5.0)
    wb.recalculate()
    assert kind(wb.evaluate_formula("=A1#")) == ErrorKind.REF


def test_spill_ref_on_errored_anchor_is_ref_error():
    wb = Workbook()
    wb.set_cell("A1", "=SEQUENCE(3)")
    wb.set_cell("A2", 1.0)
    wb.set_cell("B1", "=A1#")
    wb.recalculate()
    assert kind(wb.cell_value("Sheet1", 1, 1)) == ErrorKind.SPILL
    assert kind(wb.cell_value("Sheet1", 1, 2)) == ErrorKind.REF


def test_spill_ref_on_member_is_ref_error():
    wb = Workbook()
    wb.set_cell("A1", "=SEQUENCE(3)")
    wb.recalculate()
    assert kind(wb.evaluate_formula("=A2#")) == ErrorKind.REF


# -- implicit intersection -------------------------------------------------------


def test_intersection_by_row():
    wb = Workbook()
    wb.set_cell("A1", "=SEQUENCE(10)")
    wb.set_cell("B3", "=@$A$1:$A$10")
    wb.recalculate()
    assert wb.cell_value("Sheet1", 3, 2) == 3.0


def test_intersection_outside_extent_is_value_error():
    wb = Workbook()
    wb.set_cell("A1", "=SEQUENCE(10)")
    wb.set_cell("B12", "=@$A$1:$A$10")
    wb.recalculate()
    assert kind(wb.cell_value("Sheet1", 12, 2)) == ErrorKind.VALUE
    assert wb.cell_value("Sheet1", 12, 2).detail == "no cell of Sheet1!A1:A10 in row 12"
    assert wb.evaluate_formula("=@$A$1:$A$10").detail == "no caller"


def test_intersection_by_column_for_row_operand():
    wb = Workbook()
    wb.set_cell("A1", "=SEQUENCE(1, 5, 10)")
    wb.set_cell("C3", "=@$A$1:$E$1")
    wb.recalculate()
    assert wb.cell_value("Sheet1", 3, 3) == 12.0


def test_intersection_single_cell_array():
    wb = Workbook()
    wb.set_cell("B2", "=@{5}")
    wb.recalculate()
    assert wb.cell_value("Sheet1", 2, 2) == 5.0


def test_intersection_scalar_passthrough():
    wb = Workbook()
    wb.set_cell("A1", 9.0)
    wb.set_cell("B1", "=@A1")
    wb.recalculate()
    assert wb.cell_value("Sheet1", 1, 2) == 9.0


# -- defined names ----------------------------------------------------------------


def test_define_name_rejects_cell_shape():
    wb = Workbook()
    with pytest.raises(NameCollision):
        wb.define_name("A1", "=1")


def test_define_name_rejects_builtin_shadow():
    wb = Workbook()
    for bad in ("SUM", "sum", "LET", "lambda", "IF"):
        with pytest.raises(NameCollision):
            wb.define_name(bad, "=1")


def test_names_are_case_insensitive():
    wb = Workbook()
    wb.define_name("Addλ", "=LAMBDA(x, y, x+y)")
    assert wb.evaluate_formula("=ADDΛ(1, 2)") == 3.0


# -- workbook text format ----------------------------------------------------------


def test_workbook_format_roundtrip_semantics():
    text = """
# demo workbook
sheet Main
A1 := 5
A2 := =A1 * 2
B1 := hello world
B2 := TRUE
B3 := #N/A
B4 := 2013-10-01
B5 := =d
B6 := inf
B7 := nan
B8 := 1e999
name Addλ := =LAMBDA(x, y, x + y)
name d := 2013-10-01
sheet Other
A1 := =Main!A2 + 1
"""
    wb = load_workbook_text(text)
    wb.recalculate()
    assert wb.cell_value("Main", 1, 1) == 5.0
    assert wb.cell_value("Main", 2, 1) == 10.0
    assert wb.cell_value("Main", 1, 2) == "hello world"
    assert wb.cell_value("Main", 2, 2) is True
    assert kind(wb.cell_value("Main", 3, 2)) == ErrorKind.NA
    serial = wb.cell_value("Main", 4, 2)
    assert isinstance(serial, DateSerial) and float(serial) == 41548.0
    assert render_cell(wb.cell_value("Main", 5, 2)) == "2013-10-01"
    # Numbers must be finite; any other number-like literal is text.
    assert [wb.cell_value("Main", r, 2) for r in (6, 7, 8)] == ["inf", "nan", "1e999"]
    assert wb.cell_value("Other", 1, 1) == 11.0


def test_workbook_format_error_carries_line():
    with pytest.raises(WorkbookFormatError) as err:
        load_workbook_text("A1 := =1 +\n", path="bad.wb")
    assert "bad.wb:1" in str(err.value)


def test_workbook_format_missing_assignment():
    with pytest.raises(WorkbookFormatError):
        load_workbook_text("A1 5\n")


def test_array_literal_content_is_formula():
    wb = load_workbook_text("A1 := {1,2;3,4}\n")
    wb.recalculate()
    assert wb.spill_region("A1") == (2, 2)


# -- cross-sheet isolation ----------------------------------------------------


def test_spill_regions_are_per_sheet():
    wb = Workbook()
    wb.set_cell("Data!A1", "=SEQUENCE(3)")
    wb.set_cell("Model!A2", 99.0)  # same rows, different sheet: no collision
    wb.recalculate()
    assert wb.spill_region("Data!A1") == (3, 1)
    assert wb.cell_value("Data", 2, 1) == 2.0
    assert wb.cell_value("Model", 2, 1) == 99.0


def test_cross_sheet_edit_propagates():
    wb = Workbook()
    wb.set_cell("Data!A1", 10.0)
    wb.set_cell("Model!B1", "=Data!A1 * 2")
    wb.recalculate()
    assert wb.cell_value("Model", 1, 2) == 20.0
    wb.set_cell("Data!A1", 7.0)
    wb.recalculate()
    assert wb.cell_value("Model", 1, 2) == 14.0


def test_sheet_names_case_insensitive_but_preserved():
    wb = Workbook()
    wb.set_cell("Data!A1", 1.0)
    wb.recalculate()
    assert wb.cell_value("DATA", 1, 1) == 1.0
    assert wb.sheet_names["data"] == "Data"


def test_reading_a_sheet_does_not_register_it():
    wb = Workbook()
    assert wb.evaluate_formula("=Nope!A1+1") == 1.0
    assert wb.spill_region("Nope!A1") is None
    assert wb.evaluate_formula("=1", caller="Other!B2") == 1.0
    assert wb.sheet_names == {"sheet1": "Sheet1"}


def test_read_apis_take_tuple_addresses_as_edits_do():
    wb = Workbook()
    wb.set_cell("A1", "=SEQUENCE(2)")
    wb.recalculate()
    assert wb.spill_region(("Sheet1", 1, 1)) == wb.spill_region("A1") == (2, 1)
    assert wb.evaluate_formula("=A2", caller=("SHEET1", 3, 2)) == 2.0
    for addr in [("sheet1", 0, 0), ("sheet1", 1, 99_999)]:
        with pytest.raises(ValueError):
            wb.spill_region(addr)
        with pytest.raises(ValueError):
            wb.evaluate_formula("=1", caller=addr)


def test_tuple_addresses_are_checked_and_register_their_sheet():
    wb = Workbook()
    wb.set_cell(("Sheet1", 1, 1), 5.0)
    wb.set_cell(("Data", 2, 2), "=A1*2")
    wb.recalculate()
    assert wb.evaluate_formula("=A1") == 5.0
    assert wb.cell_value("Data", 2, 2) == 0.0
    assert wb.sheet_names == {"sheet1": "Sheet1", "data": "Data"}
    wb.clear_cell(("SHEET1", 1, 1))
    wb.recalculate()
    assert wb.evaluate_formula("=A1") is EMPTY
    for addr in [("sheet1", 0, 0), ("sheet1", 1, 99_999), ("sheet1", 1_048_577, 1)]:
        with pytest.raises(ValueError):
            wb.set_cell(addr, 1.0)
        with pytest.raises(ValueError):
            wb.clear_cell(addr)
    assert set(wb.cells) == {("data", 2, 2)}


def test_sheet_section_sets_the_spelling_a_reference_saw_first():
    wb = load_workbook_text("A1 := =nope!A1+1\nsheet Nope\nA1 := 5\n")
    wb.recalculate()
    assert wb.sheet_names["nope"] == "Nope"
    assert wb.cell_value("Sheet1", 1, 1) == 6.0


# -- spill interaction stress ---------------------------------------------------


def test_spill_depending_on_spill_resizes_through():
    wb = Workbook()
    wb.set_cell("D1", 3.0)
    wb.set_cell("A1", "=SEQUENCE(D1)")
    wb.set_cell("B1", "=A1# * 2")
    wb.set_cell("C1", "=SUM(B1#)")
    wb.recalculate()
    assert wb.cell_value("Sheet1", 1, 3) == 12.0
    wb.set_cell("D1", 5.0)
    wb.recalculate()
    assert wb.spill_region("A1") == (5, 1)
    assert wb.spill_region("B1") == (5, 1)
    assert wb.cell_value("Sheet1", 1, 3) == 30.0


def test_overlapping_anchors_resolve_deterministically():
    # A2 holds content, so A1's three-row spill is blocked; A2's own spill
    # lands in the (empty) rows beneath it. Same outcome from any edit order.
    for order in (("A1", "A2"), ("A2", "A1")):
        wb = Workbook()
        for addr in order:
            wb.set_cell(addr, "=SEQUENCE(3)")
        wb.recalculate()
        v = wb.cell_value("Sheet1", 1, 1)
        assert isinstance(v, ErrorValue) and v.kind == ErrorKind.SPILL
        assert wb.spill_region("A2") == (3, 1)
        assert wb.cell_value("Sheet1", 4, 1) == 3.0


def test_spill_feeding_itself():
    # Never places: the size input reads the (empty) would-be member, so the
    # formula settles at SEQUENCE(0) -> #VALUE! without a region.
    wb = Workbook()
    wb.set_cell("A1", "=SEQUENCE(A2)")
    wb.recalculate()
    assert kind(wb.cell_value("Sheet1", 1, 1)) == ErrorKind.VALUE
    assert wb.spill_region("A1") is None
    # Places, then covers its own input: circular, and stays circular.
    wb2 = Workbook()
    wb2.set_cell("A1", "=SEQUENCE(2 + 0 * A2)")
    report = wb2.recalculate()
    assert kind(wb2.cell_value("Sheet1", 1, 1)) == ErrorKind.CIRCULAR
    assert report.passes < 10
    wb2.set_cell("A1", "=SEQUENCE(2)")
    wb2.recalculate()
    assert wb2.spill_region("A1") == (2, 1)


def test_array_valued_name_spills_from_cell():
    wb = Workbook()
    wb.define_name("seq", "=SEQUENCE(3)")
    wb.set_cell("A1", "=seq")
    wb.recalculate()
    assert wb.spill_region("A1") == (3, 1)
    assert wb.cell_value("Sheet1", 3, 1) == 3.0


def test_set_cell_accepts_parsed_expr():
    from gridlambda import parse_formula

    wb = Workbook()
    wb.set_cell("A1", parse_formula("=6 * 7"))
    wb.recalculate()
    assert wb.cell_value("Sheet1", 1, 1) == 42.0


def test_api_numbers_are_stored_as_finite_floats():
    wb = Workbook()
    wb.set_cell("A1", 5)
    wb.set_cell("A2", float("inf"))
    wb.define_name("n", float("nan"))
    wb.define_name("d", DateSerial(41548))
    wb.set_cell("A3", "=n")
    wb.recalculate()
    assert wb.cells[wb.address("A1")].formula == Literal(5.0)
    assert type(wb.cell_value("Sheet1", 1, 1)) is float
    assert kind(wb.cell_value("Sheet1", 2, 1)) == ErrorKind.NUM
    assert kind(wb.cell_value("Sheet1", 3, 1)) == ErrorKind.NUM
    assert render_cell(wb.evaluate_formula("=d")) == "2013-10-01"


def test_api_ints_beyond_the_double_range_are_num_errors():
    wb = Workbook()
    wb.set_cell("A1", 10**400)
    wb.define_name("k", -(10**400))
    wb.set_cell("A2", "=k")
    wb.recalculate()
    assert kind(wb.cell_value("Sheet1", 1, 1)) == ErrorKind.NUM
    assert kind(wb.cell_value("Sheet1", 2, 1)) == ErrorKind.NUM


def test_failed_set_cell_leaves_the_workbook_unchanged():
    wb = Workbook()
    wb.set_cell("A3", 7.0)
    wb.recalculate()
    before = dict(wb.cells)
    with pytest.raises(ParseError):
        wb.set_cell("A2", "=1 +")
    with pytest.raises(ParseError):
        wb.set_cell("A3", "=SUM(")
    assert wb.cells == before
    assert wb.cell_value("Sheet1", 3, 1) == 7.0
    wb.clear_cell("A3")
    wb.set_cell("A1", "=SEQUENCE(3)")
    wb.recalculate()
    assert wb.spill_region("A1") == (3, 1)
    assert wb.cell_value("Sheet1", 2, 1) == 2.0


# -- names defined after the cells that read them -------------------------------


def test_late_defined_name_in_value_position():
    wb = Workbook()
    wb.set_cell("A1", "=foo+1")
    wb.recalculate()
    assert kind(wb.cell_value("Sheet1", 1, 1)) == ErrorKind.NAME
    wb.define_name("foo", "=41")
    report = wb.recalculate()
    assert report.evaluated >= 1
    assert wb.cell_value("Sheet1", 1, 1) == 42.0


def test_late_defined_name_in_call_position():
    wb = Workbook()
    wb.set_cell("A1", "=bar(1)")
    wb.recalculate()
    assert kind(wb.cell_value("Sheet1", 1, 1)) == ErrorKind.NAME
    wb.define_name("bar", "=LAMBDA(x, x+1)")
    wb.recalculate()
    assert wb.cell_value("Sheet1", 1, 1) == 2.0
    # Builtins can never be defined, so calls to them are not wired as names.
    wb.set_cell("A2", "=SUM(1, 2) + IF(TRUE, 1)")
    assert "sum" not in wb._deps_in and "if" not in wb._deps_in


def test_overflowing_cell_does_not_abort_recalculation():
    wb = Workbook()
    wb.set_cell("A1", "=1+1")
    wb.set_cell("A2", "=MOD(1e308,1e-308)")
    wb.set_cell("A3", "=QUOTIENT(1e308,1e-308)")
    wb.recalculate()
    assert wb.cell_value("Sheet1", 1, 1) == 2.0
    assert kind(wb.cell_value("Sheet1", 2, 1)) == ErrorKind.NUM
    assert kind(wb.cell_value("Sheet1", 3, 1)) == ErrorKind.NUM


# -- spill reads, totality, names and unwiring ----------------------------------


def test_spill_array_returns_the_placed_array_without_copying():
    wb = Workbook()
    wb.set_cell("B1", "=SEQUENCE(4)")
    wb.recalculate()
    first = wb.spill_array("Sheet1", 1, 2)
    assert first is wb.spill_array("Sheet1", 1, 2)
    assert wb.evaluate_formula("=ROW(B1#)") == Array.col([1.0, 2.0, 3.0, 4.0])
    assert wb.evaluate_formula("=INDEX(B1#, 3)") == 3.0


def test_exception_in_a_builtin_is_num_error_everywhere():
    # The pad count does not fit an index-sized integer; nothing is allocated.
    wb = Workbook()
    wb.set_cell("A1", "=WRAPROWS({1,2},1e308)")
    wb.set_cell("A2", "=1+1")
    wb.recalculate()
    assert kind(wb.cell_value("Sheet1", 1, 1)) == ErrorKind.NUM
    assert wb.cell_value("Sheet1", 2, 1) == 2.0
    assert kind(wb.evaluate_formula("=WRAPROWS({1,2},1e308)")) == ErrorKind.NUM


def test_define_name_string_follows_set_cell_rule():
    wb = Workbook()
    wb.define_name("t", "hello")
    wb.define_name("n", "=2")
    wb.define_name("v", "{1,2}")
    assert wb.evaluate_formula("=t") == "hello"
    assert wb.evaluate_formula("=n") == 2.0
    assert wb.evaluate_formula("=SUM(v)") == 3.0


def test_cell_rewired_away_from_name_is_not_reevaluated():
    wb = Workbook()
    wb.define_name("foo", "=1")
    wb.set_cell("A1", "=foo+1")
    wb.set_cell("A2", "=foo+2")
    wb.recalculate()
    wb.set_cell("A1", "=5")
    wb.recalculate()
    wb.define_name("foo", "=10")
    report = wb.recalculate()
    assert report.evaluated == 1
    assert wb.cell_value("Sheet1", 1, 1) == 5.0
    assert wb.cell_value("Sheet1", 2, 1) == 12.0
    wb.clear_cell("A2")
    assert "foo" not in wb._deps_in


def test_replacing_a_spilling_formula_matches_a_fresh_load():
    wb = Workbook()
    wb.set_cell("C2", "=SEQUENCE(2)")
    wb.recalculate()
    wb.set_cell("C2", "=C3+1")
    wb.recalculate()
    assert wb.cell_value("Sheet1", 2, 3) == 1.0
    wb.set_cell("C3", 5.0)
    assert_matches_fresh_load(wb)
    assert wb.cell_value("Sheet1", 2, 3) == 6.0


def test_replacing_a_spilling_formula_recalculates_member_readers():
    wb = Workbook()
    wb.set_cell("A1", "=SEQUENCE(3)")
    wb.set_cell("B3", "=A3*10")
    wb.recalculate()
    assert wb.cell_value("Sheet1", 3, 2) == 30.0
    wb.set_cell("A1", "=7")
    wb.recalculate()
    assert wb.cell_value("Sheet1", 3, 2) == 0.0
    assert wb.spill_region("A1") is None


def test_load_shares_one_tree_per_formula_text():
    text = (
        "sheet S1\nA1 := 2\nB1 := =A1*10+x\n"
        "sheet S2\nA1 := 3\nB1 := =A1*10+x\n"
        "name x := =1\n"
    )
    wb = load_workbook_text(text)
    wb.recalculate()
    first, second = wb.address("S1!B1"), wb.address("S2!B1")
    assert wb.cells[first].formula is wb.cells[second].formula
    assert wb.cell_value("S1", 1, 2) == 21.0
    assert wb.cell_value("S2", 1, 2) == 31.0
    wb.set_cell("S2!A1", 4.0)
    wb.define_name("x", "=2")
    assert_matches_fresh_load(wb)
    assert wb.cell_value("S1", 1, 2) == 22.0


# -- incremental recalculation equals a fresh load -------------------------------


def test_a_member_read_across_recalculations_is_not_a_cycle():
    wb = Workbook()
    wb.set_cell("A5", 5.0)
    wb.set_cell("B1", "=IF(A5>2,SEQUENCE(2),A6)")
    wb.recalculate()
    wb.set_cell("A5", "=IF(B2>2,SEQUENCE(3),D1)")
    assert_matches_fresh_load(wb)
    assert wb.cell_value("Sheet1", 5, 1) is EMPTY
    assert wb.cell_value("Sheet1", 1, 2) is EMPTY


def test_a_vacated_region_leaves_no_cycle_behind():
    wb = Workbook()
    wb.set_cell("D5", "=IF(B3>2,SEQUENCE(2),D3)")
    wb.set_cell("B2", "=VSTACK(D5,D2)")
    wb.recalculate()
    wb.set_cell("B2", "=IF(A4>2,SEQUENCE(2),A1)")
    assert_matches_fresh_load(wb)
    assert wb.cell_value("Sheet1", 5, 4) is EMPTY


def test_a_circular_anchor_retries_on_the_next_edit():
    wb = Workbook()
    wb.set_cell("D2", "=IF(C4>2,SEQUENCE(2),C2)")
    wb.set_cell("C3", "=SEQUENCE(2,2)")
    wb.recalculate()
    wb.set_cell("D3", "=TAKE(B5#,1)")
    assert_matches_fresh_load(wb)
    assert wb.cell_value("Sheet1", 2, 4) is EMPTY
    assert kind(wb.cell_value("Sheet1", 3, 3)) == ErrorKind.SPILL


@pytest.mark.parametrize(
    "cells, edit, expected",
    [
        # D5 reads C3 of B3's region, and B3 spills only while D5 > 1.
        (
            [("D4", "=SEQUENCE(2,2)"), ("B3", "=IF(D5>1,SEQUENCE(1,2),A2)")],
            ("D5", "=C3*SEQUENCE(2)"),
            {(3, 2): EMPTY, (5, 4): 0.0, (6, 4): 0.0},
        ),
        (
            [
                ("B1", "=IF(A3>1,SEQUENCE(1,2),D5)"),
                ("C2", "=SEQUENCE(2,2)"),
                ("A3", "=IF(B3>2,SEQUENCE(2),D2)"),
            ],
            ("D2", "=C1+1"),
            {(1, 2): EMPTY, (2, 4): 1.0, (3, 1): 1.0},
        ),
    ],
)
def test_a_cycle_only_through_an_older_region_reads_it_blank(cells, edit, expected):
    wb = Workbook()
    for addr, content in cells:
        wb.set_cell(addr, content)
    wb.recalculate()
    wb.set_cell(*edit)
    assert_matches_fresh_load(wb)
    for (row, col), value in expected.items():
        assert wb.cell_value("Sheet1", row, col) == value


def test_regions_that_take_turns_are_circular_within_a_few_passes():
    # D2 spills over C3's region only while that region gives C4 > 2.
    wb = Workbook()
    wb.set_cell("D2", "=IF(C4>2,SEQUENCE(2),C2)")
    wb.set_cell("C3", "=SEQUENCE(2,2)")
    assert wb.recalculate().passes <= 6
    assert kind(wb.cell_value("Sheet1", 3, 3)) == ErrorKind.CIRCULAR
    assert wb.cell_value("Sheet1", 2, 4) is EMPTY
    wb.set_cell("A1", 1.0)  # an edit that neither region reads
    assert wb.recalculate().passes <= 6
    assert_matches_fresh_load(wb)


def test_cells_pending_at_the_pass_limit_are_reported_once(monkeypatch):
    monkeypatch.setattr(engine, "_MAX_PASSES", 2)
    wb = Workbook()
    wb.set_cell("D2", "=IF(C4>2,SEQUENCE(2),C2)")
    wb.set_cell("C3", "=SEQUENCE(2,2)")
    report = wb.recalculate()
    assert report.passes == 2
    circular = [addr for addr, value in report.errors if kind(value) == ErrorKind.CIRCULAR]
    assert report.cycles == sorted(set(report.cycles)) == circular != []


def test_an_edit_reaches_a_long_chain_of_spills_in_one_pass():
    # Each anchor reads a member of the region before it: A3 reads A2, ...
    wb = Workbook()
    wb.define_name("k", 1.0)
    wb.set_cell("A1", "=k*SEQUENCE(2)")
    for i in range(1, 70):
        wb.set_cell(f"A{2 * i + 1}", f"=A{2 * i}*SEQUENCE(2)")
    wb.recalculate()
    wb.define_name("k", 2.0)
    report = wb.recalculate()
    assert (report.passes, report.evaluated, report.cycles) == (1, 70, [])
    assert_matches_fresh_load(wb)
    assert wb.cell_value("Sheet1", 140, 1) == 2.0**71


def test_a_circular_cell_retries_when_a_name_is_redefined():
    wb = Workbook()
    wb.set_cell("C1", "=k*D6")
    wb.define_name("Fλ", "=LAMBDA(v, SEQUENCE(2)*v)")
    wb.set_cell("D5", "=Fλ(C2)")
    wb.define_name("k", "=SEQUENCE(2)")
    wb.recalculate()
    wb.define_name("k", "=B1")
    assert_matches_fresh_load(wb)
    assert wb.cell_value("Sheet1", 5, 4) == 0.0


def fuzz_edits(rng):
    """3 to 25 random edits of A1:D6 and the names k, m and Fλ, as
    (Workbook method, arguments...) tuples, with a recalculation after about
    half of them."""

    def cell():
        return f"{rng.choice('ABCD')}{rng.randint(1, 6)}"

    def formula():
        a, b, name = cell(), cell(), rng.choice(["k", "m", "Fλ"])
        (c1, c2), (r1, r2) = sorted((a[0], b[0])), sorted((a[1], b[1]))
        return rng.choice([
            f"={a}+{b}",
            f"=SEQUENCE({rng.randint(1, 3)})",
            "=SEQUENCE(2,2)",
            f"=SUM({c1}{r1}:{c2}{r2})",
            f"={a}#",
            f"={name}*{a}",
            f"={name}",
            f"=Fλ({a})",
            f"=TAKE({a}#,1)",
            f"=IF({a}>2,SEQUENCE({rng.randint(2, 3)}),{b})",
            f"=VSTACK({a},{b})",
            f"=LET(x,{a},x+1)",
            "=LAMBDA(x, x*2)",
            f"={a}(3)",
            f"=MAP({a}#, LAMBDA(x, x+1))",
        ])

    def define():
        content = rng.choice([
            float(rng.randint(1, 5)),
            "=SEQUENCE(2)",
            f"={cell()}",
            f"={cell()}*2",
            "=LAMBDA(v, SEQUENCE(2)*v)",
            "=LAMBDA(v, v+1)",
        ])
        return ("define_name", rng.choice(["k", "m", "Fλ"]), content)

    edits = []
    for _ in range(rng.randint(3, 25)):
        op = rng.random()
        if op < 0.6:
            content = float(rng.randint(1, 5)) if rng.random() < 0.3 else formula()
            edits.append(("set_cell", cell(), content))
        elif op < 0.75:
            edits.append(("clear_cell", cell()))
        elif op < 0.9:
            edits.append(define())
        else:
            edits += [("clear_cell", cell()), define()]
        if rng.random() < 0.5:
            edits.append(("recalculate",))
    return edits


def test_random_edits_match_a_fresh_load():
    mismatched = []
    for seed in range(1000):
        wb = Workbook()
        for method, *args in fuzz_edits(random.Random(seed)):
            getattr(wb, method)(*args)
        try:
            assert_matches_fresh_load(wb)
        except AssertionError:
            mismatched.append(seed)
    assert mismatched == [], "replay with fuzz_edits(random.Random(seed))"


def spill_fuzz_edits(rng):
    """2 to 8 random edits of A1:D5 whose formulas spill, shrink and read
    each other's regions, with a recalculation after about half of them."""

    def cell():
        return f"{rng.choice('ABCD')}{rng.randint(1, 5)}"

    edits = []
    for _ in range(rng.randint(2, 8)):
        op, x, y = rng.random(), cell(), cell()
        if op < 0.15:
            edits.append(("clear_cell", cell()))
        elif op < 0.3:
            edits.append(("set_cell", cell(), float(rng.randint(1, 4))))
        else:
            edits.append(("set_cell", cell(), rng.choice([
                f"=IF({x}>2,SEQUENCE(2),{y})",
                f"=IF({x}>1,SEQUENCE(1,2),{y})",
                "=SEQUENCE(2,2)",
                f"={x}*SEQUENCE(2)",
                f"=TAKE({x}#,1)",
            ])))
        if rng.random() < 0.5:
            edits.append(("recalculate",))
    return edits


def test_random_spill_edits_match_a_fresh_load():
    mismatched = []
    for seed in range(2000):
        wb = Workbook()
        for method, *args in spill_fuzz_edits(random.Random(seed)):
            getattr(wb, method)(*args)
        try:
            assert_matches_fresh_load(wb)
        except AssertionError:
            mismatched.append(seed)
    assert mismatched == [], "replay with spill_fuzz_edits(random.Random(seed))"


# -- the evaluation worker --------------------------------------------------------


def bounded(fn, seconds=30):
    """Call ``fn`` on a helper thread and fail, rather than hang, if it blocks."""
    box = []
    helper = threading.Thread(target=lambda: box.append(fn()), daemon=True)
    helper.start()
    helper.join(seconds)
    assert not helper.is_alive(), "run_deep did not return"
    return box[0]


def test_run_deep_reuses_one_worker_thread():
    engine.run_deep(lambda: None)
    threads = threading.active_count()
    workers = {engine.run_deep(threading.current_thread) for _ in range(50)}
    assert len(workers) == 1 and threading.current_thread() not in workers
    assert threading.active_count() == threads
    wb = Workbook()
    wb.set_cell("A1", 2.0)
    for _ in range(20):
        wb.recalculate()
        assert wb.evaluate_formula("=A1*3") == 6.0
    assert threading.active_count() == threads


def test_run_deep_nested_call_runs_inline():
    def outer():
        return threading.get_ident(), engine.run_deep(threading.get_ident)

    worker, nested = bounded(lambda: engine.run_deep(outer))
    assert worker == nested


def test_run_deep_reraises_on_the_caller():
    with pytest.raises(ZeroDivisionError):
        engine.run_deep(lambda: 1 / 0)
    assert engine.run_deep(lambda: 7) == 7


def test_larger_depth_limit_replaces_the_worker():
    engine.run_deep(lambda: None)
    old = engine._worker
    bigger = old.depth_limit + 64
    ident = bounded(lambda: engine.run_deep(threading.get_ident, bigger))
    assert engine._worker is not old and engine._worker.depth_limit == bigger
    assert ident == engine._worker.thread.ident
    old.thread.join(10)
    assert not old.thread.is_alive()
    # A smaller limit runs on the bigger worker.
    assert engine.run_deep(threading.get_ident, 32) == ident


def test_run_deep_concurrent_callers_while_the_worker_is_replaced():
    base = engine.run_deep(lambda: engine._worker.depth_limit)
    results = []

    def caller(k):
        for i in range(60):
            # Rising limits make callers replace the worker under each other.
            results.append(engine.run_deep(lambda: (k, i), base + i) == (k, i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(k,), daemon=True) for k in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(60)
        assert not any(t.is_alive() for t in callers), "a caller never got its result"
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 240 and all(results)
