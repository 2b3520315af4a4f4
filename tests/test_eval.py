"""LET scoping, closures, recursion, IF laziness, trace semantics."""

import numpy as np
import pytest

from gridlambda import Workbook
from gridlambda.values import Array, Closure, ErrorKind, ErrorValue


@pytest.fixture
def wb():
    return Workbook()


def kind(v):
    assert isinstance(v, ErrorValue), f"expected an error, got {v!r}"
    return v.kind


def test_basic_arithmetic(wb):
    assert wb.evaluate_formula("=1+2") == 3.0


def test_unknown_name(wb):
    assert kind(wb.evaluate_formula("=UnknownName+1")) == ErrorKind.NAME


def test_if_elementwise_with_text(wb):
    out = wb.evaluate_formula('=IF({"a";""} <> "", {"a";""}, "-")')
    assert out.rows == (("a",), ("-",))


# -- LET ---------------------------------------------------------------------


def test_let_sequential_visibility(wb):
    assert wb.evaluate_formula("=LET(x, 1, y, x+1, y*10)") == 20.0


def test_let_binding_evaluated_once(wb):
    wb.define_name("expensive", "=SUM(SEQUENCE(100))")
    wb.evaluate_formula("=LET(x, expensive, x+x)")
    assert wb.trace.count("let", "x") == 1
    assert wb.trace.count("name", "expensive") == 1


def test_let_unused_binding_never_evaluated(wb):
    wb.evaluate_formula("=LET(x, 1/0, 42)")
    assert wb.trace.count("let", "x") == 0


def test_let_self_reference_is_name_error(wb):
    out = wb.evaluate_formula("=LET(x, x+1, x)")
    assert kind(out) == ErrorKind.NAME


# A binding's expression sees the names bound before it, not itself: a name
# it shares with the binding reads the outer one.


@pytest.mark.parametrize(
    "text, expected",
    [
        ("=LET(x, x+1, x)", 6.0),  # the defined name
        ("=LAMBDA(x, LET(x, x*2, x))(3)", 6.0),  # the lambda parameter
        ("=LET(x, 1, LET(x, x+1, x))", 2.0),  # the enclosing LET
    ],
)
def test_let_self_reference_reads_the_outer_name(wb, text, expected):
    wb.define_name("x", "=5")
    assert wb.evaluate_formula(text) == expected


# Which binding a name means, with the defined name ``x`` reading A1 (7).


@pytest.mark.parametrize(
    "text, expected",
    [
        ("=LET(x, 1, x, x+1, x)", 2.0),  # a repeated LET name: the latest
        ("=LET(X, 1, x+1)", 2.0),  # names match without case
        ("=LET(sum, LAMBDA(v, v*2), sum(3))", 3.0),  # a builtin callee wins
        ("=LET(sum, 5, sum+1)", 6.0),  # elsewhere the binding
        ("=LAMBDA(a, LAMBDA(b, LET(c, a+b, LAMBDA(d, a+b+c+d))))(1)(2)(3)", 9.0),
        ("=LAMBDA(x, LET(y, x, x, 5, x+y))(1)", 6.0),
        ("=LET(x, 1, x#)", ErrorKind.REF),  # a spill target is the defined name
        ("=LAMBDA(x, x#)(1)", ErrorKind.REF),
    ],
)
def test_names_resolve_to_the_innermost_binding(wb, text, expected):
    wb.define_name("x", "=A1")
    wb.set_cell("A1", 7.0)
    out = wb.evaluate_formula(text)
    assert (kind(out) if isinstance(expected, ErrorKind) else out) == expected


@pytest.mark.parametrize(
    "text, reads",
    [
        ("=LAMBDA(x, x*2)(3)", set()),
        ("=LET(x, 2, x)", set()),
        ("=LET(y, x, y)", {("sheet1", 1, 1), "x"}),  # through the defined name
    ],
)
def test_bound_names_wire_nothing_themselves(wb, text, reads):
    wb.define_name("x", "=A1")
    wb.set_cell("A1", 7.0)
    wb.set_cell("B1", text)
    assert wb.cells[("sheet1", 1, 2)].reads == reads


def test_let_self_reference_through_a_defined_name_recalculates(wb):
    wb.define_name("y", "=A1")
    wb.set_cell("A1", 7.0)
    wb.set_cell("B1", "=LET(y, y+1, y)")
    wb.recalculate()
    assert wb.cell_value("Sheet1", 1, 2) == 8.0
    wb.set_cell("A1", 8.0)
    wb.recalculate()
    assert wb.cell_value("Sheet1", 1, 2) == 9.0


def test_let_bound_lambda_recurses_only_through_a_defined_name(wb):
    out = wb.evaluate_formula("=LET(f, LAMBDA(n, IF(n=0, 1, n*f(n-1))), f(5))")
    assert kind(out) == ErrorKind.NAME
    wb.define_name("Factλ", "=LAMBDA(n, IF(n=0, 1, n*Factλ(n-1)))")
    assert wb.evaluate_formula("=Factλ(5)") == 120.0


def test_let_binding_read_by_a_closure_evaluated_once(wb):
    wb.define_name("expensive", "=SUM(SEQUENCE(100))")
    out = wb.evaluate_formula("=LET(x, expensive, f, LAMBDA(i, x+i), f(1)+f(2)+f(3))")
    assert out == 15156.0
    assert wb.trace.count("let", "x") == 1
    assert wb.trace.count("name", "expensive") == 1


def test_let_in_a_mapped_lambda_evaluated_once_per_application(wb):
    out = wb.evaluate_formula("=MAP({1;2;3}, LAMBDA(i, LET(y, i*2, y+y)))")
    assert out.rows == ((4.0,), (8.0,), (12.0,))
    assert wb.trace.count("let", "y") == 3


def test_lambda_arguments_bind_as_given(wb):
    assert wb.evaluate_formula("=LAMBDA(r, ROW(r))(B2:B3)").rows == ((2.0,), (3.0,))
    assert kind(wb.evaluate_formula("=LAMBDA(e, e)(1/0)")) == ErrorKind.DIV0


def test_defined_name_whose_let_reads_itself_is_an_error(wb):
    wb.define_name("x", "=LET(x, x+1, x)")
    wb.set_cell("A1", "=x")
    wb.recalculate()
    assert kind(wb.cell_value("Sheet1", 1, 1)) == ErrorKind.NUM


def test_let_shadows_workbook_name_locally(wb):
    wb.define_name("w", "=100")
    wb.set_cell("A1", "=LET(w, 1, w+1)")
    wb.set_cell("A2", "=w")
    wb.recalculate()
    assert wb.cell_value("Sheet1", 1, 1) == 2.0
    assert wb.cell_value("Sheet1", 2, 1) == 100.0


def test_later_binding_not_visible_earlier(wb):
    out = wb.evaluate_formula("=LET(a, b+1, b, 2, a)")
    assert kind(out) == ErrorKind.NAME


# -- closures ----------------------------------------------------------------


def test_exponential_growth_closure(wb):
    wb.define_name(
        "ExponentialGrowthλ",
        "=LAMBDA(initial, rate, nPeriods, LET(periods, SEQUENCE(1 + nPeriods, , 0),"
        " initial * (1 + rate) ^ periods))",
    )
    out = wb.evaluate_formula("=ExponentialGrowthλ(10000, 5%, 12)")
    assert out.shape == (13, 1)
    assert out.at(0, 0) == 10000.0
    assert round(out.at(12, 0), 2) == 17958.56


def test_closure_returning_closure(wb):
    out = wb.evaluate_formula("=LAMBDA(a, LAMBDA(b, a+b))(10)(32)")
    assert out == 42.0


def test_closure_captures_let_frame(wb):
    out = wb.evaluate_formula("=LET(k, 7, f, LAMBDA(x, x * k), f(6))")
    assert out == 42.0


def test_workbook_names_resolve_at_call_time(wb):
    # The body references a name defined only after the closure was built.
    wb.define_name("Fλ", "=LAMBDA(x, x + later)")
    wb.define_name("later", "=5")
    assert wb.evaluate_formula("=Fλ(1)") == 6.0


def test_too_many_arguments(wb):
    assert kind(wb.evaluate_formula("=LAMBDA(x, x)(1, 2)")) == ErrorKind.VALUE


def test_missing_required_argument(wb):
    assert kind(wb.evaluate_formula("=LAMBDA(x, y, x)(1)")) == ErrorKind.VALUE


def test_lambda_value_in_cell_renders_calc(wb):
    from gridlambda.values import render_cell

    wb.set_cell("A1", "=LAMBDA(x, x+1)")
    wb.set_cell("A2", "=A1(41)")
    wb.recalculate()
    assert isinstance(wb.cell_value("Sheet1", 1, 1), Closure)
    assert render_cell(wb.cell_value("Sheet1", 1, 1)) == "#CALC!"
    assert wb.cell_value("Sheet1", 2, 1) == 42.0


# -- ISOMITTED and optional parameters ----------------------------------------


def test_isomitted(wb):
    wb.define_name("Optλ", "=LAMBDA(x, [p], IF(ISOMITTED(p), 1, p))")
    assert wb.evaluate_formula("=Optλ(9)") == 1.0
    assert wb.evaluate_formula("=Optλ(9, 5)") == 5.0
    assert wb.evaluate_formula("=Optλ(9, 0)") == 0.0
    assert wb.evaluate_formula('=Optλ(9, "")') == ""
    assert wb.evaluate_formula("=ISOMITTED(0)") is False
    assert wb.evaluate_formula('=ISOMITTED("")') is False


def test_an_omitted_argument_leaves_a_lambda_as_blank(wb):
    from gridlambda.values import EMPTY

    wb.set_cell("A1", "=LAMBDA([y], y)()")
    wb.set_cell("A2", "=ISOMITTED(A1)")
    wb.set_cell("A3", "=MAP({1,2}, LAMBDA(x, [y], y))")
    wb.recalculate()
    assert wb.cell_value("Sheet1", 1, 1) is EMPTY
    assert wb.cell_value("Sheet1", 2, 1) is False
    assert wb.cell_value("Sheet1", 3, 1) is EMPTY
    assert wb.cell_value("Sheet1", 3, 2) is EMPTY


# -- IF laziness ---------------------------------------------------------------


def test_if_scalar_lazy(wb):
    assert wb.evaluate_formula("=IF(TRUE, 1, 1/0)") == 1.0


def test_if_array_condition_elementwise(wb):
    out = wb.evaluate_formula("=IF({TRUE;FALSE}, 1, 2)")
    assert out.rows == ((1.0,), (2.0,))


def test_if_array_error_surfaces_only_where_selected(wb):
    out = wb.evaluate_formula("=IF({TRUE;FALSE}, 1/0, 2)")
    assert kind(out.at(0, 0)) == ErrorKind.DIV0
    assert out.at(1, 0) == 2.0


def test_if_omitted_else_false(wb):
    assert wb.evaluate_formula("=IF(FALSE, 1)") is False


def test_if_condition_error_propagates(wb):
    assert kind(wb.evaluate_formula("=IF(1/0, 1, 2)")) == ErrorKind.DIV0


def test_if_is_a_registry_builtin(wb):
    from gridlambda.functions import registry

    entry = registry()["if"]
    assert (entry.min_args, entry.max_args, entry.raw) == (2, 3, True)
    out = wb.evaluate_formula("=IF(TRUE)")
    assert kind(out) == ErrorKind.VALUE and out.detail == "IF expects 2..3 arguments"


# -- call resolution -------------------------------------------------------------


def test_unknown_callee_is_an_unknown_name(wb):
    out = wb.evaluate_formula("=nosuchλ(1)")
    assert kind(out) == ErrorKind.NAME and out.detail == "unknown name 'nosuchλ'"


def test_callee_resolves_binding_before_defined_name(wb):
    wb.define_name("f", "=LAMBDA(x, x + 1)")
    assert wb.evaluate_formula("=f(1)") == 2.0
    assert wb.evaluate_formula("=LET(f, LAMBDA(x, x * 10), f(1))") == 10.0
    # A builtin wins in call position even against a LET binding of its name.
    assert wb.evaluate_formula("=LET(sum, 5, SUM(sum, 1))") == 6.0


# -- recursion ------------------------------------------------------------------


RECUR = (
    "=LAMBDA(opening, vRate, [p], LET("
    "np, COUNT(vRate), "
    "pp, IF(ISOMITTED(p), 1, p), "
    "closing, Growthλ(opening, vRate, pp), "
    "balance, IF(pp < np, Recurλ(closing, vRate, pp + 1), closing), "
    "VSTACK(opening, balance)))"
)
GROWTH = (
    "=LAMBDA(opening, vRate, p, LET(rate, INDEX(vRate, p),"
    " closing, opening * (1 + rate), closing))"
)


def recur_workbook(depth_limit=1024):
    wb = Workbook(depth_limit=depth_limit)
    wb.define_name("Growthλ", GROWTH)
    wb.define_name("Recurλ", RECUR)
    return wb


def test_recur_example_values():
    wb = recur_workbook()
    out = wb.evaluate_formula("=Recurλ(1000, {5%;4%;3%})")
    assert [round(r[0], 6) for r in out.rows] == [1000.0, 1050.0, 1092.0, 1124.76]


def test_recursion_matches_scan_path():
    wb = recur_workbook()
    rng = np.random.default_rng(2024)
    for _ in range(25):
        n = int(rng.integers(1, 51))
        rates = "{" + ";".join(repr(float(r)) for r in rng.uniform(-0.05, 0.1, n)) + "}"
        rec = wb.evaluate_formula(f"=Recurλ(1000, {rates})")
        scan = wb.evaluate_formula(
            f"=VSTACK(1000, SCAN(1000, {rates}, LAMBDA(acc, r, acc * (1 + r))))"
        )
        assert rec.rows == scan.rows


def test_depth_limit_yields_num_error_not_crash():
    wb = recur_workbook(depth_limit=32)
    rates = ";".join(["1%"] * 64)
    out = wb.evaluate_formula("=Recurλ(1000, {" + rates + "})")
    cells = out.column() if isinstance(out, Array) else [out]
    nums = [c for c in cells if isinstance(c, ErrorValue) and c.kind == ErrorKind.NUM]
    assert nums and "recursion" in nums[0].detail


def test_depth_never_exceeded_on_deep_but_legal_recursion():
    wb = recur_workbook(depth_limit=128)
    rates = ";".join(["1%"] * 100)
    out = wb.evaluate_formula("=Recurλ(1000, {" + rates + "})")
    assert isinstance(out, Array) and out.shape == (101, 1)
    assert not any(isinstance(c, ErrorValue) for c in out.column())


def test_depth_limit_holds_on_every_call_to_the_worker():
    wb = recur_workbook(depth_limit=32)
    rates = "{" + ";".join(["1%"] * 64) + "}"
    for _ in range(3):
        out = wb.evaluate_formula(f"=Recurλ(1000, {rates})")
        assert any(isinstance(c, ErrorValue) and c.kind == ErrorKind.NUM for c in out.column())
    assert wb.evaluate_formula("=Recurλ(1000, {1%;2%})").shape == (3, 1)


# Recursion that passes through a lambda helper: each level applies two
# closures, F and the helper's lambda, so 510 levels fit the default limit of
# 1024 and 520 do not.
HELPER_CALLS = {
    "MAP": "MAP(n, LAMBDA(k, F(k - 1)))",
    "BYROW": "BYROW(n, LAMBDA(r, F(INDEX(r, 1, 1) - 1)))",
    "BYCOL": "BYCOL(n, LAMBDA(c, F(INDEX(c, 1, 1) - 1)))",
    "SCAN": "SCAN(0, n, LAMBDA(acc, k, F(k - 1)))",
    "REDUCE": "REDUCE(0, n, LAMBDA(acc, k, F(k - 1)))",
    "MAKEARRAY": "MAKEARRAY(1, 1, LAMBDA(r, c, F(n - 1)))",
}


@pytest.mark.parametrize("helper", sorted(HELPER_CALLS))
def test_recursion_through_a_helper_reaches_the_default_limit(helper):
    wb = Workbook()
    wb.define_name("F", f"=LAMBDA(n, IF(n = 0, 0, 1 + INDEX({HELPER_CALLS[helper]}, 1, 1)))")
    assert wb.evaluate_formula("=F(510)") == 510.0
    assert kind(wb.evaluate_formula("=F(520)")) == ErrorKind.NUM


# -- dispatch ----------------------------------------------------------------------


def test_evaluate_rejects_a_non_expression():
    from gridlambda.evaluator import Environment, EvalContext, evaluate

    with pytest.raises(TypeError):
        evaluate(object(), Environment(), EvalContext())


def test_evaluate_omitted_argument():
    from gridlambda.evaluator import Environment, EvalContext, evaluate
    from gridlambda.expr import OMITTED_ARG
    from gridlambda.values import OMITTED

    assert evaluate(OMITTED_ARG, Environment(), EvalContext()) is OMITTED


def test_array_literal_evaluates_to_its_one_array():
    from gridlambda import parse_formula
    from gridlambda.evaluator import Environment, EvalContext, evaluate

    tree = parse_formula("={1,2;3,4}")
    first = evaluate(tree, Environment(), EvalContext())
    assert first is tree.value
    assert evaluate(tree, Environment(), EvalContext()) is first


# -- trace format ----------------------------------------------------------------


def test_trace_line_format():
    lines = []
    from gridlambda import TraceSink

    wb = Workbook(trace=TraceSink(writer=lines.append))
    wb.define_name("twice", "=2")
    wb.set_cell("A1", "=LET(v, twice, v + v + twice)")
    wb.recalculate()
    assert "EVAL let:v #1" in lines
    assert "EVAL name:twice #1" in lines and "EVAL name:twice #2" in lines


def test_numeric_text_coerces_in_arithmetic_not_in_sum(wb):
    # Arithmetic coerces numeric text; SUM ignores text cells in arrays.
    assert wb.evaluate_formula('="2" + 1') == 3.0
    assert wb.evaluate_formula('=SUM({"2";1})') == 1.0
