import random

import pytest

from gridlambda import expr as E
from gridlambda.expr import print_expr
from gridlambda.parser import ParseError, parse_formula
from gridlambda.values import Array, DateSerial, ErrorKind, Param

from exprgen import gen_expr


def roundtrip(source: str) -> E.Expr:
    ast = parse_formula(source)
    again = parse_formula(print_expr(ast))
    assert again == ast, f"{source!r} -> {print_expr(ast)!r} changed shape"
    return ast


def test_minimal_let():
    ast = parse_formula("=LET(x, 1, x+1)")
    assert ast == E.Let(
        (("x", E.Literal(1.0)),),
        E.BinaryOp("+", E.NameRef("x", depth=0, slot=0), E.Literal(1.0)),
    )


# A name that an enclosing LET or LAMBDA binds carries its lexical address,
# (frames out, slot); a spill target and a builtin callee carry none.
@pytest.mark.parametrize(
    "text, path, address",
    [
        ("=LET(x, 1, x, x+1, x)", ("body",), (0, 1)),
        ("=LET(x, 1, x, x+1, x)", ("bindings", 1, 1, "left"), (0, 0)),
        ("=LET(x, x, x)", ("bindings", 0, 1), (None, 0)),
        ("=LAMBDA(a, b, LET(c, a, b))", ("body", "bindings", 0, 1), (1, 0)),
        ("=LAMBDA(a, b, LET(c, a, b))", ("body", "body"), (1, 1)),
        ("=LET(x, 1, x#)", ("body", "target"), (None, 0)),
        ("=LET(sum, 1, sum(sum))", ("body", "callee"), (None, 0)),
        ("=LET(sum, 1, sum(sum))", ("body", "args", 0), (0, 0)),
        ("=LET(X, 1, x)", ("body",), (0, 0)),
    ],
)
def test_bound_names_carry_their_lexical_address(text, path, address):
    node = parse_formula(text)
    for step in path:
        node = node[step] if isinstance(step, int) else getattr(node, step)
    assert isinstance(node, E.NameRef)
    assert (node.depth, node.slot) == address


def test_lambda_optional_parameter_flag():
    ast = parse_formula("=LAMBDA(opening, vRate, [p], p)")
    assert isinstance(ast, E.Lambda)
    assert ast.params == (
        Param("opening"), Param("vRate"), Param("p", optional=True),
    )


def test_empty_text_pair_array():
    ast = parse_formula('={"",""}')
    assert ast == E.Literal(Array((("", ""),)))


def test_scan_call_shape():
    ast = parse_formula("=SCAN(0, Revenue-COGS, Addλ)")
    assert isinstance(ast, E.Call)
    assert ast.callee == E.NameRef("SCAN")
    assert ast.args[0] == E.Literal(0.0)
    assert ast.args[1] == E.BinaryOp("-", E.NameRef("Revenue"), E.NameRef("COGS"))
    assert ast.args[2] == E.NameRef("Addλ")


def test_curried_application():
    ast = parse_formula("=RK4Stepλ(Dλ)(x, t)")
    assert isinstance(ast, E.Call)
    assert isinstance(ast.callee, E.Call)
    assert ast.callee.callee == E.NameRef("RK4Stepλ")


def test_array_literal_separators():
    ast = parse_formula("={1;2;3}")
    assert ast == E.Literal(Array(((1.0,), (2.0,), (3.0,))))
    ast = parse_formula("={1,2;3,4}")
    assert ast == E.Literal(Array(((1.0, 2.0), (3.0, 4.0))))


def test_percent_literal_in_array():
    ast = parse_formula("={5%;4%;3%}")
    assert ast == E.Literal(Array(((0.05,), (0.04,), (0.03,))))


def test_literal_equality_compares_the_value_type():
    assert E.Literal(True) != E.Literal(1.0)
    assert E.Literal(DateSerial(5)) != E.Literal(5.0)
    assert E.Literal(1.0) == E.Literal(1.0) and hash(E.Literal(1.0)) == hash(E.Literal(1.0))
    assert parse_formula("=TRUE") == E.Literal(True) != parse_formula("=1")


def test_array_literal_equality_compares_each_element_type():
    assert parse_formula("={TRUE}") != parse_formula("={1}")
    assert parse_formula('={1,"a";TRUE,#N/A}') == parse_formula('={1,"a";TRUE,#N/A}')
    assert hash(parse_formula("={1,2}")) == hash(parse_formula("={1,2}"))
    assert E.Literal(Array(((DateSerial(5),),))) != E.Literal(Array(((5.0,),)))


def test_percent_postfix():
    assert parse_formula("=5%") == E.PercentPostfix(E.Literal(5.0))


def test_spill_and_intersect():
    assert parse_formula("=name#") == E.SpillRef(E.NameRef("name"))
    ast = parse_formula("=@A1:A10")
    assert isinstance(ast, E.ImplicitIntersect)
    assert isinstance(ast.inner, E.RangeRef)


def test_omitted_arguments():
    ast = parse_formula("=SEQUENCE(1 + nPeriods, , 0)")
    assert ast.args[1] is E.OMITTED_ARG


@pytest.mark.parametrize(
    "bad",
    [
        "=LET(x, 1)",             # even argument count
        "=LET(1, 2, 3)",          # binding name not an identifier
        "=LET(x, , 1)",           # missing binding value
        "=LAMBDA([p], x, p)",     # required after optional
        "=LAMBDA(x, x, x)",       # duplicate parameter
        "=SUM([p])",              # optional marker outside LAMBDA
        "=1 +",
        "=(1",
        "={1,2;3}",               # ragged array literal
        "={}",
        "=foo(1,",
    ],
)
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_formula(bad)


@pytest.mark.parametrize("text", ["=SUM([p])", "=LET(x, [p], 1)"])
def test_optional_marker_outside_a_lambda_list_is_unexpected(text):
    with pytest.raises(ParseError, match=r"unexpected '\['"):
        parse_formula(text)


def test_optional_marker_as_lambda_body_is_an_error():
    with pytest.raises(ParseError, match="LAMBDA body missing"):
        parse_formula("=LAMBDA(x, [p])")


def test_parse_error_carries_offset_and_expected():
    with pytest.raises(ParseError) as err:
        parse_formula("=SUM(1 2)")
    assert err.value.offset == 7
    assert ")" in err.value.expected


def test_let_requires_body():
    with pytest.raises(ParseError):
        parse_formula("=LET(x, 1, )")


# -- precedence ---------------------------------------------------------------


def shape(src):
    return parse_formula(src)


def test_power_left_associative():
    assert shape("=2^3^2") == shape("=(2^3)^2")
    assert shape("=2^3^2") != shape("=2^(3^2)")


def test_unary_minus_binds_tighter_than_power():
    assert shape("=-2^2") == shape("=(-2)^2")


def test_percent_binds_tighter_than_unary():
    assert shape("=-5%") == E.UnaryOp("-", E.PercentPostfix(E.Literal(5.0)))


def test_concat_between_additive_and_comparison():
    assert shape('=1+2 & "x" = "3x"') == shape('=((1+2) & "x") = "3x"')


def test_multiplication_over_addition():
    assert shape("=1+2*3") == shape("=1+(2*3)")


def test_comparison_chain_left():
    assert shape("=1 < 2 = TRUE") == shape("=(1 < 2) = TRUE")


@pytest.mark.parametrize(
    "src,tree",
    [
        ("=-2^2", E.BinaryOp("^", E.UnaryOp("-", E.Literal(2.0)), E.Literal(2.0))),
        ("=2^3^2", E.BinaryOp("^", E.BinaryOp("^", E.Literal(2.0), E.Literal(3.0)), E.Literal(2.0))),
        ("=1&2+3", E.BinaryOp("&", E.Literal(1.0), E.BinaryOp("+", E.Literal(2.0), E.Literal(3.0)))),
        ("=1=2&3", E.BinaryOp("=", E.Literal(1.0), E.BinaryOp("&", E.Literal(2.0), E.Literal(3.0)))),
        ("=a<b<c", E.BinaryOp("<", E.BinaryOp("<", E.NameRef("a"), E.NameRef("b")), E.NameRef("c"))),
        ("=@x#", E.ImplicitIntersect(E.SpillRef(E.NameRef("x")))),
        ("=5%^2", E.BinaryOp("^", E.PercentPostfix(E.Literal(5.0)), E.Literal(2.0))),
        ("=1-2-3*4/5", E.BinaryOp(
            "-",
            E.BinaryOp("-", E.Literal(1.0), E.Literal(2.0)),
            E.BinaryOp("/", E.BinaryOp("*", E.Literal(3.0), E.Literal(4.0)), E.Literal(5.0)),
        )),
    ],
)
def test_precedence_trees(src, tree):
    assert parse_formula(src) == tree


def test_parser_and_printer_share_one_precedence_table():
    assert set(E.BIN_PREC) == {"=", "<>", "<", "<=", ">", ">=", "&", "+", "-", "*", "/", "^"}
    assert E.BIN_PREC["="] < E.BIN_PREC["&"] < E.BIN_PREC["+"] < E.BIN_PREC["*"] < E.BIN_PREC["^"]


@pytest.mark.parametrize(
    "src,message",
    [
        ("=foo(1", "unclosed argument list (offset 6); expected one of: )"),
        ("=LET(x,1", "unclosed argument list (offset 8); expected one of: )"),
        ("=foo(1,", "unexpected end of formula (offset 7)"),
        ("=SUM(1 2)", "unexpected '2' in argument list (offset 7); expected one of: ,, )"),
        ("=(1", "expected ')' (offset 3); expected one of: )"),
        ("={1,2", "unclosed array literal (offset 5); expected one of: }"),
        ("={1,", "unclosed array literal (offset 4); expected one of: }"),
        ("={1,2 3}", "unexpected '3' in array literal (offset 6); expected one of: ,, ;, }"),
        ('="abc', "unterminated string (offset 1)"),
        ('=1 + "a""', "unterminated string (offset 5)"),
        ("=1+", "unexpected end of formula (offset 3)"),
        ("=A1:", "unexpected ':' (offset 3)"),
        ("=Sheet!", "expected cell reference after sheet name (offset 7)"),
        ("=x #", "illegal character '#' (offset 3)"),
        ("=1 + 1e999", "number out of range (offset 5)"),
    ],
)
def test_error_messages_and_offsets(src, message):
    with pytest.raises(ValueError) as err:
        parse_formula(src)
    assert str(err.value) == message


def _parenthesize(e: E.Expr) -> str:
    """Fully parenthesized rendering: the precedence-free oracle."""
    match e:
        case E.BinaryOp(op=op, left=l, right=r):
            return f"({_parenthesize(l)} {op} {_parenthesize(r)})"
        case E.UnaryOp(op=op, operand=x):
            return f"({op}{_parenthesize(x)})"
        case E.PercentPostfix(operand=x):
            return f"({_parenthesize(x)}%)"
        case E.ImplicitIntersect(inner=x):
            return f"(@{_parenthesize(x)})"
        case E.Call(callee=c, args=args):
            rendered = ", ".join("" if a is E.OMITTED_ARG else _parenthesize(a) for a in args)
            return f"{_parenthesize(c)}({rendered})"
        case E.Let(bindings=bs, body=body):
            inner = ", ".join(f"{n}, {_parenthesize(v)}" for n, v in bs)
            return f"LET({inner}, {_parenthesize(body)})"
        case E.Lambda(params=ps, body=body):
            names = ", ".join(f"[{p.name}]" if p.optional else p.name for p in ps)
            prefix = names + ", " if names else ""
            return f"LAMBDA({prefix}{_parenthesize(body)})"
        case _:
            return print_expr(e)[1:]


def test_minimal_parens_agree_with_full_parens_on_random_expressions():
    rng = random.Random(20240917)
    for _ in range(300):
        tree = gen_expr(rng, depth=4)
        minimal = parse_formula(print_expr(tree))
        oracle = parse_formula("=" + _parenthesize(tree))
        assert minimal == oracle == tree


def test_roundtrip_random_expressions():
    rng = random.Random(7)
    for _ in range(300):
        tree = gen_expr(rng, depth=4)
        assert parse_formula(print_expr(tree)) == tree


# -- printing -----------------------------------------------------------------


def test_print_let_canonical():
    assert print_expr(E.Let((("x", E.Literal(1.0)),), E.NameRef("x"))) == "=LET(x, 1, x)"


def test_print_array_canonical():
    ast = E.Literal(Array(((1.0, 2.0), (3.0, 4.0))))
    assert print_expr(ast) == "={1,2;3,4}"


def test_print_intersection():
    ast = E.ImplicitIntersect(
        E.RangeRef(E.CellRef(col=1, row=1), E.CellRef(col=1, row=10))
    )
    assert print_expr(ast) == "=@A1:A10"


def test_range_normalization():
    assert parse_formula("=B3:A1") == parse_formula("=A1:B3")


def test_sheet_qualified_reference():
    ast = parse_formula("=Data!B2")
    assert ast == E.CellRef(col=2, row=2, sheet="Data")
    rng_ref = parse_formula("=Data!A1:B2")
    assert isinstance(rng_ref, E.RangeRef) and rng_ref.sheet == "Data"


def test_error_literal_roundtrip():
    ast = parse_formula("=IF(A1, #N/A, #DIV/0!)")
    assert ast.args[1] == E.Literal(ast.args[1].value)
    assert ast.args[1].value.kind == ErrorKind.NA
    roundtrip("=IF(A1, #N/A, #DIV/0!)")


@pytest.mark.parametrize(
    "src",
    [
        "=LET(x, C5:C15=C3, y, FILTER(D5:D15, x), IF(y<>\"\", y, \"-\"))",
        "=MOD(@$A$1:$A$10,3)",
        "=BYROW(return#, LAMBDA(x, SUM(x)))",
        "=SCAN(0, Revenue-COGS, Addλ)",
        "=LAMBDA(opening, vRate, [p], VSTACK(opening, p))",
        "=WRAPROWS(DROP(sales#, ,1), 4)",
        "=SEQUENCE(occurrences, , start, periodicity)",
        "=1 + EOMONTH(+periodEnd, -1)",
        "=TAKE(Convolveλ(timing, amounts), 12 * modelDuration)",
        "=-2^2 + 5% & \"t\" <> x",
        '={1,-2.5;"a""b",#N/A}',
        "=IF(a, , 1)",
        "=f(, {TRUE,FALSE}, )",
    ],
)
def test_roundtrip_paper_formulas(src):
    roundtrip(src)


def test_linefeeds_insignificant_between_tokens():
    vertical = """=LET(
    criterion, account = required,
    selected, FILTER(completionDate, criterion),
    IF(selected <> "", selected, "-")
)"""
    compact = '=LET(criterion,account=required,selected,FILTER(completionDate,criterion),IF(selected<>"",selected,"-"))'
    assert parse_formula(vertical) == parse_formula(compact)
