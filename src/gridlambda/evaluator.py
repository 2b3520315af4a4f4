"""Expression evaluation: LET frames, closures, recursion, operators.

Evaluation is total: every failure mode is returned as an error value, never
raised. Workbook state is reached only through the context's workbook handle.
"""

from __future__ import annotations

import inspect
import math
import operator
from dataclasses import dataclass, field

from . import expr as E
from .values import (
    DIV0,
    EMPTY,
    NAME_ERROR,
    NUM_ERROR,
    OMITTED,
    REF_ERROR,
    VALUE_ERROR,
    Array,
    Closure,
    ErrorValue,
    Ref,
    coerce_to_number,
    coerce_to_text,
    compare_scalars,
    lift_elementwise,
)


class TraceSink:
    """Counts LET-binding and defined-name evaluations; optionally emits lines."""

    def __init__(self, writer=None):
        self.counters: dict[str, int] = {}
        self.writer = writer

    def record(self, scope: str, name: str):
        key = f"{scope}:{name}"
        count = self.counters.get(key, 0) + 1
        self.counters[key] = count
        if self.writer is not None:
            self.writer(f"EVAL {key} #{count}")

    def count(self, scope: str, name: str) -> int:
        return self.counters.get(f"{scope}:{name}", 0)

    def clear(self):
        self.counters.clear()


class Environment:
    """A lexical frame, chained to the frame it was opened in: the slots of
    one lambda application (its arguments, padded with OMITTED) or of one
    LET (the binding expressions, each replaced by its value on first read).
    ``Environment()`` is the empty root."""

    __slots__ = ("parent", "slots")

    def __init__(self, parent: "Environment | None" = None, slots=()):
        self.parent = parent
        self.slots = slots


@dataclass
class EvalContext:
    """Per-evaluation state: caller cell, recursion depth, trace counters."""

    workbook: object = None
    caller: tuple[str, int, int] | None = None  # (sheet, row, col)
    depth_limit: int = 1024
    depth: int = 0
    trace: TraceSink = field(default_factory=TraceSink)

    def current_sheet(self) -> str | None:
        if self.caller is not None:
            return self.caller[0]
        wb = self.workbook
        return wb.default_sheet if wb is not None else None


# Builtin registry, populated by the functions module on import.
# name (casefolded) -> Builtin
BUILTINS: dict[str, "Builtin"] = {}


@dataclass(frozen=True)
class Builtin:
    name: str
    min_args: int
    max_args: int
    impl: object
    raw: bool = False  # raw builtins receive unevaluated argument expressions
    # One entry per positional parameter after ``ctx``: its coercer, or None
    # for a value passed unchanged. Empty when no parameter has a coercer.
    coercers: tuple = ()
    # Positions whose coercer sets ``keeps_ref``: a `Ref` there is not read.
    keeps_ref: frozenset = frozenset()


def register(name: str, min_args: int, max_args: int, raw: bool = False):
    def deco(fn):
        coercers = () if raw else _coercers(fn)
        keeps = frozenset(i for i, c in enumerate(coercers) if getattr(c, "keeps_ref", False))
        BUILTINS[name.casefold()] = Builtin(name, min_args, max_args, fn, raw, coercers, keeps)
        return fn

    return deco


def _coercers(fn) -> tuple:
    """The coercers a builtin declares as its parameters' annotations. A
    parameter with a default takes it for a blank or omitted argument."""
    params = list(inspect.signature(fn, eval_str=True).parameters.values())[1:]
    out = tuple(_coercer(p) for p in params if p.kind is p.POSITIONAL_OR_KEYWORD)
    return out if any(out) else ()


def _coercer(param):
    coerce = None if param.annotation is param.empty else param.annotation
    if coerce is None or param.default is param.empty:
        return coerce
    default = param.default
    return lambda v: default if v is OMITTED or v is EMPTY else coerce(v)


def is_builtin_name(name: str) -> bool:
    return name.casefold() in BUILTINS


# ---------------------------------------------------------------------------
# Scalar operator kernels


def _finite_or_num_error(x: float):
    return x if math.isfinite(x) else NUM_ERROR


def _numeric_kernel(op):
    """A scalar kernel for a binary numeric operation: both operands coerce,
    the first error operand wins, division by zero is #DIV/0!, and an
    overflow, a domain error or a non-finite result is #NUM!."""

    def kernel(a, b):
        if type(a) is not float:
            a = coerce_to_number(a)
            if isinstance(a, ErrorValue):
                return a
        if type(b) is not float:
            b = coerce_to_number(b)
            if isinstance(b, ErrorValue):
                return b
        try:
            return _finite_or_num_error(op(a, b))
        except ZeroDivisionError:
            return DIV0
        except (OverflowError, ValueError):
            return NUM_ERROR

    return kernel


def _power(a, b):
    # 0^-n raises ZeroDivisionError (#DIV/0!); 0^0 and a negative base to a
    # fractional power, whose result is complex, are #NUM!.
    if a == 0 and b == 0:
        raise ValueError("0^0")
    out = a ** b
    if isinstance(out, complex):
        raise ValueError("no real power")
    return out


def _concat(a, b):
    a, b = coerce_to_text(a), coerce_to_text(b)
    if isinstance(a, ErrorValue):
        return a
    if isinstance(b, ErrorValue):
        return b
    return a + b


def _make_comparison(test):
    def cmp(a, b):
        order = compare_scalars(a, b)
        if isinstance(order, ErrorValue):
            return order
        return test(order)

    return cmp


_BINARY_KERNELS = {
    "+": _numeric_kernel(operator.add),
    "-": _numeric_kernel(operator.sub),
    "*": _numeric_kernel(operator.mul),
    "/": _numeric_kernel(operator.truediv),
    "^": _numeric_kernel(_power),
    "&": _concat,
    "=": _make_comparison(lambda o: o == 0),
    "<>": _make_comparison(lambda o: o != 0),
    "<": _make_comparison(lambda o: o < 0),
    "<=": _make_comparison(lambda o: o <= 0),
    ">": _make_comparison(lambda o: o > 0),
    ">=": _make_comparison(lambda o: o >= 0),
}


def _num_neg(a):
    a = coerce_to_number(a)
    return a if isinstance(a, ErrorValue) else -a


def _num_percent(a):
    a = coerce_to_number(a)
    return a if isinstance(a, ErrorValue) else a / 100.0


# ---------------------------------------------------------------------------
# Evaluation


def read(value, ctx: EvalContext):
    """``value``, or the value of the cells it names when it is a `Ref`
    (#REF! without a workbook)."""
    if type(value) is not Ref:
        return value
    return REF_ERROR if ctx.workbook is None else ctx.workbook.read(value)


def evaluate(expr, env: Environment, ctx: EvalContext):
    handler = _DISPATCH.get(type(expr))
    if handler is None:
        raise TypeError(f"cannot evaluate {expr!r}")
    return handler(expr, env, ctx)


def _literal(expr, env: Environment, ctx: EvalContext):
    return expr.value


def _eval_binary(expr: E.BinaryOp, env: Environment, ctx: EvalContext):
    lhs = evaluate(expr.left, env, ctx)
    rhs = evaluate(expr.right, env, ctx)
    if type(lhs) is float and type(rhs) is float:
        return _BINARY_KERNELS[expr.op](lhs, rhs)
    if type(lhs) is Ref or type(rhs) is Ref:
        lhs, rhs = read(lhs, ctx), read(rhs, ctx)
    if isinstance(lhs, Closure) or isinstance(rhs, Closure):
        return VALUE_ERROR
    return lift_elementwise(_BINARY_KERNELS[expr.op], (lhs, rhs))


def _eval_unary(expr: E.UnaryOp, env: Environment, ctx: EvalContext):
    val = read(evaluate(expr.operand, env, ctx), ctx)
    if expr.op == "+":
        return val
    if isinstance(val, Closure):
        return VALUE_ERROR
    return lift_elementwise(_num_neg, (val,))


def _eval_percent(expr: E.PercentPostfix, env: Environment, ctx: EvalContext):
    val = read(evaluate(expr.operand, env, ctx), ctx)
    if isinstance(val, Closure):
        return VALUE_ERROR
    return lift_elementwise(_num_percent, (val,))


def _eval_name(expr: E.NameRef, env: Environment, ctx: EvalContext):
    depth = expr.depth
    if depth is not None:
        while depth:
            env = env.parent
            depth -= 1
        slots = env.slots
        value = slots[expr.slot]
        if isinstance(value, E.Expr):  # a LET binding's first read
            ctx.trace.record("let", expr.name)
            value = slots[expr.slot] = evaluate(value, env, ctx)
        return value
    wb = ctx.workbook
    if wb is not None:
        defined = wb.lookup_name(expr.name)
        if defined is not None:
            ctx.trace.record("name", defined.name)
            return evaluate(defined.expr, Environment(), ctx)
    return ErrorValue(NAME_ERROR.kind, f"unknown name {expr.name!r}")


def _eval_let(expr: E.Let, env: Environment, ctx: EvalContext):
    # One frame holds every binding; the parser lets a binding's expression
    # see only the slots before its own.
    return evaluate(expr.body, Environment(env, [value for _, value in expr.bindings]), ctx)


def _eval_cell_ref(ref: E.CellRef, env: Environment, ctx: EvalContext):
    wb = ctx.workbook
    if wb is None:
        return REF_ERROR
    sheet = ref.sheet or ctx.current_sheet()
    return wb.cell_value(sheet, ref.row, ref.col)


def _eval_range_ref(ref: E.RangeRef, env: Environment, ctx: EvalContext):
    # Without a workbook the reference has no sheet; ROW still reads its rows.
    sheet = ref.sheet or ctx.current_sheet()
    return Ref(sheet and sheet.casefold(), ref.start.row, ref.start.col, ref.end.row, ref.end.col)


def _eval_spill_ref(expr: E.SpillRef, env: Environment, ctx: EvalContext):
    wb = ctx.workbook
    if wb is None:
        return REF_ERROR
    anchor, _ = _resolve_spill_target(expr.target, wb.lookup_name)
    if isinstance(anchor, ErrorValue):
        return anchor
    sheet, row, col = (anchor.sheet or ctx.current_sheet()).casefold(), anchor.row, anchor.col
    arr = wb.spill_array(sheet, row, col)
    if arr is None:
        return ErrorValue(REF_ERROR.kind, "referent is not a spill anchor")
    return Ref(sheet, row, col, row + arr.n_rows - 1, col + arr.n_cols - 1, spill=True)


def _resolve_spill_target(target, lookup_name):
    """Follow a spill-reference target through a chain of defined names.

    ``lookup_name`` maps a name to its definition or None. Returns the
    ``CellRef`` reached (or an error value) and the casefolded keys of the
    names passed through, undefined ones included.
    """
    keys: list[str] = []
    while isinstance(target, E.NameRef):
        key = target.name.casefold()
        if key in keys:
            return REF_ERROR, keys
        keys.append(key)
        defined = lookup_name(target.name)
        if defined is None:
            return ErrorValue(NAME_ERROR.kind, f"unknown name {target.name!r}"), keys
        target = defined.expr
    if isinstance(target, E.CellRef):
        return target, keys
    return REF_ERROR, keys


def _eval_intersect(expr: E.ImplicitIntersect, env: Environment, ctx: EvalContext):
    """``@``: the one cell of a reference in line with the caller; an array,
    which has no place on the grid, gives its top-left element."""
    value = evaluate(expr.inner, env, ctx)
    if type(value) is not Ref:
        return value.rows[0][0] if isinstance(value, Array) else value
    if ctx.workbook is None:
        return REF_ERROR
    sheet, r1, c1, r2, c2, _ = value
    if ctx.caller is None and (r1, c1) != (r2, c2):
        return ErrorValue(VALUE_ERROR.kind, "no caller")
    _, row, col = ctx.caller or value[:3]  # one cell needs no caller
    r, c = r1 if r1 == r2 else row, c1 if c1 == c2 else col
    if r1 <= r <= r2 and c1 <= c <= c2:
        return ctx.workbook.cell_value(sheet, r, c)
    names = ctx.workbook.sheet_names
    span = f"{names.get(sheet, sheet)}!{E.col_to_letters(c1)}{r1}:{E.col_to_letters(c2)}{r2}"
    where = f"column {E.col_to_letters(col)}" if r1 <= r <= r2 else f"row {row}"
    return ErrorValue(VALUE_ERROR.kind, f"no cell of {span} in {where}")


def _eval_call(expr: E.Call, env: Environment, ctx: EvalContext):
    # A callee the parser left without an address may be a builtin; any
    # other callee evaluates like a value.
    callee, args = expr.callee, expr.args
    if type(callee) is E.NameRef and callee.depth is None:
        builtin = BUILTINS.get(callee.name.casefold())
        if builtin is not None:
            return _call_builtin(builtin, args, env, ctx)
    return _apply_value(evaluate(callee, env, ctx), args, env, ctx)


def _apply_value(fn, args, env: Environment, ctx: EvalContext):
    if isinstance(fn, ErrorValue):
        return fn
    if not isinstance(fn, Closure):
        return ErrorValue(VALUE_ERROR.kind, "call target is not a lambda")
    return apply_closure(fn, [evaluate(a, env, ctx) for a in args], ctx)


def apply_closure(closure: Closure, args, ctx: EvalContext):
    """Apply a closure to evaluated arguments; a missing optional one is OMITTED."""
    n = len(args)
    if n > closure.max_arity:
        return ErrorValue(VALUE_ERROR.kind, "too many arguments")
    if n < closure.min_arity:
        return ErrorValue(VALUE_ERROR.kind, "missing required argument")
    if ctx.depth >= ctx.depth_limit:
        return ErrorValue(NUM_ERROR.kind, "recursion limit exceeded")
    slots = (*args, *[OMITTED] * (closure.max_arity - n))
    ctx.depth += 1
    try:
        return evaluate(closure.body, Environment(closure.env, slots), ctx)
    finally:
        ctx.depth -= 1


def _call_builtin(builtin: Builtin, args, env: Environment, ctx: EvalContext):
    if not (builtin.min_args <= len(args) <= builtin.max_args):
        return ErrorValue(
            VALUE_ERROR.kind,
            f"{builtin.name} expects {builtin.min_args}..{builtin.max_args} arguments",
        )
    if builtin.raw:
        return builtin.impl(ctx, env, args)
    values = [evaluate(a, env, ctx) for a in args]
    for value in values:
        if type(value) is Ref:
            values = [v if i in builtin.keeps_ref else read(v, ctx) for i, v in enumerate(values)]
            break
    # Coerce in parameter order; the first failure is the result. Values of
    # parameters without a coercer reach the body unfiltered, errors included.
    if builtin.coercers:
        for i, coerce in enumerate(builtin.coercers[:len(values)]):
            if coerce is not None:
                value = values[i] = coerce(values[i])
                if isinstance(value, ErrorValue):
                    return value
    return builtin.impl(ctx, *values)


# One handler per node class; ``evaluate`` looks up ``type(expr)`` exactly,
# so a subclass of a node needs an entry of its own.
_DISPATCH = {
    E.Literal: _literal,
    E.NameRef: _eval_name,
    E.CellRef: _eval_cell_ref,
    E.RangeRef: _eval_range_ref,
    E.SpillRef: _eval_spill_ref,
    E.ImplicitIntersect: _eval_intersect,
    E.Call: _eval_call,
    E.Let: _eval_let,
    E.Lambda: lambda expr, env, ctx: Closure(expr.params, expr.body, env),
    E.BinaryOp: _eval_binary,
    E.UnaryOp: _eval_unary,
    E.PercentPostfix: _eval_percent,
}
