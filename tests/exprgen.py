"""Deterministic random formula-AST generator for round-trip testing."""

from __future__ import annotations

import random

from gridlambda import expr as E
from gridlambda.values import Array, ErrorKind, ErrorValue, Param

_NAMES = [
    "alpha", "rate", "vRate", "opening", "closing", "Addλ", "Sumλ", "δt",
    "ϑ", "εps", "balance", "x", "y_", "a.b", "Growthλ", "counter", "sales",
]
_SHEETS = [None, None, None, "Sheet1", "Data", "Model"]
_TEXT_CHARS = 'abc XYZ λδ 0189 .,;:+-*/^&<>=()!?"'
_ERRORS = [ErrorValue(k) for k in ErrorKind]
_BINOPS = ["+", "-", "*", "/", "^", "&", "=", "<>", "<", "<=", ">", ">="]


def _number(rng: random.Random) -> float:
    kind = rng.randrange(4)
    if kind == 0:
        return float(rng.randrange(0, 1000))
    if kind == 1:
        return rng.random() * 100
    if kind == 2:
        return rng.random() * 10 ** rng.randrange(-8, 12)
    return float(rng.randrange(0, 10**15))


def _text(rng: random.Random) -> str:
    return "".join(rng.choice(_TEXT_CHARS) for _ in range(rng.randrange(0, 12)))


def _scalar(rng: random.Random):
    kind = rng.randrange(5)
    if kind == 0:
        return _number(rng)
    if kind == 1:
        return -_number(rng)
    if kind == 2:
        return _text(rng)
    if kind == 3:
        return rng.random() < 0.5
    return rng.choice(_ERRORS)


def _cell(rng: random.Random, sheet=None) -> E.CellRef:
    return E.CellRef(
        col=rng.randrange(1, 80),
        row=rng.randrange(1, 500),
        col_abs=rng.random() < 0.3,
        row_abs=rng.random() < 0.3,
        sheet=sheet,
    )


def _range(rng: random.Random) -> E.RangeRef:
    sheet = rng.choice(_SHEETS)
    a, b = _cell(rng), _cell(rng)
    start = E.CellRef(
        col=min(a.col, b.col), row=min(a.row, b.row),
        col_abs=a.col_abs, row_abs=a.row_abs,
    )
    end = E.CellRef(
        col=max(a.col, b.col), row=max(a.row, b.row),
        col_abs=b.col_abs, row_abs=b.row_abs,
    )
    return E.RangeRef(start, end, sheet=sheet)


def _leaf(rng: random.Random) -> E.Expr:
    kind = rng.randrange(9)
    if kind == 0:
        return E.Literal(_number(rng))
    if kind == 1:
        return E.Literal(_text(rng))
    if kind == 2:
        return E.Literal(rng.random() < 0.5)
    if kind == 3:
        return E.Literal(rng.choice(_ERRORS))
    if kind == 4:
        cols = rng.randrange(1, 4)
        rows = tuple(
            tuple(_scalar(rng) for _ in range(cols)) for _ in range(rng.randrange(1, 4))
        )
        return E.Literal(Array(rows))
    if kind == 5:
        return _cell(rng, sheet=rng.choice(_SHEETS))
    if kind == 6:
        return _range(rng)
    if kind == 7:
        return E.SpillRef(rng.choice([E.NameRef(rng.choice(_NAMES)), _cell(rng)]))
    return E.NameRef(rng.choice(_NAMES))


def gen_expr(rng: random.Random, depth: int = 4) -> E.Expr:
    if depth <= 0:
        return _leaf(rng)
    kind = rng.randrange(10)
    if kind <= 2:
        return _leaf(rng)
    if kind == 3:
        return E.BinaryOp(rng.choice(_BINOPS), gen_expr(rng, depth - 1), gen_expr(rng, depth - 1))
    if kind == 4:
        return E.UnaryOp(rng.choice(["-", "+"]), gen_expr(rng, depth - 1))
    if kind == 5:
        return E.PercentPostfix(gen_expr(rng, depth - 1))
    if kind == 6:
        return E.ImplicitIntersect(gen_expr(rng, depth - 1))
    if kind == 7:
        args = []
        for _ in range(rng.randrange(0, 4)):
            if rng.random() < 0.15:
                args.append(E.OMITTED_ARG)
            else:
                args.append(gen_expr(rng, depth - 1))
        if args == [E.OMITTED_ARG]:
            # "f()" parses as zero arguments and "f(,)" as two, so a single
            # omitted argument has no written form.
            args = []
        callee: E.Expr = E.NameRef(rng.choice(_NAMES))
        if rng.random() < 0.2:
            callee = E.Call(callee, (gen_expr(rng, depth - 1),))
        return E.Call(callee, tuple(args))
    if kind == 8:
        names = rng.sample(_NAMES, rng.randrange(1, 4))
        bindings = tuple((n, gen_expr(rng, depth - 1)) for n in names)
        return E.Let(bindings, gen_expr(rng, depth - 1))
    n_req = rng.randrange(0, 3)
    n_opt = rng.randrange(0, 2)
    names = rng.sample(_NAMES, n_req + n_opt)
    params = tuple(
        Param(nm, optional=i >= n_req) for i, nm in enumerate(names)
    )
    return E.Lambda(params, gen_expr(rng, depth - 1))
