"""Deterministic random formula-AST generator for round-trip testing.

The generator models LET and LAMBDA scope itself, so a round trip checks
the parser's lexical addresses against an independent account of them.
``scope`` maps each casefolded name that an enclosing LET or LAMBDA binds to
the (frame, slot) of its innermost binding, frames numbered outermost first;
``frames`` counts the open ones. A name's address is ``frames - 1 - frame``
frames out, at ``slot``. A spill target and a callee that names a builtin
keep no address."""

from __future__ import annotations

import random

from gridlambda import expr as E
from gridlambda.values import Array, ErrorKind, ErrorValue, Param

_NAMES = [
    "alpha", "rate", "vRate", "opening", "closing", "Addλ", "Sumλ", "δt",
    "ϑ", "εps", "balance", "x", "y_", "a.b", "Growthλ", "counter", "sales",
    "year",
]
_BUILTIN_NAMES = {"year"}
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


def _name(name: str, scope: dict, frames: int) -> E.NameRef:
    bound = scope.get(name.casefold())
    if bound is None:
        return E.NameRef(name)
    frame, slot = bound
    return E.NameRef(name, frames - 1 - frame, slot)


def _leaf(rng: random.Random, scope: dict, frames: int) -> E.Expr:
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
    return _name(rng.choice(_NAMES), scope, frames)


def gen_expr(rng: random.Random, depth: int = 4, scope: dict | None = None, frames: int = 0) -> E.Expr:
    scope = {} if scope is None else scope

    def sub(inner=scope, inner_frames=frames):
        return gen_expr(rng, depth - 1, inner, inner_frames)

    if depth <= 0:
        return _leaf(rng, scope, frames)
    kind = rng.randrange(10)
    if kind <= 2:
        return _leaf(rng, scope, frames)
    if kind == 3:
        return E.BinaryOp(rng.choice(_BINOPS), sub(), sub())
    if kind == 4:
        return E.UnaryOp(rng.choice(["-", "+"]), sub())
    if kind == 5:
        return E.PercentPostfix(sub())
    if kind == 6:
        return E.ImplicitIntersect(sub())
    if kind == 7:
        args = []
        for _ in range(rng.randrange(0, 4)):
            if rng.random() < 0.15:
                args.append(E.OMITTED_ARG)
            else:
                args.append(sub())
        if args == [E.OMITTED_ARG]:
            # "f()" parses as zero arguments and "f(,)" as two, so a single
            # omitted argument has no written form.
            args = []
        name = rng.choice(_NAMES)
        callee: E.Expr = E.NameRef(name) if name in _BUILTIN_NAMES else _name(name, scope, frames)
        if rng.random() < 0.2:
            callee = E.Call(callee, (sub(),))
        return E.Call(callee, tuple(args))
    # A LET or LAMBDA opens frame number ``frames``.
    inner = dict(scope)
    if kind == 8:
        bindings = []
        for slot, name in enumerate(rng.choices(_NAMES, k=rng.randrange(1, 4))):  # may repeat
            bindings.append((name, sub(inner, frames + 1)))
            inner[name.casefold()] = (frames, slot)  # in scope once its value is read
        return E.Let(tuple(bindings), sub(inner, frames + 1))
    n_req = rng.randrange(0, 3)
    n_opt = rng.randrange(0, 2)
    names = rng.sample(_NAMES, n_req + n_opt)
    params = tuple(
        Param(nm, optional=i >= n_req) for i, nm in enumerate(names)
    )
    for slot, name in enumerate(names):
        inner[name.casefold()] = (frames, slot)
    return E.Lambda(params, sub(inner, frames + 1))
