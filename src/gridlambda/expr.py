"""Formula abstract syntax tree and the canonical formula printer.

Every constant, an array literal and an empty argument slot included, is one
frozen ``Literal`` node holding its runtime value; the printer writes each
through ``_literal_text``."""

from __future__ import annotations

from dataclasses import dataclass

from .values import OMITTED, Array, ErrorValue, Param

GRID_MAX_ROWS = 1_048_576
GRID_MAX_COLS = 16_384


def col_to_letters(col: int) -> str:
    out = ""
    while col > 0:
        col, rem = divmod(col - 1, 26)
        out = chr(ord("A") + rem) + out
    return out


def letters_to_col(letters: str) -> int:
    col = 0
    for ch in letters.upper():
        col = col * 26 + ord(ch) - 64  # "A" is 1
    return col


class Expr:
    __slots__ = ()


@dataclass(frozen=True, eq=False)
class Literal(Expr):
    """A constant: a float, text, a bool, an ``ErrorValue``, an ``Array`` of
    those (an array literal) or ``OMITTED`` (an empty argument slot).

    Equality also compares the type of the value, and of each element of an
    array, so ``TRUE`` is not ``1`` and a date serial is not the plain number,
    inside an array literal as well."""

    value: object

    def __eq__(self, other) -> bool:
        return type(other) is Literal and _typed(self.value) == _typed(other.value)

    def __hash__(self) -> int:
        return hash(_typed(self.value))


def _typed(value):
    """``value`` paired with its type; an array pairs each element."""
    if isinstance(value, Array):
        return Array, tuple(tuple(map(_typed, row)) for row in value.rows)
    return type(value), value


@dataclass(frozen=True)
class CellRef(Expr):
    col: int
    row: int
    col_abs: bool = False
    row_abs: bool = False
    sheet: str | None = None


@dataclass(frozen=True)
class RangeRef(Expr):
    """Normalized rectangle: start is the top-left corner, end the bottom-right."""

    start: CellRef
    end: CellRef
    sheet: str | None = None


@dataclass(frozen=True)
class NameRef(Expr):
    # A name an enclosing LET or LAMBDA binds has the lexical address the
    # parser gives it: ``depth`` frames out, ``slot`` in that frame.
    name: str
    depth: int | None = None
    slot: int = 0


@dataclass(frozen=True)
class SpillRef(Expr):
    """``name#`` or ``A1#``: the whole spill range anchored at the referent."""

    target: Expr  # NameRef | CellRef


@dataclass(frozen=True)
class ImplicitIntersect(Expr):
    inner: Expr


# The empty argument slot of a call; the parser returns this one node.
OMITTED_ARG = Literal(OMITTED)


@dataclass(frozen=True)
class Call(Expr):
    callee: Expr
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class Let(Expr):
    bindings: tuple[tuple[str, Expr], ...]
    body: Expr


@dataclass(frozen=True)
class Lambda(Expr):
    params: tuple[Param, ...]
    body: Expr


@dataclass(frozen=True)
class BinaryOp(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # "-" or "+"
    operand: Expr


@dataclass(frozen=True)
class PercentPostfix(Expr):
    operand: Expr


# ---------------------------------------------------------------------------
# Printing

# Binding strength of each binary operator: the parser climbs it and the
# printer places parentheses by it. Postfix ``%``/``#`` bind tightest, then
# unary sign, then ``^``, ``*`` ``/``, ``+`` ``-``, ``&``, comparisons.
BIN_PREC = {
    "=": 1, "<>": 1, "<": 1, "<=": 1, ">": 1, ">=": 1,
    "&": 2,
    "+": 3, "-": 3,
    "*": 4, "/": 4,
    "^": 5,
}
_PREC_UNARY = 6
_PREC_POSTFIX = 7
_PREC_ATOM = 8


def print_expr(e: Expr) -> str:
    """Canonical formula text (with leading ``=``) for an AST.

    ``parse_formula(print_expr(e))`` is structurally equal to ``e``.
    """
    return "=" + _print(e, 0)


def _print(e: Expr, parent_prec: int) -> str:
    text, prec = _print_prec(e)
    if prec < parent_prec:
        return f"({text})"
    return text


def _literal_text(v) -> str:
    """The formula text of a literal value; an omitted argument prints empty."""
    if isinstance(v, bool):
        return "TRUE" if v else "FALSE"
    if isinstance(v, (int, float)):
        return _number_literal(float(v))
    if isinstance(v, str):
        return '"' + v.replace('"', '""') + '"'
    if isinstance(v, ErrorValue):
        return v.kind.value
    if isinstance(v, Array):
        return "{" + ";".join(",".join(map(_literal_text, row)) for row in v.rows) + "}"
    if v is OMITTED:
        return ""
    raise TypeError(f"not a literal value: {v!r}")


def _number_literal(x: float) -> str:
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def _cell_ref_text(ref: CellRef) -> str:
    sheet = f"{ref.sheet}!" if ref.sheet else ""
    return (
        sheet
        + ("$" if ref.col_abs else "")
        + col_to_letters(ref.col)
        + ("$" if ref.row_abs else "")
        + str(ref.row)
    )


def _print_prec(e: Expr) -> tuple[str, int]:
    match e:
        case Literal(value=v):
            return _literal_text(v), _PREC_ATOM
        case CellRef():
            return _cell_ref_text(e), _PREC_ATOM
        case RangeRef(start=s, end=t, sheet=sheet):
            prefix = f"{sheet}!" if sheet else ""
            return prefix + _cell_ref_text(s) + ":" + _cell_ref_text(t), _PREC_ATOM
        case NameRef(name=n):
            return n, _PREC_ATOM
        case SpillRef(target=t):
            return _print(t, _PREC_POSTFIX) + "#", _PREC_POSTFIX
        case ImplicitIntersect(inner=inner):
            return "@" + _print(inner, _PREC_UNARY), _PREC_UNARY
        case PercentPostfix(operand=x):
            return _print(x, _PREC_POSTFIX) + "%", _PREC_POSTFIX
        case UnaryOp(op=op, operand=x):
            return op + _print(x, _PREC_UNARY), _PREC_UNARY
        case BinaryOp(op=op, left=l, right=r):
            prec = BIN_PREC[op]
            # Left-associative: the right child needs parens at equal precedence.
            return (
                _print(l, prec) + f" {op} " + _print(r, prec + 1),
                prec,
            )
        case Call(callee=callee, args=args):
            parts = ", ".join(_print(a, 0) for a in args)
            return _print(callee, _PREC_POSTFIX) + "(" + parts + ")", _PREC_POSTFIX
        case Let(bindings=bindings, body=body):
            parts = []
            for name, val in bindings:
                parts.append(name)
                parts.append(_print(val, 0))
            parts.append(_print(body, 0))
            return "LET(" + ", ".join(parts) + ")", _PREC_ATOM
        case Lambda(params=params, body=body):
            parts = [f"[{p.name}]" if p.optional else p.name for p in params]
            parts.append(_print(body, 0))
            return "LAMBDA(" + ", ".join(parts) + ")", _PREC_ATOM
        case _:
            raise TypeError(f"cannot print {e!r}")
