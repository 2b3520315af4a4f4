"""Formula text to ``Expr``: one regular-expression scanner and a
precedence-climbing parser that gives each bound name its lexical address.

``tokenize`` matches one compiled pattern per token. Python code decides
only what a pattern cannot: whether a word with non-ASCII letters ends where
``_is_ident_char`` says, whether ``#`` is a spill suffix or starts an error
literal, and that ``$`` appears only in cell references. A number, text,
bool or error token carries its constant in ``Token.value``, which the
parser wraps in an ``expr.Literal``; an array literal's ``Array`` is built
once, here.

Binary operators are parsed by precedence climbing over ``expr.BIN_PREC``,
the table the printer uses. Tightest first: postfix ``%``/``#``, unary sign
and ``@``, ``^`` (left-associative), ``*`` ``/``, ``+`` ``-``, ``&``,
comparisons.
"""

from __future__ import annotations

import math
import re
import unicodedata
from typing import NamedTuple

from . import expr as E
from .evaluator import is_builtin_name
from .values import Array, ErrorKind, ErrorValue, Param

# Longest first, so a shorter error text never matches the start of a longer one.
_ERROR_TEXTS = sorted((k.value for k in ErrorKind), key=len, reverse=True)
# Token kinds whose value is a literal constant.
_LITERAL_KINDS = ("number", "text", "bool", "error")

# Each alternative is one token kind; a match also skips leading whitespace.
# Strings double their quotes; a closing quote is never followed by another.
# Numbers and cell rows take ASCII digits only.
_SCANNER = re.compile(
    r"""\s*(?:
      (?P<word>(?:[^\W\d]|\$)[$\w.]*)
    | (?P<op><>|<=|>=|[-+*/^&=<>%:])
    | (?P<punct>[(),;!\[\]])
    | (?P<number>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
    | (?P<text>"[^"]*(?:""[^"]*)*"(?!"))
    | (?P<at>@)
    | (?P<array_open>\{)
    | (?P<array_close>\})
    | (?P<hash>\#)
    | (?P<end>\Z)
    )""",
    re.VERBOSE,
)
_SPACE = re.compile(r"\s*")
_CELLREF = re.compile(r"(\$?)([A-Za-z]{1,3})(\$?)([1-9][0-9]*)")


class LexError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ParseError(ValueError):
    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        detail = f"{message} (offset {offset})"
        if expected:
            detail += "; expected one of: " + ", ".join(expected)
        super().__init__(detail)
        self.offset = offset
        self.expected = expected


class Token(NamedTuple):
    kind: str
    lexeme: str
    start: int
    end: int
    # The constant of a number, text, bool or error literal, the
    # (col_abs, col, row_abs, row) of a cell reference, else None.
    value: object = None


def _is_ident_start(ch: str) -> bool:
    return ch == "_" or unicodedata.category(ch).startswith("L")


def _is_ident_char(ch: str) -> bool:
    return ch in "_." or ch.isdigit() or unicodedata.category(ch).startswith("L")


def _cellref_parts(word: str):
    """``(col_abs, col, row_abs, row)`` when ``word`` is shaped like a cell
    reference within grid bounds, else None."""
    m = _CELLREF.fullmatch(word)
    if m is None:
        return None
    col_abs, letters, row_abs, digits = m.groups()
    col = E.letters_to_col(letters)
    row = int(digits)
    if col > E.GRID_MAX_COLS or row > E.GRID_MAX_ROWS:
        return None
    return col_abs == "$", col, row_abs == "$", row


def _word_end(source: str, start: int, end: int) -> int:
    """Where a word with non-ASCII characters ends under the identifier rules;
    the scanner's word pattern also takes characters such as ``½`` that no
    name may hold."""
    if not (source[start] == "$" or _is_ident_start(source[start])):
        raise LexError(f"illegal character {source[start]!r}", start)
    i = start + 1
    while i < end and (source[i] == "$" or _is_ident_char(source[i])):
        i += 1
    return i


def tokenize(source: str) -> list[Token]:
    """Lex formula text. Token lexemes plus skipped whitespace tile the input."""
    tokens: list[Token] = []
    append = tokens.append
    match = _SCANNER.match
    pos = 0
    while True:
        m = match(source, pos)
        if m is None:
            start = _SPACE.match(source, pos).end()
            if source[start] == '"':
                raise LexError("unterminated string", start)
            raise LexError(f"illegal character {source[start]!r}", start)
        kind = m.lastgroup
        start = m.start(kind)
        pos = m.end()
        if kind == "word":
            word = source[start:pos]
            if not word.isascii():
                pos = _word_end(source, start, pos)
                word = source[start:pos]
            parts = _cellref_parts(word)
            if parts is not None:
                append(Token("cellref", word, start, pos, parts))
            elif "$" in word:
                raise LexError(f"illegal '$' in name {word!r}", start)
            elif word.upper() in ("TRUE", "FALSE"):
                append(Token("bool", word, start, pos, word.upper() == "TRUE"))
            else:
                append(Token("ident", word, start, pos))
        elif kind == "number":
            lexeme = m.group(kind)
            value = float(lexeme)
            if math.isinf(value):
                raise LexError("number out of range", start)
            append(Token("number", lexeme, start, pos, value))
        elif kind == "hash":
            prev = tokens[-1] if tokens else None
            if prev is not None and prev.end == start and prev.kind in ("ident", "cellref"):
                append(Token("spill", "#", start, pos))
                continue
            for err_text in _ERROR_TEXTS:
                pos = start + len(err_text)
                if source.startswith(err_text, start) or source[start:pos].upper() == err_text:
                    append(Token("error", source[start:pos], start, pos, ErrorValue(ErrorKind(err_text))))
                    break
            else:
                raise LexError("illegal character '#'", start)
        elif kind == "text":
            lexeme = m.group(kind)
            append(Token("text", lexeme, start, pos, lexeme[1:-1].replace('""', '"')))
        elif kind == "end":
            return tokens
        else:
            append(Token(kind, m.group(kind), start, pos))


def parse_formula(source: str) -> E.Expr:
    """Parse formula text (with or without a leading ``=``) into an Expr."""
    text = source
    stripped = text.lstrip()
    if stripped.startswith("="):
        offset = len(text) - len(stripped) + 1
        text = text[:offset - 1] + " " + text[offset:]
    parser = _Parser(tokenize(text), len(source))
    try:
        node = parser.expression()
    except RecursionError:
        raise ParseError("formula nested too deeply", parser.peek().start) from None
    parser.expect_end()
    return node


class _Parser:
    """Reads a token list that ends in an ``end`` token at the source length."""

    def __init__(self, tokens: list[Token], source_len: int):
        self.tokens = tokens
        tokens.append(Token("end", "", source_len, source_len))
        self.pos = 0
        # Per open LET or LAMBDA, innermost last: the names bound so far.
        self.scopes: list[list[str]] = []

    # -- token helpers

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind == "end":
            raise ParseError("unexpected end of formula", tok.start)
        self.pos += 1
        return tok

    def at_punct(self, lexeme: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == "punct" and tok.lexeme == lexeme

    def expect_punct(self, lexeme: str) -> Token:
        if not self.at_punct(lexeme):
            raise ParseError(f"expected {lexeme!r}", self.peek().start, expected=(lexeme,))
        return self.next()

    def expect_end(self):
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.lexeme!r}", tok.start)

    # -- grammar

    def expression(self, min_prec: int = 1) -> E.Expr:
        """Operands joined by binary operators that bind at least as tightly
        as ``min_prec``. Every operator is left-associative, so its right
        operand takes only operators that bind tighter."""
        node = self.unary()
        tok = self.tokens[self.pos]
        while tok.kind == "op":
            prec = E.BIN_PREC.get(tok.lexeme)
            if prec is None or prec < min_prec:
                break
            self.pos += 1
            node = E.BinaryOp(tok.lexeme, node, self.expression(prec + 1))
            tok = self.tokens[self.pos]
        return node

    def unary(self) -> E.Expr:
        tok = self.tokens[self.pos]
        if tok.kind == "op" and tok.lexeme in ("+", "-"):
            self.pos += 1
            return E.UnaryOp(tok.lexeme, self.unary())
        if tok.kind == "at":
            self.pos += 1
            return E.ImplicitIntersect(self.unary())
        return self.postfix()

    def postfix(self) -> E.Expr:
        node = self.primary()
        while True:
            tok = self.tokens[self.pos]
            if tok.kind == "spill":
                if not isinstance(node, (E.NameRef, E.CellRef)):
                    raise ParseError("'#' applies to a name or cell reference", tok.start)
                self.pos += 1
                node = E.SpillRef(E.NameRef(node.name) if isinstance(node, E.NameRef) else node)
            elif tok.kind == "op" and tok.lexeme == "%":
                self.pos += 1
                node = E.PercentPostfix(node)
            elif tok.kind == "punct" and tok.lexeme == "(":
                node = self.call(node)
            else:
                return node

    def call(self, callee: E.Expr) -> E.Expr:
        open_tok = self.expect_punct("(")
        upper = callee.name.upper() if isinstance(callee, E.NameRef) else None
        binder = upper == "LET" or upper == "LAMBDA"
        if binder:
            self.scopes.append([])
        elif upper is not None and callee.depth is not None and is_builtin_name(callee.name):
            callee = E.NameRef(callee.name)  # a builtin callee wins over a binding
        args: list[E.Expr] = []
        if self.at_punct(")"):
            self.next()
        else:
            while True:
                args.append(self.argument(upper == "LAMBDA"))
                if binder:  # a parameter binds from the next argument on, a LET name once its value is read
                    bound = args[-1] if upper == "LAMBDA" else args[-2] if len(args) % 2 == 0 else None
                    if isinstance(bound, (E.NameRef, Param)):
                        self.scopes[-1].append(bound.name.casefold())
                tok = self.peek()
                if tok.kind == "end":
                    raise ParseError("unclosed argument list", tok.start, expected=(")",))
                if tok.kind != "punct" or tok.lexeme not in (",", ")"):
                    raise ParseError(f"unexpected {tok.lexeme!r} in argument list", tok.start, expected=(",", ")"))
                self.pos += 1
                if tok.lexeme == ")":
                    break
        if binder:
            self.scopes.pop()
            return self._make_let(args, open_tok) if upper == "LET" else self._make_lambda(args, open_tok)
        return E.Call(callee, tuple(args))

    def argument(self, in_lambda: bool) -> E.Expr | Param:
        """One argument; in a LAMBDA's list, ``[name]`` is an optional parameter."""
        tok = self.peek()
        if tok.kind == "punct" and tok.lexeme in (",", ")"):
            return E.OMITTED_ARG
        if in_lambda and tok.kind == "punct" and tok.lexeme == "[":
            self.next()
            name_tok = self.next()
            if name_tok.kind != "ident":
                raise ParseError("expected parameter name after '['", name_tok.start)
            self.expect_punct("]")
            return Param(name_tok.lexeme, optional=True)
        return self.expression()

    def _make_let(self, args: list[E.Expr], open_tok: Token) -> E.Expr:
        if len(args) < 3 or len(args) % 2 == 0:
            raise ParseError(
                "LET takes name/value pairs plus a body (an odd count of at least 3 arguments)",
                open_tok.start,
            )
        bindings = []
        for i in range(0, len(args) - 1, 2):
            name = args[i]
            if not isinstance(name, E.NameRef):
                raise ParseError("LET binding name must be an identifier", open_tok.start)
            if args[i + 1] is E.OMITTED_ARG:
                raise ParseError("LET binding value missing", open_tok.start)
            bindings.append((name.name, args[i + 1]))
        if args[-1] is E.OMITTED_ARG:
            raise ParseError("LET body missing", open_tok.start)
        return E.Let(tuple(bindings), args[-1])

    def _make_lambda(self, args: list[E.Expr], open_tok: Token) -> E.Expr:
        if len(args) < 1:
            raise ParseError("LAMBDA requires a body", open_tok.start)
        params: list[Param] = []
        seen_optional = False
        seen: set[str] = set()
        for a in args[:-1]:
            if isinstance(a, Param):
                param = a
                seen_optional = True
            elif isinstance(a, E.NameRef):
                if seen_optional:
                    raise ParseError("required parameter after optional parameter", open_tok.start)
                param = Param(a.name)
            else:
                raise ParseError("LAMBDA parameter must be an identifier", open_tok.start)
            key = param.name.casefold()
            if key in seen:
                raise ParseError(f"duplicate LAMBDA parameter {param.name!r}", open_tok.start)
            seen.add(key)
            params.append(param)
        body = args[-1]
        if isinstance(body, Param) or body is E.OMITTED_ARG:
            raise ParseError("LAMBDA body missing", open_tok.start)
        return E.Lambda(tuple(params), body)

    def primary(self) -> E.Expr:
        tok = self.peek()
        if tok.kind == "end":
            raise ParseError("unexpected end of formula", tok.start)
        if tok.kind in _LITERAL_KINDS:
            self.pos += 1
            return E.Literal(tok.value)
        if tok.kind == "array_open":
            return self.array_literal()
        if tok.kind == "cellref":
            return self.reference(sheet=None)
        if tok.kind == "ident":
            nxt = self.tokens[self.pos + 1]
            if nxt.kind == "punct" and nxt.lexeme == "!":
                self.pos += 2
                if self.peek().kind != "cellref":
                    raise ParseError("expected cell reference after sheet name", self.peek().start)
                return self.reference(sheet=tok.lexeme)
            self.next()
            return self.name(tok.lexeme) if self.scopes else E.NameRef(tok.lexeme)
        if tok.kind == "punct" and tok.lexeme == "(":
            self.next()
            node = self.expression()
            self.expect_punct(")")
            return node
        raise ParseError(f"unexpected {tok.lexeme!r}", tok.start)

    def name(self, name: str) -> E.NameRef:
        """``name`` at the address of its innermost binding in scope, if any."""
        key = name.casefold()
        for depth, frame in enumerate(reversed(self.scopes)):
            if key in frame:
                return E.NameRef(name, depth, len(frame) - 1 - frame[::-1].index(key))
        return E.NameRef(name)

    def reference(self, sheet: str | None) -> E.Expr:
        tok = self.next()
        nxt = self.peek()
        if nxt.kind == "op" and nxt.lexeme == ":" and self.tokens[self.pos + 1].kind == "cellref":
            second = self._cell(self.tokens[self.pos + 1], None)
            self.pos += 2
            return _normalized_range(self._cell(tok, None), second, sheet)
        return self._cell(tok, sheet)

    def _cell(self, tok: Token, sheet: str | None) -> E.CellRef:
        col_abs, col, row_abs, row = tok.value
        return E.CellRef(col=col, row=row, col_abs=col_abs, row_abs=row_abs, sheet=sheet)

    def array_literal(self) -> E.Expr:
        open_tok = self.next()
        rows: list[list[object]] = [[]]
        expect_value = True
        while True:
            tok = self.peek()
            if tok.kind == "end":
                raise ParseError("unclosed array literal", tok.start, expected=("}",))
            if tok.kind == "array_close":
                self.next()
                break
            if expect_value:
                rows[-1].append(self._array_element())
                expect_value = False
                continue
            if tok.kind == "punct" and tok.lexeme == ",":
                self.next()
                expect_value = True
            elif tok.kind == "punct" and tok.lexeme == ";":
                self.next()
                rows.append([])
                expect_value = True
            else:
                raise ParseError(f"unexpected {tok.lexeme!r} in array literal", tok.start, expected=(",", ";", "}"))
        if expect_value or not rows[0]:
            raise ParseError("empty array literal element", open_tok.start)
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ParseError("array literal rows differ in length", open_tok.start)
        return E.Literal(Array(rows))

    def _array_element(self):
        tok = self.next()
        negate = False
        if tok.kind == "op" and tok.lexeme in ("-", "+"):
            negate = tok.lexeme == "-"
            tok = self.next()
        if tok.kind == "number":
            value = tok.value
            nxt = self.peek()
            if nxt.kind == "op" and nxt.lexeme == "%":
                self.next()
                value /= 100.0
            return -value if negate else value
        if negate:
            raise ParseError("'-' in an array literal must precede a number", tok.start)
        if tok.kind in _LITERAL_KINDS:
            return tok.value
        raise ParseError("array literals hold scalar constants only", tok.start)


def _normalized_range(first: E.CellRef, second: E.CellRef, sheet: str | None) -> E.RangeRef:
    """Order the corners so start is top-left; absolute flags follow their axis."""
    if first.col <= second.col:
        c1, c1a, c2, c2a = first.col, first.col_abs, second.col, second.col_abs
    else:
        c1, c1a, c2, c2a = second.col, second.col_abs, first.col, first.col_abs
    if first.row <= second.row:
        r1, r1a, r2, r2a = first.row, first.row_abs, second.row, second.row_abs
    else:
        r1, r1a, r2, r2a = second.row, second.row_abs, first.row, first.row_abs
    start = E.CellRef(col=c1, row=r1, col_abs=c1a, row_abs=r1a)
    end = E.CellRef(col=c2, row=r2, col_abs=c2a, row_abs=r2a)
    return E.RangeRef(start, end, sheet=sheet)
