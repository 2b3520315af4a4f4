"""Tokenizer and recursive-descent parser for formula text.

Precedence, tightest first: postfix ``%``/``#``, unary sign and ``@``,
``^`` (left-associative), ``*`` ``/``, ``+`` ``-``, ``&``, comparisons.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass

from . import expr as E
from .values import Param, error_from_text

_ERROR_TEXTS = sorted(
    ("#DIV/0!", "#VALUE!", "#REF!", "#NAME?", "#NUM!", "#N/A", "#CALC!", "#SPILL!", "#CIRC!"),
    key=len,
    reverse=True,
)

_TWO_CHAR_OPS = ("<>", "<=", ">=")
_ONE_CHAR_OPS = "+-*/^&=<>%:"
_PUNCT = "(),;![]"


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


@dataclass(frozen=True)
class Token:
    kind: str
    lexeme: str
    start: int
    end: int


def _is_ident_start(ch: str) -> bool:
    return ch == "_" or unicodedata.category(ch).startswith("L")


def _is_ident_char(ch: str) -> bool:
    return ch in "_." or ch.isdigit() or unicodedata.category(ch).startswith("L")


def _cellref_parts(word: str):
    """Split an identifier-like word into (col_abs, letters, row_abs, digits)
    when it is shaped like a cell reference within grid bounds, else None."""
    i = 0
    col_abs = word.startswith("$")
    if col_abs:
        i = 1
    j = i
    while j < len(word) and word[j].isascii() and word[j].isalpha():
        j += 1
    letters = word[i:j]
    if not letters or len(letters) > 3:
        return None
    row_abs = j < len(word) and word[j] == "$"
    if row_abs:
        j += 1
    digits = word[j:]
    if not digits or not digits.isdigit() or digits[0] == "0":
        return None
    col = E.letters_to_col(letters)
    row = int(digits)
    if col > E.GRID_MAX_COLS or row > E.GRID_MAX_ROWS:
        return None
    return col_abs, col, row_abs, row


def tokenize(source: str) -> list[Token]:
    """Lex formula text. Token lexemes plus skipped whitespace tile the input."""
    tokens: list[Token] = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        start = i
        if ch == '"':
            i += 1
            while i < n:
                if source[i] == '"':
                    if i + 1 < n and source[i + 1] == '"':
                        i += 2
                        continue
                    break
                i += 1
            if i >= n:
                raise LexError("unterminated string", start)
            i += 1
            tokens.append(Token("text", source[start:i], start, i))
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            i += 1
            while i < n and source[i].isdigit():
                i += 1
            if i < n and source[i] == ".":
                i += 1
                while i < n and source[i].isdigit():
                    i += 1
            if i < n and source[i] in "eE":
                j = i + 1
                if j < n and source[j] in "+-":
                    j += 1
                if j < n and source[j].isdigit():
                    i = j + 1
                    while i < n and source[i].isdigit():
                        i += 1
            tokens.append(Token("number", source[start:i], start, i))
            continue
        if ch == "#":
            prev = tokens[-1] if tokens else None
            adjacent = prev is not None and prev.end == i and prev.kind in ("ident", "cellref")
            if adjacent:
                tokens.append(Token("spill", "#", i, i + 1))
                i += 1
                continue
            for err_text in _ERROR_TEXTS:
                if source.startswith(err_text, i) or source[i:i + len(err_text)].upper() == err_text:
                    tokens.append(Token("error", source[i:i + len(err_text)], i, i + len(err_text)))
                    i += len(err_text)
                    break
            else:
                raise LexError("illegal character '#'", i)
            continue
        if ch == "$" or _is_ident_start(ch):
            i += 1
            while i < n and (_is_ident_char(source[i]) or source[i] == "$"):
                i += 1
            word = source[start:i]
            if _cellref_parts(word) is not None:
                tokens.append(Token("cellref", word, start, i))
            elif "$" in word:
                raise LexError(f"illegal '$' in name {word!r}", start)
            elif word.upper() in ("TRUE", "FALSE"):
                tokens.append(Token("bool", word, start, i))
            else:
                tokens.append(Token("ident", word, start, i))
            continue
        if ch == "@":
            tokens.append(Token("at", "@", i, i + 1))
            i += 1
            continue
        if ch == "{":
            tokens.append(Token("array_open", "{", i, i + 1))
            i += 1
            continue
        if ch == "}":
            tokens.append(Token("array_close", "}", i, i + 1))
            i += 1
            continue
        two = source[i:i + 2]
        if two in _TWO_CHAR_OPS:
            tokens.append(Token("op", two, i, i + 2))
            i += 2
            continue
        if ch in _ONE_CHAR_OPS:
            tokens.append(Token("op", ch, i, i + 1))
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append(Token("punct", ch, i, i + 1))
            i += 1
            continue
        raise LexError(f"illegal character {ch!r}", i)
    return tokens


def parse_formula(source: str) -> E.Expr:
    """Parse formula text (with or without a leading ``=``) into an Expr."""
    text = source
    stripped = text.lstrip()
    if stripped.startswith("="):
        offset = len(text) - len(stripped) + 1
        text = text[:offset - 1] + " " + text[offset:]
    tokens = tokenize(text)
    parser = _Parser(tokens, len(source))
    node = parser.expression()
    parser.expect_end()
    return node


_COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")


class _Parser:
    def __init__(self, tokens: list[Token], source_len: int):
        self.tokens = tokens
        self.pos = 0
        self.source_len = source_len

    # -- token helpers

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of formula", self.source_len)
        self.pos += 1
        return tok

    def at_op(self, *lexemes: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "op" and tok.lexeme in lexemes

    def at_punct(self, lexeme: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "punct" and tok.lexeme == lexeme

    def expect_punct(self, lexeme: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != "punct" or tok.lexeme != lexeme:
            offset = tok.start if tok else self.source_len
            raise ParseError(f"expected {lexeme!r}", offset, expected=(lexeme,))
        return self.next()

    def expect_end(self):
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected {tok.lexeme!r}", tok.start)

    # -- grammar

    def expression(self) -> E.Expr:
        node = self.concat()
        while self.at_op(*_COMPARISONS):
            op = self.next().lexeme
            node = E.BinaryOp(op, node, self.concat())
        return node

    def concat(self) -> E.Expr:
        node = self.additive()
        while self.at_op("&"):
            self.next()
            node = E.BinaryOp("&", node, self.additive())
        return node

    def additive(self) -> E.Expr:
        node = self.multiplicative()
        while self.at_op("+", "-"):
            op = self.next().lexeme
            node = E.BinaryOp(op, node, self.multiplicative())
        return node

    def multiplicative(self) -> E.Expr:
        node = self.power()
        while self.at_op("*", "/"):
            op = self.next().lexeme
            node = E.BinaryOp(op, node, self.power())
        return node

    def power(self) -> E.Expr:
        # Left-associative per Excel: 2^3^2 is (2^3)^2.
        node = self.unary()
        while self.at_op("^"):
            self.next()
            node = E.BinaryOp("^", node, self.unary())
        return node

    def unary(self) -> E.Expr:
        if self.at_op("+", "-"):
            op = self.next().lexeme
            return E.UnaryOp(op, self.unary())
        tok = self.peek()
        if tok is not None and tok.kind == "at":
            self.next()
            return E.ImplicitIntersect(self.unary())
        return self.postfix()

    def postfix(self) -> E.Expr:
        node = self.primary()
        while True:
            tok = self.peek()
            if tok is None:
                return node
            if tok.kind == "spill":
                if not isinstance(node, (E.NameRef, E.CellRef)):
                    raise ParseError("'#' applies to a name or cell reference", tok.start)
                self.next()
                node = E.SpillRef(node)
            elif tok.kind == "op" and tok.lexeme == "%":
                self.next()
                node = E.PercentPostfix(node)
            elif tok.kind == "punct" and tok.lexeme == "(":
                node = self.call(node)
            else:
                return node

    def call(self, callee: E.Expr) -> E.Expr:
        open_tok = self.expect_punct("(")
        args: list[E.Expr] = []
        if self.at_punct(")"):
            self.next()
        else:
            while True:
                args.append(self.argument())
                tok = self.peek()
                if tok is None:
                    raise ParseError("unclosed argument list", self.source_len, expected=(")",))
                if tok.kind == "punct" and tok.lexeme == ",":
                    self.next()
                    continue
                if tok.kind == "punct" and tok.lexeme == ")":
                    self.next()
                    break
                raise ParseError(f"unexpected {tok.lexeme!r} in argument list", tok.start, expected=(",", ")"))
        if isinstance(callee, E.NameRef):
            upper = callee.name.upper()
            if upper == "LET":
                return self._make_let(args, open_tok)
            if upper == "LAMBDA":
                return self._make_lambda(args, open_tok)
        for a in args:
            if isinstance(a, _OptionalParamMarker):
                raise ParseError("optional parameter marker outside LAMBDA", a.offset)
        return E.Call(callee, tuple(args))

    def argument(self) -> E.Expr:
        tok = self.peek()
        if tok is not None and tok.kind == "punct" and tok.lexeme in (",", ")"):
            return E.OMITTED_ARG
        if tok is not None and tok.kind == "punct" and tok.lexeme == "[":
            self.next()
            name_tok = self.next()
            if name_tok.kind != "ident":
                raise ParseError("expected parameter name after '['", name_tok.start)
            self.expect_punct("]")
            return _OptionalParamMarker(name_tok.lexeme, tok.start)
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
            if isinstance(args[i + 1], _OptionalParamMarker) or args[i + 1] is E.OMITTED_ARG:
                raise ParseError("LET binding value missing", open_tok.start)
            bindings.append((name.name, args[i + 1]))
        body = args[-1]
        if isinstance(body, _OptionalParamMarker) or body is E.OMITTED_ARG:
            raise ParseError("LET body missing", open_tok.start)
        return E.Let(tuple(bindings), body)

    def _make_lambda(self, args: list[E.Expr], open_tok: Token) -> E.Expr:
        if len(args) < 1:
            raise ParseError("LAMBDA requires a body", open_tok.start)
        params: list[Param] = []
        seen_optional = False
        seen: set[str] = set()
        for a in args[:-1]:
            if isinstance(a, _OptionalParamMarker):
                param = Param(a.name, optional=True)
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
        if isinstance(body, _OptionalParamMarker) or body is E.OMITTED_ARG:
            raise ParseError("LAMBDA body missing", open_tok.start)
        return E.Lambda(tuple(params), body)

    def primary(self) -> E.Expr:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of formula", self.source_len)
        if tok.kind == "number":
            self.next()
            return E.NumberLit(float(tok.lexeme))
        if tok.kind == "text":
            self.next()
            return E.TextLit(tok.lexeme[1:-1].replace('""', '"'))
        if tok.kind == "bool":
            self.next()
            return E.BoolLit(tok.lexeme.upper() == "TRUE")
        if tok.kind == "error":
            self.next()
            err = error_from_text(tok.lexeme)
            assert err is not None
            return E.ErrorLit(err)
        if tok.kind == "array_open":
            return self.array_literal()
        if tok.kind == "cellref":
            return self.reference(sheet=None)
        if tok.kind == "ident":
            nxt = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else None
            if nxt is not None and nxt.kind == "punct" and nxt.lexeme == "!":
                sheet_tok = self.next()
                self.next()  # "!"
                ref_tok = self.peek()
                if ref_tok is None or ref_tok.kind != "cellref":
                    offset = ref_tok.start if ref_tok else self.source_len
                    raise ParseError("expected cell reference after sheet name", offset)
                return self.reference(sheet=sheet_tok.lexeme)
            self.next()
            return E.NameRef(tok.lexeme)
        if tok.kind == "punct" and tok.lexeme == "(":
            self.next()
            node = self.expression()
            self.expect_punct(")")
            return node
        raise ParseError(f"unexpected {tok.lexeme!r}", tok.start)

    def reference(self, sheet: str | None) -> E.Expr:
        tok = self.next()
        nxt = self.peek()
        if nxt is not None and nxt.kind == "op" and nxt.lexeme == ":":
            after = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else None
            if after is not None and after.kind == "cellref":
                self.next()
                second = self._cell(self.next(), None)
                return _normalized_range(self._cell(tok, None), second, sheet)
        return self._cell(tok, sheet)

    def _cell(self, tok: Token, sheet: str | None) -> E.CellRef:
        parts = _cellref_parts(tok.lexeme)
        if parts is None:
            raise ParseError(f"invalid cell reference {tok.lexeme!r}", tok.start)
        col_abs, col, row_abs, row = parts
        return E.CellRef(col=col, row=row, col_abs=col_abs, row_abs=row_abs, sheet=sheet)

    def array_literal(self) -> E.Expr:
        open_tok = self.next()
        rows: list[list[object]] = [[]]
        expect_value = True
        while True:
            tok = self.peek()
            if tok is None:
                raise ParseError("unclosed array literal", self.source_len, expected=("}",))
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
        return E.ArrayLit(tuple(tuple(r) for r in rows))

    def _array_element(self):
        tok = self.next()
        negate = False
        if tok.kind == "op" and tok.lexeme in ("-", "+"):
            negate = tok.lexeme == "-"
            tok = self.next()
        if tok.kind == "number":
            value = float(tok.lexeme)
            nxt = self.peek()
            if nxt is not None and nxt.kind == "op" and nxt.lexeme == "%":
                self.next()
                value /= 100.0
            return -value if negate else value
        if negate:
            raise ParseError("'-' in an array literal must precede a number", tok.start)
        if tok.kind == "text":
            return tok.lexeme[1:-1].replace('""', '"')
        if tok.kind == "bool":
            return tok.lexeme.upper() == "TRUE"
        if tok.kind == "error":
            err = error_from_text(tok.lexeme)
            assert err is not None
            return err
        raise ParseError("array literals hold scalar constants only", tok.start)


class _OptionalParamMarker(E.Expr):
    """Transient parse node for ``[name]``; only valid as a LAMBDA parameter."""

    __slots__ = ("name", "offset")

    def __init__(self, name: str, offset: int):
        self.name = name
        self.offset = offset


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
