"""Runtime value universe: scalars, errors, rectangular arrays, closures.

A scalar is represented by a plain Python value: ``float`` (finite) for
numbers, ``str`` for text, ``bool`` for booleans, and the ``EMPTY``
singleton for a blank cell. Errors are `ErrorValue` instances and arrays
are immutable `Array` objects; both may appear wherever a scalar may. A
`Ref` names a rectangle of cells, which are read where a value is used.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple


class ErrorKind(enum.Enum):
    DIV0 = "#DIV/0!"
    VALUE = "#VALUE!"
    REF = "#REF!"
    NAME = "#NAME?"
    NUM = "#NUM!"
    NA = "#N/A"
    CALC = "#CALC!"
    SPILL = "#SPILL!"
    CIRCULAR = "#CIRC!"


_ERROR_BY_TEXT = {k.value: k for k in ErrorKind}


@dataclass(frozen=True)
class ErrorValue:
    kind: ErrorKind
    detail: str = field(default="", compare=False)

    def __str__(self) -> str:
        return self.kind.value


DIV0 = ErrorValue(ErrorKind.DIV0)
VALUE_ERROR = ErrorValue(ErrorKind.VALUE)
REF_ERROR = ErrorValue(ErrorKind.REF)
NAME_ERROR = ErrorValue(ErrorKind.NAME)
NUM_ERROR = ErrorValue(ErrorKind.NUM)
NA = ErrorValue(ErrorKind.NA)
CALC_ERROR = ErrorValue(ErrorKind.CALC)
SPILL_ERROR = ErrorValue(ErrorKind.SPILL)
CIRC_ERROR = ErrorValue(ErrorKind.CIRCULAR)


def error_from_text(text: str) -> ErrorValue | None:
    kind = _ERROR_BY_TEXT.get(text.upper())
    return ErrorValue(kind) if kind else None


class _Empty:
    """The value of a blank cell. Coerces to 0, "" or FALSE on use."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "EMPTY"


class _Omitted:
    """Placeholder bound to an optional lambda parameter that was not supplied."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "OMITTED"


EMPTY = _Empty()
OMITTED = _Omitted()


class DateSerial(float):
    """A day-count number produced by a date function; displays as an ISO date.

    Arithmetic on a DateSerial yields a plain float, so the date rendering
    follows only values that came directly from a date builtin.
    """


class Array:
    """An immutable rectangular 2D block of scalars and errors (rows >= 1, cols >= 1)."""

    __slots__ = ("rows", "n_rows", "n_cols")

    def __init__(self, rows):
        # tuple() returns a tuple argument itself, so rows that already are
        # tuples are shared, not copied.
        rows = tuple(map(tuple, rows))
        if not rows or not rows[0]:
            raise ValueError("arrays must be at least 1x1")
        if len(set(map(len, rows))) != 1:
            raise ValueError("array rows must have equal length")
        self.rows = rows
        self.n_rows = len(rows)
        self.n_cols = len(rows[0])

    @property
    def shape(self) -> tuple[int, int]:
        return self.n_rows, self.n_cols

    def at(self, r: int, c: int):
        return self.rows[r][c]

    def cells(self) -> Iterator:
        for row in self.rows:
            yield from row

    def column(self) -> list:
        """Row-major flattening (the iteration order of SCAN/REDUCE)."""
        return [v for row in self.rows for v in row]

    def is_vector(self) -> bool:
        return self.n_rows == 1 or self.n_cols == 1

    def __eq__(self, other) -> bool:
        return isinstance(other, Array) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Array({self.n_rows}x{self.n_cols} {self.rows!r})"

    @staticmethod
    def from_scalar(v) -> "Array":
        return Array(((v,),))

    @staticmethod
    def col(values) -> "Array":
        return Array(tuple((v,) for v in values))

    @staticmethod
    def row(values) -> "Array":
        return Array((tuple(values),))


class Ref(NamedTuple):
    """A reference: the cells from (r1, c1) to (r2, c2) of the sheet keyed
    ``sheet`` (None without a workbook); ``spill`` marks a whole placed
    region named with ``#``. INDEX, TAKE and DROP narrow it and ROW and
    ``@`` read its rectangle; any other use reads its cells
    (``Workbook.read``)."""

    sheet: str | None
    r1: int
    c1: int
    r2: int
    c2: int
    spill: bool = False

    @property
    def shape(self) -> tuple[int, int]:
        return self.r2 - self.r1 + 1, self.c2 - self.c1 + 1

    def part(self, rows: range, cols: range) -> "Ref":
        """The cells at offsets ``rows`` x ``cols``, counted from 0."""
        r, c = self.r1, self.c1
        return Ref(self.sheet, r + rows[0], c + cols[0], r + rows[-1], c + cols[-1])


@dataclass(frozen=True)
class Param:
    name: str
    optional: bool = False


class Closure:
    """A lambda value: parameter list, body expression, captured environment."""

    __slots__ = ("params", "body", "env", "min_arity", "max_arity")

    def __init__(self, params, body, env):
        self.params = tuple(params)
        self.body = body
        self.env = env
        self.min_arity = sum(not p.optional for p in self.params)
        self.max_arity = len(self.params)

    def __repr__(self) -> str:
        return f"Closure({', '.join(p.name for p in self.params)})"


def element(v):
    """``v`` as an array element: a scalar or an error is kept, an omitted
    argument is blank, a 1x1 array is its one value, and a larger array or
    a lambda is #CALC!."""
    if isinstance(v, Array):
        return v.rows[0][0] if v.n_rows == 1 and v.n_cols == 1 else CALC_ERROR
    if v is OMITTED:
        return EMPTY
    return CALC_ERROR if isinstance(v, Closure) else v


# ---------------------------------------------------------------------------
# Coercions


def number_from_text(text: str):
    """Parse text as a decimal number, or return a #VALUE! error."""
    s = text.strip()
    if not s:
        return VALUE_ERROR
    try:
        x = float(s)
    except ValueError:
        return VALUE_ERROR
    if not math.isfinite(x):
        return VALUE_ERROR
    return x


def coerce_to_number(v):
    """Excel-style numeric coercion: TRUE->1, FALSE->0, blank->0, text parsed."""
    if isinstance(v, bool):
        return 1.0 if v else 0.0
    if isinstance(v, float):
        return v
    if isinstance(v, int):
        return float(v)
    if v is EMPTY or v is OMITTED:
        return 0.0
    if isinstance(v, str):
        return number_from_text(v)
    if isinstance(v, ErrorValue):
        return v
    return VALUE_ERROR


def coerce_to_bool(v):
    if isinstance(v, bool):
        return v
    if isinstance(v, (int, float)):
        return v != 0
    if v is EMPTY or v is OMITTED:
        return False
    if isinstance(v, str):
        up = v.strip().upper()
        if up == "TRUE":
            return True
        if up == "FALSE":
            return False
        return VALUE_ERROR
    if isinstance(v, ErrorValue):
        return v
    return VALUE_ERROR


def format_number(x: float) -> str:
    """Render a number with up to 15 significant digits, no grouping."""
    if isinstance(x, DateSerial):
        return serial_to_iso(float(x))
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return f"{x:.15g}"


def coerce_to_text(v):
    """Display-text coercion used by ``&`` concatenation and rendering."""
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return "TRUE" if v else "FALSE"
    if isinstance(v, (int, float)):
        return format_number(float(v) if not isinstance(v, DateSerial) else v)
    if v is EMPTY or v is OMITTED:
        return ""
    if isinstance(v, ErrorValue):
        return v
    return VALUE_ERROR


def render_cell(v) -> str:
    """Boundary rendering of a single computed value."""
    if isinstance(v, ErrorValue):
        return v.kind.value
    if isinstance(v, Closure):
        return ErrorKind.CALC.value
    out = coerce_to_text(v)
    return out if isinstance(out, str) else str(out)


_EPOCH_ORDINAL = 693594  # 1899-12-30 as datetime.date.toordinal()


def serial_to_iso(serial: float) -> str:
    import datetime as _dt

    try:
        return _dt.date.fromordinal(_EPOCH_ORDINAL + int(serial)).isoformat()
    except (OverflowError, ValueError):
        return f"{float(serial):.15g}"


# ---------------------------------------------------------------------------
# Comparison

_TYPE_RANK_NUMBER = 0
_TYPE_RANK_TEXT = 1
_TYPE_RANK_BOOL = 2


def _comparison_key(v):
    if isinstance(v, bool):
        return _TYPE_RANK_BOOL, v
    if isinstance(v, (int, float)):
        return _TYPE_RANK_NUMBER, float(v)
    if isinstance(v, str):
        return _TYPE_RANK_TEXT, v.casefold()
    raise TypeError(f"not comparable: {v!r}")


def compare_scalars(a, b):
    """Three-way compare under Excel ordering: numbers < text < booleans.

    Text comparison is case-insensitive. Blank cells coerce to the zero
    value of the other operand's type. Returns -1/0/1 or an ErrorValue.
    """
    if isinstance(a, ErrorValue):
        return a
    if isinstance(b, ErrorValue):
        return b
    if a is EMPTY or a is OMITTED:
        a = _zero_like(b)
    if b is EMPTY or b is OMITTED:
        b = _zero_like(a)
    try:
        ka, kb = _comparison_key(a), _comparison_key(b)
    except TypeError:
        return VALUE_ERROR
    return (ka > kb) - (ka < kb)


def _zero_like(v):
    if isinstance(v, bool):
        return False
    if isinstance(v, str):
        return ""
    return 0.0


# ---------------------------------------------------------------------------
# Broadcasting and elementwise lifting


def broadcast_shape(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """Common shape of two operands: equal extents kept, 1 stretches, else max.

    A non-1 mismatch also resolves to the max extent; the out-of-range cells
    become #N/A when the operands are lifted.
    """
    return max(a[0], b[0]), max(a[1], b[1])


def _shape_of(v) -> tuple[int, int]:
    return v.shape if isinstance(v, Array) else (1, 1)


def cell_in(v, shape: tuple[int, int], r: int, c: int):
    """Element of operand ``v`` at broadcast position (r, c), or #N/A."""
    if not isinstance(v, Array):
        return v
    nr, nc = v.shape
    if nr == 1:
        rr = 0
    elif r < nr:
        rr = r
    else:
        return NA
    if nc == 1:
        cc = 0
    elif c < nc:
        cc = c
    else:
        return NA
    return v.rows[rr][cc]


def common_shape(args) -> tuple[int, int]:
    shape = (1, 1)
    for a in args:
        shape = broadcast_shape(shape, _shape_of(a))
    return shape


def lift_elementwise(op: Callable, args) -> object:
    """Broadcast args to a common shape and apply ``op`` per cell.

    Error cells pass through unchanged; if every argument is scalar the
    result is scalar. ``op`` receives scalar (non-error) cells only.
    """
    # common_shape inlined: this runs once per operator on array operands.
    nr = nc = 0
    for a in args:
        if isinstance(a, Array):
            nr, nc = max(nr, a.n_rows), max(nc, a.n_cols)
    if not nr:
        for a in args:
            if isinstance(a, ErrorValue):
                return a
        return op(*args)
    out = []
    for rows in zip(*[_broadcast_rows(a, nr, nc) for a in args]):
        row = []
        for cells in zip(*rows):
            for x in cells:
                if isinstance(x, ErrorValue):
                    row.append(x)
                    break
            else:
                row.append(op(*cells))
        out.append(row)
    return Array(out)


def _broadcast_rows(v, nr: int, nc: int):
    """Operand ``v`` stretched to ``nr`` rows of ``nc`` cells (see `cell_in`).
    Only a dimension that is neither 1 nor the target's reaches ``cell_in``
    per cell, for its #N/A."""
    if isinstance(v, Array):
        if v.n_rows == nr and v.n_cols == nc:
            return v.rows
        if v.n_rows == 1 and v.n_cols == 1:
            v = v.rows[0][0]
        elif v.n_cols == 1 and v.n_rows == nr:
            return [(row[0],) * nc for row in v.rows]
        elif v.n_rows == 1 and v.n_cols == nc:
            return [v.rows[0]] * nr
        else:
            return [tuple(cell_in(v, (nr, nc), r, c) for c in range(nc)) for r in range(nr)]
    return [(v,) * nc] * nr
