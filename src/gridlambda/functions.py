"""Built-in worksheet functions: helper (lambda-consuming), shaping, math, dates.

Each builtin is total over values: failures come back as error values in or
around the result, never as exceptions.

A builtin declares how each parameter coerces as that parameter's annotation,
one of the coercers below (``Area``, ``Arr``, ``Vector``, ``NumVector``,
``Num``, ``Int``, ``Scalar``, ``Value`` or ``Fn(arity)``); ``register`` reads
them once. The call path reads a `Ref` argument as its cells, unless the
parameter is an ``Area``, and coerces the arguments in parameter order before
the body runs; the first one that fails is the call's result. A parameter
with a default takes it for a blank or omitted argument. An unannotated
parameter gets its value unchanged, errors included, and the body decides.
"""

from __future__ import annotations

import datetime as dt
import math

from . import expr as E
from . import numerics
from .evaluator import _finite_or_num_error, _numeric_kernel, apply_closure, evaluate, read, register
from .values import (
    CALC_ERROR,
    DIV0,
    EMPTY,
    NA,
    NUM_ERROR,
    OMITTED,
    REF_ERROR,
    VALUE_ERROR,
    Array,
    Closure,
    DateSerial,
    ErrorValue,
    Ref,
    _comparison_key,
    cell_in,
    coerce_to_bool,
    coerce_to_number,
    common_shape,
    element,
    lift_elementwise,
)

# ---------------------------------------------------------------------------
# Argument coercers: each maps an argument value to the value the body
# receives, or to an error, which is then the call's result.


def Arr(v):
    """An array; any other scalar is a 1x1 array, and an error is itself."""
    if isinstance(v, (Array, ErrorValue)):
        return v
    if isinstance(v, Closure) or v is OMITTED:
        return VALUE_ERROR
    return Array.from_scalar(v)


def Area(v):
    """A reference, kept as it is; any other value as ``Arr`` has it."""
    return v if type(v) is Ref else Arr(v)


Area.keeps_ref = True


def Vector(v):
    """An array of one row or one column."""
    arr = Arr(v)
    if isinstance(arr, Array) and not arr.is_vector():
        return VALUE_ERROR
    return arr


def NumVector(v):
    """A vector of numbers, as (list of floats, is_column)."""
    arr = Vector(v)
    if isinstance(arr, ErrorValue):
        return arr
    out = []
    for cell in arr.column():
        n = coerce_to_number(cell)
        if isinstance(n, ErrorValue):
            return n
        out.append(n)
    return out, arr.n_cols == 1 and arr.n_rows > 1


def Num(v):
    """A number. Blank or omitted is #VALUE!, unless the parameter has a default."""
    if v is OMITTED or v is EMPTY:
        return VALUE_ERROR
    return coerce_to_number(v)


def Int(v):
    """A number truncated to int."""
    n = Num(v)
    return n if isinstance(n, ErrorValue) else math.trunc(n)


def Scalar(v):
    """One value: an error is itself, an array or a lambda is #VALUE!."""
    return VALUE_ERROR if isinstance(v, (Array, Closure)) else v


def Value(v):
    """Any value but an error, which is itself."""
    return v


def Fn(arity):
    """A lambda that accepts ``arity`` arguments."""

    def coerce(v):
        if not isinstance(v, Closure):
            return VALUE_ERROR
        if not (v.min_arity <= arity <= v.max_arity):
            return ErrorValue(VALUE_ERROR.kind, f"lambda must accept {arity} argument(s)")
        return v

    return coerce


# ---------------------------------------------------------------------------
# Shared helpers


def _first_error(cells):
    return next((c for c in cells if isinstance(c, ErrorValue)), None)


# ---------------------------------------------------------------------------
# Lambda helper functions


@register("MAP", 2, 64)
def _map(ctx, *args):
    # The lambda follows a variable number of arrays, so MAP coerces its own.
    arrays = [Arr(a) for a in args[:-1]]
    err = _first_error(arrays)
    if err is not None:
        return err
    fn = Fn(len(arrays))(args[-1])
    if isinstance(fn, ErrorValue):
        return fn
    result = lift_elementwise(lambda *cells: element(read(apply_closure(fn, cells, ctx), ctx)), arrays)
    return result.at(0, 0) if result.shape == (1, 1) else result


@register("BYROW", 2, 2)
def _byrow(ctx, array: Arr, fn: Fn(1)):
    return _by_axis(ctx, array, fn, axis="row")


@register("BYCOL", 2, 2)
def _bycol(ctx, array: Arr, fn: Fn(1)):
    return _by_axis(ctx, array, fn, axis="col")


def _by_axis(ctx, arr, fn, axis):
    if axis == "row":
        slices = [Array((row,)) for row in arr.rows]
    else:
        slices = [Array(tuple((row[c],) for row in arr.rows)) for c in range(arr.n_cols)]
    results = [element(read(apply_closure(fn, [s], ctx), ctx)) for s in slices]
    if axis == "row":
        return Array.col(results)
    return Array.row(results)


@register("SCAN", 3, 3)
def _scan(ctx, init: Scalar, array: Arr, fn: Fn(2)):
    acc = init
    out = []
    for row in array.rows:
        out_row = []
        for cell in row:
            acc = element(read(apply_closure(fn, [acc, cell], ctx), ctx))
            out_row.append(acc)
        out.append(tuple(out_row))
    return Array(out)


@register("REDUCE", 3, 3)
def _reduce(ctx, init: Value, array: Arr, fn: Fn(2)):
    # The accumulator may be an array: REDUCE is the one helper that admits
    # array results, which is what lets a scan-of-rows be built on top of it.
    acc = init
    for cell in array.cells():
        acc = apply_closure(fn, [acc, cell], ctx)
        if isinstance(acc, ErrorValue):
            return acc
    return acc


@register("MAKEARRAY", 3, 3)
def _makearray(ctx, rows: Int, cols: Int, fn: Fn(2)):
    if rows < 1 or cols < 1:
        return VALUE_ERROR
    out = []
    for r in range(1, rows + 1):
        row = [
            element(read(apply_closure(fn, [float(r), float(c)], ctx), ctx))
            for c in range(1, cols + 1)
        ]
        out.append(tuple(row))
    return Array(out)


@register("ISOMITTED", 1, 1)
def _isomitted(ctx, v):
    return v is OMITTED


# ---------------------------------------------------------------------------
# Shaping functions


def _stack_block(v):
    return v if isinstance(v, Array) else Array.from_scalar(element(v))


@register("VSTACK", 1, 64)
def _vstack(ctx, *args):
    blocks = [_stack_block(a) for a in args]
    width = max(b.n_cols for b in blocks)
    rows = []
    for b in blocks:
        if b.n_cols == width:
            rows.extend(b.rows)
        else:
            pad = (NA,) * (width - b.n_cols)
            rows.extend(row + pad for row in b.rows)
    return Array(rows)


@register("HSTACK", 1, 64)
def _hstack(ctx, *args):
    blocks = [_stack_block(a) for a in args]
    height = max(b.n_rows for b in blocks)
    rows = [[] for _ in range(height)]
    for b in blocks:
        for r in range(height):
            if r < b.n_rows:
                rows[r].extend(b.rows[r])
            else:
                rows[r].extend([NA] * b.n_cols)
    return Array(tuple(tuple(r) for r in rows))


@register("TAKE", 2, 3)
def _take(ctx, array: Area, rows: Int = None, cols: Int = None):
    return _take_drop(array, rows, cols, mode="take")


@register("DROP", 2, 3)
def _drop(ctx, array: Area, rows: Int = None, cols: Int = None):
    return _take_drop(array, rows, cols, mode="drop")


def _take_drop(area, rows, cols, mode):
    nr, nc = area.shape
    row_idx = _axis_slice(nr, rows, mode)
    if isinstance(row_idx, ErrorValue):
        return row_idx
    col_idx = _axis_slice(nc, cols, mode)
    if isinstance(col_idx, ErrorValue):
        return col_idx
    if type(area) is Ref:
        return area.part(row_idx, col_idx)
    return Array(tuple(tuple(area.rows[r][c] for c in col_idx) for r in row_idx))


def _axis_slice(extent, n, mode):
    """Index list along one axis; no count takes all. Counts beyond the extent
    error out rather than clamp, so model-sizing bugs surface."""
    if n is None:
        return range(extent)
    if n == 0:
        return VALUE_ERROR
    if mode == "take":
        if abs(n) > extent:
            return VALUE_ERROR
        return range(0, n) if n > 0 else range(extent + n, extent)
    if abs(n) >= extent:
        return VALUE_ERROR
    return range(n, extent) if n > 0 else range(0, extent + n)


@register("WRAPROWS", 2, 3)
def _wraprows(ctx, vector: Vector, width: Int, pad=OMITTED):
    if width < 1:
        return VALUE_ERROR
    fill = NA if pad is OMITTED else element(pad)
    flat = vector.column()
    rows = []
    for start in range(0, len(flat), width):
        chunk = flat[start:start + width]
        rows.append(tuple(chunk) + (fill,) * (width - len(chunk)))
    return Array(rows)


@register("SEQUENCE", 1, 4)
def _sequence(ctx, rows: Int, cols: Int = 1, start: Num = 1.0, step: Num = 1.0):
    if rows < 1 or cols < 1:
        return VALUE_ERROR
    return Array(
        tuple(
            tuple(_finite_or_num_error(start + step * (r * cols + c)) for c in range(cols))
            for r in range(rows)
        )
    )


@register("FILTER", 2, 3)
def _filter(ctx, arr: Arr, include: Vector, if_empty=OMITTED):
    flags = []
    for cell in include.column():
        if isinstance(cell, ErrorValue):
            return cell
        flag = coerce_to_bool(cell)
        if isinstance(flag, ErrorValue):
            return flag
        flags.append(flag)
    by_rows = include.n_cols == 1
    extent = arr.n_rows if by_rows else arr.n_cols
    if len(flags) != extent:
        return VALUE_ERROR
    if by_rows:
        rows = [arr.rows[r] for r in range(extent) if flags[r]]
    else:
        keep = [c for c in range(extent) if flags[c]]
        rows = [tuple(row[c] for c in keep) for row in arr.rows] if keep else []
    if not rows or not rows[0]:
        if if_empty is not OMITTED:
            return if_empty if isinstance(if_empty, Array) else element(if_empty)
        return ErrorValue(CALC_ERROR.kind, "FILTER selected nothing")
    return Array(rows)


def _sort_key(cell):
    """The order of `compare_scalars`, then blanks, then errors."""
    if isinstance(cell, ErrorValue):
        return 4, cell.kind.value
    return (3, 0) if cell is EMPTY else _comparison_key(cell)


@register("SORT", 1, 3)
def _sort(ctx, arr: Arr, index: Int = 1, order: Int = 1):
    if order not in (1, -1) or not (1 <= index <= arr.n_cols):
        return VALUE_ERROR
    ordered = sorted(
        arr.rows,
        key=lambda row: _sort_key(row[index - 1]),
        reverse=order == -1,
    )
    return Array(ordered)


# ---------------------------------------------------------------------------
# Reductions


def _total_count(args, skip_bad_direct=False):
    """(total, count) of the numbers in ``args``, added left to right, or the
    first error met. A direct scalar argument coerces, and one that cannot is
    its error, or skipped under ``skip_bad_direct``; cells inside arrays count
    only when they are numbers (Excel's split behavior)."""
    total = 0.0
    count = 0
    for arg in args:
        if isinstance(arg, ErrorValue):
            return arg
        if isinstance(arg, Closure):
            return VALUE_ERROR
        if isinstance(arg, Array):
            for cell in arg.cells():
                if isinstance(cell, ErrorValue):
                    return cell
                if isinstance(cell, (int, float)) and not isinstance(cell, bool):
                    total += float(cell)
                    count += 1
        elif arg is not OMITTED and arg is not EMPTY:
            n = coerce_to_number(arg)
            if isinstance(n, ErrorValue):
                if skip_bad_direct:
                    continue
                return n
            total += n
            count += 1
    return total, count


@register("SUM", 0, 255)
def _sum(ctx, *args):
    out = _total_count(args)
    return out if isinstance(out, ErrorValue) else _finite_or_num_error(out[0])


@register("COUNT", 1, 255)
def _count(ctx, *args):
    out = _total_count(args, skip_bad_direct=True)
    return out if isinstance(out, ErrorValue) else float(out[1])


@register("AVERAGE", 1, 255)
def _average(ctx, *args):
    out = _total_count(args)
    if isinstance(out, ErrorValue):
        return out
    total, count = out
    if count == 0:
        return DIV0
    return _finite_or_num_error(total / count)


# ---------------------------------------------------------------------------
# Integer math, matrix product


_mod_kernel = _numeric_kernel(lambda a, b: a - b * math.floor(a / b))
_quotient_kernel = _numeric_kernel(lambda a, b: float(math.trunc(a / b)))


@register("MOD", 2, 2)
def _mod(ctx, a, b):
    return lift_elementwise(_mod_kernel, (a, b))


@register("QUOTIENT", 2, 2)
def _quotient(ctx, a, b):
    return lift_elementwise(_quotient_kernel, (a, b))


@register("MMULT", 2, 2)
def _mmult(ctx, ma: Arr, mb: Arr):
    for cell in (*ma.cells(), *mb.cells()):
        if isinstance(cell, ErrorValue):
            return cell
        if isinstance(cell, bool) or not isinstance(cell, (int, float)):
            return VALUE_ERROR
    if ma.n_cols != mb.n_rows:
        return VALUE_ERROR
    out = []
    for r in range(ma.n_rows):
        row = []
        for c in range(mb.n_cols):
            total = sum(ma.rows[r][k] * mb.rows[k][c] for k in range(ma.n_cols))
            row.append(_finite_or_num_error(total))
        out.append(tuple(row))
    return Array(out)


# ---------------------------------------------------------------------------
# Date functions. Serial epoch: day 0 = 1899-12-30; serials below 61 (the
# Lotus leap-year anomaly zone) are rejected.

_EPOCH = dt.date(1899, 12, 30)
_MIN_SERIAL = 61


def _serial_to_date(serial):
    n = coerce_to_number(serial)
    if isinstance(n, ErrorValue):
        return n
    days = math.floor(n)
    if days < _MIN_SERIAL:
        return NUM_ERROR
    try:
        return _EPOCH + dt.timedelta(days=days)
    except OverflowError:
        return NUM_ERROR


def _date_to_serial(date: dt.date) -> float:
    return float((date - _EPOCH).days)


def _eomonth_kernel(d, months):
    date = _serial_to_date(d)
    if isinstance(date, ErrorValue):
        return date
    k = Int(months)
    if isinstance(k, ErrorValue):
        return k
    total = date.year * 12 + (date.month - 1) + k
    year, month0 = divmod(total, 12)
    if not (1 <= year <= 9999):
        return NUM_ERROR
    month = month0 + 1
    if month == 12:
        last = dt.date(year, 12, 31)
    else:
        last = dt.date(year, month + 1, 1) - dt.timedelta(days=1)
    serial = _date_to_serial(last)
    if serial < _MIN_SERIAL:
        return NUM_ERROR
    return DateSerial(serial)


def _month_kernel(d):
    date = _serial_to_date(d)
    return date if isinstance(date, ErrorValue) else float(date.month)


def _year_kernel(d):
    date = _serial_to_date(d)
    return date if isinstance(date, ErrorValue) else float(date.year)


@register("EOMONTH", 2, 2)
def _eomonth(ctx, d, months):
    return lift_elementwise(_eomonth_kernel, (d, months))


@register("MONTH", 1, 1)
def _month(ctx, d):
    return lift_elementwise(_month_kernel, (d,))


@register("YEAR", 1, 1)
def _year(ctx, d):
    return lift_elementwise(_year_kernel, (d,))


# ---------------------------------------------------------------------------
# Lookup


@register("INDEX", 2, 3)
def _index(ctx, area: Area, i: Int, j: Int = None):
    """Row ``i``, element ``i`` of a vector, or cell (``i``, ``j``); of a reference, a reference."""
    nr, nc = area.shape
    if j is None and (nr == 1 or nc == 1):
        i, j = (i, 1) if nc == 1 else (1, i)
    if not (1 <= i <= nr and (j is None or 1 <= j <= nc)):
        return REF_ERROR
    if type(area) is Ref:
        return area.part(range(i - 1, i), range(nc) if j is None else range(j - 1, j))
    return Array((area.rows[i - 1],)) if j is None else area.rows[i - 1][j - 1]


@register("IF", 2, 3, raw=True)
def _if(ctx, env, args):
    """A scalar condition evaluates only the chosen branch. An array condition
    evaluates both and selects per cell; an error in a branch cell surfaces
    only where that branch is selected."""
    then_arg = args[1]
    else_arg = args[2] if len(args) > 2 else E.OMITTED_ARG
    cond = read(evaluate(args[0], env, ctx), ctx)
    if isinstance(cond, ErrorValue):
        return cond
    if isinstance(cond, Array):
        operands = (cond, *(read(_branch_value(a, env, ctx), ctx) for a in (then_arg, else_arg)))
        nr, nc = common_shape(operands)
        out = []
        for r in range(nr):
            row = []
            for c in range(nc):
                cc, tc, ec = (cell_in(v, (nr, nc), r, c) for v in operands)
                row.append(_select_cell(cc, tc, ec))
            out.append(tuple(row))
        return Array(out)
    flag = coerce_to_bool(cond)
    if isinstance(flag, ErrorValue):
        return flag
    return _branch_value(then_arg if flag else else_arg, env, ctx)


def _branch_value(arg, env, ctx):
    if arg is E.OMITTED_ARG:
        return False
    return evaluate(arg, env, ctx)


def _select_cell(cond, then_v, else_v):
    flag = coerce_to_bool(cond)
    if isinstance(flag, ErrorValue):
        return flag
    return element(then_v if flag else else_v)


@register("ROW", 1, 1, raw=True)
def _row(ctx, env, args):
    """Row number(s) of a reference: a scalar for one row, else a column. A
    bare cell reference is one, though it evaluates to the cell's value."""
    if isinstance(args[0], E.CellRef):
        return float(args[0].row)
    ref = evaluate(args[0], env, ctx)
    if type(ref) is not Ref:
        return ref if isinstance(ref, ErrorValue) else VALUE_ERROR
    if ref.r1 == ref.r2:
        return float(ref.r1)
    return Array.col([float(r) for r in range(ref.r1, ref.r2 + 1)])


# ---------------------------------------------------------------------------
# Convolution bridge to the numerics kernel


@register("CONVOLVE", 2, 2)
def _convolve(ctx, a: NumVector, b: NumVector):
    out = numerics.convolve_fft(a[0], b[0])
    values = [_finite_or_num_error(float(x)) for x in out]
    return Array.col(values) if a[1] else Array.row(values)


def registry() -> dict:
    """Snapshot of the builtin registry for enumeration (name -> Builtin)."""
    from .evaluator import BUILTINS

    return dict(BUILTINS)
