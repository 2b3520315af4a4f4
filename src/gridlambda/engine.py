"""Workbook model: cells, defined names, dependency graph, spill regions.

Each graph and layout fact is stored once:
- a cell's outgoing edges are ``Cell.reads``, the addresses and defined-name
  keys its formula statically reaches;
- ``Workbook._deps_in`` maps an address or a name key to the cells that read
  it, so redefining a name finds its readers in the same map as a cell does;
- a placed spill region is the ``Array`` its anchor cell holds: a cell holds
  an ``Array`` exactly while its region is placed.

A column index, kept in step with these facts, answers the layout's
queries by bisection, so placing and vacating a region and finding the
readers of its members cost O(columns x log n + hits), not O(area). Per
(sheet, column) it keeps two sorted lists:
- ``_spans``: the (top, bottom, anchor) row interval of each placed region
  in that column, less the region's anchor cell. Content or a new anchor
  may sit in an older region until that region's anchor evaluates again
  (``A1 := =SEQUENCE(3)``, recalculate, ``A2 := =SEQUENCE(1,2)``); with the
  anchor cells left out the intervals stay disjoint all the same, so a
  bisection answers which region holds a cell (``_holder``, for
  ``cell_value`` and ``_touch_layout``) and which regions overlap a
  rectangle (``_place_spill``: an earlier region blocks, a later one is
  evicted);
- ``_rows``: the rows whose address holds a cell or is read (a key of
  ``_deps_in``), so a rectangle's content blockers (``_place_spill``) and
  member readers (``_member_readers``) are found without visiting its
  empty cells.

Recalculation is batch and deterministic and runs in passes. Each pass is
one walk (Tarjan's, in descending address order) from its dirty cells along
``_readers``: the cells it visits are the pass's work, the reverse of the
order it finishes strongly connected components in is the evaluation order.
``_readers`` is the one place where a read of a spill member counts as a
read of its anchor. A cycle is #CIRC! when it closes through static reads
and the member reads of regions placed during this recalculation; one that
closes only through an older region, which its anchor may not place again,
is evaluated in the order of its other edges, with that region vacated as a
fresh load has it. Placement can shift
cell/anchor relationships mid-pass, so the readers of any cell whose
exposure changed seed the next pass, up to a bounded number of passes. An
anchor whose region the same earlier anchor evicts twice in one
recalculation is #CIRC! too: the two regions would take turns for ever. A
#SPILL! anchor or #CIRC! cell got its value from the layout of the
recalculation that set it, so every later recalculation with a dirty cell
evaluates it again.

Deep lambda recursion needs far more Python stack than the default 8 MB, so
evaluation entry points run on one long-lived worker thread with a large stack.
"""

from __future__ import annotations

import datetime as dt
import math
from bisect import bisect_left, bisect_right, insort
import queue
import sys
import threading
from dataclasses import dataclass, field

from . import functions as _functions  # noqa: F401  (populates the builtin registry)
from . import expr as E
from .evaluator import (
    Environment,
    EvalContext,
    TraceSink,
    _resolve_spill_target,
    evaluate,
    is_builtin_name,
)
from .parser import _cellref_parts, parse_formula, tokenize
from .values import (
    CIRC_ERROR,
    EMPTY,
    NUM_ERROR,
    OMITTED,
    SPILL_ERROR,
    Array,
    DateSerial,
    ErrorValue,
    Ref,
    error_from_text,
    number_from_text,
)

Address = tuple[str, int, int]  # (sheet key, row, col)

_STACK_BYTES_PER_FRAME = 4096
_FRAMES_PER_DEPTH = 64
_MAX_PASSES = 64


class NameCollision(ValueError):
    pass


class WorkbookFormatError(ValueError):
    def __init__(self, message: str, path: str, line: int):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


@dataclass
class DefinedName:
    name: str
    expr: E.Expr


_NO_READS: frozenset = frozenset()


@dataclass(slots=True)
class Cell:
    formula: E.Expr  # literal content is a Literal node
    value: object = None  # an Array exactly while its spill region is placed
    reads: frozenset | set = _NO_READS  # addresses and name keys the formula reaches


@dataclass
class CalcReport:
    evaluated: int = 0
    placements: int = 0
    passes: int = 0
    cycles: list = field(default_factory=list)
    errors: list = field(default_factory=list)


@dataclass
class _Recalculation:
    """What one recalculation keeps across its passes."""

    report: CalcReport = field(default_factory=CalcReport)
    circled: set = field(default_factory=set)  # cells set to #CIRC!
    placed: set = field(default_factory=set)  # anchors that placed a region
    evicted: set = field(default_factory=set)  # (anchor, earlier anchor that evicted it)


class _EvalWorker:
    """A long-lived thread whose stack fits ``depth_limit`` lambda frames. It
    runs submitted calls one at a time until it is sent ``None``."""

    def __init__(self, depth_limit: int):
        self.depth_limit = depth_limit
        self.frames = depth_limit * _FRAMES_PER_DEPTH + 50_000
        self.jobs = queue.SimpleQueue()
        stack = min(self.frames * _STACK_BYTES_PER_FRAME + (64 << 20), 1 << 31)
        # threading.stack_size is process-wide; callers hold _worker_lock.
        old = threading.stack_size()
        threading.stack_size(stack)
        try:
            self.thread = threading.Thread(target=self._serve, name="gridlambda-eval", daemon=True)
            self.thread.start()
        finally:
            threading.stack_size(old)

    def _serve(self):
        _on_worker.active = True
        while (job := self.jobs.get()) is not None:
            fn, box, done = job
            if sys.getrecursionlimit() < self.frames:
                sys.setrecursionlimit(self.frames)
            try:
                box["value"] = fn()
            except BaseException as exc:  # re-raised on the calling thread
                box["error"] = exc
            done.release()


_worker: _EvalWorker | None = None
_worker_lock = threading.Lock()
_on_worker = threading.local()


def run_deep(fn, depth_limit: int = 1024):
    """Run ``fn`` on the evaluation worker, a thread whose stack fits
    ``depth_limit`` lambda frames, and return its result or raise its
    exception. The worker starts on first use; a larger ``depth_limit``
    replaces it with a bigger one, and a call made on a worker runs inline."""
    global _worker
    if getattr(_on_worker, "active", False):
        return fn()
    box: dict = {}
    done = threading.Lock()
    done.acquire()
    # The job is queued under the lock, so it cannot land behind the None
    # that a concurrent replacement sends to this worker. A forked child
    # inherits _worker but not its thread, hence the liveness check.
    with _worker_lock:
        worker = _worker
        if worker is None or worker.depth_limit < depth_limit or not worker.thread.is_alive():
            if worker is not None:
                worker.jobs.put(None)
            worker = _worker = _EvalWorker(depth_limit)
        worker.jobs.put((fn, box, done))
    done.acquire()
    if "error" in box:
        raise box["error"]
    return box.get("value")


def parse_address(text: str, default_sheet: str = "Sheet1") -> tuple[str, int, int]:
    """Parse ``A1`` or ``Sheet!A1`` into (sheet name, row, col)."""
    sheet = default_sheet
    ref = text.strip()
    if "!" in ref:
        sheet, ref = ref.split("!", 1)
    parts = _cellref_parts(ref.strip())
    if parts is None:
        raise ValueError(f"not a cell address: {text!r}")
    _, col, _, row = parts
    return sheet, row, col


class Workbook:
    """A calculation workbook: sheets of cells plus workbook-scoped names."""

    def __init__(self, depth_limit: int = 1024, trace: TraceSink | None = None):
        self.cells: dict[Address, Cell] = {}
        self.sheet_names: dict[str, str] = {}  # key -> display name
        self.names: dict[str, DefinedName] = {}
        self.depth_limit = depth_limit
        self.trace = trace if trace is not None else TraceSink()
        self.default_sheet = "Sheet1"
        self._ensure_sheet("Sheet1")

        # Edges out of a cell are its ``Cell.reads``; a placed region is the
        # Array its anchor holds. The rest of the graph and layout state:
        self._deps_in: dict[Address | str, set[Address]] = {}  # address or name key -> readers
        # The column index (see the module docstring), keyed by (sheet,
        # column). Spans are disjoint and sorted by top row. ``_rows`` changes
        # only when an address first holds a cell or is read, or finally does
        # neither, never once per reference.
        self._spans: dict[tuple[str, int], list[tuple[int, int, Address]]] = {}
        self._rows: dict[tuple[str, int], list[int]] = {}
        # #SPILL! anchors and #CIRC! cells: their values came from the layout
        # of the recalculation that set them, so the next one retries them.
        self._retry: set[Address] = set()
        self._dirty: set[Address] = set()  # seeds of the next recalculation

    # -- sheets and addresses

    def _ensure_sheet(self, name: str) -> str:
        key = name.casefold()
        self.sheet_names.setdefault(key, name)
        return key

    def _sheet_key(self, name: str | None) -> str:
        # Reads only casefold: a sheet and its spelling are registered by a
        # ``sheet`` section or by an edit's address, never by a read.
        return (name if name else self.default_sheet).casefold()

    def address(self, text: str, sheet: str | None = None) -> Address:
        sheet_name, row, col = parse_address(text, sheet or self.default_sheet)
        return (self._ensure_sheet(sheet_name), row, col)

    def _read_address(self, addr: Address | str, sheet_key=None) -> Address:
        """The address that ``addr`` names: text as ``parse_address`` reads
        it, or a (sheet, row, col) tuple whose row and column lie on the
        grid. ``sheet_key`` turns the sheet name into its key; the default,
        ``_sheet_key``, adds no sheet."""
        if isinstance(addr, str):
            sheet, row, col = parse_address(addr, self.default_sheet)
        else:
            sheet, row, col = addr
            if not (1 <= row <= E.GRID_MAX_ROWS and 1 <= col <= E.GRID_MAX_COLS):
                raise ValueError(f"not a cell address: {addr!r}")
        return ((sheet_key or self._sheet_key)(sheet), row, col)

    def _edit_address(self, addr: Address | str) -> Address:
        """The address an edit names, as ``_read_address`` reads it; its sheet
        is registered."""
        return self._read_address(addr, self._ensure_sheet)

    # -- content editing

    def set_cell(self, addr: Address | str, content) -> None:
        """Assign a cell: formula text, a parsed Expr or a literal value, as
        ``_content_expr`` reads them. ``None`` clears the cell. Content that
        fails to parse raises and leaves the workbook unchanged."""
        addr = self._edit_address(addr)
        if content is None:
            self.clear_cell(addr)
            return
        formula = _content_expr(content)
        if not self._release(addr) and addr not in self._deps_in:
            sheet, row, col = addr
            insort(self._rows.setdefault((sheet, col), []), row)
        self.cells[addr] = cell = Cell(formula)
        self._wire(addr, cell)
        self._dirty.add(addr)
        self._touch_layout(addr)

    def clear_cell(self, addr: Address | str) -> None:
        addr = self._edit_address(addr)
        # Dirtying the address is enough: the pass walks its readers.
        if self._release(addr):
            del self.cells[addr]
            if addr not in self._deps_in:
                _drop_rows(self._rows, (addr,))
            self._dirty.add(addr)
            self._touch_layout(addr)

    def define_name(self, name: str, content) -> None:
        """Define a workbook name; ``content`` reads as in ``set_cell``, so a
        string that is not formula text is a text value."""
        if _cellref_parts(name) is not None:
            raise NameCollision(f"{name!r} is shaped like a cell reference")
        tokens = tokenize(name)
        if len(tokens) != 1 or tokens[0].kind != "ident":
            raise NameCollision(f"{name!r} is not a valid name")
        if is_builtin_name(name) or name.upper() in ("LET", "LAMBDA"):
            raise NameCollision(f"{name!r} shadows a built-in function")
        key = name.casefold()
        self.names[key] = DefinedName(name, _content_expr(content))
        # Redefinition rewires and dirties every cell whose formula reaches
        # this name: the new content may reach other cells and names. Wiring
        # first keeps a read that stays from leaving ``_deps_in`` and ``_rows``.
        for addr in sorted(self._deps_in.get(key, ())):
            cell = self.cells[addr]
            old = cell.reads
            self._wire(addr, cell)
            self._unwire(addr, old - cell.reads)
            self._dirty.add(addr)

    def _release(self, addr: Address) -> bool:
        """Unwire the cell at ``addr`` and drop its spill region, dirtying the
        readers of its members, before its record is replaced or deleted. A
        stale region would give the cell those members' readers in
        ``_readers``, so its new formula could read them as a self edge.
        Returns False when ``addr`` holds no cell."""
        cell = self.cells.get(addr)
        if cell is None:
            return False
        self._unwire(addr, cell.reads)
        self._dirty |= self._member_readers(addr, self._vacate(addr))
        return True

    def _touch_layout(self, addr: Address) -> None:
        """Content at a member of a live region collides with that region."""
        anchor = self._holder(addr)
        if anchor is not None:
            self._dirty.add(anchor)

    # -- dependency graph

    def _wire(self, addr: Address, cell: Cell) -> None:
        cell.reads = _extract_refs(cell.formula, addr[0], self)
        deps_in = self._deps_in
        new = []  # empty addresses read for the first time
        for ref in cell.reads:
            readers = deps_in.get(ref)
            if readers is None:
                deps_in[ref] = {addr}
                if type(ref) is tuple and ref not in self.cells:
                    new.append(ref)
            else:
                readers.add(addr)
        if new:
            _add_rows(self._rows, new)

    def _unwire(self, addr: Address, reads) -> None:
        """Drop ``addr`` from the readers of ``reads``."""
        gone = []  # empty addresses no longer read
        for ref in reads:
            readers = self._deps_in[ref]
            readers.discard(addr)
            if not readers:
                del self._deps_in[ref]
                if type(ref) is tuple and ref not in self.cells:
                    gone.append(ref)
        if gone:
            _drop_rows(self._rows, gone)

    # -- values seen by the evaluator

    def lookup_name(self, name: str) -> DefinedName | None:
        return self.names.get(name.casefold())

    def cell_value(self, sheet: str, row: int, col: int):
        addr = (self._sheet_key(sheet), row, col)
        cell = self.cells.get(addr)
        if cell is not None:
            v = cell.value
            if isinstance(v, Array):
                return v.at(0, 0)
            return EMPTY if v is None else v
        anchor = self._holder(addr)
        if anchor is not None:
            return self.cells[anchor].value.at(row - anchor[1], col - anchor[2])
        return EMPTY

    def read(self, ref: Ref):
        """The value of the cells ``ref`` names: the cell's value for one
        cell other than a ``#`` reference, the placed Array when they are
        exactly a placed region, and otherwise an Array read cell by cell."""
        sheet, r1, c1, r2, c2, spill = ref
        if r1 == r2 and c1 == c2 and not spill:
            return self.cell_value(sheet, r1, c1)
        arr = self._placed((sheet, r1, c1))
        if arr is not None and arr.shape == (r2 - r1 + 1, c2 - c1 + 1):
            return arr
        cols = range(c1, c2 + 1)
        return Array([[self.cell_value(sheet, r, c) for c in cols] for r in range(r1, r2 + 1)])

    def spill_array(self, sheet: str, row: int, col: int) -> Array | None:
        return self._placed((self._sheet_key(sheet), row, col))

    def spill_region(self, addr: Address | str) -> tuple[int, int] | None:
        arr = self._placed(self._read_address(addr))
        return None if arr is None else arr.shape

    def _holder(self, addr: Address) -> Address | None:
        """The anchor of the placed region that holds ``addr`` other than as
        its anchor cell, or None."""
        sheet, row, col = addr
        spans = self._spans.get((sheet, col))
        if spans:
            i = bisect_right(spans, (row, math.inf))
            if i and spans[i - 1][1] >= row:
                return spans[i - 1][2]
        return None

    def _placed(self, addr: Address) -> Array | None:
        """The Array held by the anchor of a placed region at ``addr``."""
        cell = self.cells.get(addr)
        if cell is not None and isinstance(cell.value, Array):
            return cell.value
        return None

    # -- evaluation

    def _context(self, caller: Address | None) -> EvalContext:
        return EvalContext(
            workbook=self,
            caller=caller,
            depth_limit=self.depth_limit,
            trace=self.trace,
        )

    def evaluate_formula(self, text: str, caller: Address | str | None = None):
        """Evaluate formula text against the workbook (no cell is written)."""
        if caller is not None:
            caller = self._read_address(caller)
        expr = text if isinstance(text, E.Expr) else parse_formula(text)
        return run_deep(lambda: self._evaluate(expr, caller), self.depth_limit)

    def _evaluate(self, expr: E.Expr, caller: Address | None):
        """Evaluate ``expr`` as seen from ``caller``. Evaluation is total: an
        exception that escapes the evaluator becomes #NUM!. An omitted
        argument that reaches the result is blank."""
        try:
            value = evaluate(expr, Environment(), self._context(caller))
            if type(value) is Ref:
                value = self.read(value)
        except RecursionError:
            return ErrorValue(NUM_ERROR.kind, "evaluation too deeply nested")
        except Exception as exc:
            return ErrorValue(NUM_ERROR.kind, f"{type(exc).__name__}: {exc}")
        return EMPTY if value is OMITTED else value

    def recalculate(self) -> CalcReport:
        return run_deep(self._recalculate, self.depth_limit)

    def _recalculate(self) -> CalcReport:
        calc = _Recalculation()
        report = calc.report
        pending = self._dirty
        self._dirty = set()
        if pending:
            pending |= self._retry
        while pending and report.passes < _MAX_PASSES:
            report.passes += 1
            pending = self._run_pass(pending, calc)
        if pending:
            # The spill layout never settled.
            for addr in sorted(pending):
                cell = self.cells.get(addr)
                if cell is not None:
                    self._vacate(addr)
                    cell.value = CIRC_ERROR
                    calc.circled.add(addr)
                    report.errors.append((addr, CIRC_ERROR))
        report.cycles = sorted(calc.circled)
        self._retry |= calc.circled
        return report

    def _readers(self, addr: Address) -> set[Address]:
        """The cells that read ``addr``. When ``addr`` is the anchor of a
        placed region, a read of a member of the region counts as a read of
        the anchor, so the anchor evaluates first, and a cell that reads its
        own spill output is its own reader."""
        readers = self._deps_in.get(addr, _NO_READS)
        arr = self._placed(addr)
        if arr is not None:
            readers = readers | self._member_readers(addr, arr.shape)
        return readers

    def _run_pass(self, seeds, calc: _Recalculation) -> set[Address]:
        """Evaluate ``seeds`` and every cell that transitively reads them, in
        one walk along ``_readers``; return the seeds of the next pass."""
        sccs, work = _tarjan_sccs(sorted(seeds, reverse=True), self._readers)
        next_dirty: set[Address] = set()
        evaluated: set[Address] = set()
        for component in reversed(sccs):
            for group, cyclic in self._cycles(component, work, calc, next_dirty):
                for addr in sorted(group):
                    cell = self.cells.get(addr)
                    if cell is None:  # a cleared seed: only its readers evaluate
                        continue
                    if cyclic:
                        value = CIRC_ERROR
                        calc.circled.add(addr)
                    else:
                        value = self._evaluate(cell.formula, addr)
                        calc.report.evaluated += 1
                    # The cell counts as evaluated before its spill is placed,
                    # so a placement that feeds the cell's own inputs re-queues it.
                    evaluated.add(addr)
                    self._set_cell_result(addr, value, calc, evaluated, work, next_dirty)
        return next_dirty

    def _cycles(self, component, work, calc: _Recalculation, next_dirty: set[Address]):
        """The groups of a component of the pass's walk, in evaluation order,
        each with whether its cells are #CIRC!. Of the member edges, only
        those of regions placed in this recalculation close a cycle. An older
        region may not be placed again, so a component that is cyclic only
        through one is split along its other edges. Its older regions are
        vacated first, so the split walk sees no member edge of theirs, and a
        member reader that evaluates before the anchor reads a blank, as in a
        fresh load, and goes around again if the anchor places the region
        again. Once circular within this recalculation, always circular: a
        cell whose spill feeds itself must not flip back to placed when
        vacating it removes the self edge."""
        head = component[0]
        if len(component) == 1 and head not in work[head]:
            return [(component, head in calc.circled)]
        for addr in component:
            if addr not in calc.placed and self._placed(addr) is not None:
                self._vacate(addr)
                next_dirty |= self._retry  # the freed cells may unblock an anchor
        inside = set(component)
        groups, succ = _tarjan_sccs(
            sorted(component, reverse=True), lambda addr: self._readers(addr) & inside
        )
        return [
            (group, len(group) > 1 or group[0] in succ[group[0]] or group[0] in calc.circled)
            for group in reversed(groups)
        ]

    def _set_cell_result(self, addr, value, calc, evaluated, work, next_dirty):
        old = self._vacate(addr)
        if isinstance(value, Array):
            value = self._place_spill(addr, value, calc, next_dirty)
        self.cells[addr].value = value
        if isinstance(value, ErrorValue):
            calc.report.errors.append((addr, value))
        elif isinstance(value, Array):
            calc.report.placements += 1
            calc.placed.add(addr)
        new = value.shape if isinstance(value, Array) else None
        # Exposure of the old and new members changed. Readers already
        # evaluated this pass (or outside the pass entirely) saw stale values
        # and go around again; readers still queued pick up fresh values.
        for shape in {old, new}:
            for reader in self._member_readers(addr, shape):
                if reader not in work or reader in evaluated:
                    next_dirty.add(reader)
        if old is not None and (new is None or new[0] < old[0] or new[1] < old[1]):
            # Cells the old region held are free: blocked anchors try again.
            next_dirty.update(self._retry - {addr})

    def _member_readers(self, anchor: Address, shape: tuple[int, int] | None) -> set[Address]:
        """The cells that read a member of the region of ``shape`` at ``anchor``."""
        deps_in = self._deps_in
        out: set[Address] = set()
        for (sheet, col), top, bottom in _region_columns(anchor, shape):
            for row in _rows_between(self._rows.get((sheet, col)), top, bottom):
                readers = deps_in.get((sheet, row, col))
                if readers:
                    out |= readers
        return out

    def _vacate(self, anchor: Address) -> tuple[int, int] | None:
        """Drop the region placed at ``anchor``, the Array the cell holds, and
        clear that value, so a second call is a no-op. Returns the shape
        vacated, or None."""
        self._retry.discard(anchor)
        cell = self.cells[anchor]
        arr = cell.value
        if not isinstance(arr, Array):
            return None
        cell.value = None
        for key, top, _ in _region_columns(anchor, arr.shape):
            spans = self._spans[key]
            del spans[bisect_left(spans, (top,))]
            if not spans:
                del self._spans[key]
        return arr.shape

    def _place_spill(
        self, anchor: Address, arr: Array, calc: _Recalculation, next_dirty: set[Address]
    ):
        """Lay out ``arr``'s region at the vacated ``anchor`` and return the
        value the cell stores: ``arr`` placed, or #SPILL! when the grid edge,
        content or an earlier anchor's region (in address order) is in the
        way; the detail names the first cell blocked in row-major order. A
        later anchor's region gives way and that anchor goes around again,
        so the layout depends on content, not on the order of edits. Evicted
        twice by the same anchor in one recalculation, it goes around as
        #CIRC!: the two regions take turns and would never settle."""
        sheet, row, col = anchor
        nr, nc = arr.shape
        if row + nr - 1 > E.GRID_MAX_ROWS or col + nc - 1 > E.GRID_MAX_COLS:
            self._retry.add(anchor)
            return ErrorValue(SPILL_ERROR.kind, "blocked by the grid edge")
        columns = _region_columns(anchor, arr.shape)
        blocked = []  # (row, col) of the first blocked cell of each column
        later: set[Address] = set()
        for key, top, bottom in columns:
            c = key[1]
            for r in _rows_between(self._rows.get(key), top, bottom):
                if (sheet, r, c) in self.cells:
                    blocked.append((r, c))
                    break
            for span_top, _, holder in _spans_between(self._spans.get(key), top, bottom):
                if holder < anchor:
                    blocked.append((max(span_top, top), c))
                    break
                later.add(holder)
        if blocked:
            self._retry.add(anchor)
            blocker = _format_address((sheet, *min(blocked)), self.sheet_names)
            return ErrorValue(SPILL_ERROR.kind, f"blocked by {blocker}")
        for holder in sorted(later):
            next_dirty |= self._member_readers(holder, self._vacate(holder))
            next_dirty.update(self._retry, (holder,))
            if (holder, anchor) in calc.evicted:
                calc.circled.add(holder)
            calc.evicted.add((holder, anchor))
        for key, top, bottom in columns:
            insort(self._spans.setdefault(key, []), (top, bottom, anchor))
        return arr


def _region_columns(anchor: Address, shape: tuple[int, int] | None):
    """The ((sheet, col), top, bottom) rows of each column of the region of
    ``shape`` at ``anchor``, less the anchor cell; none when ``shape`` is None."""
    if shape is None:
        return []
    sheet, row, col = anchor
    nr, nc = shape
    bottom = row + nr - 1
    columns = [((sheet, col), row + 1, bottom)] if nr > 1 else []
    columns += [((sheet, c), row, bottom) for c in range(col + 1, col + nc)]
    return columns


def _rows_between(rows: list[int] | None, top: int, bottom: int) -> list[int]:
    """The entries of the sorted ``rows`` from ``top`` to ``bottom``."""
    if not rows:
        return []
    return rows[bisect_left(rows, top) : bisect_right(rows, bottom)]


def _spans_between(spans, top: int, bottom: int):
    """The spans of the sorted, disjoint ``spans`` that overlap the rows
    from ``top`` to ``bottom``."""
    if not spans:
        return []
    i = bisect_right(spans, (top, math.inf))
    if i and spans[i - 1][1] >= top:
        i -= 1
    return spans[i : bisect_right(spans, (bottom, math.inf))]


def _by_column(addrs) -> dict[tuple[str, int], list[int]]:
    """The rows of ``addrs`` by (sheet, column)."""
    out: dict[tuple[str, int], list[int]] = {}
    for sheet, row, col in addrs:
        out.setdefault((sheet, col), []).append(row)
    return out


def _add_rows(index: dict, addrs) -> None:
    """Add the rows of ``addrs``, none of them indexed yet, to ``index``."""
    for key, rows in _by_column(addrs).items():
        have = index.setdefault(key, [])
        if len(rows) == 1:
            insort(have, rows[0])
        else:  # one sort merges a bulk insert, where insort would be quadratic
            have += rows
            have.sort()


def _drop_rows(index: dict, addrs) -> None:
    """Drop the rows of ``addrs``, all of them indexed, from ``index``."""
    for key, rows in _by_column(addrs).items():
        have = index[key]
        if len(rows) == 1:
            del have[bisect_left(have, rows[0])]
        else:
            gone = set(rows)
            have[:] = [r for r in have if r not in gone]
        if not have:
            del index[key]


def _format_address(addr: Address, sheet_names: dict[str, str]) -> str:
    sheet, row, col = addr
    return f"{sheet_names.get(sheet, sheet)}!{E.col_to_letters(col)}{row}"


def _is_formula(content) -> bool:
    """A string is formula text when it starts with ``=`` or ``{``; any other
    string is a text value."""
    return isinstance(content, str) and content.lstrip().startswith(("=", "{"))


def _content_expr(content) -> E.Expr:
    """The tree of cell or name content. Formula text parses and an Expr is
    kept; any other value becomes a ``Literal``: a number as a float (a
    ``DateSerial`` stays one, and a number that is not finite, or an int
    beyond the double range, is #NUM!), a bool, text or an error value as it
    is."""
    if isinstance(content, E.Expr):
        return content
    if _is_formula(content):
        return parse_formula(content)
    if isinstance(content, (int, float)) and not isinstance(content, (bool, DateSerial)):
        try:
            content = float(content)
        except OverflowError:
            content = math.inf
    if isinstance(content, float) and not math.isfinite(content):
        content = ErrorValue(NUM_ERROR.kind, "number is not finite")
    return E.Literal(content)


# ---------------------------------------------------------------------------
# Static reference extraction


def _extract_refs(expr: E.Expr, sheet: str, wb: Workbook):
    """All cell addresses and defined-name keys a formula statically reaches,
    in one set; a formula that reaches nothing shares the one empty set.

    A name the parser located (a LET binding or lambda parameter) reaches
    nothing itself; defined names are expanded transitively with a cycle
    guard, so lambda recursion through a name never produces a self edge.
    """
    out: set[Address | str] = set()
    _walk(expr, sheet, wb, out, frozenset())
    return out or _NO_READS


def _walk(node, sheet, wb, out, visiting):
    match node:
        case E.CellRef():
            key = wb._sheet_key(node.sheet) if node.sheet else sheet
            out.add((key, node.row, node.col))
        case E.RangeRef(start=s, end=t):
            key = wb._sheet_key(node.sheet) if node.sheet else sheet
            for r in range(s.row, t.row + 1):
                for c in range(s.col, t.col + 1):
                    out.add((key, r, c))
        case E.SpillRef(target=target):
            anchor, keys = _resolve_spill_target(target, wb.lookup_name)
            out.update(keys)
            if isinstance(anchor, E.CellRef):
                key = wb._sheet_key(anchor.sheet) if anchor.sheet else sheet
                out.add((key, anchor.row, anchor.col))
        case E.NameRef(name=name, depth=None):
            if is_builtin_name(name):
                return
            # Wired even while undefined, so a later define_name reaches it.
            key = name.casefold()
            out.add(key)
            defined = wb.names.get(key)
            if defined is not None and key not in visiting:
                _walk(defined.expr, sheet, wb, out, visiting | {key})
        case E.ImplicitIntersect(inner=inner):
            _walk(inner, sheet, wb, out, visiting)
        case E.Call(callee=callee, args=args):
            _walk(callee, sheet, wb, out, visiting)
            for a in args:
                _walk(a, sheet, wb, out, visiting)
        case E.Let(bindings=bindings, body=body):
            for _, value_expr in bindings:
                _walk(value_expr, sheet, wb, out, visiting)
            _walk(body, sheet, wb, out, visiting)
        case E.Lambda(body=body):
            _walk(body, sheet, wb, out, visiting)
        case E.BinaryOp(left=left, right=right):
            _walk(left, sheet, wb, out, visiting)
            _walk(right, sheet, wb, out, visiting)
        case E.UnaryOp(operand=operand) | E.PercentPostfix(operand=operand):
            _walk(operand, sheet, wb, out, visiting)
        case _:
            pass


# ---------------------------------------------------------------------------
# Strongly connected components (iterative Tarjan, deterministic order)


def _tarjan_sccs(roots, successors) -> tuple[list[list[Address]], dict]:
    """Strongly connected components of the graph reachable from ``roots``.

    The walk visits ``roots`` in the order given and each node's
    ``successors(node)`` in descending order. It returns the components, each
    emitted after every component it reaches, and the successor set of each
    visited node.
    """
    succ: dict[Address, set[Address]] = {}
    index: dict[Address, int] = {}
    low: dict[Address, int] = {}
    on_stack: set[Address] = set()
    stack: list[Address] = []
    out: list[list[Address]] = []

    for root in roots:
        if root in index:
            continue
        call_stack = [(root, None)]
        while call_stack:
            node, it = call_stack[-1]
            if it is None:  # first visit
                index[node] = low[node] = len(index)
                stack.append(node)
                on_stack.add(node)
                succ[node] = nexts = successors(node)
                it = iter(sorted(nexts, reverse=True))
                call_stack[-1] = (node, it)
            for nxt in it:
                if nxt not in index:
                    call_stack.append((nxt, None))
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            else:
                call_stack.pop()
                if call_stack:
                    parent = call_stack[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    out.append(component)
    return out, succ


# ---------------------------------------------------------------------------
# Workbook text format
#
#   sheet <name>                 opens a sheet section
#   <A1-address> := <content>    cell assignment (formula or literal)
#   name <identifier> := <formula-or-literal>
#   #                            begins a comment line


def parse_literal(text: str):
    """Literal cell content: a finite number (read as text coercion reads
    one), TRUE/FALSE, error, ISO date, else text."""
    raw = text.strip()
    if raw.upper() in ("TRUE", "FALSE"):
        return raw.upper() == "TRUE"
    err = error_from_text(raw)
    if err is not None:
        return err
    number = number_from_text(raw)
    if not isinstance(number, ErrorValue):
        return number
    if len(raw) == 10 and raw[4] == "-" and raw[7] == "-":
        try:
            day = dt.date.fromisoformat(raw)
            return DateSerial((day - dt.date(1899, 12, 30)).days)
        except ValueError:
            pass
    return raw


def _apply_statement(wb: Workbook, line: str, sheet: str, parsed: dict[str, E.Expr]):
    """Apply one workbook statement; ``sheet`` is the open sheet section.
    ``parsed`` maps formula text to its tree, so a text met again is not
    parsed again; trees are immutable, so cells may share one.

    Returns ``("sheet", name)``, ``("name", name)`` or ``("cell", address)``,
    or None for a blank or comment line. Raises ``ValueError`` (including
    ``ParseError`` and ``NameCollision``) on a malformed statement.
    """
    line = line.strip()
    if not line or line.startswith("#"):
        return None
    if line.lower().startswith("sheet ") and ":=" not in line:
        name = line[6:].strip()
        wb._ensure_sheet(name)
        return ("sheet", name)
    if ":=" not in line:
        raise ValueError("expected ':=' assignment")
    lhs, rhs = (part.strip() for part in line.split(":=", 1))
    if _is_formula(rhs):
        content = parsed.get(rhs)
        if content is None:
            content = parsed[rhs] = parse_formula(rhs)
    else:
        content = parse_literal(rhs)
    if lhs.lower().startswith("name "):
        name = lhs[5:].strip()
        wb.define_name(name, content)
        return ("name", name)
    addr = wb.address(lhs, sheet=sheet)
    wb.set_cell(addr, content)
    return ("cell", addr)


def load_workbook_text(
    text: str,
    path: str = "<workbook>",
    depth_limit: int = 1024,
    trace: TraceSink | None = None,
) -> Workbook:
    wb = Workbook(depth_limit=depth_limit, trace=trace)
    current_sheet = wb.default_sheet
    parsed: dict[str, E.Expr] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        try:
            done = _apply_statement(wb, raw_line, current_sheet, parsed)
        except ValueError as exc:
            raise WorkbookFormatError(str(exc), path, line_no) from exc
        if done is not None and done[0] == "sheet":
            current_sheet = done[1]
    return wb


def load_workbook(path, depth_limit: int = 1024, trace: TraceSink | None = None) -> Workbook:
    from pathlib import Path

    p = Path(path)
    return load_workbook_text(
        p.read_text(encoding="utf-8"), path=str(p), depth_limit=depth_limit, trace=trace
    )
