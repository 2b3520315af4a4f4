"""ledger: a generated multi-sheet corkscrew model under a long editing session.

Each of ``SHEETS`` ledger sheets holds ``ITEMS`` balance items over
``PERIODS`` monthly columns, as five row blocks: opening, inflow, outflow,
adjustment and closing. For item ``i`` and period column ``c``::

    opening[0] = Assumptions!B<i+1>        opening[c] = closing[c-1]
    inflow     = opening * g_i + Periods!<c>1    (a member of a spilled row)
    outflow    = opening * d_i + inflow * f_i
    closing    = opening + inflow - outflow + adjustment

so the model has about 15 000 short formulas, 240 rate names, a spilled
period row, per-item range ``SUM``s, a ``BYCOL`` total row per sheet through
the ``Colλ`` helper, cross-sheet summary cells and a receipts row that
``CONVOLVE``s sheet 1's totals with a timing profile. Parsing, graph wiring
and unwiring, scheduling and the per-call worker thread dominate; each
cell's evaluation is shallow.

Every checked cell is recomputed here in plain Python from the generator's
own data, in the engine's order of operations. At the end the incrementally
recalculated workbook is compared cell for cell with a fresh
``load_workbook_text`` of the edited text.

Known fault, counted in ``failed``: defining a name that cells already
reference leaves them at a stale ``#NAME?`` (``engine._walk`` returns before
``names.add(key)`` for an undefined name, so the cell is never wired to it).
Each round sets a leaf cell ``Notes!A<r> := =memo_<r>+1`` and then defines
``memo_<r>``; that definition is one failed operation until the fault is
mended. Nothing reads the Notes cells, so the fault does not spread.
"""

from __future__ import annotations

import re
from collections import Counter

import numpy as np

from gridlambda.engine import load_workbook_text
from gridlambda.expr import col_to_letters
from gridlambda.values import ErrorKind, ErrorValue

from . import close, edit, matches, read, round_rng

SHEETS = 4
ITEMS = 20  # per sheet
PERIODS = 48
RECEIPT_TIMING = (0.0, 0.6, 0.25, 0.15)
TOL = 1e-12

N_ITEMS = SHEETS * ITEMS
FIRST = 2  # column of the first period
LAST = FIRST + PERIODS - 1
ITEM_TOTAL_COL = LAST + 2
TOTAL_ROW = 5 * ITEMS + 2


def L(col: int) -> str:
    return col_to_letters(col)


def sheet_of(i: int) -> str:
    return f"Ledger{i // ITEMS + 1}"


def rows_of(i: int) -> tuple[int, int, int, int, int]:
    """Opening, inflow, outflow, adjustment and closing rows of item ``i``."""
    j = i % ITEMS + 1
    return j, ITEMS + j, 2 * ITEMS + j, 3 * ITEMS + j, 4 * ITEMS + j


class Ledger:
    """The generator's own data and the plain-Python recomputation of it."""

    def __init__(self, rng, sheets: int = SHEETS):
        self.sheets = sheets
        self.opening = [round(rng.uniform(1e4, 1e6), 2) for _ in range(sheets * ITEMS)]
        self.rates = {
            f"{kind}_{i}": round(rng.uniform(lo, hi), 5)
            for i in range(sheets * ITEMS)
            for kind, lo, hi in (("g", 0.0, 0.03), ("d", 0.0, 0.02), ("f", 0.0, 0.1))
        }
        self.adjust: dict[tuple[int, int], float] = {}  # (item, column) -> amount
        self.out_rate: dict[tuple[int, int], int] = {}  # (item, column) -> item whose d_ it uses
        self.memos: dict[int, float] = {}  # Notes row -> memo value
        self._items: dict[int, tuple[list, list, list]] = {}

    def touch(self, i: int | None = None) -> None:
        if i is None:
            self._items.clear()
        else:
            self._items.pop(i, None)

    def item(self, i: int):
        """Inflow, outflow and closing rows of item ``i``."""
        got = self._items.get(i)
        if got is not None:
            return got
        g, f = self.rates[f"g_{i}"], self.rates[f"f_{i}"]
        inflow, outflow, closing = [], [], []
        o = self.opening[i]
        for k in range(PERIODS):
            col = FIRST + k
            inn = o * g + float(k + 1)
            d = self.rates[f"d_{self.out_rate.get((i, col), i)}"]
            out = o * d + inn * f
            o = o + inn - out + self.adjust.get((i, col), 0.0)
            inflow.append(inn)
            outflow.append(out)
            closing.append(o)
        got = self._items[i] = (inflow, outflow, closing)
        return got

    def sheet_totals(self, s: int) -> list[float]:
        items = range(s * ITEMS, (s + 1) * ITEMS)
        return [sum_in_order(self.item(i)[2][k] for i in items) for k in range(PERIODS)]

    def closing_sum(self, s: int) -> float:
        return sum_in_order(v for i in range(s * ITEMS, (s + 1) * ITEMS) for v in self.item(i)[2])

    def grand_total(self) -> float:
        return sum_in_order(sum_in_order(self.sheet_totals(s)) for s in range(self.sheets))

    def receipts(self) -> np.ndarray:
        return np.convolve(self.sheet_totals(0), RECEIPT_TIMING)

    # -- workbook text

    def cells(self) -> list[tuple[str, str]]:
        """(address, content) of every cell, in text order."""
        out = [("Periods!A1", f"=SEQUENCE(1, {PERIODS})")]
        out += [(f"Assumptions!B{i + 1}", repr(v)) for i, v in enumerate(self.opening)]
        for i in range(self.sheets * ITEMS):
            sheet = sheet_of(i)
            ro, ri, ru, ra, rc = rows_of(i)
            for col in range(FIRST, LAST + 1):
                c, p = L(col), L(col - 1)
                opening = f"=Assumptions!B{i + 1}" if col == FIRST else f"={p}{rc}"
                d = self.out_rate.get((i, col), i)
                out += [
                    (f"{sheet}!{c}{ro}", opening),
                    (f"{sheet}!{c}{ri}", f"={c}{ro}*g_{i}+Periods!{L(col - 1)}1"),
                    (f"{sheet}!{c}{ru}", f"={c}{ro}*d_{d}+{c}{ri}*f_{i}"),
                    (f"{sheet}!{c}{rc}", f"={c}{ro}+{c}{ri}-{c}{ru}+{c}{ra}"),
                ]
                if (i, col) in self.adjust:
                    out.append((f"{sheet}!{c}{ra}", repr(self.adjust[(i, col)])))
            out.append((f"{sheet}!{L(ITEM_TOTAL_COL)}{ri}", f"=SUM({L(FIRST)}{ri}:{L(LAST)}{ri})"))
        for s in range(self.sheets):
            span = f"{L(FIRST)}{4 * ITEMS + 1}:{L(LAST)}{5 * ITEMS}"
            out.append((f"Ledger{s + 1}!{L(FIRST)}{TOTAL_ROW}", f"=BYCOL({span}, Colλ)"))
            out.append((f"Summary!A{s + 1}", f"=SUM(Ledger{s + 1}!{L(FIRST)}{TOTAL_ROW}#)"))
            out.append((f"Summary!B{s + 1}", f"=Ledger{s + 1}!{L(LAST)}{TOTAL_ROW}"))
        out.append(("Summary!C1", f"=SUM(A1:A{self.sheets})"))
        out.append((f"Summary!A{self.sheets + 2}", f"=CONVOLVE(Ledger1!{L(FIRST)}{TOTAL_ROW}#, receiptTiming)"))
        out += [(f"Notes!A{r}", f"=memo_{r}+1") for r in sorted(self.memos)]
        return out

    def text(self) -> str:
        # Names come first: a cell loaded before the name it reads is never
        # wired to that name (the known fault above).
        lines = ["# Corkscrew ledger, generated", "name Colλ := =LAMBDA(col, SUM(col))"]
        lines.append("name receiptTiming := {" + ", ".join(map(repr, RECEIPT_TIMING)) + "}")
        lines += [f"name {k} := {v!r}" for k, v in self.rates.items()]
        lines += [f"name memo_{r} := {v!r}" for r, v in sorted(self.memos.items())]
        lines += [f"{addr} := {content}" for addr, content in self.cells()]
        return "\n".join(lines) + "\n"


_REF = re.compile(r"(?<![A-Za-z0-9_!])(?:([A-Za-z][A-Za-z0-9]*)!)?([A-Z]{1,3})([0-9]+)(?![A-Za-z0-9_(!])")


def relative_form(address: str, formula: str) -> str:
    """The formula with cell references written relative to its own cell
    (R1C1 style), so copies along a row or column read the same."""
    sheet, _, a1 = address.partition("!")
    m = re.fullmatch(r"([A-Z]+)([0-9]+)", a1)
    row, col = int(m.group(2)), _col_number(m.group(1))

    def sub(ref: re.Match) -> str:
        prefix = f"{ref.group(1)}!" if ref.group(1) else ""
        return f"{prefix}R[{int(ref.group(3)) - row}]C[{_col_number(ref.group(2)) - col}]"

    return _REF.sub(sub, formula)


def _col_number(letters: str) -> int:
    n = 0
    for ch in letters:
        n = n * 26 + ord(ch) - 64
    return n


def relative_share(cells: list[tuple[str, str]]) -> tuple[int, float]:
    """Number of formulas, and the share of them whose relative form some
    other formula shares."""
    forms = Counter(relative_form(a, f) for a, f in cells if f.startswith("="))
    total = sum(forms.values())
    return total, sum(n for n in forms.values() if n > 1) / total


class Model:
    CALC_REPS = 5
    MIN_ROUNDS = 30  # 7 timed edits a round: at least 200 for the 95th percentile
    TRACED_ROUNDS = 40
    EDIT_TAIL = True

    def __init__(self, seed: int):
        self.seed = seed
        self.data = Ledger(round_rng(seed, -1, "ledger"))
        self.text = self.data.text()
        self.stale_notes: set[int] = set()  # Notes rows left at #NAME? by the fault

    # -- checks made apart from the engine

    def _item_ok(self, wb, i: int) -> bool:
        sheet = sheet_of(i)
        _, ri, ru, _, rc = rows_of(i)
        inflow, outflow, closing = self.data.item(i)
        for k in range(PERIODS):
            col = FIRST + k
            if not (close(wb.cell_value(sheet, ri, col), inflow[k], TOL)
                    and close(wb.cell_value(sheet, ru, col), outflow[k], TOL)
                    and close(wb.cell_value(sheet, rc, col), closing[k], TOL)):
                return False
        return close(wb.cell_value(sheet, ri, ITEM_TOTAL_COL), sum_in_order(inflow), TOL)

    def _sheet_ok(self, wb, s: int) -> bool:
        sheet = f"Ledger{s + 1}"
        totals = self.data.sheet_totals(s)
        return (
            matches(wb.spill_array(sheet, TOTAL_ROW, FIRST), [totals], TOL * max(map(abs, totals)))
            and close(wb.cell_value("Summary", s + 1, 1), sum_in_order(totals), TOL)
            and close(wb.cell_value("Summary", s + 1, 2), totals[-1], TOL)
        )

    def _summary_ok(self, wb) -> bool:
        receipts = self.data.receipts()
        return close(wb.cell_value("Summary", 1, 3), self.data.grand_total(), TOL) and matches(
            wb.spill_array("Summary", SHEETS + 2, 1), [receipts], 1e-9 * float(np.max(np.abs(receipts)))
        )

    def check_calc(self, wb) -> list[str]:
        bad = [f"item {i}" for i in range(N_ITEMS) if not self._item_ok(wb, i)]
        bad += [f"sheet Ledger{s + 1} totals" for s in range(SHEETS) if not self._sheet_ok(wb, s)]
        if not self._summary_ok(wb):
            bad.append("summary")
        return bad

    def final_check(self, wb) -> list[str]:
        """The incremental workbook against a fresh load of the edited text."""
        bad = self.check_calc(wb)
        fresh = load_workbook_text(self.data.text())
        fresh.recalculate()
        for addr in sorted(set(wb.cells) | set(fresh.cells)):
            sheet, row, col = addr
            got, want = wb.cell_value(*addr), fresh.cell_value(*addr)
            if sheet == "notes" and col == 1 and row in self.data.memos:
                # Fresh load wires Notes!A<r> to memo_<r>; the edited one may be stale.
                if not close(want, self.data.memos[row] + 1, 0.0):
                    bad.append(f"fresh Notes!A{row}")
                if row in self.stale_notes and _is_name_error(got):
                    continue
            same = _same(got, want) and wb.spill_region(addr) == fresh.spill_region(addr)
            if same and wb.spill_region(addr) is not None:
                same = wb.spill_array(*addr) == fresh.spill_array(*addr)
            if not same:
                bad.append(f"{sheet}!{L(col)}{row}: incremental {got!r} != fresh {want!r}")
        return bad

    # -- the session

    def _adjust_target(self, index: int) -> tuple[int, int, float]:
        rng = round_rng(self.seed, index, "ledger-adjust")
        return rng.randrange(N_ITEMS), rng.randint(FIRST, LAST), round(rng.uniform(-5e3, 5e3), 2)

    def _override_target(self, index: int) -> tuple[int, int, int]:
        rng = round_rng(self.seed, index, "ledger-override")
        return rng.randrange(N_ITEMS), rng.randrange(N_ITEMS), rng.randint(FIRST, LAST)

    def round(self, index: int):
        rng = round_rng(self.seed, index, "ledger")
        data = self.data
        ops = []

        # Opening balance of an item (a literal on the Assumptions sheet).
        i, value = rng.randrange(N_ITEMS), round(rng.uniform(1e4, 1e6), 2)

        def set_opening(i=i, value=value):
            data.opening[i] = value
            data.touch(i)

        ops.append(self._edit(f"Assumptions!B{i + 1} := {value}", i, set_opening,
                              lambda wb, i=i, v=value: wb.set_cell(f"Assumptions!B{i + 1}", v)))

        # A rate name, of each kind in turn.
        i = rng.randrange(N_ITEMS)
        name, value = f"{'gdf'[index % 3]}_{i}", round(rng.uniform(0.0, 0.02), 5)

        def set_rate(name=name, value=value):
            data.rates[name] = value
            data.touch()  # a rewired outflow of another item may use it

        def run_rate(wb, name=name, value=value):
            wb.define_name(name, value)

        ops.append(self._edit(f"name {name} := {value}", None, set_rate, run_rate))

        # A manual adjustment, kept until the next round clears it.
        i, col, value = self._adjust_target(index)
        addr = f"{sheet_of(i)}!{L(col)}{rows_of(i)[3]}"

        def set_adjust(i=i, col=col, value=value):
            data.adjust[(i, col)] = value
            data.touch(i)

        ops.append(self._edit(f"{addr} := {value}", i, set_adjust,
                              lambda wb, a=addr, v=value: wb.set_cell(a, v)))

        # An outflow cell rewired to another item's drawdown rate, kept until
        # the next round restores it.
        i, j, col = self._override_target(index)
        addr, formula = _outflow(i, j, col)

        def set_override(i=i, j=j, col=col):
            data.out_rate[(i, col)] = j
            data.touch(i)

        ops.append(self._edit(f"{addr} := {formula}", i, set_override,
                              lambda wb, a=addr, f=formula: wb.set_cell(a, f)))

        # Clear the previous round's adjustment (this round's, in round 0).
        i, col, _ = self._adjust_target(index - 1 if index else index)
        addr = f"{sheet_of(i)}!{L(col)}{rows_of(i)[3]}"

        def clear_adjust(i=i, col=col):
            data.adjust.pop((i, col), None)
            data.touch(i)

        ops.append(self._edit(f"clear {addr}", i, clear_adjust,
                              lambda wb, a=addr: wb.clear_cell(a)))

        # Restore the previous round's outflow (this round's, in round 0), so
        # rewired cells do not pile up and a rate edit costs the same in
        # every round.
        i, _, col = self._override_target(index - 1 if index else index)
        addr, formula = _outflow(i, i, col)

        def restore_outflow(i=i, col=col):
            data.out_rate.pop((i, col), None)
            data.touch(i)

        ops.append(self._edit(f"{addr} := {formula}", i, restore_outflow,
                              lambda wb, a=addr, f=formula: wb.set_cell(a, f)))

        # The known fault: a leaf cell reads memo_<r>, then memo_<r> is defined.
        r, value = index + 1, float(rng.randint(1, 999))

        def verify_note(wb, r=r) -> bool:
            return _is_name_error(wb.cell_value("Notes", r, 1))

        def verify_memo(wb, r=r, value=value) -> bool:
            data.memos[r] = value
            ok = close(wb.cell_value("Notes", r, 1), value + 1, 0.0)
            if not ok:
                self.stale_notes.add(r)
            return ok

        ops.append(edit(f"Notes!A{r} := =memo_{r}+1",
                        lambda wb, r=r: wb.set_cell(f"Notes!A{r}", f"=memo_{r}+1"), verify_note))
        ops.append(edit(f"name memo_{r} := {value}",
                        lambda wb, r=r, v=value: wb.define_name(f"memo_{r}", v), verify_memo,
                        known_fault=True))

        reads = self._reads(rng)
        return ops[:2] + reads[:10] + ops[2:] + reads[10:]  # reads between the edits

    def _edit(self, label, item, mirror, run):
        def verify(wb) -> bool:
            mirror()
            if item is None:
                return not self.check_calc(wb)
            return self._item_ok(wb, item) and self._sheet_ok(wb, item // ITEMS) and self._summary_ok(wb)

        return edit(label, run, verify)

    def _reads(self, rng):
        """Twenty reads: five of one cell or name, thirteen of about fifty
        cells (a row range, a BYCOL spill, the receipts spill, the period
        row) and two range SUMs over 960 cells. The median read lies inside
        the fifty-cell group, where starting the worker thread is a smaller
        share than in a one-cell read, and the 95th percentile inside the
        SUMs."""
        data = self.data
        reads = []
        for _ in range(3):
            i, k = rng.randrange(N_ITEMS), rng.randrange(PERIODS)
            reads.append(read(f"={sheet_of(i)}!{L(FIRST + k)}{rows_of(i)[4]}",
                              lambda v, i=i, k=k: close(v, data.item(i)[2][k], TOL)))
        name = f"{rng.choice('gdf')}_{rng.randrange(N_ITEMS)}"
        reads.append(read(f"={name}", lambda v, n=name: close(v, data.rates[n], 0.0)))
        reads.append(read("=Summary!C1", lambda v: close(v, data.grand_total(), TOL)))
        for _ in range(5):
            i = rng.randrange(N_ITEMS)
            ri = rows_of(i)[1]
            reads.append(read(f"={sheet_of(i)}!{L(FIRST)}{ri}:{L(LAST)}{ri}",
                              lambda v, i=i: matches(v, [data.item(i)[0]], 0.0)))
        for _ in range(4):
            s = rng.randrange(SHEETS)
            reads.append(read(f"=Ledger{s + 1}!{L(FIRST)}{TOTAL_ROW}#",
                              lambda v, s=s: matches(v, [data.sheet_totals(s)], 0.0)))
        for _ in range(2):
            reads.append(read(f"=Summary!A{SHEETS + 2}#", lambda v: matches(
                v, [data.receipts()], 1e-9 * float(np.max(np.abs(data.receipts()))))))
            reads.append(read("=Periods!A1#", lambda v: matches(v, [np.arange(1.0, PERIODS + 1)], 0.0)))
        for _ in range(2):
            s = rng.randrange(SHEETS)
            reads.append(read(f"=SUM(Ledger{s + 1}!{L(FIRST)}{4 * ITEMS + 1}:{L(LAST)}{5 * ITEMS})",
                              lambda v, s=s: close(v, data.closing_sum(s), TOL)))
        rng.shuffle(reads)
        return reads


def _outflow(i: int, j: int, col: int) -> tuple[str, str]:
    """Address of item ``i``'s outflow cell in column ``col``, and its formula
    when it draws down at item ``j``'s rate."""
    ro, ri, ru, _, _ = rows_of(i)
    c = L(col)
    return f"{sheet_of(i)}!{c}{ru}", f"={c}{ro}*d_{j}+{c}{ri}*f_{i}"


def sum_in_order(values) -> float:
    """Left-to-right sum from 0.0, the order of the engine's SUM."""
    t = 0.0
    for v in values:
        t += v
    return t


def _is_name_error(v) -> bool:
    return isinstance(v, ErrorValue) and v.kind is ErrorKind.NAME


def _same(a, b) -> bool:
    if isinstance(a, ErrorValue) or isinstance(b, ErrorValue):
        return isinstance(a, ErrorValue) and isinstance(b, ErrorValue) and a.kind is b.kind
    return type(a) is type(b) and a == b
