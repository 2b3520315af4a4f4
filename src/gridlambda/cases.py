"""Golden corpus: workbook files paired with expected output grids.

Corpus layout: ``corpus/<case>/model.wb`` plus ``corpus/<case>/expect.tsv``.
The expectation file is tab-separated:

    mode <exact|round|abstol|reltol> [tolerance]
    target <reference formula>
    <expected grid rows...>

Expected cells parse as workbook literals (numbers, ISO dates, TRUE/FALSE,
error strings, else text), except that ``""`` is empty text and a blank field
is an empty cell. ``round`` compares numbers rounded half away from zero to
integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .engine import TraceSink, load_workbook, parse_literal
from .values import EMPTY, Array, Closure, ErrorValue, render_cell

_MODES = ("exact", "round", "abstol", "reltol")


class CorpusError(ValueError):
    pass


@dataclass(frozen=True)
class GoldenCase:
    name: str
    workbook_path: Path
    target: str
    mode: str
    tolerance: float
    expected: tuple[tuple[object, ...], ...]


@dataclass
class CaseReport:
    case: GoldenCase
    passed: bool
    diffs: list = field(default_factory=list)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"{status} {self.case.name} ({self.case.mode}, target {self.case.target})"
        if not self.passed:
            shown = [f"  [{r},{c}] expected {e!r} got {a!r}" for r, c, e, a in self.diffs[:20]]
            if len(self.diffs) > 20:
                shown.append(f"  ... and {len(self.diffs) - 20} more")
            line += "\n" + "\n".join(shown)
        return line


def parse_expected_cell(text: str):
    if text == "":
        return EMPTY
    if text == '""':
        return ""
    return parse_literal(text)


def load_case(case_dir: Path) -> GoldenCase:
    model = case_dir / "model.wb"
    expect = case_dir / "expect.tsv"
    if not model.exists():
        raise CorpusError(f"{case_dir}: missing workbook file {model}")
    if not expect.exists():
        raise CorpusError(f"{case_dir}: missing expectation file {expect}")
    lines = expect.read_text(encoding="utf-8").splitlines()
    if len(lines) < 3:
        raise CorpusError(f"{expect}:1: expected mode line, target line and a grid")
    mode_parts = lines[0].split()
    if not mode_parts or mode_parts[0] != "mode" or len(mode_parts) < 2:
        raise CorpusError(f"{expect}:1: first line must be 'mode <kind> [tolerance]'")
    mode = mode_parts[1]
    if mode not in _MODES:
        raise CorpusError(f"{expect}:1: unknown mode {mode!r}")
    tolerance = 0.0
    if mode in ("abstol", "reltol"):
        if len(mode_parts) < 3:
            raise CorpusError(f"{expect}:1: mode {mode} needs a tolerance")
        tolerance = float(mode_parts[2])
    if not lines[1].startswith("target "):
        raise CorpusError(f"{expect}:2: second line must be 'target <reference>'")
    target = lines[1][len("target "):].strip()
    grid = []
    for line in lines[2:]:
        if line.startswith("#"):
            continue
        grid.append(tuple(parse_expected_cell(cell) for cell in line.split("\t")))
    if not grid:
        raise CorpusError(f"{expect}:3: empty expected grid")
    width = len(grid[0])
    if any(len(row) != width for row in grid):
        raise CorpusError(f"{expect}: expected grid rows differ in width")
    return GoldenCase(
        name=case_dir.name,
        workbook_path=model,
        target=target,
        mode=mode,
        tolerance=tolerance,
        expected=tuple(grid),
    )


def load_corpus(directory) -> list[GoldenCase]:
    root = Path(directory)
    if not root.is_dir():
        raise CorpusError(f"corpus directory not found: {root}")
    cases = []
    for case_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        cases.append(load_case(case_dir))
    return cases


def _round_half_away(x: float) -> int:
    return math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def cells_match(expected, actual, mode: str, tolerance: float) -> bool:
    if isinstance(expected, ErrorValue):
        return isinstance(actual, ErrorValue) and actual.kind == expected.kind
    if isinstance(actual, (ErrorValue, Closure)):
        return False
    if expected is EMPTY:
        return actual is EMPTY
    if isinstance(expected, bool) or isinstance(actual, bool):
        return expected is actual if isinstance(actual, bool) else False
    if _is_number(expected):
        if not _is_number(actual):
            return False
        e, a = float(expected), float(actual)
        if mode == "round":
            return _round_half_away(e) == _round_half_away(a)
        if mode == "abstol":
            return abs(a - e) <= tolerance
        if mode == "reltol":
            return abs(a - e) <= tolerance * max(1.0, abs(e))
        return a == e
    if isinstance(expected, str):
        return isinstance(actual, str) and actual == expected
    return False


def _as_grid(value) -> tuple[tuple[object, ...], ...]:
    if isinstance(value, Array):
        return value.rows
    return ((value,),)


def run_case(case: GoldenCase, depth_limit: int = 1024) -> CaseReport:
    wb = load_workbook(case.workbook_path, depth_limit=depth_limit, trace=TraceSink())
    wb.recalculate()
    actual = _as_grid(wb.evaluate_formula("=" + case.target))
    expected = case.expected
    report = CaseReport(case=case, passed=True)
    if (len(actual), len(actual[0])) != (len(expected), len(expected[0])):
        report.passed = False
        report.diffs.append(
            ("shape", "", f"{len(expected)}x{len(expected[0])}", f"{len(actual)}x{len(actual[0])}")
        )
        return report
    for r, (erow, arow) in enumerate(zip(expected, actual), start=1):
        for c, (e, a) in enumerate(zip(erow, arow), start=1):
            if not cells_match(e, a, case.mode, case.tolerance):
                report.passed = False
                report.diffs.append((r, c, _show(e), _show(a)))
    return report


def _show(v) -> str:
    if v is EMPTY:
        return "<empty>"
    return render_cell(v)


def run_corpus(directory, depth_limit: int = 1024) -> list[CaseReport]:
    return [run_case(case, depth_limit=depth_limit) for case in load_corpus(directory)]
