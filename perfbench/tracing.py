"""Spans around the calls into gridlambda's modules, for the traced run only.

``install()`` replaces module attributes and class methods of the already
imported package with timing wrappers; nothing in ``src/`` knows about it.
Each wrapper opens a span: its kind, its parent span, start and end on
``time.perf_counter`` and its self time (duration minus the time its direct
children cover). Spans live in compact in-memory arrays and are written out
once, by ``Tracer.dump``, when the run ends.

The engine runs every evaluation entry point on a fresh ``gridlambda-eval``
thread while the caller blocks in ``join``. The wrapper around
``engine.run_deep`` hands the caller's span stack to that thread, so spans
opened there become children of the ``recalculate`` or ``evaluate_formula``
span that started it.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import threading
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from gridlambda import engine, evaluator, functions, numerics, parser, values

# A span kind is "<module>.<function>"; these engine kinds make up the
# wiring and entry-point metrics.
ENGINE_WIRE = (
    "engine.load_workbook_text",
    "engine.set_cell",
    "engine.define_name",
    "engine.clear_cell",
)
ENGINE_ENTRY = ("engine.recalculate", "engine.evaluate_formula")


class Tracer:
    def __init__(self):
        self.kinds: list[str] = []
        self._kind_ids: dict[str, int] = {}
        # One entry per closed span, appended when the span ends.
        self.ids = array("q")
        self.parents = array("q")
        self.kind_of = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.selfs = array("d")
        self.counters: dict[str, int] = {}
        self.enabled = True
        self._next_id = 0
        self._local = threading.local()

    # -- recording

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def kind_id(self, kind: str) -> int:
        kid = self._kind_ids.get(kind)
        if kid is None:
            kid = self._kind_ids[kind] = len(self.kinds)
            self.kinds.append(kind)
        return kid

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, kind: str, fn, after=None):
        """``fn`` timed as a span of ``kind``; ``after(result, args)`` may
        add counters once the call returns."""
        kid = self.kind_id(kind)

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            span_id = self._next_id
            self._next_id += 1
            frame = [0.0, span_id]  # [time covered by direct children, id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                self.ids.append(span_id)
                self.parents.append(stack[-1][1] if stack else -1)
                self.kind_of.append(kid)
                self.starts.append(start)
                self.ends.append(end)
                self.selfs.append(duration - frame[0])
            if after is not None:
                after(result, args)
            return result

        return traced

    def add_sink_counts(self, sink) -> None:
        """Add a workbook's ``TraceSink`` counters (name and LET evaluations)."""
        for key, n in sink.counters.items():
            scope = key.split(":", 1)[0]
            self.count(f"evaluator.{scope}_evals", n)

    @contextmanager
    def paused(self):
        """Run checks made apart from the engine without recording them."""
        was = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = was

    # -- results

    def _self_by_kind(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {k: [] for k in self.kinds}
        for kid, s in zip(self.kind_of, self.selfs):
            out[self.kinds[kid]].append(s)
        return out

    def layer_metrics(self) -> dict[str, float]:
        by_kind = self._self_by_kind()

        def total(pred) -> float:
            return sum(sum(v) for k, v in by_kind.items() if pred(k))

        def calls(kind: str) -> int:
            return len(by_kind.get(kind, ()))

        entry = [s for k in ENGINE_ENTRY for s in by_kind.get(k, ())]
        c = self.counters.get
        return {
            "parser.self_s": total(lambda k: k.startswith("parser.")),
            "parser.formulas": calls("parser.parse_formula"),
            "parser.tokens": c("parser.tokens", 0),
            "engine.wire_s": total(lambda k: k in ENGINE_WIRE),
            "engine.recalc_self_s": total(lambda k: k == "engine.recalculate"),
            "engine.entry_us": statistics.median(entry) * 1e6 if entry else 0.0,
            "engine.cells_evaluated": c("engine.cells_evaluated", 0),
            "engine.passes": c("engine.passes", 0),
            "engine.spill_placements": c("engine.spill_placements", 0),
            "evaluator.self_s": total(lambda k: k.startswith("evaluator.")),
            "evaluator.closure_calls": c("evaluator.closure_calls", 0),
            "evaluator.name_evals": c("evaluator.name_evals", 0),
            "evaluator.let_evals": c("evaluator.let_evals", 0),
            "functions.self_s": total(lambda k: k.startswith("functions.")),
            "functions.calls": sum(calls(k) for k in by_kind if k.startswith("functions.")),
            "values.array_cells": c("values.array_cells", 0),
            "values.array_s": total(lambda k: k == "values.Array"),
            "values.render_s": total(lambda k: k == "values.render_cell"),
            "numerics.self_s": total(lambda k: k.startswith("numerics.")),
        }

    def dump(self, stem: Path, extra: dict) -> None:
        """Write the spans (one binary file of six columns) and a JSON header."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(stem.with_suffix(".spans"), "wb") as fh:
            for column in (self.ids, self.parents, self.kind_of, self.starts, self.ends, self.selfs):
                column.tofile(fh)
        header = {
            "spans": len(self.ids),
            "columns": [
                ["id", self.ids.typecode],
                ["parent", self.parents.typecode],
                ["kind", self.kind_of.typecode],
                ["start_s", self.starts.typecode],
                ["end_s", self.ends.typecode],
                ["self_s", self.selfs.typecode],
            ],
            "kinds": self.kinds,
            "counters": self.counters,
            **extra,
        }
        stem.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the package's entry points; call once, in the traced process only."""
    wrap = tracer.wrap

    tokenize = wrap(
        "parser.tokenize",
        parser.tokenize,
        lambda tokens, _args: tracer.count("parser.tokens", len(tokens)),
    )
    parse = wrap("parser.parse_formula", parser.parse_formula)
    parser.tokenize = engine.tokenize = tokenize
    parser.parse_formula = engine.parse_formula = parse

    def add_report(report, _args):
        tracer.count("engine.cells_evaluated", report.evaluated)
        tracer.count("engine.passes", report.passes)
        tracer.count("engine.spill_placements", report.placements)

    book = engine.Workbook
    for name in ("set_cell", "define_name", "clear_cell", "evaluate_formula"):
        setattr(book, name, wrap(f"engine.{name}", getattr(book, name)))
    book.recalculate = wrap("engine.recalculate", book.recalculate, add_report)
    engine.load_workbook_text = wrap("engine.load_workbook_text", engine.load_workbook_text)

    run_deep = engine.run_deep

    def run_deep_in_span(fn, depth_limit=1024):
        stack = tracer._stack()

        def inherit():
            tracer._local.stack = stack  # the caller blocks in join meanwhile
            return fn()

        return run_deep(inherit, depth_limit)

    engine.run_deep = run_deep_in_span

    # The engine's calls into the evaluator; the evaluator's own recursion
    # into ``evaluate`` stays inside that span.
    engine.evaluate = wrap("evaluator.evaluate", evaluator.evaluate)

    # Builtins such as MAP, SCAN and REDUCE call back into the evaluator
    # through apply_closure; spanning it keeps that work in the evaluator.
    apply_closure = wrap(
        "evaluator.apply_closure",
        evaluator.apply_closure,
        lambda _value, _args: tracer.count("evaluator.closure_calls"),
    )
    evaluator.apply_closure = functions.apply_closure = apply_closure

    for key, builtin in list(evaluator.BUILTINS.items()):
        impl = wrap(f"functions.{builtin.name}", builtin.impl)
        evaluator.BUILTINS[key] = dataclasses.replace(builtin, impl=impl)

    numerics.convolve_fft = wrap("numerics.convolve_fft", numerics.convolve_fft)

    values.Array.__init__ = wrap(
        "values.Array",
        values.Array.__init__,
        lambda _none, args: tracer.count("values.array_cells", args[0].n_rows * args[0].n_cols),
    )
    values.render_cell = wrap("values.render_cell", values.render_cell)
