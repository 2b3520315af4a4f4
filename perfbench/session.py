"""One workload in one process: set-up, calculation, editing session, checks.

Started by ``run.py``; not meant to be run by hand. ``--spawned-at`` is the
parent's ``time.monotonic()`` just before it started this process, so set-up
time counts the interpreter start, ``import gridlambda`` (numpy included) and
input generation. The last line of standard output is one JSON object.

Phases of a full run:

1. calc: ``load_workbook_text`` plus the first ``recalculate()`` on a fresh
   workbook, ``CALC_REPS`` times spread evenly over ``--seconds``, between
   rounds; ``calc_s`` is their median. The machine's speed drifts over tens
   of seconds, so spreading the repetitions steadies their median.
2. session: whole rounds of edits (each followed by ``recalculate()``) and
   reads (``evaluate_formula`` plus ``render_cell`` on every cell of the
   result) on the first repetition's workbook, until ``--seconds`` have
   passed and at least ``MIN_ROUNDS`` rounds are done. The traced run does
   one repetition and exactly ``TRACED_ROUNDS`` rounds instead, so its
   counts repeat for a seed.
3. checks: every operation's output is compared with a computation made
   apart from the engine, outside the timed region. ``peak_rss_mb`` is read
   before the final checks, which may load a second workbook.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"


def p95(samples: list[float]) -> float:
    """Nearest-rank 95th percentile."""
    ordered = sorted(samples)
    return ordered[math.ceil(0.95 * len(ordered)) - 1]


def read_cells(wb, formula: str, values):
    """A read as ``--print`` does it: evaluate, then render every cell."""
    value = wb.evaluate_formula(formula)
    cells = list(value.cells()) if isinstance(value, values.Array) else [value]
    rendered = [values.render_cell(cell) for cell in cells]
    return value, rendered


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.times: dict[tuple[str, bool], list[float]] = {}  # (kind, ok) -> seconds

    def record(self, op, seconds: float, ok: bool) -> None:
        self.attempted += 1
        self.times.setdefault((op.kind, ok), []).append(seconds)
        if not ok:
            self.failed += 1
            if not op.known_fault:
                self.wrong.append(op.label)

    def seconds(self, kind: str) -> list[float]:
        """Times of the operations of ``kind`` that did not fail; of all of
        them when every one failed (the result is then not correct anyway)."""
        return self.times.get((kind, True)) or self.times.get((kind, False), [])


def timed_calc(model, engine):
    t0 = time.perf_counter()
    wb = engine.load_workbook_text(model.text)
    wb.recalculate()
    return wb, time.perf_counter() - t0


def checked(tracer, check, *args):
    """Run a check made apart from the engine, outside the trace."""
    if tracer is None:
        return check(*args)
    with tracer.paused():
        return check(*args)


def run_session(model, pristine, engine, values, tally, tracer, seconds: float) -> tuple:
    """Calculation repetitions spread evenly over the run, between whole
    rounds of edits and reads on the first repetition's workbook. Returns
    that workbook and the calculation times. ``pristine`` is an unedited
    model of the same seed, which checks every fresh workbook."""
    start = time.monotonic()
    reps = 1 if tracer is not None else model.CALC_REPS
    calc_s: list[float] = []
    wb = None
    index = 0
    while True:
        while len(calc_s) < reps and time.monotonic() - start >= len(calc_s) * seconds / reps:
            fresh, elapsed = timed_calc(model, engine)
            calc_s.append(elapsed)
            if tracer is not None:
                tracer.add_sink_counts(fresh.trace)
            tally.wrong.extend(checked(tracer, pristine.check_calc, fresh))
            if wb is None:
                wb = fresh
            del fresh
            # Free a throwaway workbook now rather than at some later
            # collection, so the peak memory does not depend on timing.
            gc.collect()
        if tracer is not None:
            if index >= model.TRACED_ROUNDS:
                return wb, calc_s
        elif index >= model.MIN_ROUNDS and len(calc_s) == reps and time.monotonic() - start >= seconds:
            return wb, calc_s
        for op in model.round(index):
            if op.kind == "edit":
                t0 = time.perf_counter()
                op.run(wb)
                wb.recalculate()
                elapsed = time.perf_counter() - t0
                result = None
            else:
                t0 = time.perf_counter()
                result = read_cells(wb, op.formula, values)
                elapsed = time.perf_counter() - t0
            tally.record(op, elapsed, checked(tracer, op.verify, wb, result))
        index += 1


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    from gridlambda import engine, values  # noqa: E402  (numpy comes with numerics)

    import workloads

    model = workloads.MODELS[args.workload](args.seed)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    tally = Tally()
    pristine = workloads.MODELS[args.workload](args.seed)
    wb, calc_s = run_session(model, pristine, engine, values, tally, tracer, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.add_sink_counts(wb.trace)
        tracer.enabled = False
    tally.wrong.extend(model.final_check(wb))

    for label in tally.wrong[:20]:
        print(f"wrong: {label}", file=sys.stderr)

    if args.trace:
        metrics = tracer.layer_metrics()
        stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace"
        tracer.dump(stem, {"workload": args.workload, "seed": args.seed,
                           "calc_s": calc_s, "rounds": model.TRACED_ROUNDS,
                           "metrics": metrics})
    else:
        edits_ms = [s * 1e3 for s in tally.seconds("edit")]
        reads_us = [s * 1e6 for s in tally.seconds("read")]
        metrics = {
            "setup_s": setup_s,
            "calc_s": statistics.median(calc_s),
            "edit_ms": statistics.median(edits_ms),
            # Only a workload with enough edits has a tail; the others repeat
            # the median here (see README).
            "edit_p95_ms": p95(edits_ms) if model.EDIT_TAIL else statistics.median(edits_ms),
            "read_us": statistics.median(reads_us),
            "read_p95_us": p95(reads_us),
            "peak_rss_mb": peak_rss_mb,
        }
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
