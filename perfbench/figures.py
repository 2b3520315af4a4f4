"""Reference figures for the benchmark README.

    python3 perfbench/figures.py spread   [--runs 10] [--seconds 30] [--pause 60]
    python3 perfbench/figures.py scaling
    python3 perfbench/figures.py overhead [--runs 3] [--seconds 30]

``spread`` starts two sets of runs of every workload, one after the other
and ``--pause`` seconds apart, with seeds 1..runs in the first set and
101..100+runs in the second. For each workload and end-to-end metric it
prints each set's median and quartiles, the quartile spread as a share of
the median, the second median against the first, and the share of failed
operations in each set.

``scaling`` prints the share of ledger formulas that are identical up to
relative references, then times ``load_workbook_text`` plus the first
``recalculate()`` (median of three, each size in a fresh process) for the
crane at 400, 1600 and 3200 steps and the ledger at 4 and 8 sheets, so that
growth worse than linear shows.

``overhead`` compares ``calc_s`` of traced runs with untraced ones.

Run from the root of a checkout; raw results go to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("crane", "ledger", "arrays")
E2E = ("setup_s", "calc_s", "edit_ms", "edit_p95_ms", "read_us", "read_p95_us", "peak_rss_mb")


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def cmd_spread(args) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    raw = OUT_DIR / f"spread-{int(time.time())}.jsonl"
    sets: list[dict] = []
    for n, first_seed in enumerate((1, 101)):
        if n:
            time.sleep(args.pause)
        results = {w: [] for w in args.workloads}
        for w in args.workloads:
            for seed in range(first_seed, first_seed + args.runs):
                r = bench(w, seed, args.seconds, 0)
                results[w].append(r)
                with open(raw, "a") as fh:
                    fh.write(json.dumps({"set": n + 1, "workload": w, "seed": seed, **r}) + "\n")
        sets.append(results)
    print(f"{args.runs} runs a set, {args.seconds} s each; raw results in {raw.relative_to(ROOT)}")
    print(f"{'workload':8} {'metric':12} {'set':>3} {'q1':>10} {'median':>10} {'q3':>10} {'spread':>7} {'shift':>7}")
    for w in args.workloads:
        for metric in E2E:
            base = None
            for n, results in enumerate(sets):
                q1, med, q3 = quartiles([r["metrics"][metric]["value"] for r in results[w]])
                shift = "" if base is None else f"{med / base - 1:+7.1%}"
                base = med if base is None else base
                print(f"{w:8} {metric:12} {n + 1:>3} {q1:10.4g} {med:10.4g} {q3:10.4g} "
                      f"{(q3 - q1) / med:7.1%} {shift:>7}")
        for n, results in enumerate(sets):
            att = sum(r["attempted"] for r in results[w])
            fail = sum(r["failed"] for r in results[w])
            shares = sorted({f"{r['failed']}/{r['attempted']}" for r in results[w]})
            ok = all(r["correct"] for r in results[w])
            print(f"{w:8} failed share, set {n + 1}: {fail / att:.6f} (correct: {ok}; per run {', '.join(shares[:4])}...)")


def calc_once(workload: str, size: int) -> None:
    """Child of ``scaling``: time load plus first recalculation three times."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from gridlambda import engine
    from workloads import crane, ledger

    if workload == "crane":
        text = crane.crane_text(size, 0.175)
    else:
        import random

        text = ledger.Ledger(random.Random(1), sheets=size).text()
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        engine.load_workbook_text(text).recalculate()
        times.append(time.perf_counter() - t0)
    print(json.dumps({"calc_s": statistics.median(times)}))


def cmd_scaling(_args) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import random

    from workloads import ledger

    formulas, share = ledger.relative_share(ledger.Ledger(random.Random(1)).cells())
    print(f"ledger: {formulas} formulas, {share:.2%} share their relative (R1C1) form with another")
    cases = [("crane", 400, "steps"), ("crane", 1600, "steps"), ("crane", 3200, "steps"),
             ("ledger", 4, "sheets"), ("ledger", 8, "sheets")]
    base: dict[str, tuple[int, float]] = {}
    for workload, size, unit in cases:
        out = subprocess.run([sys.executable, __file__, "_calc", workload, str(size)],
                             stdout=subprocess.PIPE, text=True, check=True).stdout
        calc = json.loads(out.strip().splitlines()[-1])["calc_s"]
        size0, calc0 = base.setdefault(workload, (size, calc))
        print(f"{workload:7} {size:5} {unit:6} calc_s {calc:8.3f}   "
              f"x{size / size0:<4g} size -> x{calc / calc0:.2f} time")


def cmd_overhead(args) -> None:
    for w in args.workloads:
        plain, traced = [], []
        for seed in range(1, args.runs + 1):
            plain.append(bench(w, seed, args.seconds, 0)["metrics"]["calc_s"]["value"])
            bench(w, seed, args.seconds, 1)
            header = json.loads((OUT_DIR / f"{w}-seed{seed}-trace.json").read_text())
            traced.append(header["calc_s"][0])
        p, t = statistics.median(plain), statistics.median(traced)
        print(f"{w:7} untraced calc_s {p:.3f}  traced {t:.3f}  overhead {t / p - 1:+.0%}")


def main() -> None:
    if len(sys.argv) == 4 and sys.argv[1] == "_calc":
        calc_once(sys.argv[2], int(sys.argv[3]))
        return
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("--runs", type=int, default=10)
    sp.add_argument("--seconds", type=int, default=30)
    sp.add_argument("--pause", type=float, default=60.0)
    sp.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    sub.add_parser("scaling")
    ov = sub.add_parser("overhead")
    ov.add_argument("--runs", type=int, default=3)
    ov.add_argument("--seconds", type=int, default=30)
    ov.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    args = ap.parse_args()
    {"spread": cmd_spread, "scaling": cmd_scaling, "overhead": cmd_overhead}[args.cmd](args)


if __name__ == "__main__":
    main()
