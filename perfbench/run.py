"""gridlambda benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload crane|ledger|arrays --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Each run starts the workload in its own process (``session.py``), waits for
it and prints, as the last line of standard output, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones of a traced run, whose spans go to ``.perfbench-out/``.

``setup_s`` is the median over SETUP_PROBES extra processes that stop after
set-up, plus the full run's own set-up; one more probe first warms the
byte-code and file caches and is not counted. The exit status is 0 only
when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("crane", "ledger", "arrays")
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 170  # all children together, so the run ends within 180 s


class ChildFailed(RuntimeError):
    pass


def run_child(argv: list[str], timeout: float) -> dict:
    """Start session.py, wait for it and return its last stdout line as JSON."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "session.py"), *argv, "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=timeout, text=True)
    except subprocess.TimeoutExpired as exc:  # subprocess.run kills and reaps the child
        raise ChildFailed(f"{' '.join(argv)}: no result within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{' '.join(argv)}: exit status {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        setups = []
        if not args.trace:
            for probe in range(SETUP_PROBES + 1):
                result = run_child([*common, "--setup-only"], deadline - time.monotonic())
                if probe:
                    setups.append(result["setup_s"])
        argv = [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
        result = run_child(argv, deadline - time.monotonic())
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    metrics = result["metrics"]
    if not args.trace:
        setups.append(metrics["setup_s"])
        metrics["setup_s"] = statistics.median(setups)
    out = {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": out,
    }))
    return 0


def unit(name: str) -> str:
    """Every metric name ends in its unit, except counts."""
    for suffix, u in (("_s", "s"), ("_ms", "ms"), ("_us", "us"), ("_mb", "MB")):
        if name.endswith(suffix):
            return u
    return "count"


if __name__ == "__main__":
    sys.exit(main())
