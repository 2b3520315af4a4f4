"""The benchmark's workloads. Each model is built from a seed alone and hands
the engine only workbook text, edits and read formulas.

A model has ``text`` (the workbook), ``check_calc(wb)`` and
``final_check(wb)`` (each a list of problems, empty when the workbook is
right), ``round(i)`` (the ops of round ``i``, the same ops for the same seed
and ``i``), and the constants ``CALC_REPS``, ``MIN_ROUNDS``,
``TRACED_ROUNDS`` and ``EDIT_TAIL`` that ``session.py`` reads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from gridlambda.values import Array


@dataclass
class Op:
    kind: str  # "edit" or "read"
    label: str
    verify: Callable  # (wb, read result or None) -> bool, run untimed
    run: Callable | None = None  # edits: (wb) -> None, timed with the recalculation
    formula: str = ""  # reads: evaluated and rendered, timed
    known_fault: bool = False  # a failure here is the known fault, counted in `failed`


def edit(label: str, run, verify, known_fault: bool = False) -> Op:
    return Op("edit", label, lambda wb, _result: verify(wb), run=run, known_fault=known_fault)


def read(formula: str, expect) -> Op:
    """A read whose value must satisfy ``expect`` and render cell for cell."""

    def verify(_wb, result) -> bool:
        value, rendered = result
        cells = value.n_rows * value.n_cols if isinstance(value, Array) else 1
        return len(rendered) == cells and expect(value)

    return Op("read", formula, verify, formula=formula)


def round_rng(seed: int, index: int, salt: str) -> random.Random:
    """A generator for one round, independent of how many rounds ran before."""
    return random.Random(f"{salt}:{seed}:{index}")


def is_number(v) -> bool:
    return isinstance(v, float)  # the engine stores every number as a float


def close(v, expected: float, tol: float) -> bool:
    """A number within ``tol`` of ``expected``, relative above magnitude 1."""
    return is_number(v) and abs(v - expected) <= tol * max(1.0, abs(expected))


def as_matrix(v) -> np.ndarray | None:
    """An engine array of numbers as a float matrix, else None."""
    if not isinstance(v, Array) or not all(is_number(c) for c in v.cells()):
        return None
    return np.array(v.rows, dtype=np.float64)


def matches(v, expected, tol: float) -> bool:
    """Same shape, and every cell within ``tol`` (absolute)."""
    got = as_matrix(v)
    want = np.asarray(expected, dtype=np.float64)
    if want.ndim == 1:
        want = want.reshape(-1, 1) if got is None or got.shape[1] == 1 else want.reshape(1, -1)
    return got is not None and got.shape == want.shape and float(np.max(np.abs(got - want))) <= tol


from . import arrays, crane, ledger  # noqa: E402  (they import the helpers above)

MODELS = {"crane": crane.Model, "ledger": ledger.Model, "arrays": arrays.Model}
