"""arrays: a few cells that hold large arrays, resized by edits.

``A1`` is ``SEQUENCE(N)``; ``B1`` maps it through a LAMBDA to
``MOD(x * mult, modulus)``; the other cells scan, broadcast, filter and
sort, wrap and total by row, and convolve it with a kernel. Edits resize
the arrays (``N``) and change the filter threshold; ``#`` reads go into the
spills. This puts ``values``, ``functions``, ``numerics``
and spill placement of large regions under load, which the other two
workloads leave light.

Every output is compared with Python or numpy: ``np.convolve``, ``sorted``,
``itertools.accumulate`` and closed-form sums.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from . import close, edit, matches, read, round_rng

BASE, SMALL, LARGE = 12000, 9600, 14400  # multiples of WRAP
WRAP = 8
KERNEL_LEN = 24
SCALE = (1.0, 0.5, 0.25)

TEXT = """\
# Large arrays: map, scan, broadcast, filter and sort, wrap, convolve.
name N := {n}
name mult := {mult}
name modulus := {modulus}
name cut := {cut}
name kernel := {{{kernel}}}
A1 := =SEQUENCE(N)
B1 := =MAP(A1#, LAMBDA(x, MOD(x * mult, modulus)))
C1 := =SCAN(0, B1#, LAMBDA(acc, x, acc + x))
D1 := =B1# * {{{scale}}} + A1#
G1 := =SORT(FILTER(B1#, B1# > cut))
H1 := =BYROW(WRAPROWS(B1#, {wrap}), LAMBDA(r, SUM(r)))
I1 := =CONVOLVE(B1#, kernel)
J1 := =SUM(A1#)
J2 := =SUM(H1#)
J3 := =INDEX(C1#, N)
"""


class Arrays:
    """The generator's data and the reference outputs computed from it."""

    def __init__(self, rng):
        self.n = BASE
        self.mult = rng.randint(1000, 9000)
        self.modulus = rng.randint(500, 1000)
        self.cut = self.new_cut(rng)
        self.kernel = self.new_kernel(rng)
        self._ref = None

    def new_cut(self, rng) -> float:
        # About half of B passes the filter whatever the seed, so the
        # FILTER and SORT work does not vary with it.
        return float(round(self.modulus * rng.uniform(0.45, 0.55)))

    @staticmethod
    def new_kernel(rng) -> list[float]:
        return [round(rng.uniform(0.0, 1.0), 4) for _ in range(KERNEL_LEN)]

    def set(self, **changes) -> None:
        for key, value in changes.items():
            setattr(self, key, value)
        self._ref = None

    def text(self) -> str:
        return TEXT.format(
            n=self.n, mult=self.mult, modulus=self.modulus, cut=self.cut,
            kernel="; ".join(map(repr, self.kernel)),
            scale=", ".join(map(repr, SCALE)), wrap=WRAP,
        )

    def ref(self) -> dict:
        if self._ref is None:
            a = np.arange(1, self.n + 1, dtype=np.int64)
            b = (a * self.mult) % self.modulus
            bf = b.astype(np.float64)
            self._ref = {
                "A": a.astype(np.float64),
                "B": bf,
                "C": list(accumulate(bf.tolist())),
                "D": bf[:, None] * np.array(SCALE) + a[:, None],
                "G": sorted(x for x in bf.tolist() if x > self.cut),
                "H": bf.reshape(-1, WRAP).sum(axis=1),
                "I": np.convolve(bf, self.kernel),
                "J1": self.n * (self.n + 1) / 2,
                "J2": float(b.sum()),
            }
        return self._ref


class Model:
    CALC_REPS = 5
    MIN_ROUNDS = 4  # 4 x 60 reads, enough for a 95th percentile
    TRACED_ROUNDS = 2
    EDIT_TAIL = False  # six edits a round: too few for a tail

    def __init__(self, seed: int):
        self.seed = seed
        self.data = Arrays(round_rng(seed, -1, "arrays"))
        self.text = self.data.text()

    def _conv_tol(self) -> float:
        return 1e-9 * float(self.data.modulus * sum(self.data.kernel))

    def _all_ok(self, wb) -> bool:
        ref = self.data.ref()
        spill = lambda col: wb.spill_array("Sheet1", 1, col)  # noqa: E731
        return (
            matches(spill(1), ref["A"], 0.0)
            and matches(spill(2), ref["B"], 0.0)
            and matches(spill(3), ref["C"], 0.0)
            and matches(spill(4), ref["D"], 0.0)
            and matches(spill(7), ref["G"], 0.0)
            and matches(spill(8), ref["H"], 0.0)
            and matches(spill(9), ref["I"], self._conv_tol())
            and close(wb.cell_value("Sheet1", 1, 10), ref["J1"], 0.0)
            and close(wb.cell_value("Sheet1", 2, 10), ref["J2"], 0.0)
            and close(wb.cell_value("Sheet1", 3, 10), ref["J2"], 0.0)
        )

    def check_calc(self, wb) -> list[str]:
        return [] if self._all_ok(wb) else ["arrays after load"]

    def final_check(self, wb) -> list[str]:
        return [] if self._all_ok(wb) else ["arrays at the end"]

    def _edit(self, label, run, **changes):
        def verify(wb) -> bool:
            self.data.set(**changes)
            return self._all_ok(wb)

        return edit(label, run, verify)

    def round(self, index: int):
        """Six edits: four resizes that return ``N`` to BASE, one to BASE
        again and one new filter threshold, so half the edits and all reads
        happen at one size and the median edit is a resize to BASE."""
        rng = round_rng(self.seed, index, "arrays")
        cut = self.data.new_cut(rng)

        def resize(n):
            return self._edit(f"N := {n}", lambda wb: wb.define_name("N", n), n=n)

        ops = [resize(SMALL), resize(BASE), *self._reads(rng)]
        ops += [self._edit(f"cut := {cut}", lambda wb: wb.define_name("cut", cut), cut=cut)]
        ops += self._reads(rng)
        ops += [resize(LARGE), resize(BASE), *self._reads(rng)]
        ops += [resize(BASE), *self._reads(rng)]
        return ops

    def _reads(self, rng):
        """Fifteen reads: three of a few cells, ten INDEXes into the scan's
        spill (each copies the whole spill) and two whole-spill reads that
        render every cell, so the median read lies inside the INDEX group
        and the 95th percentile inside the whole-spill group."""
        ref = self.data.ref
        reads = [read("=J3", lambda v: close(v, ref()["J2"], 0.0))]
        for _ in range(2):
            k = rng.randint(1, BASE - 8)
            reads.append(read(f"=I{k}:I{k + 7}", lambda v, k=k: matches(
                v, ref()["I"][k - 1:k + 7], self._conv_tol())))
        for _ in range(10):
            k = rng.randint(1, BASE)
            reads.append(read(f"=INDEX(C1#, {k})", lambda v, k=k: close(v, ref()["C"][k - 1], 0.0)))
        reads += [read("=C1#", lambda v: matches(v, ref()["C"], 0.0)) for _ in range(2)]
        rng.shuffle(reads)
        return reads
