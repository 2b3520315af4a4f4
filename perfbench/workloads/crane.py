"""crane: the paper's formula-level RK4 overhead crane, one recalculation at a time.

The workbook is the corpus crane model (``corpus/crane/model.wb``) with
``nSteps`` raised from 1600 to 1700 and a seeded control fraction ``fMid``.
One formula cell integrates the whole trajectory with ``SCANVλ``, a REDUCE
over VSTACK, so almost all the time goes to closure application, LET and
copying the accumulator on every step; the parser and the graph do almost
no work. Edits redefine ``fMid`` as a what-if (the paper's control-fraction
tuning); reads go into the trajectory spill.

Every what-if trajectory is compared with ``numerics.rk4_integrate`` and
``crane_derivative`` at the same fraction: max |diff| < 1e-9, as in AC-7.
"""

from __future__ import annotations

import numpy as np

from gridlambda import numerics

from . import close, edit, matches, read, round_rng

N_STEPS = 1700
DT = 0.005
EPS = 0.1
TOL = 1e-9
SMOOTH = (0.25, 0.5, 0.25)

TEXT = """\
# Overhead crane, RK4 step lambda scanned along the time vector.
name δt := {dt}
name nSteps := {n_steps}
name ε := {eps}
name fMid := {f_mid!r}
name SCANVλ := =LAMBDA(x0, steps, fnλ, REDUCE(x0, steps, LAMBDA(acc, t, VSTACK(acc, fnλ(TAKE(acc, -1), t)))))
name RK4Stepλ := =LAMBDA(D, LAMBDA(xr, tr, LET(δx1, δt * D(xr, tr), δx2, δt * D(xr + δx1 / 2, tr + δt / 2), δx3, δt * D(xr + δx2 / 2, tr + δt / 2), δx4, δt * D(xr + δx3, tr + δt), xNext, xr + (δx1 + 2 * δx2 + 2 * δx3 + δx4) / 6, xNext)))
name Dλ := =LAMBDA(x, t, LET(ϑ, INDEX(x, 2), v, INDEX(x, 3), q, INDEX(x, 4), u, IF(t < 2, 1, IF(t < 4, -fMid, IF(t < 6, fMid, IF(t < 8, -1, 0)))), HSTACK(v, q, ε * ϑ + u, -ϑ - u)))
name X0 := {{0,0,0,0}}
A1 := =SCANVλ(X0, SEQUENCE(nSteps, , 0, δt), RK4Stepλ(Dλ))
F1 := =TAKE(A1#, -1)
"""

COLS = "ABCD"
# Reads per round, 40 in all. INDEX into the spill is the common read, so
# the median read lies well inside that group; whole-trajectory reads are
# 12.5 % of them, so the 95th percentile lies inside theirs.
INDEX_READS = 22
CELL_READS = 6
ROW_READS = 4
WHOLE_READS = 5


def native_trajectory(fraction: float) -> np.ndarray:
    profile = numerics.ControlProfile(fraction=fraction, eps=EPS)
    return numerics.rk4_integrate(
        np.zeros(4), 0.0, numerics.RK4Config(dt=DT, steps=N_STEPS),
        lambda x, t: numerics.crane_derivative(x, t, profile),
    )


def crane_text(n_steps: int, fraction: float) -> str:
    return TEXT.format(dt=DT, n_steps=n_steps, eps=EPS, f_mid=fraction)


def fraction_for(rng) -> float:
    return round(rng.uniform(0.05, 0.45), 6)


class Model:
    CALC_REPS = 5
    MIN_ROUNDS = 5  # 5 x 40 reads, enough for a 95th percentile
    TRACED_ROUNDS = 3
    EDIT_TAIL = False  # one edit per round: too few for a tail

    def __init__(self, seed: int):
        self.seed = seed
        self.fraction = fraction_for(round_rng(seed, -1, "crane"))
        self.text = crane_text(N_STEPS, self.fraction)
        self._trajectories: dict[float, np.ndarray] = {}

    def trajectory(self) -> np.ndarray:
        traj = self._trajectories.get(self.fraction)
        if traj is None:
            traj = self._trajectories[self.fraction] = native_trajectory(self.fraction)
        return traj

    def _spill_ok(self, wb) -> bool:
        traj = self.trajectory()
        return matches(wb.spill_array("Sheet1", 1, 1), traj, TOL) and matches(
            wb.spill_array("Sheet1", 1, 6), traj[-1:], TOL
        )

    def check_calc(self, wb) -> list[str]:
        return [] if self._spill_ok(wb) else [f"crane trajectory at fMid={self.fraction}"]

    def final_check(self, wb) -> list[str]:
        return self.check_calc(wb)

    def round(self, index: int):
        rng = round_rng(self.seed, index, "crane")
        fraction = fraction_for(rng)

        def run(wb):
            wb.define_name("fMid", f"={fraction!r}")

        def verify(wb) -> bool:
            self.fraction = fraction
            return self._spill_ok(wb)

        ops = [edit(f"fMid := {fraction}", run, verify)]
        traj = lambda: self.trajectory()  # noqa: E731  (read after the edit above)
        reads = [read("=A1#", lambda v: matches(v, traj(), TOL)) for _ in range(WHOLE_READS)]
        reads += [
            read(
                "=CONVOLVE(TAKE(DROP(A1#, , 1), , 1), {0.25; 0.5; 0.25})",
                lambda v: matches(v, np.convolve(traj()[:, 1], SMOOTH), TOL),
            ),
            read("=F1#", lambda v: matches(v, traj()[-1:], TOL)),
            read("=fMid", lambda v: close(v, fraction, 0.0)),
        ]
        for _ in range(INDEX_READS):
            r, c = rng.randint(1, N_STEPS + 1), rng.randint(1, 4)
            reads.append(read(f"=INDEX(A1#, {r}, {c})",
                              lambda v, r=r, c=c: close(v, traj()[r - 1, c - 1], TOL)))
        for _ in range(CELL_READS):
            r, c = rng.randint(1, N_STEPS + 1), rng.randint(1, 4)
            reads.append(read(f"={COLS[c - 1]}{r}",
                              lambda v, r=r, c=c: close(v, traj()[r - 1, c - 1], TOL)))
        for _ in range(ROW_READS):
            r = rng.randint(1, N_STEPS + 1)
            reads.append(read(f"=A{r}:D{r}", lambda v, r=r: matches(v, traj()[r - 1:r], TOL)))
        rng.shuffle(reads)
        return ops + reads
