"""The benchmark's workloads: one ``lmglab`` CLI invocation each.

Seed 0 gives the grids exactly as listed.  Any other seed shifts the h grid
by a seeded fraction of one step (less than a quarter of it either way),
keeping the point count and the span, so a claim can be rechecked on inputs
it was not tuned on.  Only the h grid moves: system sizes, subsystem sizes,
tau grids, methods and formats stay fixed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]  # CLI arguments without the h grid, --jobs and --out
    h_range: tuple[float, float, int] | None = None  # --h-start/--h-stop/--h-count
    h_list: tuple[float, ...] | None = None  # --h-list
    jobs: int | None = None  # None leaves --jobs at the CLI default

    def h_step(self) -> float:
        if self.h_range is not None:
            start, stop, count = self.h_range
            return (stop - start) / (count - 1)
        return min(b - a for a, b in zip(self.h_list, self.h_list[1:]))

    def argv(self, seed: int) -> list[str]:
        """CLI arguments for one run at ``seed``, without ``--out``."""
        shift = 0.0
        if seed != 0:
            shift = (random.Random(seed).random() - 0.5) * 0.5 * self.h_step()
        argv = list(self.args)
        if self.h_range is not None:
            start, stop, count = self.h_range
            argv += ["--h-start", repr(start + shift), "--h-stop", repr(stop + shift),
                     "--h-count", str(count)]
        else:
            argv += ["--h-list", ",".join(repr(h + shift) for h in self.h_list)]
        if self.jobs is not None:
            argv += ["--jobs", str(self.jobs)]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's headline figure, run as users run it: --jobs at its
        # default, so the process pool runs with worker BLAS threads as
        # inherited.  Not in BENCHMARK.json: with two workers each spinning
        # BLAS threads on two cores, one run took 16 s to 39 s, so no bound
        # could gate it without pinning the BLAS threads.
        Workload(
            "fig1-default",
            ("sweep-h", "--gamma", "0.5", "--tau", "0.5", "--n", "64,128,256,512",
             "--methods", "finite-difference,analytic",
             "--formats", "csv,json,plotscript"),
            h_range=(0.8, 1.2, 41),
        ),
        # The same figure at --jobs 1, which keeps the analytic closed forms
        # and the gnuplot writer in the gated workloads; the pool is bypassed.
        Workload(
            "fig1-serial",
            ("sweep-h", "--gamma", "0.5", "--tau", "0.5", "--n", "64,128,256,512",
             "--methods", "finite-difference,analytic",
             "--formats", "csv,json,plotscript"),
            h_range=(0.8, 1.2, 41),
            jobs=1,
        ),
        # The reduction does almost all the work: the lag loop and the exact
        # binomial tables at N = 2048.  Broken, near-critical and symmetric h,
        # so the ground state's support width differs between the points.
        # Not in BENCHMARK.json: one run takes about 17 s, so a run of the
        # benchmark holds one or two of them, and their median spread by 11 %
        # between runs.
        Workload(
            "large-n",
            ("sweep-h", "--gamma", "0.5", "--tau", "0.5", "--n", "2048",
             "--methods", "finite-difference", "--formats", "csv,json"),
            h_list=(0.9, 0.99, 1.1),
            jobs=1,
        ),
        # M runs from N/10 to N, and the spectral route never calls the
        # Uhlmann fidelity and decomposes one rho_A per point.
        Workload(
            "tau-spectral",
            ("sweep-tau", "--gamma", "0.5", "--n", "128,256,512",
             "--tau-start", "0.1", "--tau-stop", "1.0", "--tau-count", "10",
             "--methods", "spectral", "--formats", "csv,json"),
            h_list=(0.6, 0.9, 1.0, 1.1),
            jobs=1,
        ),
        # M = 1: the reduction's hot loop is trivial, so the Hamiltonian
        # solves and the one-off binomial tables at N = 4096 carry the run.
        Workload(
            "single-spin",
            ("sweep-h", "--gamma", "0.5", "--m", "1", "--n", "1024,4096",
             "--methods", "finite-difference", "--formats", "csv,json"),
            h_range=(0.5, 1.5, 41),
            jobs=1,
        ),
    )
}
