"""Measure the extra memory of each stage of the shot path.

    PYTHONPATH=src python tests/shot_memory.py

Draws 10^6 shots from the dim4-mixed table (4x4, spectra 1..4 and 5..8)
with ``sample``, tallies them with ``empirical_report`` and writes their CSV
to the null device with ``write_shot_csv``. Each stage runs once on a few shots as a warm-up, then
once at full size under ``tracemalloc``, which also sees numpy's array
buffers. A stage's extra memory is its traced peak less what was traced
when it began; for ``sample`` that includes its (n,) uint8 result of table
cells. Prints one line per stage, in MiB and in bytes per shot.
"""

from __future__ import annotations

import os
import tracemalloc

from contextsim.correlations import joint_distribution
from contextsim.sampler import empirical_report, sample, write_shot_csv
from contextsim.scenarios import SCENARIOS

SHOTS = 10**6
WARM_UP_SHOTS = 1000
MiB = 1 << 20


def dim4_table():
    scenario = SCENARIOS["dim4-mixed"]
    return joint_distribution(scenario.state(), *scenario.contexts((1, 2, 3, 4), (5, 6, 7, 8)))


def _stages(table, n):
    shots = sample(table, n, seed=1)
    yield "sample", lambda: sample(table, n, seed=1)
    yield "report", lambda: empirical_report(shots, table)
    yield "csv", lambda: write_shot_csv(shots, table, os.devnull)


def stage_memory() -> dict[str, int]:
    """Extra bytes traced by each stage at ``SHOTS`` shots, after a warm-up."""
    table = dim4_table()
    for _, call in _stages(table, WARM_UP_SHOTS):
        call()
    extra = {}
    tracemalloc.start()
    try:
        for name, call in _stages(table, SHOTS):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            call()
            extra[name] = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return extra


def main() -> None:
    print(f"{'stage':<8} {'extra MiB':>10} {'B/shot':>8}   ({SHOTS} shots, dim4-mixed)")
    for name, size in stage_memory().items():
        print(f"{name:<8} {size / MiB:>10.2f} {size / SHOTS:>8.2f}")


if __name__ == "__main__":
    main()
