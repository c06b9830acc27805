"""Time a shot CSV rewritten over one path against one written to a new path.

    PYTHONPATH=src python tests/csv_rewrite.py [SHOTS [DIRECTORY]]

Writes the CSV of SHOTS (default 10^6) dim4-mixed shots with ``write_shot_csv``
15 times over one path, then 15 times into a path that did not exist, in a
temporary directory under DIRECTORY (default the system's). Prints the median
milliseconds of each and, from ``/proc/mounts``, the directory's mount. It
gates nothing: a rewrite that costs clearly more than a new file shows a file
system that flushes the replaced file.
"""

from __future__ import annotations

import statistics
import sys
import tempfile
import time
from pathlib import Path

from contextsim.sampler import sample, write_shot_csv
from shot_memory import SHOTS, dim4_table

REPEATS = 15


def median_ms(shots: int, directory: str | None) -> dict[str, float]:
    """Median milliseconds of a rewrite over one path and of a new file."""
    table = dim4_table()
    cells = sample(table, shots, seed=1)

    def ms(path: Path) -> float:
        start = time.perf_counter()
        write_shot_csv(cells, table, path)
        return 1e3 * (time.perf_counter() - start)

    with tempfile.TemporaryDirectory(dir=directory) as tmp:
        again, new = Path(tmp) / "shots.csv", Path(tmp) / "new.csv"
        ms(again)
        rewrite = [ms(again) for _ in range(REPEATS)]
        fresh = []
        for _ in range(REPEATS):
            fresh.append(ms(new))
            new.unlink()
    return {"rewrite": statistics.median(rewrite), "new file": statistics.median(fresh)}


def mount(directory: str | None) -> str:
    """The mount point, type and options of the file system that holds ``directory``."""
    if not Path("/proc/mounts").exists():
        return "unknown (no /proc/mounts)"
    where = Path(directory or tempfile.gettempdir()).resolve()
    entries = [line.split() for line in Path("/proc/mounts").read_text().splitlines()]
    _, point, kind, options, *_ = max((e for e in entries if where.is_relative_to(e[1])), key=lambda e: len(e[1]))
    return f"{point} {kind} {options}"


def main(argv: list[str]) -> None:
    shots, directory = int(argv[0]) if argv else SHOTS, argv[1] if len(argv) > 1 else None
    for name, ms in median_ms(shots, directory).items():
        print(f"{name:<9} {ms:>8.2f} ms  (median of {REPEATS}, {shots} shots, dim4-mixed)")
    print(f"mount     {mount(directory)}")


if __name__ == "__main__":
    main(sys.argv[1:])
