"""The shot path's memory beyond its (n, 2) int64 result, as measured by
``tests/shot_memory.py`` at 10^6 shots on a 4x4 table.

The tally and the CSV hold one byte per shot (the table cell of each shot)
plus fixed-size blocks of scratch; an (n,) int64 cell array alone would
take 7.6 MiB.
"""

from shot_memory import MiB, stage_memory


def test_report_and_csv_hold_one_byte_per_shot_plus_fixed_blocks():
    extra = stage_memory()
    assert extra["report"] <= 2 * MiB
    assert extra["csv"] <= 4 * MiB
