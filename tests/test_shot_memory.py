"""The shot path's extra memory, as measured by ``tests/shot_memory.py`` at
10^6 shots on a 4x4 table.

``sample`` returns one uint8 table cell per shot, and the tally and the CSV
read those cells as they are, so each stage holds at most that byte per
shot plus fixed-size blocks of scratch. An (n, 2) int64 slot array alone
would take 15.3 MiB, and an (n,) int64 cell array 7.6 MiB.
"""

from shot_memory import MiB, stage_memory


def test_report_and_csv_hold_one_byte_per_shot_plus_fixed_blocks():
    extra = stage_memory()
    assert extra["sample"] <= 2 * MiB
    assert extra["report"] <= 2 * MiB
    assert extra["csv"] <= 4 * MiB
