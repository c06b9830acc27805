"""Tests for the seeded shot sampler and empirical reporting."""

import math
import os
import stat

import numpy as np
import pytest

from contextsim import sampler
from contextsim.correlations import JointTable, joint_distribution
from contextsim.errors import ShapeMismatchError
from contextsim.observables import ks_context, ks_context_prime
from contextsim.sampler import (
    derive_batch_seed,
    empirical_report,
    sample,
    write_shot_csv,
)
from contextsim.states import spin1_singlet


def mixed_table():
    return joint_distribution(spin1_singlet(), ks_context(1, 2, 3), ks_context_prime(4, 5, 6))


def degenerate_table():
    p = np.zeros((3, 3))
    p[0, 0] = 1.0
    spectrum = tuple(float(k) for k in range(3))
    return JointTable(left_spectrum=spectrum, right_spectrum=spectrum, probabilities=p)


def test_zero_shots_gives_empty_array():
    for batches in (1, 3):
        shots = sample(mixed_table(), 0, seed=1, batches=batches)
        assert shots.shape == (0,) and shots.dtype == np.uint8


def test_same_seed_reproduces_the_stream():
    table = mixed_table()
    assert np.array_equal(sample(table, 500, seed=99), sample(table, 500, seed=99))


@pytest.mark.parametrize("batches", [1, 3])
def test_draw_block_size_leaves_the_stream_unchanged(monkeypatch, batches):
    table = mixed_table()
    whole = sample(table, 1000, seed=5, batches=batches)
    monkeypatch.setattr(sampler, "_DRAW_BLOCK", 7)
    assert np.array_equal(sample(table, 1000, seed=5, batches=batches), whole)


def test_different_seeds_differ():
    table = mixed_table()
    assert not np.array_equal(sample(table, 500, seed=1), sample(table, 500, seed=2))


def test_degenerate_table_always_draws_the_certain_cell():
    shots = sample(degenerate_table(), 50, seed=7)
    assert shots.shape == (50,)
    assert (shots == 0).all()


def test_forbidden_cells_never_drawn():
    table = mixed_table()
    records = sample(table, 100_000, seed=5)
    report = empirical_report(records, table)
    for i, j in ((0, 1), (0, 2), (1, 0), (2, 0)):
        assert report.counts[i, j] == 0


def test_single_shot_has_one_count():
    table = mixed_table()
    report = empirical_report(sample(table, 1, seed=3), table)
    assert report.counts.sum() == 1
    assert np.count_nonzero(report.counts) == 1


def test_large_run_frequencies_converge():
    table = mixed_table()
    n = 1_000_000
    report = empirical_report(sample(table, n, seed=12345), table)
    assert report.total_shots == n
    # 10 sigma binomial bound with sigma <= 0.5/sqrt(n)
    assert report.max_abs_deviation < 5e-3


def test_deviation_shrinks_with_sample_size():
    table = mixed_table()
    for n in (1_000, 10_000, 100_000):
        report = empirical_report(sample(table, n, seed=8), table)
        assert report.max_abs_deviation < 10.0 * 0.5 / np.sqrt(n)


def test_report_counts_match_frequencies():
    table = mixed_table()
    records = sample(table, 1000, seed=21)
    report = empirical_report(records, table)
    assert report.counts.sum() == 1000
    assert np.allclose(report.frequencies, report.counts / 1000)


def test_report_rejects_out_of_range_records():
    # A 3x3 table has cells 0-8. Float cells are refused, not truncated to
    # the cells 0 and 7, and so is an (n, 2) array of slot pairs.
    for shots in (np.array([9]), np.array([0.9, 7.5]), np.array([[2, 0]])):
        with pytest.raises(ShapeMismatchError):
            empirical_report(shots, mixed_table())


def test_batched_stream_is_deterministic_and_seed_dependent():
    table = mixed_table()
    a = sample(table, 1001, seed=42, batches=4)
    b = sample(table, 1001, seed=42, batches=4)
    assert np.array_equal(a, b)
    assert a.shape == (1001,)
    assert not np.array_equal(sample(table, 1001, seed=42, batches=2), a)


def test_batch_seed_mixing_spreads_seeds():
    seeds = {derive_batch_seed(42, b) for b in range(64)}
    assert len(seeds) == 64
    assert all(0 <= s < 2**64 for s in seeds)


def test_csv_export(tmp_path):
    table = mixed_table()
    records = sample(table, 10, seed=4)
    path = tmp_path / "shots.csv"
    write_shot_csv(records, table, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "shot,left_slot,left_eigenvalue,right_slot,right_eigenvalue"
    assert len(lines) == 11
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[2]) == table.left_spectrum[int(first[1])]

    again = tmp_path / "again.csv"
    write_shot_csv(sample(table, 10, seed=4), table, again)
    assert path.read_bytes() == again.read_bytes()


def test_zero_shot_csv_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_shot_csv(np.empty(0, dtype=np.uint8), mixed_table(), path)
    assert path.read_text().splitlines() == [
        "shot,left_slot,left_eigenvalue,right_slot,right_eigenvalue"
    ]


def test_an_empty_run_has_no_deviation():
    # No shot, no frequency to compare: the deviation is None (JSON null), not nan.
    report = empirical_report(np.empty(0, dtype=np.uint8), mixed_table())
    assert report.total_shots == 0
    assert not report.counts.any()
    assert report.max_abs_deviation is None


@pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan, math.inf])
def test_a_negative_or_non_finite_threshold_is_rejected(tol):
    table = joint_distribution(spin1_singlet(), ks_context(1, 2, 3), ks_context(4, 5, 6))
    with pytest.raises(ValueError, match="support threshold must be finite and nonnegative"):
        sample(table, 10, 1, support_threshold=tol)


@pytest.mark.parametrize("tol", [0.0, -0.0])
def test_a_zero_threshold_of_either_sign_drops_only_exact_zeros(tol):
    table = joint_distribution(spin1_singlet(), ks_context(1, 2, 3), ks_context(4, 5, 6))
    shots = sample(table, 1000, 1, support_threshold=tol)
    assert np.array_equal(np.unique(shots), np.flatnonzero(table.probabilities > 0.0))


def test_batch_loop_is_bounded_by_the_shots():
    table = mixed_table()
    shots = sample(table, 5, seed=1, batches=10**12)
    assert shots.shape == (5,)
    assert np.array_equal(shots, sample(table, 5, seed=1, batches=5))


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_is_rejected(seed):
    with pytest.raises(ValueError, match="seed"):
        sample(mixed_table(), 10, seed=seed, batches=2)


@pytest.mark.parametrize("n", [0, 10])
def test_threshold_above_every_cell_is_rejected(n):
    with pytest.raises(ValueError, match="support threshold"):
        sample(mixed_table(), n, seed=1, support_threshold=0.5)


@pytest.mark.parametrize("n", [0, 10])
def test_threshold_that_drops_probability_mass_is_rejected(n):
    # Every ks-mixed cell above 0.2 is (0, 0), at 1/3: the other 2/3 would
    # have been drawn as (0, 0).
    with pytest.raises(ValueError, match="hold probability 0.666667, above NORMALIZATION_TOL"):
        sample(mixed_table(), n, seed=1, support_threshold=0.2)


def fresh_csv(tmp_path, shots, table) -> bytes:
    """The CSV bytes as written to a path that did not exist before."""
    path = tmp_path / "fresh.csv"
    assert not path.exists()
    write_shot_csv(shots, table, path)
    return path.read_bytes()


@pytest.mark.parametrize("old_shots", [3 * 10**5, 3], ids=["longer-file", "shorter-file"])
def test_overwriting_a_csv_leaves_exactly_the_new_one(tmp_path, old_shots):
    table = mixed_table()
    path = tmp_path / "shots.csv"
    write_shot_csv(sample(table, old_shots, seed=1), table, path)
    shots = sample(table, 2 * 10**5, seed=2)
    write_shot_csv(shots, table, path)
    assert path.read_bytes() == fresh_csv(tmp_path, shots, table)


def test_a_failed_overwrite_leaves_no_stale_byte(tmp_path, monkeypatch):
    table = mixed_table()
    path = tmp_path / "shots.csv"
    write_shot_csv(sample(table, 10**6, seed=1), table, path)
    render = sampler._csv_rows

    def fail_on_chunk_2(q, *args):
        if q == 2:
            raise RuntimeError("chunk 2 failed")
        return render(q, *args)

    monkeypatch.setattr(sampler, "_csv_rows", fail_on_chunk_2)
    shots = sample(table, 3 * 10**5, seed=2)
    with pytest.raises(RuntimeError, match="chunk 2"):
        write_shot_csv(shots, table, path)
    with pytest.raises(RuntimeError, match="chunk 2"):
        fresh_csv(tmp_path, shots, table)
    written = (tmp_path / "fresh.csv").read_bytes()
    assert written.count(b"\n") == 1 + 2 * 10**5
    assert path.read_bytes() == written


def test_a_rewrite_cuts_the_old_csv_to_its_header_before_the_first_row(tmp_path, monkeypatch):
    # ext4 flushes on close a file truncated to size 0, so the old rows are
    # cut to the header's length instead.
    table = mixed_table()
    path = tmp_path / "shots.csv"
    write_shot_csv(sample(table, 10**6, seed=1), table, path)
    render, sizes = sampler._csv_rows, []

    def record_size(*args):
        sizes.append(os.stat(path).st_size)
        return render(*args)

    monkeypatch.setattr(sampler, "_csv_rows", record_size)
    write_shot_csv(sample(table, 10, seed=2), table, path)
    assert sizes == [len(sampler._CSV_HEADER)]


@pytest.mark.parametrize(
    "old, through_link", [(b"", False), (b"a,b\r\n", False), (b"a,b\r\n", True)], ids=["empty", "shorter-than-header", "symlink"]
)
def test_a_rewrite_keeps_the_file_and_leaves_exactly_the_new_csv(tmp_path, old, through_link):
    table = mixed_table()
    shots = sample(table, 1000, seed=4)
    target = tmp_path / "target.csv"
    target.write_bytes(old)
    target.chmod(0o640)
    path = tmp_path / "link.csv" if through_link else target
    if through_link:
        path.symlink_to(target)
    inode = os.stat(path).st_ino
    write_shot_csv(shots, table, path)
    assert path.read_bytes() == fresh_csv(tmp_path, shots, table)
    assert os.stat(path).st_ino == inode
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o640
    assert path.is_symlink() == through_link


def test_null_device_takes_the_csv():
    table = mixed_table()
    write_shot_csv(sample(table, 2 * 10**5 + 7, seed=3), table, os.devnull)
    assert not stat.S_ISREG(os.stat(os.devnull).st_mode)


def test_a_negative_shot_count_is_refused_by_name():
    with pytest.raises(ValueError, match="shot count must be nonnegative"):
        sample(mixed_table(), -1, 0)


def test_the_digit_tables_are_read_only():
    padded, bare = sampler._digit_tables(5)
    assert not padded.flags.writeable and not bare.flags.writeable
