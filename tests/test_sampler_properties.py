"""Property tests of the array shot path against per-shot reference code.

Tables come from random orthonormal bases in d = 3 and d = 4 (QR factors of
complex Gaussian matrices) with real, negative and non-integer spectra. The
references are deliberately naive: a per-row ``Counter`` for the tally, a
``csv.writer`` row per shot for the CSV, and one single-batch ``sample`` call
per batch for the batched stream.
"""

import collections
import csv
import io
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextsim import sampler
from contextsim.correlations import joint_distribution
from contextsim.errors import ShapeMismatchError
from contextsim.observables import context_from_basis, ks_context, ks_context_prime
from contextsim.sampler import derive_batch_seed, empirical_report, sample, write_shot_csv
from contextsim.states import singlet, spin1_singlet

SETTINGS = settings(max_examples=40, deadline=None)
EIGENVALUE = st.one_of(
    st.integers(-20, 20).map(float),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False),
)


def spectra(d):
    return st.lists(EIGENVALUE, min_size=d, max_size=d, unique=True).filter(
        lambda v: min(abs(x - y) for i, x in enumerate(v) for y in v[i + 1 :]) > 1e-6
    )


def qr_basis(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return [q[:, k].copy() for k in range(d)]


@st.composite
def tables(draw):
    d = draw(st.sampled_from((3, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = context_from_basis(qr_basis(rng, d), draw(spectra(d)))
    b = context_from_basis(qr_basis(rng, d), draw(spectra(d)))
    return joint_distribution(singlet(d), a, b)


@st.composite
def runs(draw):
    """(table, n, seed, batches) with n in [0, 3000] and batches in [1, n + 3]."""
    n = draw(st.integers(0, 3000))
    return draw(tables()), n, draw(st.integers(0, 2**64 - 1)), draw(st.integers(1, n + 3))


def reference_stream(table, n, seed, batches):
    """One single-batch draw per non-empty batch, as the per-shot sampler drew them."""
    if batches == 1:
        return sample(table, n, seed)
    base, remainder = n // batches, n % batches
    chunks = []
    for b in range(batches):
        size = base + (1 if b < remainder else 0)
        if size:
            chunks.append(sample(table, size, derive_batch_seed(seed, b)))
    return np.concatenate(chunks) if chunks else np.empty((0, 2), dtype=np.int64)


def reference_csv(shots, table) -> bytes:
    """One ``csv.writer`` row per shot."""
    left_values = {slot: value for slot, value in table.left_labels}
    right_values = {slot: value for slot, value in table.right_labels}
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(["shot", "left_slot", "left_eigenvalue", "right_slot", "right_eigenvalue"])
    for k, (ls, rs) in enumerate(shots.tolist()):
        writer.writerow([k, ls, f"{left_values[ls]:.15g}", rs, f"{right_values[rs]:.15g}"])
    return buffer.getvalue().encode("utf-8")


@SETTINGS
@given(runs())
def test_counts_equal_a_per_row_counter(run):
    table, n, seed, batches = run
    shots = sample(table, n, seed, batches=batches)
    expected = np.zeros(table.shape, dtype=np.int64)
    for (i, j), count in collections.Counter(map(tuple, shots.tolist())).items():
        expected[i, j] = count
    report = empirical_report(shots, table)
    assert np.array_equal(report.counts, expected)
    assert report.total_shots == n


@SETTINGS
@given(runs(), st.integers(1, 3))
def test_csv_bytes_equal_a_csv_writer_rendering(run, chunk_digits):
    # Chunks of 10, 100 or 1000 rows, so n <= 3000 crosses chunk boundaries.
    table, n, seed, batches = run
    shots = sample(table, n, seed, batches=batches)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(sampler, "_CSV_CHUNK_DIGITS", chunk_digits):
        path = Path(tmp) / "shots.csv"
        write_shot_csv(shots, table, path)
        assert path.read_bytes() == reference_csv(shots, table)


def test_csv_bytes_at_the_default_chunk_size(tmp_path):
    # 200_001 rows reach chunks 1 and 2 and the 5- to 6-digit shot numbers.
    table = joint_distribution(spin1_singlet(), ks_context(-1 / 3, 1e-7, 2.5e3), ks_context_prime(0.5, -2, 7))
    shots = sample(table, 200_001, seed=5, batches=3)
    path = tmp_path / "shots.csv"
    write_shot_csv(shots, table, path)
    assert path.read_bytes() == reference_csv(shots, table)


@SETTINGS
@given(runs())
def test_batched_stream_is_the_concatenation_of_per_batch_draws(run):
    table, n, seed, batches = run
    shots = sample(table, n, seed, batches=batches)
    assert shots.shape == (n, 2) and shots.dtype == np.int64
    assert np.array_equal(shots, reference_stream(table, n, seed, batches))


@SETTINGS
@given(runs(), st.data())
def test_out_of_range_slots_are_rejected(run, data):
    table, n, seed, batches = run
    shots = sample(table, n, seed, batches=batches)
    side = data.draw(st.sampled_from((0, 1)))
    size = table.shape[side]
    bad = data.draw(st.one_of(st.integers(-size - 5, -1), st.integers(size, size + 5)))
    row = data.draw(st.integers(0, n))
    shots = np.insert(shots, row, [0, 0], axis=0)
    shots[row, side] = bad
    with pytest.raises(ShapeMismatchError):
        empirical_report(shots, table)


def test_negative_right_slot_is_not_read_as_another_cell(tmp_path):
    # A flattened index would count [1, -1] on a 3x3 table as cell (0, 2).
    table = joint_distribution(spin1_singlet(), ks_context(1, 2, 3), ks_context_prime(4, 5, 6))
    with pytest.raises(ShapeMismatchError):
        empirical_report(np.array([[1, -1]]), table)
    with pytest.raises(ShapeMismatchError):
        write_shot_csv(np.array([[1, -1]]), table, tmp_path / "shots.csv")
    assert not (tmp_path / "shots.csv").exists()
