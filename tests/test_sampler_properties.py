"""Property tests of the array shot path against per-shot reference code.

Tables come from random orthonormal bases in d = 3 and d = 4 (QR factors of
complex Gaussian matrices) with real, negative and non-integer spectra. The
references are deliberately naive: a per-row ``Counter`` for the tally, a
``csv.writer`` row per shot for the CSV, one single-batch ``sample`` call
per batch for the batched stream, and a clipped binary search
(``np.searchsorted``) for the inverse-CDF index of the draw. The sampler's
block sizes are drawn down to a few rows, so runs of at most 3000 shots
cross block boundaries.
"""

import collections
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_csv, reference_stream

from contextsim import sampler
from contextsim.correlations import joint_distribution
from contextsim.errors import ShapeMismatchError
from contextsim.observables import context_from_basis, ks_context, ks_context_prime
from contextsim.sampler import empirical_report, sample, write_shot_csv
from contextsim.states import singlet, spin1_singlet
from contextsim.tolerances import MERGE_TOL

SETTINGS = settings(max_examples=40, deadline=None)
EIGENVALUE = st.one_of(
    st.integers(-20, 20).map(float),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False),
)

# A block of a few rows, or None for the module's own size.
BLOCK = st.one_of(st.none(), st.integers(1, 50))


def blocks(**sizes):
    """Patch the sampler's block-size constants; None keeps a constant's value."""
    return mock.patch.multiple(sampler, **{name: getattr(sampler, name) if size is None else size
                                           for name, size in sizes.items()})


def spectra(d):
    # Drop only the spectra the contexts refuse as degenerate (gap at or
    # below MERGE_TOL scaled by max(1, max|λ|)), and near-ties below 1e-6.
    return st.lists(EIGENVALUE, min_size=d, max_size=d, unique=True).filter(
        lambda v: min(abs(x - y) for i, x in enumerate(v) for y in v[i + 1 :])
        > max(1e-6, MERGE_TOL * max(1.0, *map(abs, v)))
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


@SETTINGS
@given(runs(), BLOCK)
def test_counts_equal_a_per_row_counter(run, draw_block):
    table, n, seed, batches = run
    shots = sample(table, n, seed, batches=batches)
    expected = np.zeros(table.shape, dtype=np.int64)
    for cell, count in collections.Counter(shots.tolist()).items():
        expected[divmod(cell, table.shape[1])] = count
    with blocks(_DRAW_BLOCK=draw_block):
        report = empirical_report(shots, table)
    assert np.array_equal(report.counts, expected)
    assert report.total_shots == n


@SETTINGS
@given(runs(), st.integers(1, 3), BLOCK, BLOCK)
def test_csv_bytes_equal_a_csv_writer_rendering(run, chunk_digits, draw_block, csv_block):
    # Chunks of 10, 100 or 1000 rows, so n <= 3000 crosses chunk boundaries,
    # and also the boundaries of the cell and rendering blocks.
    table, n, seed, batches = run
    shots = sample(table, n, seed, batches=batches)
    patch = blocks(_CSV_CHUNK_DIGITS=chunk_digits, _DRAW_BLOCK=draw_block, _CSV_BLOCK=csv_block)
    with tempfile.TemporaryDirectory() as tmp, patch:
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
    assert shots.shape == (n,) and shots.dtype == np.uint8
    assert np.array_equal(shots, reference_stream(table, n, seed, batches))


@SETTINGS
@given(runs(), BLOCK, st.data())
def test_out_of_range_slots_are_rejected(run, draw_block, data):
    # A negative cell or one at or past the table's size, anywhere in the stream.
    table, n, seed, batches = run
    shots = sample(table, n, seed, batches=batches).astype(np.int64)
    size = table.probabilities.size
    bad = data.draw(st.one_of(st.integers(-size - 5, -1), st.integers(size, size + 5)))
    shots = np.insert(shots, data.draw(st.integers(0, n)), bad)
    with blocks(_DRAW_BLOCK=draw_block), pytest.raises(ShapeMismatchError):
        empirical_report(shots, table)


@pytest.mark.parametrize("bad", [-3, -1, 9, 255])
def test_a_bad_slot_in_the_last_partial_block_is_rejected(tmp_path, monkeypatch, bad):
    # 23 shots are three blocks of 7 and one of 2; the bad cell of the 3x3
    # table (cells 0-8) is the last shot. 9 is the first cell past the end,
    # and 255 the largest the uint8 that sample returns can hold.
    table = joint_distribution(spin1_singlet(), ks_context(1, 2, 3), ks_context_prime(4, 5, 6))
    shots = sample(table, 23, seed=4).astype(np.int64)
    shots[-1] = bad
    monkeypatch.setattr(sampler, "_DRAW_BLOCK", 7)
    with pytest.raises(ShapeMismatchError):
        empirical_report(shots, table)
    with pytest.raises(ShapeMismatchError):
        write_shot_csv(shots, table, tmp_path / "shots.csv")
    assert not (tmp_path / "shots.csv").exists()


# Cell weights from tiny (a 5e-324 cell after a sum of order 1 adds a
# zero-width CDF step) to large, so ties and subnormals both occur.
WEIGHT = st.one_of(
    st.floats(min_value=5e-324, max_value=1e-12),
    st.floats(min_value=1e-12, max_value=1e3),
    st.sampled_from((5e-324, 1e-300, 0.25, 1.0)),
)


@st.composite
def cdfs(draw):
    """The CDF of 1-16 kept cells, its last entry a few ulps below, at or above 1.

    Entries above the last one are lowered to it, so the CDF stays
    nondecreasing as a cumulative sum always is.
    """
    weights = np.array(draw(st.lists(WEIGHT, min_size=1, max_size=16)))
    cdf = np.cumsum(weights / weights.sum())
    end = 1.0
    ulps = draw(st.integers(-4, 4))
    for _ in range(abs(ulps)):
        end = np.nextafter(end, np.sign(ulps) * np.inf)
    cdf[-1] = end
    return np.minimum(cdf, end)


@SETTINGS
@given(cdfs(), st.data())
def test_threshold_count_equals_a_clipped_searchsorted(cdf, data):
    # Uniforms on every CDF entry and on its neighbouring doubles, the ends
    # of [0, 1), and random draws.
    on_steps = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0)])
    edges = np.array([0.0, np.nextafter(1.0, 0.0)])
    drawn = np.array(data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=50)))
    u = np.concatenate([on_steps, edges, drawn])
    idx = sampler._cdf_index(cdf, u)
    assert idx.dtype == np.uint8
    expected = np.clip(np.searchsorted(cdf, u, side="right"), 0, len(cdf) - 1)
    assert np.array_equal(idx, expected)


def test_negative_right_slot_is_not_read_as_another_cell(tmp_path):
    # A negative cell is refused, not wrapped round to a cell at the end of
    # the table. Float cells would be truncated to a cell, so they are refused
    # too, as are 2-D arrays: an (n, 2) slot array, even one whose slots fit
    # the table, and a column of cells.
    table = joint_distribution(spin1_singlet(), ks_context(1, 2, 3), ks_context_prime(4, 5, 6))
    for shots in (
        np.array([0, -1]),
        np.array([0.9, 7.5]),
        np.array([[1, 2], [0, 0]]),
        np.array([[3], [4]]),
    ):
        with pytest.raises(ShapeMismatchError):
            empirical_report(shots, table)
        with pytest.raises(ShapeMismatchError):
            write_shot_csv(shots, table, tmp_path / "shots.csv")
        assert not (tmp_path / "shots.csv").exists()
