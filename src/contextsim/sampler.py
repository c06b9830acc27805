"""Simulated experimental runs: seeded draws from a joint outcome table.

The generator is numpy's PCG64 (64-bit seeded, period 2^128), driven by
inverse-CDF over the table cells in row-major order, so identical
(table, n, seed) inputs always reproduce identical shot streams on any
platform. Cells at or below the support threshold are excluded from the
CDF outright, so outcomes with exact probability zero can never be drawn;
a threshold that would drop more than ``NORMALIZATION_TOL`` of probability
is refused rather than moving that mass into a kept cell.
"""

from __future__ import annotations

import os
import stat
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .correlations import JointTable
from .errors import ShapeMismatchError
from .tolerances import NORMALIZATION_TOL, SUPPORT_THRESHOLD

_MASK64 = (1 << 64) - 1
_CSV_HEADER = b"shot,left_slot,left_eigenvalue,right_slot,right_eigenvalue\r\n"
# A CSV chunk holds 10^digits rows, so every shot number in chunk q is str(q)
# followed by the same zero-padded low digits. The chunk size bounds the
# memory of one rendering; the bytes written do not depend on it.
_CSV_CHUNK_DIGITS = 5
# Uniforms drawn, and shots tallied, per block: 512 KiB of float64 or intp
# scratch, small enough for the cache.
_DRAW_BLOCK = 1 << 16
# CSV rows rendered, and their NULs dropped, per block: a few hundred KB of
# records, also small enough for the cache.
_CSV_BLOCK = 1 << 14


@dataclass(frozen=True, eq=False)
class EmpiricalReport:
    """Counts and frequencies of a shot stream against its exact table."""

    counts: np.ndarray
    frequencies: np.ndarray
    max_abs_deviation: float | None
    total_shots: int


def derive_batch_seed(seed: int, batch: int) -> int:
    """SplitMix64 finalizer over the seed advanced by the batch index.

    Gives well-separated 64-bit seeds for batch-parallel generation while
    keeping the concatenated stream a pure function of (seed, batch count).
    """
    z = (seed + (batch + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _cdf_index(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF step of each uniform in ``u`` over the nondecreasing ``cdf``.

    Counts the thresholds ``cdf[:-1]`` at or below each ``u``, in the
    smallest unsigned dtype that holds ``len(cdf) - 1``. For a nondecreasing
    ``cdf`` that is ``clip(searchsorted(cdf, u, side="right"), 0, k - 1)``,
    computed with one comparison pass per threshold instead of a binary
    search per uniform.
    """
    idx = np.zeros(u.shape, dtype=np.min_scalar_type(len(cdf) - 1))
    for c in cdf[:-1]:
        idx += u >= c
    return idx


def _draw(kept: np.ndarray, cdf: np.ndarray, seed: int, out: np.ndarray) -> None:
    """Fill the 1-D slice ``out`` with inverse-CDF draws over the ``kept``
    table cells, whose cumulative probabilities are ``cdf``.

    The uniforms come from one generator, ``_DRAW_BLOCK`` at a time, so each
    threshold pass of :func:`_cdf_index` runs over a block that stays in
    cache. Consecutive ``random`` calls continue one stream, so the shots do
    not depend on the block size."""
    rng = np.random.Generator(np.random.PCG64(seed))
    for start in range(0, len(out), _DRAW_BLOCK):
        block = out[start : start + _DRAW_BLOCK]
        # _cdf_index returns indices below k, so "clip" never moves one; it
        # spares the buffered copy of ``block`` that the default "raise" mode makes.
        np.take(kept, _cdf_index(cdf, rng.random(len(block))), out=block, mode="clip")


def sample(
    table: JointTable,
    n: int,
    seed: int,
    batches: int = 1,
    support_threshold: float = SUPPORT_THRESHOLD,
) -> np.ndarray:
    """Draw ``n`` i.i.d. outcome pairs from ``table``.

    Returns an ``(n,)`` array whose entry ``k`` is the row-major table cell
    ``i * n_right + j`` of shot ``k``, in the smallest unsigned dtype that
    holds every cell of the table (uint8 up to 256 cells). A caller that
    wants the (left slot, right slot) pairs takes
    ``np.unravel_index(shots, table.shape)``. ``seed`` must lie in
    [0, 2^64). Raises ValueError when no cell clears ``support_threshold``,
    or when the cells at or below it hold more probability than
    ``NORMALIZATION_TOL``, the slack the table's own sum is allowed: the
    draw never hands that mass to a kept cell.

    ``batches`` splits the stream into independently seeded chunks (seeds
    derived by :func:`derive_batch_seed`) whose concatenation is still fully
    determined by (seed, batches); the default single batch uses ``seed``
    directly. Only the first ``min(batches, n)`` chunks hold shots.
    """
    if n < 0:
        raise ValueError("shot count must be nonnegative")
    if batches < 1:
        raise ValueError("need at least one batch")
    if not 0 <= seed <= _MASK64:
        raise ValueError("seed must be in [0, 2^64)")
    mask = table.support(support_threshold)
    dropped = float(table.probabilities[~mask].sum())
    if dropped > NORMALIZATION_TOL:
        raise ValueError(f"cells at or below the support threshold {support_threshold} hold probability {dropped:.6g}, above NORMALIZATION_TOL = {NORMALIZATION_TOL}")
    kept = np.flatnonzero(mask).astype(np.min_scalar_type(mask.size - 1))
    shots = np.empty(n, dtype=kept.dtype)
    cdf = np.cumsum(table.probabilities[mask])
    base, extra = divmod(n, batches)
    start = 0
    for b in range(min(batches, n)):
        stop = start + base + (b < extra)
        _draw(kept, cdf, seed if batches == 1 else derive_batch_seed(seed, b), shots[start:stop])
        start = stop
    return shots


def _cells(shots: np.ndarray, table: JointTable) -> np.ndarray:
    """``shots`` as an array, checked to be cells of ``table``: a 1-D integer
    array whose every value lies in [0, table.probabilities.size). This is
    the one check of the shots a library caller hands in."""
    cells = np.asarray(shots)
    if cells.ndim != 1 or not np.issubdtype(cells.dtype, np.integer):
        raise ShapeMismatchError(f"shots must be a 1-D integer array of table cells, not {cells.dtype} of shape {cells.shape}")
    if len(cells) and not (cells.min() >= 0 and cells.max() < table.probabilities.size):
        raise ShapeMismatchError(f"shot cells outside the {table.probabilities.size} cells of a {table.shape[0]}x{table.shape[1]} table")
    return cells


def empirical_report(shots: np.ndarray, table: JointTable) -> EmpiricalReport:
    """Tally a stream of table cells, as :func:`sample` returns it, and
    compare frequencies with the exact table. An empty stream has no
    frequencies to compare: its ``max_abs_deviation`` is None."""
    cells = _cells(shots, table)
    counts = np.zeros(table.shape, dtype=np.intp)
    # One block at a time: np.bincount copies its input to intp.
    for start in range(0, len(cells), _DRAW_BLOCK):
        counts += np.bincount(cells[start : start + _DRAW_BLOCK], minlength=counts.size).reshape(table.shape)
    total = int(counts.sum())
    frequencies = counts / total if total else np.zeros_like(counts, dtype=float)
    deviation = float(np.max(np.abs(frequencies - table.probabilities))) if total else None
    return EmpiricalReport(
        counts=counts,
        frequencies=frequencies,
        max_abs_deviation=deviation,
        total_shots=total,
    )


@lru_cache(maxsize=None)
def _digit_tables(width: int) -> tuple[np.ndarray, np.ndarray]:
    """The low digits of every shot number below 10^width as read-only
    ``V{width}`` records: zero-padded, and with NULs in place of the
    leading zeros, for chunk 0, which has no prefix."""
    # Digit j of a row-major index into a (10,) * width grid is its index along axis j.
    padded = np.stack(np.indices((10,) * width, dtype=np.uint8), axis=-1).reshape(-1, width) + ord("0")
    bare = padded.copy()
    for j in range(width - 1):
        # Shot s < 10^(width - 1 - j) has a leading zero at digit j.
        bare[: 10 ** (width - 1 - j), j] = 0
    padded.flags.writeable = bare.flags.writeable = False
    return padded.view(f"V{width}")[:, 0], bare.view(f"V{width}")[:, 0]


def _csv_rows(q: int, cells: np.ndarray, digits: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """Rows of chunk ``q`` of the shot CSV as one uint8 matrix of fixed-width
    byte records, one row per entry of ``cells`` and ``digits``: the prefix
    ``str(q)`` (none in chunk 0), the row's low digits and its cell's tail."""
    prefix = np.frombuffer(str(q).encode() if q else b"", dtype=np.uint8)
    p, width = len(prefix), digits.itemsize
    rows = np.empty((len(cells), p + width + tails.itemsize), dtype=np.uint8)
    rows[:, :p] = prefix
    rows[:, p : p + width].view(digits.dtype)[:, 0] = digits
    rows[:, p + width :].view(tails.dtype)[:, 0] = np.take(tails, cells)
    return rows


def write_shot_csv(shots: np.ndarray, table: JointTable, path) -> None:
    """Export a stream of table cells, as :func:`sample` returns it, with
    each cell's slots and eigenvalue labels resolved from the table.

    Columns: shot,left_slot,left_eigenvalue,right_slot,right_eigenvalue; CSV
    row ``k`` is shot (array entry) ``k``. Lines end in CRLF. Nothing is
    written when the shots are not a 1-D integer array of table cells.

    Rows are rendered as bytes in numpy, with no Python object per shot, in
    chunks of 10^``_CSV_CHUNK_DIGITS`` rows that share the chunk number as a
    prefix, and within a chunk ``_CSV_BLOCK`` rows at a time. A block is
    one uint8 matrix of fixed-width byte records: the prefix, the shot's
    low digits (zero-padded, or with NULs for leading zeros in chunk 0),
    then the row tail ``,i,λ,j,μ`` plus CRLF of the shot's cell. Each tail
    is stored once, NUL-padded to a common width, and the digits and tails
    are copied in as whole ``V`` (raw bytes) elements. CSV text never
    contains NUL, so dropping every NUL byte of the matrix leaves exactly
    the block's rows in order.
    """
    cells = _cells(shots, table)
    suffixes = [
        f",{i},{lam:.15g},{j},{mu:.15g}\r\n".encode()
        for i, lam in enumerate(table.left_spectrum)
        for j, mu in enumerate(table.right_spectrum)
    ]
    # numpy's bytes dtype NUL-pads every suffix to the longest one.
    tails = np.array(suffixes)
    tails = tails.view(f"V{tails.itemsize}")
    padded, bare = _digit_tables(_CSV_CHUNK_DIGITS)
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as handle:
        # ext4 flushes on close a file truncated to size 0; cutting an old file to
        # the header's length drops its rows without starting that flush.
        if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
            handle.truncate(len(_CSV_HEADER))
        handle.write(_CSV_HEADER)
        for q, start in enumerate(range(0, len(cells), len(padded))):
            chunk = cells[start : start + len(padded)]
            digits = (padded if q else bare)[: len(chunk)]
            for lo in range(0, len(chunk), _CSV_BLOCK):
                rows = _csv_rows(q, chunk[lo : lo + _CSV_BLOCK], digits[lo : lo + _CSV_BLOCK], tails)
                handle.write(rows[rows != 0])
