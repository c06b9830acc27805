"""Simulated experimental runs: seeded draws from a joint outcome table.

The generator is numpy's PCG64 (64-bit seeded, period 2^128), driven by
inverse-CDF over the table cells in row-major order, so identical
(table, n, seed) inputs always reproduce identical shot streams on any
platform. Cells below the support threshold are excluded from the CDF
outright: outcomes with exact probability zero can never be drawn.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlations import SUPPORT_THRESHOLD, JointTable
from .errors import ShapeMismatchError

_MASK64 = (1 << 64) - 1
_CSV_HEADER = b"shot,left_slot,left_eigenvalue,right_slot,right_eigenvalue\r\n"
# A CSV chunk holds 10^digits rows, so every shot number in chunk q is str(q)
# followed by the same zero-padded low digits. The chunk size bounds the
# memory of one rendering; the bytes written do not depend on it.
_CSV_CHUNK_DIGITS = 5


@dataclass(frozen=True, eq=False)
class EmpiricalReport:
    """Counts and frequencies of a shot stream against its exact table."""

    counts: np.ndarray
    frequencies: np.ndarray
    max_abs_deviation: float
    total_shots: int
    seed: int | None = None


def derive_batch_seed(seed: int, batch: int) -> int:
    """SplitMix64 finalizer over the seed advanced by the batch index.

    Gives well-separated 64-bit seeds for batch-parallel generation while
    keeping the concatenated stream a pure function of (seed, batch count).
    """
    z = (seed + (batch + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _draw(cells: np.ndarray, cdf: np.ndarray, n: int, seed: int) -> np.ndarray:
    """n inverse-CDF draws over the kept ``cells`` (a (k, 2) slot array with
    cumulative probabilities ``cdf``); returns an (n, 2) array of slots."""
    rng = np.random.Generator(np.random.PCG64(seed))
    u = rng.random(n)
    idx = np.searchsorted(cdf, u, side="right")
    np.clip(idx, 0, len(cells) - 1, out=idx)
    return cells[idx]


def sample(
    table: JointTable,
    n: int,
    seed: int,
    batches: int = 1,
    support_threshold: float = SUPPORT_THRESHOLD,
) -> np.ndarray:
    """Draw ``n`` i.i.d. outcome pairs from ``table``.

    Returns an ``(n, 2)`` int64 array whose row ``k`` holds the (left slot,
    right slot) of shot ``k``. ``seed`` must lie in [0, 2^64). Raises
    ValueError when no cell clears ``support_threshold``.

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
    if n == 0:
        return np.empty((0, 2), dtype=np.int64)
    cells = np.argwhere(mask).astype(np.int64, copy=False)
    cdf = np.cumsum(table.probabilities[mask])
    if batches == 1:
        return _draw(cells, cdf, n, seed)
    base, extra = divmod(n, batches)
    return np.concatenate(
        [_draw(cells, cdf, base + (b < extra), derive_batch_seed(seed, b)) for b in range(min(batches, n))]
    )


def _cells(shots: np.ndarray, table: JointTable) -> np.ndarray:
    """Row-major table cell of each shot; rejects slots outside the table."""
    slots = np.asarray(shots, dtype=np.int64)
    if slots.ndim != 2 or slots.shape[1] != 2:
        raise ShapeMismatchError(f"shots must form an (n, 2) slot array, not shape {slots.shape}")
    try:
        return np.ravel_multi_index(slots.T, table.shape)
    except ValueError:
        n_left, n_right = table.shape
        raise ShapeMismatchError(f"shot slots outside a {n_left}x{n_right} table") from None


def empirical_report(shots: np.ndarray, table: JointTable, seed: int | None = None) -> EmpiricalReport:
    """Tally an (n, 2) shot stream and compare frequencies with the exact table."""
    n_left, n_right = table.shape
    counts = np.bincount(_cells(shots, table), minlength=n_left * n_right).reshape(n_left, n_right)
    total = int(counts.sum())
    frequencies = counts / total if total else np.zeros_like(counts, dtype=float)
    deviation = float(np.max(np.abs(frequencies - table.probabilities))) if total else float("nan")
    return EmpiricalReport(
        counts=counts,
        frequencies=frequencies,
        max_abs_deviation=deviation,
        total_shots=total,
        seed=seed,
    )


def write_shot_csv(shots: np.ndarray, table: JointTable, path) -> None:
    """Export an (n, 2) shot stream with eigenvalue labels resolved from the table.

    Columns: shot,left_slot,left_eigenvalue,right_slot,right_eigenvalue; CSV
    row ``k`` is shot (array row) ``k``. Lines end in CRLF. Nothing is
    written when a slot lies outside the table.

    Rows are rendered as bytes in numpy, 10^``_CSV_CHUNK_DIGITS`` at a time,
    with no Python object per shot. Each table cell's row tail ``,i,λ,j,μ``
    plus CRLF is stored once, NUL-padded to a common width, and a
    chunk is one uint8 matrix: the chunk number as a prefix, the shot's low
    digits (their leading zeros NUL in chunk 0), then the tail of the shot's
    cell. CSV text never contains NUL, so dropping every NUL byte of the
    matrix leaves exactly the chunk's rows in order.
    """
    cells = _cells(shots, table)
    left_values, right_values = dict(table.left_labels), dict(table.right_labels)
    n_left, n_right = table.shape
    suffixes = [
        f",{i},{left_values[i]:.15g},{j},{right_values[j]:.15g}\r\n".encode()
        for i in range(n_left)
        for j in range(n_right)
    ]
    # numpy's bytes dtype NUL-pads every suffix to the longest one.
    tails = np.array(suffixes).view(np.uint8).reshape(len(suffixes), -1)
    width, step = _CSV_CHUNK_DIGITS, 10**_CSV_CHUNK_DIGITS
    shot = np.arange(min(len(cells), step))[:, None]
    powers = 10 ** np.arange(width - 1, -1, -1)
    digits = (shot // powers % 10 + ord("0")).astype(np.uint8)
    unpadded = np.where((shot >= powers) | (powers == 1), digits, 0).astype(np.uint8)
    with open(path, "wb") as handle:
        handle.write(_CSV_HEADER)
        for q, start in enumerate(range(0, len(cells), step)):
            chunk = cells[start : start + step]
            prefix = np.frombuffer(str(q).encode() if q else b"", dtype=np.uint8)
            p = len(prefix)
            rows = np.empty((len(chunk), p + width + tails.shape[1]), dtype=np.uint8)
            rows[:, :p] = prefix
            rows[:, p : p + width] = (digits if q else unpadded)[: len(chunk)]
            rows[:, p + width :] = tails[chunk]
            handle.write(rows[rows != 0].tobytes())
