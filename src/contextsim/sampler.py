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

from .correlations import JointTable
from .errors import ShapeMismatchError
from .tolerances import SUPPORT_THRESHOLD

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


def _draw(cells: np.ndarray, cdf: np.ndarray, seed: int, out: np.ndarray) -> None:
    """Fill the (m, 2) slice ``out`` with inverse-CDF draws over the kept
    ``cells`` (a C-contiguous (k, 2) slot array with cumulative
    probabilities ``cdf``)."""
    u = np.random.Generator(np.random.PCG64(seed)).random(len(out))
    # _cdf_index returns indices below k, so "clip" never moves one; it spares
    # the buffered copy of ``out`` that the default "raise" mode makes.
    np.take(cells, _cdf_index(cdf, u), axis=0, out=out, mode="clip")


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
    shots = np.empty((n, 2), dtype=np.int64)
    cells = np.ascontiguousarray(np.argwhere(mask), dtype=np.int64)
    cdf = np.cumsum(table.probabilities[mask])
    if batches == 1:
        _draw(cells, cdf, seed, shots)
        return shots
    base, extra = divmod(n, batches)
    start = 0
    for b in range(min(batches, n)):
        stop = start + base + (b < extra)
        _draw(cells, cdf, derive_batch_seed(seed, b), shots[start:stop])
        start = stop
    return shots


def _cells(shots: np.ndarray, table: JointTable) -> np.ndarray:
    """Row-major table cell of each shot; rejects slots that are not
    integers or lie outside the table."""
    slots = np.asarray(shots)
    if slots.ndim != 2 or slots.shape[1] != 2:
        raise ShapeMismatchError(f"shots must form an (n, 2) slot array, not shape {slots.shape}")
    if not np.issubdtype(slots.dtype, np.integer):
        raise ShapeMismatchError(f"shot slots must be integers, not {slots.dtype}")
    try:
        return np.ravel_multi_index(slots.T, table.shape)
    except ValueError:
        n_left, n_right = table.shape
        raise ShapeMismatchError(f"shot slots outside a {n_left}x{n_right} table") from None


def empirical_report(shots: np.ndarray, table: JointTable) -> EmpiricalReport:
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
    )


def _csv_rows(q: int, chunk: np.ndarray, digits: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """Chunk ``q`` of the shot CSV as one uint8 matrix of fixed-width byte
    records, one row per cell in ``chunk``: the prefix ``str(q)``, the low
    digits and the cell's tail. Chunk 0 has no prefix and NULs in place of
    its leading zeros."""
    prefix = np.frombuffer(str(q).encode() if q else b"", dtype=np.uint8)
    p, width = len(prefix), digits.itemsize
    rows = np.empty((len(chunk), p + width + tails.itemsize), dtype=np.uint8)
    rows[:, :p] = prefix
    rows[:, p : p + width].view(digits.dtype)[:, 0] = digits[: len(chunk)]
    rows[:, p + width :].view(tails.dtype)[:, 0] = np.take(tails, chunk)
    if not q:
        # Shot s < 10^(width - 1 - j) has a leading zero at digit j.
        for j in range(width - 1):
            rows[: 10 ** (width - 1 - j), j] = 0
    return rows


def write_shot_csv(shots: np.ndarray, table: JointTable, path) -> None:
    """Export an (n, 2) shot stream with eigenvalue labels resolved from the table.

    Columns: shot,left_slot,left_eigenvalue,right_slot,right_eigenvalue; CSV
    row ``k`` is shot (array row) ``k``. Lines end in CRLF. Nothing is
    written when a slot is not an integer or lies outside the table.

    Rows are rendered as bytes in numpy, 10^``_CSV_CHUNK_DIGITS`` at a time,
    with no Python object per shot. A chunk is one uint8 matrix of
    fixed-width byte records: the chunk number as a prefix, the shot's
    zero-padded low digits (their leading zeros NUL in chunk 0), then the
    row tail ``,i,λ,j,μ`` plus CRLF of the shot's cell. Each tail is stored
    once, NUL-padded to a common width, and the digits and tails are copied
    in as whole ``V`` (raw bytes) elements. CSV text never contains NUL, so
    dropping every NUL byte of the matrix leaves exactly the chunk's rows in
    order.
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
    tails = np.array(suffixes)
    tails = tails.view(f"V{tails.itemsize}")
    width, step = _CSV_CHUNK_DIGITS, 10**_CSV_CHUNK_DIGITS
    # Record s holds the digits of s, zero-padded to the width: digit j of a
    # row-major index into a (10,) * width grid is its index along axis j.
    digits = np.stack(np.indices((10,) * width, dtype=np.uint8), axis=-1) + ord("0")
    digits = digits.reshape(step, width).view(f"V{width}")[:, 0]
    with open(path, "wb") as handle:
        handle.write(_CSV_HEADER)
        for q, start in enumerate(range(0, len(cells), step)):
            rows = _csv_rows(q, cells[start : start + step], digits, tails)
            handle.write(rows[rows != 0])
