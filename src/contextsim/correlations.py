"""Exact quantum predictions for context pairs on a bipartite state.

Outcomes are identified by basis-slot index throughout; eigenvalues are
carried alongside but never used for matching, since spectra are
user-chosen reals that may collide across the two sides.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadCellIndexError,
    DimensionMismatchError,
    NonNegligibleImaginaryPartError,
)
from .greechie import MEMO_SIZE
from .linalg import as_vector, same_ray, unit_rows
from .observables import ContextOperator
from .states import BipartiteState, DensityMatrix
from .tolerances import IMAG_TOL, NEGATIVE_FLOOR, NORMALIZATION_TOL, PAIRING_TIE_TOL, SUPPORT_THRESHOLD


@dataclass(frozen=True, eq=False)
class JointTable:
    """Joint outcome probabilities P[i, j] for one context pair on one state.

    Row i is left slot i, labelled ``left_spectrum[i]``; column j is right
    slot j, labelled ``right_spectrum[j]``. Complex probabilities are rejected.
    Probabilities below ``NEGATIVE_FLOOR``, or NaN, signal a broken
    projector and are rejected; tiny negative roundoff is clamped to zero.
    The clamped table must sum to 1 within ``NORMALIZATION_TOL``. It is
    stored as a read-only float64 copy; the caller's array is left as it is.
    """

    left_spectrum: tuple[float, ...]
    right_spectrum: tuple[float, ...]
    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities)
        if p.dtype.kind == "c":
            raise ValueError("probabilities must be real, not complex")
        p = p.astype(float, copy=False)
        if p.ndim != 2 or p.shape != (len(self.left_spectrum), len(self.right_spectrum)):
            raise ValueError("probability matrix shape must match the two spectra")
        # "not p >= floor" rather than "p < floor": NaN fails the check.
        if not p.min() >= NEGATIVE_FLOOR:
            raise ValueError(f"probability {p.min()} below {NEGATIVE_FLOOR}: broken projector")
        p = np.maximum(p, 0.0)
        total = float(p.sum())
        if not abs(total - 1.0) <= NORMALIZATION_TOL:
            raise ValueError(f"probabilities sum to {total}, not 1")
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)

    @property
    def shape(self) -> tuple[int, int]:
        return self.probabilities.shape

    def support(self, tol: float) -> np.ndarray:
        """Boolean mask of the cells with probability above ``tol``.

        This is the one reader of a support threshold, and so the one home of
        its rule: raises ValueError when ``tol`` is not finite and
        nonnegative, or when no cell clears it (an empty support has nothing
        to pair or to draw)."""
        if not (math.isfinite(tol) and tol >= 0.0):
            raise ValueError(f"support threshold must be finite and nonnegative, not {tol}")
        mask = self.probabilities > tol
        if not mask.any():
            raise ValueError(f"no table cell has probability above the support threshold {tol}")
        return mask


@dataclass(frozen=True)
class UniquenessReport:
    """Whether one side's outcome determines the other's.

    ``pairing`` is the probability-maximizing slot matching; the table is
    unique when its support is exactly that bijection. ``blocks`` lists the
    connected components of the support as (left slots, right slots);
    ``block_structured`` is true when every component's support fills its
    full product, the pattern produced by partially linked contexts.
    """

    is_unique: bool
    pairing: tuple[tuple[int, int], ...]
    violation_mass: float
    blocks: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    block_structured: bool

    @property
    def status(self) -> str:
        if self.is_unique:
            return "unique"
        if self.block_structured:
            return "block-structured"
        return "irregular"


@dataclass(frozen=True)
class CriterionReport:
    """Probability carried by cells a contextual model would populate.

    ``forbidden_cells`` holds (left slot, right slot, probability) triples;
    ``contextual_mass`` is their sum. The quantum prediction for the named
    configurations is zero."""

    forbidden_cells: tuple[tuple[int, int, float], ...]
    contextual_mass: float


def expectation_scale(a: ContextOperator, b: ContextOperator) -> float:
    """max(1, max|λ|·max|μ|): the size of A x B, against which roundoff in
    an expectation value is judged."""
    return max(1.0, max(map(abs, a.spectrum)) * max(map(abs, b.spectrum)))


def expectation(rho: DensityMatrix, a: ContextOperator, b: ContextOperator) -> float:
    """Tr{rho * (A x B)} as a real number.

    Raises NonNegligibleImaginaryPartError if the raw trace has an imaginary
    part above ``IMAG_TOL`` times :func:`expectation_scale` (a non-Hermitian
    operand slipped through)."""
    if rho.dim != a.dim * b.dim:
        raise DimensionMismatchError(
            f"density matrix dimension {rho.dim} != {a.dim} * {b.dim}"
        )
    # Tr{rho (A x B)} = sum over i, j, k, l of rho[ij, kl] A[k, i] B[l, j].
    rho4 = rho.matrix.reshape(a.dim, b.dim, a.dim, b.dim)
    raw = complex(np.einsum("ijkl,ki,lj->", rho4, a.matrix, b.matrix))
    if abs(raw.imag) > IMAG_TOL * expectation_scale(a, b):
        raise NonNegligibleImaginaryPartError(f"trace has imaginary part {raw.imag}")
    return raw.real


def joint_distribution(
    state: BipartiteState, a: ContextOperator, b: ContextOperator
) -> JointTable:
    """Born-rule joint table: P[i, j] = <state| (P_a,i x P_b,j) |state>.

    With unit rays u_i, v_j and the amplitudes reshaped to a d x d matrix
    Psi, that is |<u_i x v_j|state>|^2 = |(conj(U) Psi conj(V)^T)[i, j]|^2."""
    if a.dim != state.local_dim or b.dim != state.local_dim:
        raise DimensionMismatchError(
            f"contexts of dimension {a.dim}, {b.dim} do not match local dimension {state.local_dim}"
        )
    psi = state.amplitudes.reshape(a.dim, b.dim)
    # einsum rounds each product on its own (a BLAS matmul may fuse them), so
    # terms that cancel exactly, as in the forbidden cells, sum to an exact 0.
    p = np.abs(np.einsum("ik,kl,jl->ij", a.units.conj(), psi, b.units.conj())) ** 2
    return JointTable(a.spectrum, b.spectrum, p)


@functools.lru_cache(maxsize=MEMO_SIZE)
def _support_structure(mask: bytes, n: int) -> tuple[tuple[tuple[tuple[int, ...], tuple[int, ...]], ...], bool]:
    """What a uniqueness report reads off an n x n support alone, kept per
    pattern (the bytes of the boolean mask): the connected components of the
    bipartite support graph, as sorted (left slots, right slots) pairs
    ordered by smallest left slot, and whether each component fills its full
    product of slots.

    Two left slots are adjacent when they share a populated right slot, which
    is the boolean product ``support @ support.T``; squaring it until it stops
    changing gives reachability, and ``spans = reach @ support`` the right
    slots each left slot reaches. Every component fills its full product of
    slots exactly when ``spans`` equals ``support``."""
    support = np.frombuffer(mask, dtype=bool).reshape(n, n)
    reach = support @ support.T
    while not np.array_equal(closure := reach @ reach, reach):
        reach = closure
    spans = reach @ support
    components = []
    # reach[i, i] holds when row i is nonempty; it opens a component unless it reaches an earlier row.
    for i, (row, cols) in enumerate(zip(reach.tolist(), spans.tolist())):
        if row[i] and not any(row[:i]):
            left = tuple(k for k, hit in enumerate(row) if hit)
            right = tuple(j for j, hit in enumerate(cols) if hit)
            components.append((left, right))
    return tuple(components), bool(np.array_equal(support, spans))


@functools.cache
def _permutations(n: int) -> np.ndarray:
    """Read-only (n!, n) table of every permutation of range(n), in
    lexicographic order, built once per n."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp).reshape(-1, n)
    perms.setflags(write=False)
    return perms


def verify_uniqueness(table: JointTable, tol: float = SUPPORT_THRESHOLD) -> UniquenessReport:
    """Check whether the table's support is a slot bijection.

    Cells with probability above ``tol`` count as populated. The pairing is
    the best (probability-maximizing) slot matching, found by scoring all
    n! permutations at once (tables here are at most 4x4; the table of
    permutations grows as n!); among matchings whose masses tie within
    ``PAIRING_TIE_TOL``, the first in lexicographic order wins.
    ``violation_mass`` is the probability outside that matching. The rest
    of the report depends on the support pattern alone and is kept per
    pattern, for the ``MEMO_SIZE`` patterns used last. Raises ValueError
    when no cell is populated."""
    p = table.probabilities
    n, m = p.shape
    if n != m:
        raise ValueError("uniqueness is defined for square tables")
    support = table.support(tol)

    # masses[k] is the sum over slots i of p[i, perms[k, i]]. The columns are
    # accumulated one by one, in slot order, so each mass rounds exactly as a
    # running sum does (ndarray.sum leaves its order of addition open).
    # Masses that tie in exact arithmetic may round apart, so the best is the
    # first permutation within PAIRING_TIE_TOL of the greatest mass.
    perms = _permutations(n)
    masses = np.add.accumulate(p[np.arange(n), perms], axis=1)[:, -1]
    best = int(np.argmax(masses >= masses.max() - PAIRING_TIE_TOL))
    best_perm = perms[best].tolist()
    pairing = tuple((i, best_perm[i]) for i in range(n) if support[i, best_perm[i]])
    violation_mass = float(p.sum() - masses[best])

    blocks, block_structured = _support_structure(support.tobytes(), n)
    # n components hold one left and one right slot each: one populated cell per row and column.
    return UniquenessReport(
        is_unique=len(blocks) == n and violation_mass <= tol,
        pairing=pairing,
        violation_mass=violation_mass,
        blocks=blocks,
        block_structured=block_structured,
    )


def contextuality_criterion(
    table: JointTable, forbidden: list[tuple[int, int]] | tuple[tuple[int, int], ...]
) -> CriterionReport:
    """Probability report over the cells a contextual account predicts to
    be populated; quantum mechanics predicts zero total mass on them.

    Each index is read as an integer, as a list index is (``True`` is 1).
    Raises BadCellIndexError for a cell that is not a pair of integers, is
    outside the table or is listed twice (its probability would count twice
    in the mass)."""
    n, m = table.shape
    cells = {}
    for cell in forbidden:
        try:
            i, j = map(operator.index, cell)
        except (TypeError, ValueError):
            raise BadCellIndexError(f"cell {cell!r} is not a pair of integer indices") from None
        if not (0 <= i < n and 0 <= j < m):
            raise BadCellIndexError(f"cell ({i}, {j}) outside a {n}x{m} table")
        if (i, j) in cells:
            raise BadCellIndexError(f"cell ({i}, {j}) listed twice")
        cells[i, j] = float(table.probabilities[i, j])
    mass = float(sum(cells.values()))
    return CriterionReport(forbidden_cells=tuple((i, j, p) for (i, j), p in cells.items()), contextual_mass=mass)


def sequential_link_test(
    prepared: np.ndarray, measured: ContextOperator
) -> tuple[tuple[tuple[float, float], ...], int | None]:
    """Prepare-then-measure run for a single particle.

    The particle is prepared in the ray ``prepared`` (normalized here) and
    measured in ``measured``. Returns ``(distribution, link_slot)``: the
    (eigenvalue, probability) of each outcome slot, and the first slot whose
    ray is the prepared one (the rule of :func:`linalg.same_ray`), or None.
    Both come from one overlap column: the probabilities are its squared
    moduli, so preparing a ray the context shares yields probability one on
    its slot.
    """
    unit = unit_rows(as_vector(prepared)[None, :])[0]
    if unit.shape[0] != measured.dim:
        raise DimensionMismatchError(
            f"prepared ray has dimension {unit.shape[0]}, context has {measured.dim}"
        )
    overlap = np.abs(measured.units.conj() @ unit)
    link_slot = next((k for k, hit in enumerate(same_ray(overlap).tolist()) if hit), None)
    return tuple(zip(measured.spectrum, (overlap**2).tolist())), link_slot


def marginals(table: JointTable) -> tuple[np.ndarray, np.ndarray]:
    """Row sums (left outcome distribution) and column sums (right)."""
    p = table.probabilities
    return p.sum(axis=1), p.sum(axis=0)
