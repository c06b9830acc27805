"""Exact quantum predictions for context pairs on a bipartite state.

Outcomes are identified by basis-slot index throughout; eigenvalue labels
are carried alongside but never used for matching, since spectra are
user-chosen reals that may collide across the two sides.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadCellIndexError,
    DimensionMismatchError,
    NonNegligibleImaginaryPartError,
    ZeroVectorError,
)
from .linalg import as_vector
from .observables import ContextOperator
from .states import BipartiteState, DensityMatrix

SUPPORT_THRESHOLD = 1e-10
NORMALIZATION_TOL = 1e-9
NEGATIVE_FLOOR = -1e-12
IMAG_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class JointTable:
    """Joint outcome probabilities P[i, j] for one context pair on one state.

    Labels are (slot, eigenvalue) pairs. Probabilities more negative than
    -1e-12 signal a broken projector and are rejected; tiny negative
    roundoff is clamped to zero.
    """

    left_labels: tuple[tuple[int, float], ...]
    right_labels: tuple[tuple[int, float], ...]
    probabilities: np.ndarray
    state_tag: str = ""
    left_context_tag: str = ""
    right_context_tag: str = ""

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if p.ndim != 2 or p.shape != (len(self.left_labels), len(self.right_labels)):
            raise ValueError("probability matrix shape must match the outcome labels")
        if float(p.min()) < NEGATIVE_FLOOR:
            raise ValueError(f"probability {p.min()} below {NEGATIVE_FLOOR}: broken projector")
        p = np.clip(p, 0.0, None)
        total = float(p.sum())
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"probabilities sum to {total}, not 1")
        object.__setattr__(self, "probabilities", p)

    @property
    def shape(self) -> tuple[int, int]:
        return self.probabilities.shape

    def support(self, tol: float) -> np.ndarray:
        """Boolean mask of the cells with probability above ``tol``.

        Raises ValueError when no cell clears ``tol``: an empty support has
        nothing to pair or to draw."""
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
    part above 1e-10 times :func:`expectation_scale` (a non-Hermitian
    operand slipped through)."""
    if rho.dim != a.dim * b.dim:
        raise DimensionMismatchError(
            f"density matrix dimension {rho.dim} != {a.dim} * {b.dim}"
        )
    raw = complex(np.trace(rho.matrix @ np.kron(a.matrix, b.matrix)))
    if abs(raw.imag) > IMAG_TOL * expectation_scale(a, b):
        raise NonNegligibleImaginaryPartError(f"trace has imaginary part {raw.imag}")
    return raw.real


def joint_distribution(
    state: BipartiteState, a: ContextOperator, b: ContextOperator
) -> JointTable:
    """Born-rule joint table: P[i, j] = <state| (P_a,i x P_b,j) |state>."""
    if a.dim != state.local_dim or b.dim != state.local_dim:
        raise DimensionMismatchError(
            f"contexts of dimension {a.dim}, {b.dim} do not match local dimension {state.local_dim}"
        )
    amp = state.amplitudes
    left_projectors = a.projectors()
    right_projectors = b.projectors()
    p = np.empty((a.dim, b.dim), dtype=float)
    for i, pa in enumerate(left_projectors):
        for j, pb in enumerate(right_projectors):
            value = np.vdot(amp, np.kron(pa, pb) @ amp)
            p[i, j] = value.real
    return JointTable(
        left_labels=tuple(enumerate(a.spectrum)),
        right_labels=tuple(enumerate(b.spectrum)),
        probabilities=p,
        state_tag=state.label,
        left_context_tag=a.label,
        right_context_tag=b.label,
    )


def _support_components(support: np.ndarray) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Connected components of the bipartite support graph, as sorted
    (left slots, right slots) pairs ordered by smallest left slot."""
    n, m = support.shape
    seen_left: set[int] = set()
    components = []
    for start in range(n):
        if start in seen_left or not support[start].any():
            continue
        left: set[int] = set()
        right: set[int] = set()
        frontier = [("L", start)]
        while frontier:
            side, k = frontier.pop()
            if side == "L":
                if k in left:
                    continue
                left.add(k)
                frontier.extend(("R", j) for j in range(m) if support[k, j])
            else:
                if k in right:
                    continue
                right.add(k)
                frontier.extend(("L", i) for i in range(n) if support[i, k])
        seen_left |= left
        components.append((tuple(sorted(left)), tuple(sorted(right))))
    components.sort(key=lambda c: c[0][0])
    return components


def verify_uniqueness(table: JointTable, tol: float = SUPPORT_THRESHOLD) -> UniquenessReport:
    """Check whether the table's support is a slot bijection.

    Cells with probability above ``tol`` count as populated. The pairing is
    the best (probability-maximizing) slot matching, found exhaustively
    (tables here are at most 4x4). ``violation_mass`` is the probability
    outside that matching. Raises ValueError when no cell is populated."""
    p = table.probabilities
    n, m = p.shape
    if n != m:
        raise ValueError("uniqueness is defined for square tables")
    support = table.support(tol)

    best_mass = -1.0
    best_perm: tuple[int, ...] = tuple(range(n))
    for perm in itertools.permutations(range(n)):
        mass = float(sum(p[i, perm[i]] for i in range(n)))
        if mass > best_mass:
            best_mass = mass
            best_perm = perm
    pairing = tuple((i, best_perm[i]) for i in range(n) if support[i, best_perm[i]])
    violation_mass = float(p.sum() - best_mass)

    rows_single = bool(np.all(support.sum(axis=1) == 1))
    cols_single = bool(np.all(support.sum(axis=0) == 1))
    is_unique = rows_single and cols_single and violation_mass <= tol

    components = _support_components(support)
    block_structured = all(
        bool(support[np.ix_(left, right)].all()) for left, right in components
    )
    return UniquenessReport(
        is_unique=is_unique,
        pairing=pairing,
        violation_mass=violation_mass,
        blocks=tuple(components),
        block_structured=block_structured,
    )


def contextuality_criterion(
    table: JointTable, forbidden: list[tuple[int, int]] | tuple[tuple[int, int], ...]
) -> CriterionReport:
    """Probability report over the cells a contextual account predicts to
    be populated; quantum mechanics predicts zero total mass on them."""
    n, m = table.shape
    cells = []
    for i, j in forbidden:
        if not (0 <= i < n and 0 <= j < m):
            raise BadCellIndexError(f"cell ({i}, {j}) outside a {n}x{m} table")
        cells.append((int(i), int(j), float(table.probabilities[i, j])))
    mass = float(sum(c[2] for c in cells))
    return CriterionReport(forbidden_cells=tuple(cells), contextual_mass=mass)


def sequential_link_test(
    prepared: np.ndarray, measured: ContextOperator
) -> tuple[tuple[float, float], ...]:
    """Prepare-then-measure distribution for a single particle.

    The particle is prepared in the ray ``prepared`` (normalized here) and
    measured in ``measured``; returns (eigenvalue, probability) per outcome
    slot. Preparing a ray the context shares yields probability one on it.
    """
    ray = as_vector(prepared)
    norm = float(np.linalg.norm(ray))
    if norm == 0.0:
        raise ZeroVectorError("prepared ray must be nonzero")
    if ray.shape[0] != measured.dim:
        raise DimensionMismatchError(
            f"prepared ray has dimension {ray.shape[0]}, context has {measured.dim}"
        )
    unit = ray / norm
    return tuple(
        (lam, float(abs(np.vdot(basis_ray, unit)) ** 2))
        for lam, basis_ray in zip(measured.spectrum, measured.basis)
    )


def marginals(table: JointTable) -> tuple[np.ndarray, np.ndarray]:
    """Row sums (left outcome distribution) and column sums (right)."""
    p = table.probabilities
    return p.sum(axis=1), p.sum(axis=0)
