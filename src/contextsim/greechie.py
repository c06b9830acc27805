"""Orthogonality (Greechie) diagrams and two-valued-state enumeration.

A diagram is a hypergraph: atoms are rays, blocks are maximal contexts
(orthonormal bases). Atoms shared between blocks are link atoms. A
two-valued state assigns {0,1} to atoms with exactly one 1 per block, a
classical truth assignment.

A diagram and its states depend only on the contexts' rays, never on their
eigenvalues, so each diagram is built once per tuple of ray sets and its
states are enumerated once per diagram.
"""

from __future__ import annotations

import functools
import operator
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError
from .linalg import as_vector, unit_rows
from .observables import ContextOperator, RaySet
from .tolerances import RAY_MATCH_TOL

# How many diagrams diagram_from_contexts keeps, dropping the least recently
# used. A custom basis is a new RaySet on every call, so the memo is bounded.
_DIAGRAM_MEMO_SIZE = 32


@dataclass(frozen=True, eq=False)
class Atom:
    id: str
    ray: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class GreechieDiagram:
    """Atoms plus equal-size blocks; block size is the Hilbert dimension."""

    atoms: tuple[Atom, ...]
    blocks: tuple[tuple[str, ...], ...]
    dim: int

    def __post_init__(self):
        ids = [a.id for a in self.atoms]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate atom ids")
        known = set(ids)
        for block in self.blocks:
            if len(block) != self.dim:
                raise ValueError(f"block {block} does not have {self.dim} atoms")
            if len(set(block)) != self.dim:
                raise ValueError(f"block {block} repeats an atom")
            missing = set(block) - known
            if missing:
                raise ValueError(f"block references unknown atoms {sorted(missing)}")
        if self.dim == 2:
            warnings.warn(
                "dimension-2 blocks form isolated Boolean sublogics with no shared "
                "observables; accepted for negative tests only",
                stacklevel=3,
            )

    def atom_ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.atoms)

    @functools.cached_property
    def state_bits(self) -> np.ndarray:
        """Every two-valued state as one read-only (states, atoms) uint8
        matrix, rows in lexicographic order. Computed on first use and kept.

        The frontier of partial states grows one block at a time: a row
        whose block already holds one 1 is kept, a row with none gets one
        copy per atom of the block that no earlier block holds, with that
        atom set to 1, and a row with two or more 1s is dropped. Atoms in no
        block double the rows. ``np.lexsort`` then restores the order.
        """
        index = {atom_id: k for k, atom_id in enumerate(self.atom_ids())}
        n = len(index)
        unit = np.eye(n, dtype=np.uint8)
        rows = np.zeros((1, n), dtype=np.uint8)
        placed = np.zeros(n, dtype=bool)
        for block in self.blocks:
            atoms = np.array([index[a] for a in block])
            ones = rows[:, atoms].sum(axis=1)
            grown = rows[ones == 0][:, None, :] | unit[atoms[~placed[atoms]]]
            rows = np.concatenate([rows[ones == 1], grown.reshape(-1, n)])
            placed[atoms] = True
        for k in np.flatnonzero(~placed):
            rows = np.concatenate([rows, rows | unit[k]])
        if len(rows) > 1:
            rows = rows[np.lexsort(rows.T[::-1])]
        rows.setflags(write=False)
        return rows


@dataclass(frozen=True)
class TwoValuedState:
    """A {0,1} assignment with exactly one 1 in each block."""

    assignment: dict[str, int]


def _overlap_match(a_units: np.ndarray, b_units: np.ndarray) -> np.ndarray:
    """match[m, k]: unit row k of ``b_units`` spans the ray of unit row m of
    ``a_units``, that is 1 - |conj(A) B^T|[m, k] <= ``RAY_MATCH_TOL``. The
    one ray-match test of the package."""
    return 1.0 - np.abs(a_units.conj() @ b_units.T) <= RAY_MATCH_TOL


def rays_match(u: np.ndarray, v: np.ndarray) -> bool:
    """True when u and v span the same ray (the test of :func:`_overlap_match`).
    Rays of different lengths never match; a zero ray raises ZeroVectorError."""
    a = as_vector(u)
    b = as_vector(v)
    if a.shape != b.shape:
        return False
    return bool(_overlap_match(unit_rows(a[None, :]), unit_rows(b[None, :]))[0, 0])


def diagram_from_contexts(contexts: Sequence[ContextOperator]) -> GreechieDiagram:
    """Build the orthogonality diagram of a list of contexts.

    One block per context; basis rays that coincide up to a complex phase
    (within ``RAY_MATCH_TOL``, the test of :func:`_overlap_match`) are merged
    into a single atom, which makes shared (link) observables explicit. Atom
    ids follow first appearance, scanning contexts in order and each basis
    in slot order; a ray that matches several atoms joins the first.

    The diagram depends only on the contexts' ray sets, so it is kept per
    tuple of :class:`RaySet` objects (by identity) and the same object is
    returned for the same ray sets at any spectra. Sharing it is safe: a ray
    set holds read-only arrays and a diagram is immutable.
    """
    if not contexts:
        raise ValueError("need at least one context")
    dim = contexts[0].dim
    if any(c.dim != dim for c in contexts):
        raise DimensionMismatchError("all contexts must share one dimension")
    return _diagram(tuple(c.rays for c in contexts))


@functools.lru_cache(maxsize=_DIAGRAM_MEMO_SIZE)
def _diagram(ray_sets: tuple[RaySet, ...]) -> GreechieDiagram:
    """The diagram of contexts with these ray sets, from one overlap matrix
    of all their unit rows."""
    dim = ray_sets[0].dim
    units = np.vstack([r.units for r in ray_sets])
    match = _overlap_match(units, units).tolist()
    firsts: list[int] = []  # the ray that opened each atom
    ids: list[str] = []
    for k in range(len(match)):
        atom = next((m for m, first in enumerate(firsts) if match[first][k]), len(firsts))
        if atom == len(firsts):
            firsts.append(k)
        ids.append(f"a{atom}")
    atoms = tuple(Atom(id=f"a{m}", ray=ray_sets[k // dim].basis[k % dim]) for m, k in enumerate(firsts))
    blocks = tuple(tuple(ids[c * dim : (c + 1) * dim]) for c in range(len(ray_sets)))
    return GreechieDiagram(atoms=atoms, blocks=blocks, dim=dim)


def link_atoms(diagram: GreechieDiagram) -> list[str]:
    """Atoms appearing in two or more blocks, in atom order."""
    counts = {a.id: 0 for a in diagram.atoms}
    for block in diagram.blocks:
        for atom_id in block:
            counts[atom_id] += 1
    return [a.id for a in diagram.atoms if counts[a.id] >= 2]


def two_valued_states(diagram: GreechieDiagram) -> list[TwoValuedState]:
    """All {0,1} assignments with exactly one 1 per block, exhaustively.

    One state per row of ``diagram.state_bits``, so the order is
    lexicographic in the assignment bits and results are deterministic.
    Each call returns new dicts, which a caller may change freely. The
    empty list is a valid outcome.
    """
    ids = diagram.atom_ids()
    return [TwoValuedState(assignment=dict(zip(ids, row))) for row in diagram.state_bits.tolist()]


def is_separating(
    states: Sequence[TwoValuedState], diagram: GreechieDiagram
) -> tuple[bool, tuple[str, str] | None]:
    """Whether every atom pair is told apart by some state.

    Returns (True, None) when separating, otherwise (False, pair) with the
    first atom pair (in atom order) that no state distinguishes. Two atoms
    are told apart exactly when their columns in the (states, atoms) bit
    matrix of ``states`` differ, so the pair is the lexicographically first
    pair of equal columns. With no states every column is equal.
    """
    ids = diagram.atom_ids()
    if len(ids) < 2:
        return True, None
    get = operator.itemgetter(*ids)
    n = len(states)
    bits = np.array([get(s.assignment) for s in states], dtype=np.uint8).reshape(n, len(ids))
    # Column j of the bit matrix is raw[j * n : (j + 1) * n].
    raw = bits.T.tobytes()
    first: dict[bytes, int] = {}
    pairs = [(first.setdefault(raw[j * n : (j + 1) * n], j), j) for j in range(len(ids))]
    witness = min((pair for pair in pairs if pair[0] != pair[1]), default=None)
    if witness is None:
        return True, None
    return False, (ids[witness[0]], ids[witness[1]])


def diagram_to_dict(diagram: GreechieDiagram) -> dict:
    """The diagram as the ``states`` report prints it: atoms carry optional
    rays as [re, im] pair lists."""
    return {
        "dim": diagram.dim,
        "atoms": [
            {
                "id": atom.id,
                "ray": None
                if atom.ray is None
                else [[float(z.real), float(z.imag)] for z in atom.ray],
            }
            for atom in diagram.atoms
        ],
        "blocks": [list(block) for block in diagram.blocks],
    }
