"""Orthogonality (Greechie) diagrams and two-valued-state enumeration.

A diagram is a hypergraph: atoms are rays, blocks are maximal contexts
(orthonormal bases). Atoms shared between blocks are link atoms. A
two-valued state assigns {0,1} to atoms with exactly one 1 per block, a
classical truth assignment.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError
from .linalg import as_vector, unit_rows
from .observables import ContextOperator
from .tolerances import RAY_MATCH_TOL


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
    """
    if not contexts:
        raise ValueError("need at least one context")
    dim = contexts[0].dim
    if any(c.dim != dim for c in contexts):
        raise DimensionMismatchError("all contexts must share one dimension")
    atoms: list[Atom] = []
    atom_units = np.empty((0, dim), dtype=complex)
    blocks: list[tuple[str, ...]] = []
    for context in contexts:
        # match[m, k]: ray k of this context spans the ray of atom m.
        match = _overlap_match(atom_units, context.units)
        block: list[str] = []
        for k, ray in enumerate(context.basis):
            hits = np.flatnonzero(match[:, k])
            if hits.size:
                block.append(atoms[hits[0]].id)
            else:
                atoms.append(Atom(id=f"a{len(atoms)}", ray=ray))
                block.append(atoms[-1].id)
        atom_units = np.vstack([atom_units, context.units[~match.any(axis=0)]])
        blocks.append(tuple(block))
    return GreechieDiagram(atoms=tuple(atoms), blocks=tuple(blocks), dim=dim)


def link_atoms(diagram: GreechieDiagram) -> list[str]:
    """Atoms appearing in two or more blocks, in atom order."""
    counts = {a.id: 0 for a in diagram.atoms}
    for block in diagram.blocks:
        for atom_id in block:
            counts[atom_id] += 1
    return [a.id for a in diagram.atoms if counts[a.id] >= 2]


def two_valued_states(diagram: GreechieDiagram) -> list[TwoValuedState]:
    """All {0,1} assignments with exactly one 1 per block, exhaustively.

    Backtracking over atoms in diagram order with per-block counting: a
    block may never hold two 1s, and once fully assigned must hold exactly
    one. Output order is lexicographic in the assignment bits, so results
    are deterministic. The empty list is a valid outcome.
    """
    ids = diagram.atom_ids()
    index = {atom_id: k for k, atom_id in enumerate(ids)}
    blocks = [tuple(index[a] for a in block) for block in diagram.blocks]
    blocks_of_atom: list[list[int]] = [[] for _ in ids]
    for b, block in enumerate(blocks):
        for k in block:
            blocks_of_atom[k].append(b)

    ones = [0] * len(blocks)
    unassigned = [len(block) for block in blocks]
    assignment = [0] * len(ids)
    found: list[TwoValuedState] = []

    def assign(k: int) -> None:
        if k == len(ids):
            found.append(
                TwoValuedState(assignment={ids[i]: assignment[i] for i in range(len(ids))})
            )
            return
        for value in (0, 1):
            ok = True
            for b in blocks_of_atom[k]:
                new_ones = ones[b] + value
                if new_ones > 1:
                    ok = False
                    break
                if unassigned[b] == 1 and new_ones == 0:
                    ok = False
                    break
            if not ok:
                continue
            assignment[k] = value
            for b in blocks_of_atom[k]:
                ones[b] += value
                unassigned[b] -= 1
            assign(k + 1)
            for b in blocks_of_atom[k]:
                ones[b] -= value
                unassigned[b] += 1
        assignment[k] = 0

    assign(0)
    return found


def is_separating(
    states: Sequence[TwoValuedState], diagram: GreechieDiagram
) -> tuple[bool, tuple[str, str] | None]:
    """Whether every atom pair is told apart by some state.

    Returns (True, None) when separating, otherwise (False, pair) with the
    first atom pair (in atom order) that no state distinguishes.
    """
    ids = diagram.atom_ids()
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            if not any(s.assignment[ids[i]] != s.assignment[ids[j]] for s in states):
                return False, (ids[i], ids[j])
    return True, None


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
