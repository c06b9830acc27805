"""Orthogonality (Greechie) diagrams and two-valued-state enumeration.

A diagram is a hypergraph: atoms are rays, blocks are maximal contexts
(orthonormal bases). Atoms shared between blocks are link atoms. A
two-valued state assigns {0,1} to atoms with exactly one 1 per block, a
classical truth assignment.

A diagram and its states depend only on the contexts' rays, never on their
eigenvalues, so each diagram is built once per tuple of ray sets and its
states are enumerated once per diagram, into one bit matrix that
:func:`two_valued_states` and :func:`is_separating` read.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .linalg import as_vector, same_ray, unit_rows
from .observables import ContextOperator, RaySet

# How many entries each analysis memo keeps, dropping the least recently
# used: the diagrams here and the support structures in correlations. A
# custom basis is a new RaySet on every call, so the memos are bounded.
MEMO_SIZE = 32


@dataclass(frozen=True, eq=False)
class GreechieDiagram:
    """Atom ids plus equal-size blocks; block size is the Hilbert dimension.

    ``blocks`` is one read-only (blocks, dim) intp array: row b holds the
    indices into ``atom_ids`` of block b's atoms. It may be given as any
    sequence of rows of Python ints, or as an integer array. ``rays`` holds
    each atom's ray as one read-only (atoms, dim) complex array, or is None
    for a hand-built diagram; a given array is copied, not frozen.
    """

    atom_ids: tuple[str, ...]
    blocks: np.ndarray
    dim: int
    rays: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.atom_ids)
        if len(set(self.atom_ids)) != n:
            raise ValueError("duplicate atom ids")
        # Checked as Python ints: numpy would wrap a negative index and
        # read True as 1.
        rows = self.blocks.tolist() if isinstance(self.blocks, np.ndarray) else self.blocks
        for block in rows:
            if len(block) != self.dim:
                raise ValueError(f"block {block} does not have {self.dim} atoms")
            if not all(type(k) is int and 0 <= k < n for k in block):
                raise ValueError(f"block {block} holds an entry that is not an atom index in [0, {n})")
            if len(set(block)) != self.dim:
                raise ValueError(f"block {block} repeats an atom")
        blocks = np.array(rows, dtype=np.intp).reshape(len(rows), self.dim)
        blocks.setflags(write=False)
        object.__setattr__(self, "blocks", blocks)
        if self.rays is not None:
            rays = np.array(self.rays, dtype=complex)
            if rays.shape != (n, self.dim):
                raise ValueError(f"rays have shape {rays.shape}, not ({n}, {self.dim})")
            rays.setflags(write=False)
            object.__setattr__(self, "rays", rays)

    @functools.cached_property
    def state_bits(self) -> np.ndarray:
        """Every two-valued state as one read-only (states, atoms) uint8
        matrix, rows in lexicographic order. Computed on first use and kept.

        The frontier of partial states grows one block at a time: a row
        whose block already holds one 1 is kept, a row with none gets one
        copy per atom of the block that no earlier block holds, with that
        atom set to 1, and a row with two or more 1s is dropped. Atoms in no
        block double the rows. Sorting each row as one n-byte record then
        restores the lexicographic order.
        """
        n = len(self.atom_ids)
        unit = np.eye(n, dtype=np.uint8)
        rows = np.zeros((1, n), dtype=np.uint8)
        placed = np.zeros(n, dtype=bool)
        for atoms in self.blocks:
            ones = rows[:, atoms].sum(axis=1)
            grown = rows[ones == 0][:, None, :] | unit[atoms[~placed[atoms]]]
            rows = np.concatenate([rows[ones == 1], grown.reshape(-1, n)])
            placed[atoms] = True
        for k in np.flatnonzero(~placed):
            rows = np.concatenate([rows, rows | unit[k]])
        if len(rows) > 1:
            # One n-byte record per row: numpy orders raw bytes like memcmp.
            rows = np.sort(rows.view(f"V{n}"), axis=0).view(np.uint8)
        rows.setflags(write=False)
        return rows


@dataclass(frozen=True)
class TwoValuedState:
    """A {0,1} assignment with exactly one 1 in each block."""

    assignment: dict[str, int]


class TwoValuedStates(Sequence):
    """The two-valued states of a diagram as a read-only sequence: a view
    over its ``state_bits`` and atom ids, in the matrix's row order.

    Reading an item builds a :class:`TwoValuedState` with a fresh dict,
    which a caller may change freely; the matrix itself is shared. Keys are
    integers only, as for a list: a slice, array or float raises TypeError.
    Iteration runs through the integer index and ends on numpy's IndexError.
    A plain class: a dataclass would cost import time in every process.
    """

    __slots__ = ("atom_ids", "bits")

    def __init__(self, atom_ids: tuple[str, ...], bits: np.ndarray):
        self.atom_ids = atom_ids
        self.bits = bits

    def __len__(self) -> int:
        return len(self.bits)

    def __getitem__(self, k: int) -> TwoValuedState:
        return TwoValuedState(assignment=dict(zip(self.atom_ids, self.bits[operator.index(k)].tolist())))


def rays_match(u: np.ndarray, v: np.ndarray) -> bool:
    """True when u and v span the same ray (the rule of :func:`linalg.same_ray`).
    Rays of different lengths never match; a zero ray raises ZeroVectorError."""
    a = as_vector(u)
    b = as_vector(v)
    if a.shape != b.shape:
        return False
    return bool(same_ray(np.abs(unit_rows(a[None, :]).conj() @ unit_rows(b[None, :]).T))[0, 0])


def diagram_from_contexts(contexts: Sequence[ContextOperator]) -> GreechieDiagram:
    """Build the orthogonality diagram of a list of contexts.

    One block per context; basis rays that coincide up to a complex phase
    (within ``RAY_MATCH_TOL``, the rule of :func:`linalg.same_ray`) are merged
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


@functools.lru_cache(maxsize=MEMO_SIZE)
def _diagram(ray_sets: tuple[RaySet, ...]) -> GreechieDiagram:
    """The diagram of contexts with these ray sets, from one overlap matrix
    of all their unit rows."""
    dim = ray_sets[0].dim
    units = np.vstack([r.units for r in ray_sets])
    match = same_ray(np.abs(units.conj() @ units.T)).tolist()
    firsts: list[int] = []  # the ray that opened each atom
    atoms: list[int] = []  # the atom of each ray
    for k in range(len(match)):
        atom = next((m for m, first in enumerate(firsts) if match[first][k]), len(firsts))
        if atom == len(firsts):
            firsts.append(k)
        atoms.append(atom)
    rays = np.vstack([r.basis for r in ray_sets])[firsts]
    ids = tuple(f"a{m}" for m in range(len(firsts)))
    blocks = [atoms[k : k + dim] for k in range(0, len(atoms), dim)]
    return GreechieDiagram(atom_ids=ids, blocks=blocks, dim=dim, rays=rays)


def link_atoms(diagram: GreechieDiagram) -> list[str]:
    """Atoms appearing in two or more blocks, in atom order."""
    counts = np.bincount(diagram.blocks.ravel(), minlength=len(diagram.atom_ids))
    return [diagram.atom_ids[k] for k in np.flatnonzero(counts >= 2).tolist()]


def two_valued_states(diagram: GreechieDiagram) -> TwoValuedStates:
    """All {0,1} assignments with exactly one 1 per block, exhaustively.

    A read-only view with one state per row of ``diagram.state_bits``, so
    the order is lexicographic in the assignment bits and results are
    deterministic. No state is built until it is read. The empty sequence
    is a valid outcome.
    """
    return TwoValuedStates(diagram.atom_ids, diagram.state_bits)


def is_separating(
    states: TwoValuedStates, diagram: GreechieDiagram
) -> tuple[bool, tuple[str, str] | None]:
    """Whether every atom pair is told apart by some state.

    Returns (True, None) when separating, otherwise (False, pair) with the
    first atom pair (in atom order) that no state distinguishes. Two atoms
    are told apart exactly when their columns in the (states, atoms) bit
    matrix of ``states`` differ, so the pair is the lexicographically first
    pair of equal columns. With no states every column is equal. Raises
    TypeError unless ``states`` is a :class:`TwoValuedStates` view over the
    diagram's atom ids.
    """
    ids = diagram.atom_ids
    if not (isinstance(states, TwoValuedStates) and states.atom_ids == ids):
        raise TypeError("states must be a TwoValuedStates view over the diagram's atom ids")
    bits = states.bits
    n = len(bits)
    # Column j of the bit matrix is raw[j * n : (j + 1) * n].
    raw = bits.T.tobytes()
    first: dict[bytes, int] = {}
    pairs = [(first.setdefault(raw[j * n : (j + 1) * n], j), j) for j in range(len(ids))]
    witness = min((pair for pair in pairs if pair[0] != pair[1]), default=None)
    if witness is None:
        return True, None
    return False, (ids[witness[0]], ids[witness[1]])


def diagram_to_dict(diagram: GreechieDiagram) -> dict:
    """The diagram as the ``states`` report prints it: each atom carries its
    ray as [re, im] pairs, or None, and each block its atom ids."""
    ids = diagram.atom_ids
    if diagram.rays is None:
        rays = [None] * len(ids)
    else:
        rays = [[[z.real, z.imag] for z in ray] for ray in diagram.rays.tolist()]
    return {
        "dim": diagram.dim,
        "atoms": [{"id": atom_id, "ray": ray} for atom_id, ray in zip(ids, rays)],
        "blocks": [[ids[k] for k in block] for block in diagram.blocks.tolist()],
    }
