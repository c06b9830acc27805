"""Reference implementations that the tests judge the library by.

Each oracle is deliberately naive and independent of the code it checks:
one Kronecker product per table cell or expectation, a loop over every permutation, a
breadth-first search, a scan of all 2^n assignments, a backtracking
search, a pairwise ray scan that writes out the ray-match rule, one
single-batch draw per batch, and one ``csv.writer`` row per shot.
``sharing_pairs`` draws the custom basis pairs that the end-to-end tests
feed to the CLI and to these oracles.
"""

import csv
import io
import itertools
import math

import numpy as np
from hypothesis import strategies as st

from contextsim.sampler import derive_batch_seed, sample
from contextsim.tolerances import PAIRING_TIE_TOL, RAY_MATCH_TOL, SUPPORT_THRESHOLD


def projector(ray):
    """|u><u| for the unit ray u along ``ray``, as ``np.outer(u, u.conj())``."""
    u = np.asarray(ray, dtype=complex)
    u = u / np.linalg.norm(u)
    return np.outer(u, u.conj())


def kronecker_table(state, a, b):
    """P[i, j] = <state| P_a,i x P_b,j |state> with one Kronecker product per cell."""
    amp = state.amplitudes
    left = [projector(ray) for ray in a.basis]
    right = [projector(ray) for ray in b.basis]
    return np.array([[np.vdot(amp, np.kron(pa, pb) @ amp).real for pb in right] for pa in left])


def kronecker_expectation(state, a, b):
    """<state| A x B |state>, each side summed from its spectrum and projectors."""
    amp = state.amplitudes
    left = sum(x * projector(ray) for x, ray in zip(a.spectrum, a.basis))
    right = sum(x * projector(ray) for x, ray in zip(b.spectrum, b.basis))
    return np.vdot(amp, np.kron(left, right) @ amp).real


def uniqueness_oracle(p, tol=SUPPORT_THRESHOLD):
    """(pairing, violation mass, status) from a loop over every permutation.

    The first permutation whose mass lies within ``PAIRING_TIE_TOL`` of the
    greatest mass wins. The support is block-structured exactly when any two
    of its rows are equal or disjoint."""
    n = p.shape[0]
    support = p > tol
    masses = {perm: float(sum(p[i, perm[i]] for i in range(n))) for perm in itertools.permutations(range(n))}
    greatest = max(masses.values())
    best_perm = next(perm for perm, mass in masses.items() if mass >= greatest - PAIRING_TIE_TOL)
    best_mass = masses[best_perm]
    pairing = tuple((i, best_perm[i]) for i in range(n) if support[i, best_perm[i]])
    violation_mass = float(p.sum() - best_mass)
    singles = bool(np.all(support.sum(axis=0) == 1) and np.all(support.sum(axis=1) == 1))
    rows = [frozenset(np.flatnonzero(row)) for row in support]
    if singles and violation_mass <= tol:
        status = "unique"
    elif all(r == s or not r & s for r in rows for s in rows):
        status = "block-structured"
    else:
        status = "irregular"
    return pairing, violation_mass, status


def breadth_first_components(support):
    """Connected components of the bipartite support graph by a
    breadth-first search from each unvisited nonempty row."""
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
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.uint8)


def reference_csv(shots, table) -> bytes:
    """One ``csv.writer`` row per shot, its slots read from its cell by ``divmod``."""
    left_values, right_values = table.left_spectrum, table.right_spectrum
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(["shot", "left_slot", "left_eigenvalue", "right_slot", "right_eigenvalue"])
    for k, cell in enumerate(shots.tolist()):
        ls, rs = divmod(cell, len(right_values))
        writer.writerow([k, ls, f"{left_values[ls]:.15g}", rs, f"{right_values[rs]:.15g}"])
    return buffer.getvalue().encode("utf-8")


def brute_force_states(diagram):
    """Scan all 2^n assignments for the exactly-one-per-block rule."""
    ids = diagram.atom_ids
    blocks = diagram.blocks.tolist()
    found = []
    for bits in itertools.product((0, 1), repeat=len(ids)):
        if all(sum(bits[k] for k in block) == 1 for block in blocks):
            found.append(dict(zip(ids, bits)))
    return found


def backtracking_states(diagram):
    """Backtracking over atoms in diagram order with per-block counting. A
    block may never hold two 1s, and once fully assigned must hold exactly
    one; trying 0 before 1 gives lexicographic order."""
    ids = diagram.atom_ids
    blocks = diagram.blocks.tolist()
    blocks_of_atom = [[] for _ in ids]
    for b, block in enumerate(blocks):
        for k in block:
            blocks_of_atom[k].append(b)
    ones = [0] * len(blocks)
    unassigned = [len(block) for block in blocks]
    assignment = [0] * len(ids)
    found = []

    def assign(k):
        if k == len(ids):
            found.append(dict(zip(ids, assignment)))
            return
        for value in (0, 1):
            if any(
                ones[b] + value > 1 or (unassigned[b] == 1 and ones[b] + value == 0)
                for b in blocks_of_atom[k]
            ):
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


def pairwise_scan_witness(states, diagram):
    """The first atom pair, scanning pairs in atom order, that no state
    tells apart, or None."""
    for x, y in itertools.combinations(diagram.atom_ids, 2):
        if not any(s.assignment[x] != s.assignment[y] for s in states):
            return x, y
    return None


def span_one_ray(u, v):
    """Whether u and v span one ray: 1 - |<u, v>| / (|u| |v|) <= RAY_MATCH_TOL."""
    return 1.0 - abs(np.vdot(u, v)) / (np.linalg.norm(u) * np.linalg.norm(v)) <= RAY_MATCH_TOL


def first_match_oracle(contexts):
    """The ray of each atom, and each block as a list of atom indices, from
    a pairwise :func:`span_one_ray` scan in which each ray joins the first
    atom it matches."""
    rays, blocks = [], []
    for context in contexts:
        block = []
        for ray in context.basis:
            atom = next((m for m, first in enumerate(rays) if span_one_ray(first, ray)), None)
            if atom is None:
                atom = len(rays)
                rays.append(ray)
            block.append(atom)
        blocks.append(block)
    return rays, blocks


def random_unitary(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q


@st.composite
def sharing_pairs(draw):
    """A random d = 3 or 4 left basis, and a right basis that keeps k of its
    rays (0 <= k < d), each times a random phase, mixes the other d - k by a
    random unitary and lists its rays in random order. Mixing a single ray
    keeps it, so k = d - 1 shares all d rays. Every shared ray matches up to
    roundoff and every other pair misses RAY_MATCH_TOL by far, so no draw
    lies near the ray-match threshold."""
    d = draw(st.sampled_from((3, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(0, d - 1))
    left = random_unitary(rng, d)
    right = left.copy()
    right[:, :k] *= np.exp(2j * math.pi * rng.uniform(size=k))
    right[:, k:] = right[:, k:] @ random_unitary(rng, d - k)
    return left.T, right.T[rng.permutation(d)]
