"""Tests for orthogonality diagrams and two-valued-state enumeration."""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextsim import greechie
from contextsim.errors import DimensionMismatchError, ZeroVectorError
from contextsim.greechie import (
    Atom,
    GreechieDiagram,
    TwoValuedState,
    diagram_from_contexts,
    diagram_to_dict,
    is_separating,
    link_atoms,
    rays_match,
    two_valued_states,
)
from contextsim.observables import context_from_basis, four_dim_contexts, ks_context, ks_context_prime

KS18_FILE = Path(__file__).parent / "golden" / "custom-ks18-basis.json"


def brute_force_states(diagram):
    """Oracle: scan all 2^n assignments for the exactly-one-per-block rule."""
    ids = diagram.atom_ids()
    found = []
    for bits in itertools.product((0, 1), repeat=len(ids)):
        assignment = dict(zip(ids, bits))
        if all(sum(assignment[a] for a in block) == 1 for block in diagram.blocks):
            found.append(assignment)
    return found


def backtracking_states(diagram):
    """Oracle: backtracking over atoms in diagram order with per-block
    counting. A block may never hold two 1s, and once fully assigned must
    hold exactly one; trying 0 before 1 gives lexicographic order."""
    ids = diagram.atom_ids()
    index = {atom_id: k for k, atom_id in enumerate(ids)}
    blocks = [tuple(index[a] for a in block) for block in diagram.blocks]
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
    """Oracle: the first atom pair, scanning pairs in atom order, that no
    state tells apart, or None."""
    for x, y in itertools.combinations(diagram.atom_ids(), 2):
        if not any(s.assignment[x] != s.assignment[y] for s in states):
            return x, y
    return None


def chain_diagram(length):
    """``length`` four-atom blocks, each sharing its last atom with the
    first atom of the next."""
    atoms = tuple(Atom(id=f"a{k}") for k in range(3 * length + 1))
    blocks = tuple(tuple(f"a{3 * b + k}" for k in range(4)) for b in range(length))
    return GreechieDiagram(atoms=atoms, blocks=blocks, dim=4)


def ks18_diagram():
    """The diagram of Cabello, Estebaranz and Garcia-Alcaine's 18 rays."""
    bases = json.loads(KS18_FILE.read_text(encoding="utf-8"))["contexts"]
    return diagram_from_contexts(
        [context_from_basis([[complex(*z) for z in ray] for ray in basis], (1, 2, 3, 4)) for basis in bases]
    )


def first_match_oracle(contexts):
    """Oracle: atoms and blocks from a pairwise rays_match scan in which each
    ray joins the first atom it matches."""
    atoms, blocks = [], []
    for context in contexts:
        block = []
        for ray in context.basis:
            atom = next((atom for atom in atoms if rays_match(atom.ray, ray)), None)
            if atom is None:
                atom = Atom(id=f"a{len(atoms)}", ray=ray)
                atoms.append(atom)
            block.append(atom.id)
        blocks.append(tuple(block))
    return atoms, blocks


def random_unitary(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q


# Tilts come in steps of 0.9e-4 rad: rays one step apart match within
# RAY_MATCH_TOL (1 - cos = 4.1e-9), rays two or more steps apart do not
# (1 - cos >= 1.6e-8), so a ray between two atoms matches both.
TILT_STEP = 0.9e-4


@st.composite
def tilted_contexts(draw):
    """Two to four contexts on one random basis. Each tilts the plane of its
    last two rays by a multiple of TILT_STEP, then mixes its first k rays by
    a random unitary, so up to the tilt it keeps between 0 and d rays of the
    base; every ray gets a random phase and a norm within 1 +- 1e-9."""
    d = draw(st.sampled_from((3, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = random_unitary(rng, d)
    contexts = []
    for _ in range(draw(st.integers(2, 4))):
        t = TILT_STEP * draw(st.integers(0, 3))
        rays = base.copy()
        rays[:, -2:] = rays[:, -2:] @ np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
        k = draw(st.integers(0, d))
        if k > 1:
            rays[:, :k] = rays[:, :k] @ random_unitary(rng, k)
        scale = np.exp(2j * math.pi * rng.uniform(size=d)) * (1.0 + rng.uniform(-1e-9, 1e-9, size=d))
        contexts.append(context_from_basis(list(rays.T * scale[:, None]), range(1, d + 1)))
    return contexts


@settings(max_examples=150, deadline=None)
@given(tilted_contexts())
def test_diagram_equals_the_pairwise_first_match_oracle(contexts):
    diagram = diagram_from_contexts(contexts)
    atoms, blocks = first_match_oracle(contexts)
    assert diagram.blocks == tuple(blocks)
    assert [a.id for a in diagram.atoms] == [a.id for a in atoms]
    assert all(np.array_equal(a.ray, b.ray) for a, b in zip(diagram.atoms, atoms))


def tripod_diagram():
    return diagram_from_contexts([ks_context(1, 2, 3), ks_context_prime(4, 5, 6)])


def two_link_diagram():
    pair = four_dim_contexts(1, 2, 3, 4)
    other = four_dim_contexts(5, 6, 7, 8)
    return diagram_from_contexts([pair.C, other.C_prime])


def test_tripod_pair_diagram_shape():
    diagram = tripod_diagram()
    assert len(diagram.atoms) == 5
    assert len(diagram.blocks) == 2
    assert link_atoms(diagram) == ["a0"]
    link = next(a for a in diagram.atoms if a.id == "a0")
    assert np.allclose(link.ray, [0.0, 1.0, 0.0])


def test_two_link_pair_diagram_shape():
    diagram = two_link_diagram()
    assert len(diagram.atoms) == 6
    assert len(diagram.blocks) == 2
    assert link_atoms(diagram) == ["a2", "a3"]


def test_identical_contexts_merge_completely():
    diagram = diagram_from_contexts([ks_context(1, 2, 3), ks_context(1, 2, 3)])
    assert len(diagram.atoms) == 3
    assert diagram.blocks[0] == diagram.blocks[1]


def test_diagram_construction_is_idempotent():
    first = tripod_diagram()
    second = tripod_diagram()
    assert first.blocks == second.blocks
    assert link_atoms(first) == link_atoms(second)


def test_ray_merging_is_phase_robust():
    rng = np.random.default_rng(53)
    contexts = [ks_context(1, 2, 3), ks_context_prime(4, 5, 6)]
    reference = diagram_from_contexts(contexts)
    for _ in range(5):
        rephased = []
        for context in contexts:
            basis = tuple(
                ray * np.exp(1j * rng.uniform(0, 2 * math.pi)) for ray in context.basis
            )
            rephased.append(context_from_basis(basis, context.spectrum, label=context.label))
        diagram = diagram_from_contexts(rephased)
        assert diagram.blocks == reference.blocks
        assert link_atoms(diagram) == link_atoms(reference)


def test_rays_match_semantics():
    u = np.array([1.0, 1j]) / math.sqrt(2)
    assert rays_match(u, u * np.exp(0.31j))
    assert not rays_match(u, np.array([1.0, -1j]) / math.sqrt(2))
    with pytest.raises(ZeroVectorError):
        rays_match(u, np.zeros(2))


def test_diagram_rejects_mixed_dimensions():
    with pytest.raises(DimensionMismatchError):
        diagram_from_contexts([ks_context(1, 2, 3), four_dim_contexts(1, 2, 3, 4).C])


def test_tripod_pair_has_exactly_five_states():
    diagram = tripod_diagram()
    states = two_valued_states(diagram)
    assert len(states) == 5
    oracle = brute_force_states(diagram)
    assert len(oracle) == 5
    assert [s.assignment for s in states] == sorted(oracle, key=lambda a: tuple(a.values()))
    link = link_atoms(diagram)[0]
    assert sum(s.assignment[link] for s in states) == 1


def test_two_link_pair_has_exactly_six_states():
    diagram = two_link_diagram()
    states = two_valued_states(diagram)
    assert len(states) == 6
    assert len(brute_force_states(diagram)) == 6


def test_single_block_yields_one_state_per_atom():
    diagram = diagram_from_contexts([ks_context(1, 2, 3)])
    states = two_valued_states(diagram)
    assert len(states) == 3
    assert len(brute_force_states(diagram)) == 3


def test_enumeration_matches_brute_force_on_a_chain_of_blocks():
    # three tripods chained by shared legs
    atoms = tuple(Atom(id=f"a{k}") for k in range(7))
    blocks = (("a0", "a1", "a2"), ("a2", "a3", "a4"), ("a4", "a5", "a6"))
    diagram = GreechieDiagram(atoms=atoms, blocks=blocks, dim=3)
    states = two_valued_states(diagram)
    assert len(states) == len(brute_force_states(diagram))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_enumeration_matches_brute_force_on_random_small_diagrams(data):
    dim = data.draw(st.sampled_from((3, 4)))
    ids = [f"a{k}" for k in range(data.draw(st.integers(dim, 10)))]
    block = st.lists(st.sampled_from(ids), min_size=dim, max_size=dim, unique=True).map(tuple)
    blocks = tuple(data.draw(st.lists(block, min_size=1, max_size=5)))
    diagram = GreechieDiagram(atoms=tuple(Atom(id=i) for i in ids), blocks=blocks, dim=dim)
    states = two_valued_states(diagram)
    assert [s.assignment for s in states] == brute_force_states(diagram) == backtracking_states(diagram)


@pytest.mark.parametrize("length", [6, 10])
def test_bit_matrix_matches_backtracking_on_chains_of_blocks(length):
    diagram = chain_diagram(length)
    states = two_valued_states(diagram)
    assert [s.assignment for s in states] == backtracking_states(diagram)


def test_bit_matrix_counts_the_states_of_a_chain_of_fourteen_blocks():
    diagram = chain_diagram(14)
    bits = diagram.state_bits
    assert bits.shape == (390_050, 43)
    for block in diagram.blocks:
        assert np.all(bits[:, [int(a[1:]) for a in block]].sum(axis=1) == 1)
    # Each row's bits, first atom most significant, as one integer: strictly
    # increasing keys mean distinct rows in lexicographic order.
    keys = np.pad(np.packbits(bits, axis=1), ((0, 0), (0, 2))).view(">u8").ravel()
    assert np.all(keys[1:] > keys[:-1])


def test_eighteen_ray_kochen_specker_set_has_no_two_valued_state():
    diagram = ks18_diagram()
    assert (len(diagram.atoms), len(diagram.blocks), len(link_atoms(diagram))) == (18, 9, 18)
    assert backtracking_states(diagram) == []
    assert two_valued_states(diagram) == []
    assert diagram.state_bits.shape == (0, 18)
    assert is_separating([], diagram) == (False, ("a0", "a1"))


def test_unsatisfiable_diagram_yields_no_states():
    # triangle of two-atom blocks: exactly-one-per-edge has no solution
    atoms = tuple(Atom(id=x) for x in ("a", "b", "c"))
    blocks = (("a", "b"), ("b", "c"), ("a", "c"))
    with pytest.warns(UserWarning):
        diagram = GreechieDiagram(atoms=atoms, blocks=blocks, dim=2)
    assert two_valued_states(diagram) == []
    separating, witness = is_separating([], diagram)
    assert not separating
    assert witness == ("a", "b")


def test_named_diagrams_are_separating():
    for diagram in (tripod_diagram(), two_link_diagram()):
        states = two_valued_states(diagram)
        separating, witness = is_separating(states, diagram)
        assert separating and witness is None
        assert pairwise_scan_witness(states, diagram) is None


def test_separation_witness_is_the_first_pair_of_equal_columns():
    # Columns X, Y, Y, X: scanning columns for a repeat meets (a1, a2)
    # first, but the first pair in atom order is (a0, a3).
    diagram = GreechieDiagram(atoms=tuple(Atom(id=f"a{k}") for k in range(4)), blocks=(), dim=4)
    states = [TwoValuedState(dict(zip(diagram.atom_ids(), bits))) for bits in ((0, 1, 1, 0), (1, 0, 0, 1))]
    assert pairwise_scan_witness(states, diagram) == ("a0", "a3")
    assert is_separating(states, diagram) == (False, ("a0", "a3"))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.lists(st.lists(st.integers(0, 1), min_size=6, max_size=6), max_size=6))
def test_separation_matches_the_pairwise_scan(n_atoms, rows):
    diagram = GreechieDiagram(atoms=tuple(Atom(id=f"a{k}") for k in range(n_atoms)), blocks=(), dim=3)
    states = [TwoValuedState(dict(zip(diagram.atom_ids(), row))) for row in rows]
    witness = pairwise_scan_witness(states, diagram)
    assert is_separating(states, diagram) == (witness is None, witness)


def test_named_rays_share_one_diagram_across_spectra():
    first = diagram_from_contexts([ks_context(1, 2, 3), ks_context_prime(4, 5, 6)])
    second = diagram_from_contexts([ks_context(-7, 0.5, 9), ks_context_prime(2, 1, 3)])
    assert second is first
    assert diagram_from_contexts([ks_context_prime(4, 5, 6), ks_context(1, 2, 3)]) is not first


def test_each_call_returns_fresh_state_dicts():
    diagram = tripod_diagram()
    first = two_valued_states(diagram)
    first[0].assignment["a0"] = 7
    second = two_valued_states(diagram)
    assert second[0].assignment["a0"] == 0
    assert second[0].assignment is not first[0].assignment


def test_state_bit_matrix_is_read_only():
    bits = tripod_diagram().state_bits
    assert bits.dtype == np.uint8 and not bits.flags.writeable
    with pytest.raises(ValueError):
        bits[0, 0] = 1


def test_diagram_memo_stays_within_its_bound_over_custom_bases():
    rng = np.random.default_rng(7)
    for _ in range(100):
        diagram_from_contexts(
            [context_from_basis(list(random_unitary(rng, 3).T), (1, 2, 3)) for _ in range(2)]
        )
    info = greechie._diagram.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


def test_diagram_dict_form_keeps_rays_as_real_imag_pairs():
    data = diagram_to_dict(tripod_diagram())
    assert data["dim"] == 3
    assert data["blocks"][0] == ["a0", "a1", "a2"]
    ray = data["atoms"][0]["ray"]
    assert ray == [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]


def test_diagram_validation_rejects_malformed_blocks():
    atoms = (Atom(id="a"), Atom(id="b"), Atom(id="c"))
    with pytest.raises(ValueError):
        GreechieDiagram(atoms=atoms, blocks=(("a", "b"),), dim=3)
    with pytest.raises(ValueError):
        GreechieDiagram(atoms=atoms, blocks=(("a", "a", "b"),), dim=3)
    with pytest.raises(ValueError):
        GreechieDiagram(atoms=atoms, blocks=(("a", "b", "z"),), dim=3)
