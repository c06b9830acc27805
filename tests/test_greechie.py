"""Tests for orthogonality diagrams and two-valued-state enumeration."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextsim.errors import DimensionMismatchError, ZeroVectorError
from contextsim.greechie import (
    Atom,
    GreechieDiagram,
    diagram_from_contexts,
    diagram_to_dict,
    is_separating,
    link_atoms,
    rays_match,
    two_valued_states,
)
from contextsim.observables import context_from_basis, four_dim_contexts, ks_context, ks_context_prime


def brute_force_states(diagram):
    """Oracle: scan all 2^n assignments for the exactly-one-per-block rule."""
    ids = diagram.atom_ids()
    found = []
    for bits in itertools.product((0, 1), repeat=len(ids)):
        assignment = dict(zip(ids, bits))
        if all(sum(assignment[a] for a in block) == 1 for block in diagram.blocks):
            found.append(assignment)
    return found


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
    assert [s.assignment for s in states] == brute_force_states(diagram)


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
        # oracle: pairwise scan
        ids = diagram.atom_ids()
        for x, y in itertools.combinations(ids, 2):
            assert any(s.assignment[x] != s.assignment[y] for s in states)


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
