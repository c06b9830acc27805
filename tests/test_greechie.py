"""Tests for orthogonality diagrams and two-valued-state enumeration."""

import contextlib
import io
import itertools
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from golden_drift import compare
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    backtracking_states,
    brute_force_states,
    first_match_oracle,
    pairwise_scan_witness,
    random_unitary,
    sharing_pairs,
    span_one_ray,
)

from contextsim import cli, greechie
from contextsim.errors import DimensionMismatchError, ZeroVectorError
from contextsim.greechie import (
    GreechieDiagram,
    TwoValuedState,
    TwoValuedStates,
    diagram_from_contexts,
    diagram_to_dict,
    is_separating,
    link_atoms,
    rays_match,
    two_valued_states,
)
from contextsim.observables import context_from_basis, four_dim_contexts, ks_context, ks_context_prime

KS18_FILE = Path(__file__).parent / "golden" / "custom-ks18-basis.json"


def states_view(ids, rows):
    """Hand-made two-valued states: a view over ``rows``, one 0/1 entry per
    atom of ``ids`` each."""
    return TwoValuedStates(ids, np.array(rows, dtype=np.uint8).reshape(-1, len(ids)))


def chain_diagram(length):
    """``length`` four-atom blocks, each sharing its last atom with the
    first atom of the next."""
    ids = tuple(f"a{k}" for k in range(3 * length + 1))
    blocks = [[3 * b + k for k in range(4)] for b in range(length)]
    return GreechieDiagram(atom_ids=ids, blocks=blocks, dim=4)


def ks18_diagram():
    """The diagram of Cabello, Estebaranz and Garcia-Alcaine's 18 rays."""
    bases = json.loads(KS18_FILE.read_text(encoding="utf-8"))["contexts"]
    return diagram_from_contexts(
        [context_from_basis([[complex(*z) for z in ray] for ray in basis], (1, 2, 3, 4)) for basis in bases]
    )


def peres_rays():
    """Peres' 33 rays in d = 3 (J. Phys. A 24, L175 (1991)): the coordinate
    permutations and sign changes of (0,0,1), (0,1,1), (0,1,sqrt2) and
    (1,1,sqrt2), one vector of each +-v pair, as unit rows."""
    rays = []
    for base in ((0, 0, 1), (0, 1, 1), (0, 1, math.sqrt(2)), (1, 1, math.sqrt(2))):
        for perm in itertools.permutations(base):
            for signs in itertools.product((1, -1), repeat=3):
                v = np.array(perm) * signs
                if not any(np.allclose(v, w) or np.allclose(v, -w) for w in rays):
                    rays.append(v)
    return np.array([v / np.linalg.norm(v) for v in rays])


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
    rays, blocks = first_match_oracle(contexts)
    assert diagram.blocks.tolist() == blocks
    assert diagram.atom_ids == tuple(f"a{m}" for m in range(len(rays)))
    assert np.array_equal(diagram.rays, np.array(rays))


def tripod_diagram():
    return diagram_from_contexts([ks_context(1, 2, 3), ks_context_prime(4, 5, 6)])


def two_link_diagram():
    pair = four_dim_contexts(1, 2, 3, 4)
    other = four_dim_contexts(5, 6, 7, 8)
    return diagram_from_contexts([pair.C, other.C_prime])


def test_tripod_pair_diagram_shape():
    diagram = tripod_diagram()
    assert len(diagram.atom_ids) == 5
    assert len(diagram.blocks) == 2
    assert link_atoms(diagram) == ["a0"]
    assert np.allclose(diagram.rays[diagram.atom_ids.index("a0")], [0.0, 1.0, 0.0])


def test_two_link_pair_diagram_shape():
    diagram = two_link_diagram()
    assert len(diagram.atom_ids) == 6
    assert len(diagram.blocks) == 2
    assert link_atoms(diagram) == ["a2", "a3"]


def test_identical_contexts_merge_completely():
    diagram = diagram_from_contexts([ks_context(1, 2, 3), ks_context(1, 2, 3)])
    assert len(diagram.atom_ids) == 3
    assert np.array_equal(diagram.blocks[0], diagram.blocks[1])


def test_diagram_construction_is_idempotent():
    first = tripod_diagram()
    second = tripod_diagram()
    assert np.array_equal(first.blocks, second.blocks)
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
        assert np.array_equal(diagram.blocks, reference.blocks)
        assert link_atoms(diagram) == link_atoms(reference)


def test_rays_match_semantics():
    u = np.array([1.0, 1j]) / math.sqrt(2)
    assert rays_match(u, u * np.exp(0.31j))
    assert not rays_match(u, np.array([1.0, -1j]) / math.sqrt(2))
    with pytest.raises(ZeroVectorError):
        rays_match(u, np.zeros(2))
    # Rays of different lengths never match, even where one pads the other with a zero.
    assert not rays_match(u, np.append(u, 0.0))


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
    ids = tuple(f"a{k}" for k in range(7))
    diagram = GreechieDiagram(atom_ids=ids, blocks=((0, 1, 2), (2, 3, 4), (4, 5, 6)), dim=3)
    states = two_valued_states(diagram)
    assert len(states) == len(brute_force_states(diagram))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_enumeration_matches_brute_force_on_random_small_diagrams(data):
    dim = data.draw(st.sampled_from((3, 4)))
    n = data.draw(st.integers(dim, 10))
    block = st.lists(st.integers(0, n - 1), min_size=dim, max_size=dim, unique=True)
    blocks = data.draw(st.lists(block, min_size=1, max_size=5))
    diagram = GreechieDiagram(atom_ids=tuple(f"a{k}" for k in range(n)), blocks=blocks, dim=dim)
    states = two_valued_states(diagram)
    assert [s.assignment for s in states] == brute_force_states(diagram) == backtracking_states(diagram)
    # The diagram's view and a hand-built view of the same rows give the
    # pairwise scan's verdict, and their items are equal.
    hand_built = states_view(diagram.atom_ids, diagram.state_bits.tolist())
    witness = pairwise_scan_witness(hand_built, diagram)
    assert is_separating(states, diagram) == is_separating(hand_built, diagram) == (witness is None, witness)
    assert list(states) == list(hand_built)
    assert len(states) < 2 or list(states) != list(hand_built)[::-1]


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
        assert np.all(bits[:, block].sum(axis=1) == 1)
    # Each row's bits, first atom most significant, as one integer: strictly
    # increasing keys mean distinct rows in lexicographic order.
    keys = np.pad(np.packbits(bits, axis=1), ((0, 0), (0, 2))).view(">u8").ravel()
    assert np.all(keys[1:] > keys[:-1])


def test_eighteen_ray_kochen_specker_set_has_no_two_valued_state():
    diagram = ks18_diagram()
    assert (len(diagram.atom_ids), len(diagram.blocks), len(link_atoms(diagram))) == (18, 9, 18)
    assert backtracking_states(diagram) == []
    states = two_valued_states(diagram)
    assert not states and len(states) == 0
    assert diagram.state_bits.shape == (0, 18)
    empty = states_view(diagram.atom_ids, [])
    assert is_separating(states, diagram) == is_separating(empty, diagram) == (False, ("a0", "a1"))


def test_peres_triads_form_a_separating_diagram_with_3072_states():
    units = peres_rays()
    orthogonal = np.abs(units @ units.T) < 1e-12
    pairs = [pair for pair in itertools.combinations(range(len(units)), 2) if orthogonal[pair]]
    triads = [
        t for t in itertools.combinations(range(len(units)), 3)
        if all(orthogonal[pair] for pair in itertools.combinations(t, 2))
    ]
    in_a_triad = {pair for t in triads for pair in itertools.combinations(t, 2)}
    assert (len(units), len(triads), len([p for p in pairs if p not in in_a_triad])) == (33, 16, 24)
    # A diagram holds only complete contexts, so the 24 lone orthogonal
    # pairs constrain nothing here.
    diagram = diagram_from_contexts([context_from_basis(units[list(t)], (1, 2, 3)) for t in triads])
    assert (len(diagram.atom_ids), len(diagram.blocks), len(link_atoms(diagram))) == (33, 16, 9)
    states = two_valued_states(diagram)
    assert len(states) == 3072
    assert [s.assignment for s in states] == backtracking_states(diagram)
    assert is_separating(states, diagram) == (True, None)
    # Once the lone pairs count, the set is uncolourable: every state gives
    # both rays of some lone pair the value 1.
    atom = [next(m for m, ray in enumerate(diagram.rays) if span_one_ray(ray, u)) for u in units]
    lone = np.array([(atom[i], atom[j]) for i, j in pairs if (i, j) not in in_a_triad])
    bits = diagram.state_bits
    assert np.all((bits[:, lone[:, 0]] & bits[:, lone[:, 1]]).any(axis=1))


def test_unsatisfiable_diagram_yields_no_states():
    # triangle of two-atom blocks: exactly-one-per-edge has no solution
    diagram = GreechieDiagram(atom_ids=("a", "b", "c"), blocks=((0, 1), (1, 2), (0, 2)), dim=2)
    assert len(two_valued_states(diagram)) == 0
    separating, witness = is_separating(states_view(diagram.atom_ids, []), diagram)
    assert not separating
    assert witness == ("a", "b")


@pytest.mark.parametrize("dim", [2, 5])
def test_a_diagram_of_any_dimension_builds_without_a_warning(dim):
    # Two blocks sharing one atom: either it holds the 1, or each block puts
    # its 1 on one of its dim - 1 other atoms.
    ids = tuple(f"a{k}" for k in range(2 * dim - 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        diagram = GreechieDiagram(atom_ids=ids, blocks=(range(dim), range(dim - 1, 2 * dim - 1)), dim=dim)
    assert link_atoms(diagram) == [f"a{dim - 1}"]
    assert len(two_valued_states(diagram)) == 1 + (dim - 1) ** 2


def test_named_diagrams_are_separating():
    for diagram in (tripod_diagram(), two_link_diagram()):
        states = two_valued_states(diagram)
        separating, witness = is_separating(states, diagram)
        assert separating and witness is None
        assert pairwise_scan_witness(states, diagram) is None


def test_separation_witness_is_the_first_pair_of_equal_columns():
    # Columns X, Y, Y, X: scanning columns for a repeat meets (a1, a2)
    # first, but the first pair in atom order is (a0, a3).
    diagram = GreechieDiagram(atom_ids=tuple(f"a{k}" for k in range(4)), blocks=(), dim=4)
    states = states_view(diagram.atom_ids, ((0, 1, 1, 0), (1, 0, 0, 1)))
    assert pairwise_scan_witness(states, diagram) == ("a0", "a3")
    assert is_separating(states, diagram) == (False, ("a0", "a3"))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.lists(st.lists(st.integers(0, 1), min_size=6, max_size=6), max_size=6))
def test_separation_matches_the_pairwise_scan(n_atoms, rows):
    diagram = GreechieDiagram(atom_ids=tuple(f"a{k}" for k in range(n_atoms)), blocks=(), dim=3)
    states = states_view(diagram.atom_ids, [row[:n_atoms] for row in rows])
    witness = pairwise_scan_witness(states, diagram)
    assert is_separating(states, diagram) == (witness is None, witness)


@pytest.mark.parametrize("n_atoms", [1, 2, 4])
def test_is_separating_takes_only_a_view_over_the_diagram_atoms(n_atoms):
    diagram = GreechieDiagram(atom_ids=tuple(f"a{k}" for k in range(n_atoms)), blocks=(), dim=3)
    states = list(two_valued_states(diagram))
    for wrong in ([], states, states_view(tuple(f"b{k}" for k in range(n_atoms)), [[0] * n_atoms])):
        with pytest.raises(TypeError, match="TwoValuedStates view"):
            is_separating(wrong, diagram)


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


def test_states_take_integer_keys_only():
    states = two_valued_states(diagram_from_contexts([ks_context(1, 2, 3), ks_context_prime(4, 5, 6)]))
    rows = [dict(zip(states.atom_ids, row)) for row in states.bits.tolist()]
    for key in (0, 4, -1, -5, np.int64(2), np.uint8(3), True, False):
        assert states[key].assignment == rows[key]
    for key in (slice(0, 2), np.array([0, 1]), 1.0, "0", None):
        with pytest.raises(TypeError):
            states[key]
    for key in (5, -6):
        with pytest.raises(IndexError):
            states[key]
    assert [state.assignment for state in states] == rows
    assert [state.assignment for state in reversed(states)] == rows[::-1]
    assert states[2] in states and states.index(states[3]) == 3


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


MALFORMED_BLOCKS = [
    ((0, 1),),  # a row of the wrong width
    ((0, 1, 2), (0, 1)),
    np.array([[0, 1]]),
    ((0, 0, 1),),  # a repeated index
    ((0, 1, 3),),  # an index past the last atom
    ((0, 1, -1),),  # a negative index, which numpy would read as the last atom
    np.array([[0, 1, -1]]),
    ((0, 1.0, 2),),  # a non-integer entry
    np.array([[0.0, 1.0, 2.0]]),
    ((0, "b", 2),),
    ((0, True, 2),),  # a bool entry, which numpy would read as 1
    np.array([[False, True, True]]),
]


def test_diagram_validation_rejects_malformed_blocks():
    for blocks in MALFORMED_BLOCKS:
        with pytest.raises(ValueError):
            GreechieDiagram(atom_ids=("a", "b", "c"), blocks=blocks, dim=3)


def test_diagram_validation_names_a_row_of_the_wrong_width():
    # The later checks would reject these rows too, under a wrong name:
    # "repeats an atom", or numpy's reshape error.
    for blocks in (((0, 1),), ((0, 1, 2, 3),), np.array([[0, 1]])):
        with pytest.raises(ValueError, match="does not have 3 atoms"):
            GreechieDiagram(atom_ids=("a", "b", "c", "d"), blocks=blocks, dim=3)


def test_diagram_validation_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="duplicate atom ids"):
        GreechieDiagram(atom_ids=("a", "b", "a"), blocks=((0, 1, 2),), dim=3)


def test_diagram_blocks_are_one_read_only_index_array():
    for blocks in (((2, 0, 1), (1, 2, 0)), np.array([[2, 0, 1], [1, 2, 0]], dtype=np.int32)):
        diagram = GreechieDiagram(atom_ids=("a", "b", "c"), blocks=blocks, dim=3)
        assert diagram.blocks.dtype == np.intp and not diagram.blocks.flags.writeable
        assert diagram.blocks.tolist() == [[2, 0, 1], [1, 2, 0]]
        assert diagram.rays is None
        assert diagram_to_dict(diagram) == {
            "dim": 3,
            "atoms": [{"id": atom, "ray": None} for atom in ("a", "b", "c")],
            "blocks": [["c", "a", "b"], ["b", "c", "a"]],
        }
    assert GreechieDiagram(atom_ids=("a", "b", "c"), blocks=(), dim=3).blocks.shape == (0, 3)
    built = tripod_diagram()
    assert built.blocks.dtype == np.intp and not built.blocks.flags.writeable
    assert built.rays.shape == (5, 3) and not built.rays.flags.writeable


def test_diagram_rays_are_a_read_only_copy_of_one_ray_per_atom():
    rays = np.eye(3)
    diagram = GreechieDiagram(atom_ids=("a", "b", "c"), blocks=((0, 1, 2),), dim=3, rays=rays)
    assert diagram.rays.dtype == complex and not diagram.rays.flags.writeable
    rays[0, 0] = 7.0
    assert diagram.rays[0, 0] == 1.0
    assert diagram_to_dict(diagram)["atoms"][0]["ray"] == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    for wrong in (np.eye(3)[:2], np.eye(4)[:3]):
        with pytest.raises(ValueError):
            GreechieDiagram(atom_ids=("a", "b", "c"), blocks=((0, 1, 2),), dim=3, rays=wrong)


def test_state_bits_rows_are_in_lexicographic_order():
    # Random diagrams of 3-atom blocks over few atoms, so that blocks overlap
    # and the enumeration leaves the rows of most diagrams out of order.
    rng = np.random.default_rng(7)
    several = 0
    for _ in range(300):
        n = int(rng.integers(3, 10))
        blocks = {tuple(sorted(rng.choice(n, 3, replace=False).tolist())) for _ in range(rng.integers(1, 6))}
        diagram = GreechieDiagram(atom_ids=tuple(f"a{k}" for k in range(n)), blocks=sorted(blocks), dim=3)
        bits = diagram.state_bits
        assert bits.tobytes() == bits[np.lexsort(bits.T[::-1])].tobytes()
        assert [dict(zip(diagram.atom_ids, row)) for row in bits.tolist()] == brute_force_states(diagram)
        several += len(bits) > 1
    assert several > 250


@settings(max_examples=100, deadline=None)
@given(sharing_pairs())
def test_states_report_equals_the_oracles_and_its_link_atoms_are_perfect(pair):
    left, right = pair
    d = len(left)
    payload = {side: [cli._ray_pairs(r) for r in rays] for side, rays in zip(("left", "right"), pair)}
    with tempfile.TemporaryDirectory() as tmp:
        basis = Path(tmp) / "pair.json"
        basis.write_text(json.dumps(payload), encoding="utf-8")

        def run(*argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main([*argv, "--scenario", "custom", "--basis-file", str(basis)]) == cli.EXIT_OK
            return json.loads(out.getvalue())

        report = run("states")
        contexts = [
            context_from_basis([[complex(*z) for z in ray] for ray in payload[side]], range(1, d + 1))
            for side in ("left", "right")
        ]
        rays, blocks = first_match_oracle(contexts)
        ids = [f"a{m}" for m in range(len(rays))]
        oracle = GreechieDiagram(atom_ids=tuple(ids), blocks=blocks, dim=d)
        states = [TwoValuedState(a) for a in brute_force_states(oracle)]
        witness = pairwise_scan_witness(states, oracle)
        expected = {
            "command": "states",
            "scenario": "custom",
            "dim": d,
            "atoms": [{"id": atom, "ray": cli._ray_pairs(ray)} for atom, ray in zip(ids, rays)],
            "blocks": [[ids[m] for m in block] for block in blocks],
            "link_atoms": [atom for m, atom in enumerate(ids) if sum(m in block for block in blocks) >= 2],
            "state_count": len(states),
            "two_valued_states": [s.assignment for s in states],
            "separating": witness is None,
            "inseparable_pair": None if witness is None else list(witness),
        }
        # The report prints floats at 15 significant digits.
        errors = []
        compare(expected, report, "states", [], errors)
        assert errors == []
        for atom in report["link_atoms"]:
            m = ids.index(atom)
            sequential = run("sequential", "--prepare-slot", str(blocks[0].index(m)))
            assert sequential["link_slot"] == blocks[1].index(m)
            assert sequential["perfect_link_correlation"] is True
