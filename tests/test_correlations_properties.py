"""Property tests of Born-rule tables and diagrams over random context pairs.

Context pairs come from random orthonormal bases in d = 3 and d = 4 (QR
factors of complex Gaussian matrices) on the matching singlet, with random
distinct spectra. The right basis mixes the first ``k`` rays of the left
basis by a random unitary and keeps the rest, so pairs that share d - k
(link) rays are drawn as well as pairs that share none. The oracle tests
also give every ray a random phase and scale its norm by 1 +- 1e-9, which the
basis check accepts and the predictions must undo.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import kronecker_table, projector, span_one_ray, uniqueness_oracle

from contextsim.correlations import (
    JointTable,
    expectation,
    expectation_scale,
    joint_distribution,
    marginals,
    sequential_link_test,
    verify_uniqueness,
)
from contextsim.greechie import diagram_from_contexts
from contextsim.observables import context_from_basis
from contextsim.states import DensityMatrix, density, singlet

SETTINGS = settings(max_examples=60, deadline=None)
EIGENVALUE = st.one_of(
    st.integers(-20, 20).map(float),
    st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
)


def spectra(d):
    return st.lists(EIGENVALUE, min_size=d, max_size=d).filter(
        lambda v: min(abs(x - y) for i, x in enumerate(v) for y in v[i + 1 :]) > 1e-6
    )


def unitary(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q


@st.composite
def pairs(draw):
    """(d, left basis, right basis, left spectrum, right spectrum, rng)."""
    d = draw(st.sampled_from((3, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    left = unitary(rng, d)
    k = draw(st.integers(1, d))
    right = left.copy()
    right[:, :k] = left[:, :k] @ unitary(rng, k)
    return d, list(left.T), list(right.T), draw(spectra(d)), draw(spectra(d)), rng


def contexts(left, right, left_spectrum, right_spectrum):
    return context_from_basis(left, left_spectrum), context_from_basis(right, right_spectrum)


def rescaled(rays, rng):
    """Each ray times a random phase and a norm factor within 1 +- 1e-9."""
    return [ray * np.exp(2j * np.pi * rng.uniform()) * (1.0 + rng.uniform(-1e-9, 1e-9)) for ray in rays]


@SETTINGS
@given(pairs())
def test_tables_are_distributions_with_uniform_marginals(pair):
    d, left, right, lam, mu, _ = pair
    table = joint_distribution(singlet(d), *contexts(left, right, lam, mu))
    p = table.probabilities
    assert p.shape == (d, d)
    assert (p >= 0.0).all()
    assert abs(p.sum() - 1.0) <= 1e-12
    for marginal in marginals(table):
        assert np.max(np.abs(marginal - 1.0 / d)) <= 1e-12


@SETTINGS
@given(pairs())
def test_spectra_contracted_with_the_table_give_the_expectation(pair):
    d, left, right, lam, mu, _ = pair
    state = singlet(d)
    a, b = contexts(left, right, lam, mu)
    table = joint_distribution(state, a, b)
    contracted = np.array(lam) @ table.probabilities @ np.array(mu)
    assert abs(contracted - expectation(density(state), a, b)) <= 1e-9


@SETTINGS
@given(pairs())
def test_ray_phases_change_neither_the_table_nor_the_diagram(pair):
    d, left, right, lam, mu, rng = pair
    state = singlet(d)
    table = joint_distribution(state, *contexts(left, right, lam, mu))
    diagram = diagram_from_contexts(contexts(left, right, lam, mu))

    def rephase(rays):
        return [ray * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) for ray in rays]

    rephased = contexts(rephase(left), rephase(right), lam, mu)
    assert np.max(np.abs(joint_distribution(state, *rephased).probabilities - table.probabilities)) <= 1e-12
    assert np.array_equal(diagram_from_contexts(rephased).blocks, diagram.blocks)


@SETTINGS
@given(pairs())
def test_swapping_the_sides_transposes_the_table(pair):
    d, left, right, lam, mu, _ = pair
    state = singlet(d)
    a, b = contexts(left, right, lam, mu)
    forward = joint_distribution(state, a, b).probabilities
    swapped = joint_distribution(state, b, a).probabilities
    assert np.max(np.abs(swapped - forward.T)) <= 1e-12


@SETTINGS
@given(pairs())
def test_joint_table_equals_the_kronecker_projector_oracle(pair):
    d, left, right, lam, mu, rng = pair
    state = singlet(d)
    a, b = contexts(rescaled(left, rng), rescaled(right, rng), lam, mu)
    table = joint_distribution(state, a, b).probabilities
    assert np.max(np.abs(table - kronecker_table(state, a, b))) <= 1e-14


@SETTINGS
@given(pairs(), st.integers(1, 16))
def test_expectation_on_a_mixed_state_equals_the_kronecker_trace(pair, rank):
    d, left, right, lam, mu, rng = pair
    left, right = rescaled(left, rng), rescaled(right, rng)
    a, b = contexts(left, right, lam, mu)
    w = rng.standard_normal((d * d, min(rank, d * d))) + 1j * rng.standard_normal((d * d, min(rank, d * d)))
    rho = w @ w.conj().T
    rho /= np.trace(rho).real
    # A and B from the rays, not from a.matrix, so a synthesis that skips the normalization shows.
    a_matrix = sum(x * projector(ray) for x, ray in zip(lam, left))
    b_matrix = sum(x * projector(ray) for x, ray in zip(mu, right))
    oracle = np.trace(rho @ np.kron(a_matrix, b_matrix)).real
    assert abs(expectation(DensityMatrix(rho), a, b) - oracle) <= 1e-12 * expectation_scale(a, b)


@SETTINGS
@given(pairs())
def test_sequential_distribution_equals_the_projector_oracle(pair):
    d, left, right, lam, mu, rng = pair
    a, _ = contexts(rescaled(left, rng), right, lam, mu)
    prepared = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    unit = prepared / np.linalg.norm(prepared)
    oracle = [np.vdot(unit, projector(ray) @ unit).real for ray in a.basis]
    distribution, link_slot = sequential_link_test(prepared, a)
    assert [x for x, _ in distribution] == list(a.spectrum)
    assert np.max(np.abs(np.array([p for _, p in distribution]) - oracle)) <= 1e-14
    assert link_slot == next((k for k, u in enumerate(a.basis) if span_one_ray(u, prepared)), None)
    # The last right ray is the last left ray, up to phase and norm, unless all d were mixed.
    _, shared_slot = sequential_link_test(right[-1], a)
    assert shared_slot == next((k for k, u in enumerate(a.basis) if span_one_ray(u, right[-1])), None)


@pytest.mark.parametrize("lowest, accepted", [(-2e-10, False), (-5e-11, True)])
def test_density_matrix_tolerates_only_roundoff_below_zero(lowest, accepted):
    q = unitary(np.random.default_rng(11), 9)
    spectrum = np.array([lowest, *[(1.0 - lowest) / 8] * 8])
    matrix = (q * spectrum) @ q.conj().T
    if accepted:
        assert DensityMatrix(matrix).dim == 9
    else:
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(matrix)


def square_table(weights):
    p = np.asarray(weights, dtype=float)
    p = p / p.sum()
    spectrum = tuple(float(k) for k in range(p.shape[0]))
    return JointTable(spectrum, spectrum, p)


def assert_uniqueness_matches_the_oracle(table):
    report = verify_uniqueness(table)
    assert (report.pairing, report.violation_mass, report.status) == uniqueness_oracle(table.probabilities)


@st.composite
def square_weights(draw):
    """n x n nonnegative weights, n in {2, 3, 4}: small integers, whose
    tables tie often, or floats, with exact zeros among them."""
    n = draw(st.sampled_from((2, 3, 4)))
    entry = draw(st.sampled_from((st.integers(0, 3).map(float), st.floats(0.0, 1.0) | st.just(0.0))))
    weights = np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n))).reshape(n, n)
    if weights.sum() == 0.0:
        weights[0, 0] = 1.0
    return weights


@settings(max_examples=300, deadline=None)
@given(square_weights())
def test_uniqueness_equals_the_permutation_loop_oracle(weights):
    assert_uniqueness_matches_the_oracle(square_table(weights))


@pytest.mark.parametrize("n", (2, 3, 4))
def test_an_all_tie_table_pairs_slot_by_slot(n):
    table = square_table(np.ones((n, n)))
    assert_uniqueness_matches_the_oracle(table)
    assert verify_uniqueness(table).pairing == tuple((i, i) for i in range(n))


def test_of_two_equal_best_permutations_the_first_wins():
    # (0, 2, 1) and (1, 0, 2) both carry mass 1/2; (0, 2, 1) comes first.
    table = square_table([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    assert_uniqueness_matches_the_oracle(table)
    assert verify_uniqueness(table).pairing == ((0, 0), (1, 2), (2, 1))
