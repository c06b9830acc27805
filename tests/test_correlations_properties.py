"""Property tests of Born-rule tables and diagrams over random context pairs.

Context pairs come from random orthonormal bases in d = 3 and d = 4 (QR
factors of complex Gaussian matrices) on the matching singlet, with random
distinct spectra. The right basis mixes the first ``k`` rays of the left
basis by a random unitary and keeps the rest, so pairs that share d - k
(link) rays are drawn as well as pairs that share none.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from contextsim.correlations import expectation, joint_distribution, marginals
from contextsim.greechie import diagram_from_contexts
from contextsim.observables import context_from_basis
from contextsim.states import density, singlet

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
    assert diagram_from_contexts(rephased).blocks == diagram.blocks


@SETTINGS
@given(pairs())
def test_swapping_the_sides_transposes_the_table(pair):
    d, left, right, lam, mu, _ = pair
    state = singlet(d)
    a, b = contexts(left, right, lam, mu)
    forward = joint_distribution(state, a, b).probabilities
    swapped = joint_distribution(state, b, a).probabilities
    assert np.max(np.abs(swapped - forward.T)) <= 1e-12
