"""Tests for spin-1 observables and context operators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import projector

from contextsim.errors import DegenerateSpectrumError, NonOrthonormalBasisError, ZeroVectorError
from contextsim.linalg import hermitian_eigensystem, is_hermitian
from contextsim.observables import (
    ContextOperator,
    Direction,
    check_distinct_spectrum,
    context_from_basis,
    four_dim_contexts,
    ks_context,
    ks_context_prime,
    spin1_eigensystem,
    spin1_operator,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)
# Each tripod builder with its outcome rays and the azimuth of its x axis.
TRIPODS = (
    (ks_context, [[0.0, 1.0, 0.0], [INV_SQRT2, 0.0, INV_SQRT2], [-INV_SQRT2, 0.0, INV_SQRT2]], 0.0),
    (ks_context_prime, [[0.0, 1.0, 0.0], [-1j * INV_SQRT2, 0.0, INV_SQRT2], [1j * INV_SQRT2, 0.0, INV_SQRT2]], math.pi / 4),
)


def _is_distinct(spectrum):
    try:
        check_distinct_spectrum(spectrum)
    except DegenerateSpectrumError:
        return False
    return True


SPECTRA_3 = st.tuples(*[st.floats(min_value=-1e9, max_value=1e9)] * 3).filter(_is_distinct)


def spin_squared_combination(spectrum, x_phi):
    """The paper's tripod observable (1/2)[(a+b-g) Jx^2 + (a-b+g) Jy^2 + (b+g-a) Jz^2]
    with x along azimuth ``x_phi``, y a quarter turn further, z the pole."""

    def j_squared(theta, phi):
        j = spin1_operator(Direction(theta, phi))
        return j @ j

    a, b, g = spectrum
    return 0.5 * (
        (a + b - g) * j_squared(math.pi / 2, x_phi)
        + (a - b + g) * j_squared(math.pi / 2, x_phi + math.pi / 2)
        + (b + g - a) * j_squared(0.0, 0.0)
    )


def synthesis_bound(spectrum):
    return 1e-10 * max(1.0, max(map(abs, spectrum)))


def random_directions(seed, count):
    rng = np.random.default_rng(seed)
    return [
        Direction(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi))
        for _ in range(count)
    ]


def test_direction_normalization():
    d = Direction(-0.3, 0.0)
    assert abs(d.theta - 0.3) < 1e-12
    assert abs(d.phi - math.pi) < 1e-12
    d = Direction(math.pi / 3, 5.0 * math.pi)
    assert abs(d.phi - math.pi) < 1e-12
    assert Direction(math.pi, 0.0).theta == math.pi


@pytest.mark.parametrize("theta, phi", [(math.nan, 0.0), (0.0, math.inf)])
def test_direction_rejects_a_non_finite_angle(theta, phi):
    with pytest.raises(ValueError, match="angles must be finite"):
        Direction(theta, phi)


def test_spin1_operator_along_z():
    assert np.allclose(spin1_operator(Direction(0.0, 0.0)), np.diag([1.0, 0.0, -1.0]))


def test_spin1_operator_along_x():
    j = spin1_operator(Direction(math.pi / 2, 0.0))
    expected = np.array(
        [
            [0.0, INV_SQRT2, 0.0],
            [INV_SQRT2, 0.0, INV_SQRT2],
            [0.0, INV_SQRT2, 0.0],
        ]
    )
    assert np.max(np.abs(j - expected)) < 1e-12


def test_spin1_operator_along_y_sign_pattern():
    j = spin1_operator(Direction(math.pi / 2, math.pi / 2))
    assert abs(j[0, 1] - (-1j * INV_SQRT2)) < 1e-12
    assert abs(j[1, 0] - (1j * INV_SQRT2)) < 1e-12
    assert abs(j[1, 2] - (-1j * INV_SQRT2)) < 1e-12
    assert abs(j[2, 1] - (1j * INV_SQRT2)) < 1e-12
    assert np.allclose(np.diag(j), 0.0)


def test_spin1_operator_is_hermitian_traceless_with_unit_spectrum():
    for d in random_directions(3, 25):
        j = spin1_operator(d)
        assert is_hermitian(j)
        assert abs(np.trace(j)) < 1e-12
        w, _ = hermitian_eigensystem(j)
        assert np.allclose(w, [-1.0, 0.0, 1.0], atol=1e-10)


def test_spin1_eigensystem_along_z():
    pairs = spin1_eigensystem(Direction(0.0, 0.0))
    assert [lam for lam, _ in pairs] == [1.0, 0.0, -1.0]
    vectors = [v for _, v in pairs]
    assert np.allclose(vectors[0], [1.0, 0.0, 0.0])
    assert np.allclose(vectors[1], [0.0, 1.0, 0.0])
    assert np.allclose(vectors[2], [0.0, 0.0, 1.0])


def test_spin1_eigensystem_x_axis_null_vector():
    _, x_zero = spin1_eigensystem(Direction(math.pi / 2, 0.0))[1]
    assert np.allclose(x_zero, [-INV_SQRT2, 0.0, INV_SQRT2])


def test_spin1_eigensystem_satisfies_eigen_equation():
    for d in random_directions(5, 50):
        j = spin1_operator(d)
        for lam, v in spin1_eigensystem(d):
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12
            assert np.max(np.abs(j @ v - lam * v)) < 1e-10


def test_spin1_eigensystem_orthonormal():
    for d in random_directions(9, 20):
        vectors = [v for _, v in spin1_eigensystem(d)]
        gram = np.array([[np.vdot(u, v) for v in vectors] for u in vectors])
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12


def test_ks_context_matrix_value():
    expected = np.array([[2.5, 0.0, -0.5], [0.0, 1.0, 0.0], [-0.5, 0.0, 2.5]])
    assert np.max(np.abs(ks_context(1, 2, 3).matrix - expected)) < 1e-12


def test_ks_context_spectrum_for_random_triples():
    rng = np.random.default_rng(21)
    for _ in range(20):
        spectrum = np.sort(rng.uniform(-5.0, 5.0, size=3))
        if np.min(np.diff(spectrum)) < 1e-6:
            continue
        for builder in (ks_context, ks_context_prime):
            w, _ = hermitian_eigensystem(builder(*spectrum).matrix)
            assert np.max(np.abs(w - spectrum)) < 1e-9


def test_ks_contexts_share_the_link_ray_on_the_same_slot():
    c = ks_context(1, 2, 3)
    cp = ks_context_prime(4, 5, 6)
    overlap = abs(np.vdot(c.basis[0], cp.basis[0]))
    assert abs(overlap - 1.0) < 1e-12
    assert c.spectrum[0] == 1.0 and cp.spectrum[0] == 4.0


@settings(max_examples=60, deadline=None)
@given(SPECTRA_3)
def test_ks_context_two_construction_paths_agree(spectrum):
    # The matrix synthesized from the declared rays is the spin-squared combination.
    for build, _, x_phi in TRIPODS:
        matrix = build(*spectrum).matrix
        oracle = spin_squared_combination(spectrum, x_phi)
        assert np.max(np.abs(matrix - oracle)) <= synthesis_bound(spectrum)


def test_editing_a_returned_basis_leaves_the_next_context_unchanged():
    builds = (
        lambda: ks_context(1, 2, 3),
        lambda: ks_context_prime(1, 2, 3),
        lambda: four_dim_contexts(1, 2, 3, 4).C,
        lambda: four_dim_contexts(1, 2, 3, 4).C_prime,
    )
    for build in builds:
        first = build()
        basis, matrix = first.basis.copy(), first.matrix.copy()
        for array in (first.basis, first.units, first.matrix):
            with pytest.raises(ValueError, match="read-only"):
                array[:] = 0.0
        second = build()
        assert np.array_equal(second.basis, basis)
        assert np.array_equal(second.matrix, matrix)


def test_a_callers_basis_stays_writable_and_unshared():
    rays = np.eye(3, dtype=complex)
    context = ContextOperator(rays, (1.0, 2.0, 3.0))
    rays[0, 0] = 2.0
    assert rays.flags.writeable
    assert context.basis[0, 0] == 1.0


def test_ks_context_prime_eigenbasis():
    cp = ks_context_prime(1, 2, 3)
    m = cp.matrix
    for lam, ray in zip(cp.spectrum, cp.basis):
        assert np.max(np.abs(m @ ray - lam * ray)) < 1e-12
    assert np.allclose(cp.basis[1], [-1j * INV_SQRT2, 0.0, INV_SQRT2])
    assert np.allclose(cp.basis[2], [1j * INV_SQRT2, 0.0, INV_SQRT2])


def test_four_dim_context_is_diagonal():
    pair = four_dim_contexts(1, 2, 3, 4)
    assert np.allclose(pair.C.matrix, np.diag([1.0, 2.0, 3.0, 4.0]))


def test_four_dim_context_prime_block():
    cp = four_dim_contexts(1, 2, 3, 4).C_prime.matrix
    assert np.allclose(cp[:2, :2], [[1.5, -0.5], [-0.5, 1.5]])
    assert np.allclose(cp[2:, 2:], np.diag([3.0, 4.0]))
    assert np.allclose(cp[:2, 2:], 0.0)


def test_four_dim_contexts_share_two_rays():
    pair = four_dim_contexts(1, 2, 3, 4)
    for slot in (2, 3):
        overlap = abs(np.vdot(pair.C.basis[slot], pair.C_prime.basis[slot]))
        assert abs(overlap - 1.0) < 1e-12


def test_four_dim_contexts_do_not_commute_for_generic_spectra():
    pair = four_dim_contexts(1, 2, 3, 4)
    c, cp = pair.C.matrix, pair.C_prime.matrix
    commutator = c @ cp - cp @ c
    min_gap = 1.0
    assert np.max(np.abs(commutator)) > 0.1 * min_gap
    # but they agree on the shared rays
    for slot in (2, 3):
        ray = pair.C.basis[slot]
        assert np.max(np.abs(commutator @ ray)) < 1e-12


def test_context_from_basis_standard():
    c = context_from_basis(np.eye(3, dtype=complex), (1.0, 2.0, 3.0))
    assert np.allclose(c.matrix, np.diag([1.0, 2.0, 3.0]))


@settings(max_examples=60, deadline=None)
@given(SPECTRA_3)
def test_context_from_basis_matches_spin_operator_construction(spectrum):
    for _, rays, x_phi in TRIPODS:
        c = context_from_basis(rays, spectrum)
        oracle = spin_squared_combination(spectrum, x_phi)
        assert np.max(np.abs(c.matrix - oracle)) <= synthesis_bound(spectrum)


def test_context_from_basis_rejects_non_orthonormal_input():
    bad = (
        np.array([1.0, 0.0, 0.0], dtype=complex),
        np.array([INV_SQRT2, INV_SQRT2, 0.0], dtype=complex),
        np.array([0.0, 0.0, 1.0], dtype=complex),
    )
    with pytest.raises(NonOrthonormalBasisError):
        context_from_basis(bad, (1.0, 2.0, 3.0))


def test_degenerate_spectra_are_rejected():
    with pytest.raises(DegenerateSpectrumError):
        ks_context(1.0, 1.0, 2.0)
    with pytest.raises(DegenerateSpectrumError):
        four_dim_contexts(1.0, 2.0, 3.0, 3.0 + 1e-9)
    with pytest.raises(DegenerateSpectrumError):
        context_from_basis(np.eye(3, dtype=complex), (0.0, 0.0, 1.0))


def test_distinct_is_relative_to_the_spectrum_scale():
    # 1e-8 * max(1, max|λ|): a gap of 1 at 1e9 is a repeat, a gap of 64 is not.
    with pytest.raises(DegenerateSpectrumError):
        ks_context(1e9, 1e9 + 1.0, 3.0)
    assert ks_context(1e9, 1e9 + 64.0, 3.0).spectrum == (1e9, 1e9 + 64.0, 3.0)
    with pytest.raises(DegenerateSpectrumError):
        context_from_basis(np.eye(3, dtype=complex), (0.5, 0.5 + 5e-9, 0.25))


def test_a_degenerate_spectrum_names_its_first_coinciding_pair_in_the_order_given():
    # Sorting first would name (1.0, 1.000000001) for both spectra.
    with pytest.raises(DegenerateSpectrumError, match=r"^eigenvalues 1\.000000001 and 1\.0 coincide within 5e-08$"):
        check_distinct_spectrum((5.0, 1.0 + 1e-9, 1.0))
    with pytest.raises(DegenerateSpectrumError, match=r"^eigenvalues 1\.0 and 1\.000000001 coincide within 5e-08$"):
        check_distinct_spectrum((1.0, 5.0, 1.0 + 1e-9, 1.0 + 2e-9))


def test_rays_off_unit_norm_keep_the_declared_spectrum():
    # The basis check accepts norms 1 +- 1e-8; the synthesis must divide them out.
    rays = np.array([[INV_SQRT2, 0, INV_SQRT2], [0, 1, 0], [-INV_SQRT2, 0, INV_SQRT2]])
    rays *= np.array([[1 + 5e-9], [1 - 5e-9], [1 + 3e-9]])
    spectrum = (1.0, 2.0, 3.0)
    exact = sum(x * projector(ray) for x, ray in zip(spectrum, rays))
    assert np.max(np.abs(context_from_basis(rays, spectrum).matrix - exact)) <= 1e-15
    assert np.max(np.abs(ContextOperator(rays, spectrum).matrix - exact)) <= 1e-15


@pytest.mark.parametrize(
    "basis, error",
    [
        ([], NonOrthonormalBasisError),
        (np.zeros((0, 0)), NonOrthonormalBasisError),
        ([[1, 0, 0], [0, 1], [0, 0, 1]], NonOrthonormalBasisError),
        ([np.eye(3)[0], np.eye(2)[1], np.eye(3)[2]], NonOrthonormalBasisError),
        ([[1, 0], [0, 1], [0, 0]], NonOrthonormalBasisError),
        ([[1, 0, 0], [0, 1, 0]], NonOrthonormalBasisError),
        (np.eye(3)[:2], NonOrthonormalBasisError),
        ([[[1], [0], [0]], [[0], [1], [0]], [[0], [0], [1]]], ValueError),
        ([[1, 0, 0], [[0, 1, 0]], [0, 0, 1]], ValueError),
        ([1, 0, 0], ValueError),
        ([None, [0, 1, 0], [0, 0, 1]], ValueError),
        ([[np.nan, 0, 0], [0, 1, 0], [0, 0, 1]], ValueError),
        ([[1, 0, 0], [0, np.inf, 0], [0, 0, 1]], ValueError),
        ([[np.nan, 0], [0, 1, 0], [0, 0, 1]], ValueError),
        ([[np.nan, 0], [0, 1], [1, 1]], ValueError),
        ([["a", "0", "0"], [0, 1, 0], [0, 0, 1]], ValueError),
        (None, TypeError),
    ],
)
def test_context_from_basis_error_classes(basis, error):
    # Empty, ragged, wrong-length, not 1-D and non-finite bases, each with
    # the exception class it has always raised. A non-orthonormal basis and
    # a zero ray have their own tests.
    with pytest.raises(Exception) as caught:
        context_from_basis(basis, (1.0, 2.0, 3.0))
    assert caught.type is error


def test_context_from_basis_rejects_a_zero_ray():
    with pytest.raises(ZeroVectorError):
        context_from_basis([np.zeros(3), np.eye(3)[1], np.eye(3)[2]], (1.0, 2.0, 3.0))


def test_context_outcome_projectors_resolve_identity():
    for context in (ks_context(1, 2, 3), ks_context_prime(4, 5, 6), four_dim_contexts(1, 2, 3, 4).C_prime):
        total = sum(projector(ray) for ray in context.basis)
        assert np.max(np.abs(total - np.eye(context.dim))) <= 1e-9


def test_a_context_stores_its_spectrum_as_a_tuple_of_floats():
    assert ks_context(1, 2, 3).spectrum == (1.0, 2.0, 3.0)
    assert all(type(x) is float for x in ks_context(1, 2, 3).spectrum)
    context = context_from_basis(np.eye(3), [1, 2, 3])
    assert type(context.spectrum) is tuple and all(type(x) is float for x in context.spectrum)
