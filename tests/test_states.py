"""Tests for the singlet states, density matrices, and invariance checks."""

import math

import numpy as np
import pytest

from contextsim.errors import DimensionMismatchError, NoConvergenceError, UnsupportedDimensionError
from contextsim.linalg import is_unitary
from contextsim.observables import Direction, spin1_operator
from contextsim.states import (
    BipartiteState,
    DensityMatrix,
    check_rotation_invariance,
    density,
    rotation_operator_spin1,
    singlet,
    spin1_singlet,
    spin32_singlet,
    unitary_invariance_defect,
)


def partial_trace(rho, d, over_right):
    """Oracle partial trace via index reshuffling of the d*d x d*d matrix."""
    r = rho.reshape(d, d, d, d)
    if over_right:
        return np.einsum("ikjk->ij", r)
    return np.einsum("ikil->kl", r)


def test_spin1_singlet_amplitudes():
    amp = spin1_singlet().amplitudes
    s = 1.0 / math.sqrt(3.0)
    assert abs(amp[4] - (-s)) < 1e-15
    assert abs(amp[2] - s) < 1e-15 and abs(amp[6] - s) < 1e-15
    for k in (0, 1, 3, 5, 7, 8):
        assert amp[k] == 0.0
    assert abs(np.linalg.norm(amp) - 1.0) < 1e-15


def test_spin32_singlet_amplitudes():
    amp = spin32_singlet().amplitudes
    assert amp[3] == 0.5
    assert amp[12] == -0.5
    assert amp[6] == -0.5
    assert amp[9] == 0.5
    assert np.count_nonzero(amp) == 4
    assert abs(np.linalg.norm(amp) - 1.0) < 1e-15


def test_spin32_singlet_odd_under_particle_swap():
    amp = spin32_singlet().amplitudes
    swapped = amp.reshape(4, 4).T.reshape(16)
    assert np.array_equal(swapped, -amp)


def test_spin1_singlet_even_under_particle_swap():
    amp = spin1_singlet().amplitudes
    swapped = amp.reshape(3, 3).T.reshape(9)
    assert np.array_equal(swapped, amp)


def test_state_validation_rejects_bad_norm():
    with pytest.raises(ValueError):
        BipartiteState(local_dim=3, amplitudes=np.ones(9))


def test_state_validation_rejects_a_small_dimension_and_a_wrong_length():
    with pytest.raises(ValueError, match="local dimension must be at least 2"):
        BipartiteState(local_dim=1, amplitudes=np.ones(1))
    with pytest.raises(ValueError, match="expected 9 amplitudes, got 4"):
        BipartiteState(local_dim=3, amplitudes=np.full(4, 0.5))


def test_density_matrix_rejects_a_non_hermitian_or_non_unit_trace_matrix():
    with pytest.raises(ValueError, match="must be Hermitian"):
        DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="must have unit trace"):
        DensityMatrix(np.eye(2))


def test_rotation_operator_rejects_a_non_finite_angle():
    with pytest.raises(ValueError, match="angle must be finite"):
        rotation_operator_spin1(Direction(0.0, 0.0), math.inf)


def test_density_is_pure_with_unit_trace():
    rho = density(spin1_singlet()).matrix
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12
    # real symmetric: every amplitude of this state is real
    assert np.max(np.abs(rho.imag)) == 0.0
    assert abs(rho[4, 4] - (1.0 / 3.0)) < 1e-12


def test_both_singlets_have_maximally_mixed_marginals():
    for state in (spin1_singlet(), spin32_singlet()):
        rho = density(state).matrix
        d = state.local_dim
        for over_right in (True, False):
            marginal = partial_trace(rho, d, over_right)
            assert np.max(np.abs(marginal - np.eye(d) / d)) < 1e-10


def test_rotation_operator_identity_at_zero_angle():
    assert np.allclose(rotation_operator_spin1(Direction(0.4, 1.0), 0.0), np.eye(3))


def test_rotation_operator_full_turn_is_identity():
    # integer spin: a 2*pi rotation has no sign flip
    u = rotation_operator_spin1(Direction(0.0, 0.0), 2.0 * math.pi)
    assert np.max(np.abs(u - np.eye(3))) < 1e-10


def test_rotation_operator_half_turn_about_z():
    u = rotation_operator_spin1(Direction(0.0, 0.0), math.pi)
    assert np.max(np.abs(u - np.diag([-1.0, 1.0, -1.0]))) < 1e-10


def test_rotation_operator_is_unitary():
    rng = np.random.default_rng(41)
    for _ in range(20):
        d = Direction(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        assert is_unitary(rotation_operator_spin1(d, rng.uniform(-8.0, 8.0)))


def test_rotation_operator_matches_eigh_exponential():
    # independent oracle: exp(-i angle J) = V diag(exp(-i angle w)) V^dagger
    rng = np.random.default_rng(53)
    for _ in range(50):
        d = Direction(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        angle = rng.uniform(-8.0, 8.0)
        w, v = np.linalg.eigh(spin1_operator(d))
        expected = (v * np.exp(-1j * angle * w)) @ v.conj().T
        assert np.max(np.abs(rotation_operator_spin1(d, angle) - expected)) < 1e-12


def test_singlet_invariant_under_sampled_rotations():
    rng = np.random.default_rng(43)
    state = spin1_singlet()
    assert check_rotation_invariance(state, Direction(0.9, 0.2), 0.0) == 0.0
    for _ in range(50):
        d = Direction(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        angle = rng.uniform(-2.0 * math.pi, 2.0 * math.pi)
        assert check_rotation_invariance(state, d, angle) < 1e-10


def test_singlet_not_invariant_under_generic_unitary():
    u = np.diag([1.0, 1.0, np.exp(1j * math.pi / 3.0)])
    defect = unitary_invariance_defect(spin1_singlet(), u)
    # exact value 1 - sqrt(7)/3 for this phase gate
    assert defect > 0.01
    assert abs(defect - (1.0 - math.sqrt(7.0) / 3.0)) < 1e-12


def test_invariance_defect_rejects_non_unitary_operator():
    with pytest.raises(ValueError):
        unitary_invariance_defect(spin1_singlet(), 2.0 * np.eye(3))


def test_invariance_defect_is_never_negative():
    rng = np.random.default_rng(47)
    state = spin1_singlet()
    for _ in range(500):
        d = Direction(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        assert check_rotation_invariance(state, d, rng.uniform(-2.0 * math.pi, 2.0 * math.pi)) >= 0.0


def test_singlet_by_local_dimension():
    assert singlet(3).label == "spin1-singlet"
    assert singlet(4).label == "spin32-singlet"
    for dim in (2, 5):
        with pytest.raises(UnsupportedDimensionError):
            singlet(dim)


def test_rotation_invariance_rejects_wrong_dimension():
    with pytest.raises(UnsupportedDimensionError):
        check_rotation_invariance(spin32_singlet(), Direction(0.1, 0.1), 1.0)


def test_invariance_defect_rejects_mismatched_unitary():
    with pytest.raises(DimensionMismatchError):
        unitary_invariance_defect(spin1_singlet(), np.eye(4))


def test_density_matrix_reports_no_convergence(monkeypatch):
    def fail(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    # The singlet's density matrix is checked once and stored, so the patched
    # solver has to meet a density matrix built after the patch.
    amplitudes = spin1_singlet().amplitudes
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(NoConvergenceError):
        DensityMatrix(np.outer(amplitudes, amplitudes.conj()))


def test_a_state_keeps_its_own_copy_of_the_amplitudes():
    amplitudes = spin1_singlet().amplitudes.copy()
    state = BipartiteState(local_dim=3, amplitudes=amplitudes)
    rho = density(state).matrix.copy()
    amplitudes[:] = np.eye(9)[0]
    assert amplitudes.flags.writeable
    assert np.array_equal(state.amplitudes, spin1_singlet().amplitudes)
    assert np.array_equal(density(state).matrix, rho)


def test_stored_states_density_matrices_and_named_rays_are_read_only():
    from contextsim.observables import four_dim_contexts, ks_context, ks_context_prime

    arrays = [density(spin1_singlet()).matrix, density(spin32_singlet()).matrix]
    arrays += [spin1_singlet().amplitudes, spin32_singlet().amplitudes]
    for context in (ks_context(1, 2, 3), ks_context_prime(1, 2, 3), *four_dim_contexts(1, 2, 3, 4)):
        arrays += [context.rays.basis, context.rays.units]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_a_state_carries_one_density_matrix_and_the_singlets_are_shared():
    state = BipartiteState(local_dim=3, amplitudes=spin1_singlet().amplitudes)
    assert density(state) is density(state)
    assert singlet(3) is spin1_singlet() and singlet(4) is spin32_singlet()
    assert density(singlet(3)) is density(spin1_singlet())
