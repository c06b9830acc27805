"""Tests for the dense complex linear-algebra core."""

import numpy as np
import pytest

from contextsim.correlations import sequential_link_test
from contextsim.errors import NoConvergenceError, NotHermitianError, ZeroVectorError
from contextsim.greechie import rays_match
from contextsim.linalg import (
    fix_phase,
    hermitian_eigensystem,
    is_hermitian,
    is_unitary,
    projector_from_ray,
    unit_rows,
)
from contextsim.observables import Direction, ks_context, spin1_operator
from contextsim.states import rotation_operator_spin1


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return m + m.conj().T


def align_phase(reference, vector):
    """Multiply ``vector`` by the unit phase matching it to ``reference``."""
    k = int(np.argmax(np.abs(reference)))
    phase = reference[k] / vector[k]
    return vector * (phase / abs(phase))


def test_eigensystem_diagonal_input():
    w, v = hermitian_eigensystem(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [1.0, 2.0, 3.0])
    # columns are permuted standard basis vectors up to phase
    assert np.allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]])


def test_eigensystem_axis_aligned_spin_operator():
    w, v = hermitian_eigensystem(spin1_operator(Direction(0.0, 0.0)))
    assert np.allclose(w, [-1.0, 0.0, 1.0], atol=1e-12)
    assert np.allclose(np.abs(v), np.eye(3)[:, [2, 1, 0]], atol=1e-12)


def test_eigensystem_random_hermitian_invariants():
    rng = np.random.default_rng(17)
    for n in (3, 4, 9, 16):
        for _ in range(5):
            m = random_hermitian(rng, n)
            w, v = hermitian_eigensystem(m)
            assert np.all(np.diff(w) >= 0)
            assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= 1e-10
            reconstructed = (v * w) @ v.conj().T
            assert np.max(np.abs(reconstructed - m)) <= 1e-9
            for k in range(n):
                assert np.max(np.abs(m @ v[:, k] - w[k] * v[:, k])) <= 1e-9


def test_eigensystem_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        hermitian_eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigensystem_reports_no_convergence(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    m = random_hermitian(np.random.default_rng(19), 4)
    with pytest.raises(NoConvergenceError):
        hermitian_eigensystem(m)


def test_eigenvector_phase_convention():
    w, v = hermitian_eigensystem(random_hermitian(np.random.default_rng(23), 5))
    for k in range(5):
        first = next(x for x in v[:, k] if abs(x) > 1e-8)
        assert abs(first.imag) < 1e-12 and first.real > 0


def test_fix_phase_first_large_entry_real_positive():
    v = np.array([1e-12, -1j, 1.0 + 1j])
    fixed = fix_phase(v)
    assert abs(fixed[1].imag) < 1e-15 and fixed[1].real > 0
    # With no entry above the cutoff the vector comes back as it is.
    small = np.array([1e-9j, -1e-9, 0.0])
    assert fix_phase(small) is small
    # An entry of modulus exactly PHASE_CUTOFF does not clear it.
    at_cutoff = np.array([1e-8j, 1.0])
    assert fix_phase(at_cutoff).tolist() == at_cutoff.tolist()


def test_as_matrix_rejects_a_non_square_matrix():
    with pytest.raises(ValueError, match=r"expected a square matrix, got shape \(2, 3\)"):
        is_hermitian(np.zeros((2, 3)))


def test_projector_from_ray_examples():
    assert np.allclose(projector_from_ray([0.0, 1.0, 0.0]), np.diag([0.0, 1.0, 0.0]))

    p = projector_from_ray([1.0, 0.0, 1.0])
    expected = np.zeros((3, 3))
    expected[np.ix_([0, 2], [0, 2])] = 0.5
    assert np.allclose(p, expected)

    # hand outer product of the normalized ray (-i, 0, 1)/sqrt(2)
    p = projector_from_ray([-1j, 0.0, 1.0])
    assert abs(p[0, 0] - 0.5) < 1e-12
    assert abs(p[0, 2] - (-0.5j)) < 1e-12
    assert abs(p[2, 0] - 0.5j) < 1e-12
    assert abs(p[2, 2] - 0.5) < 1e-12


def test_projector_from_ray_rejects_zero():
    with pytest.raises(ZeroVectorError):
        projector_from_ray(np.zeros(3))


def test_projector_properties():
    rng = np.random.default_rng(31)
    for _ in range(10):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        p = projector_from_ray(v)
        assert is_hermitian(p)
        assert np.max(np.abs(p @ p - p)) < 1e-12
        assert abs(np.trace(p) - 1.0) < 1e-12


def test_unitarity_predicate():
    u = rotation_operator_spin1(Direction(0.3, 2.2), 0.7)
    assert is_unitary(u)
    assert not is_unitary(2.0 * u)


def test_the_predicates_accept_a_defect_exactly_at_their_tolerance():
    # Both defects below are exactly HERMITICITY_TOL (1e-10) in floating point.
    assert is_hermitian(np.array([[0.0, 1e-10], [0.0, 0.0]]))
    assert is_unitary(np.array([[1.0, 1e-10], [0.0, 1.0]]))
    assert not is_hermitian(np.array([[0.0, 2e-10], [0.0, 0.0]]))
    assert not is_unitary(np.array([[1.0, 2e-10], [0.0, 1.0]]))


@pytest.mark.parametrize("d", range(1, 7))
def test_unit_rows_is_bitwise_numpys_norm(d):
    rng = np.random.default_rng(d)
    for scale in (1e-150, 1e-8, 1.0, 1e8, 1e150):
        for shape in ((d, d), (1, d)):
            m = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
            expected = m / np.linalg.norm(m, axis=1, keepdims=True)
            assert unit_rows(m).tobytes() == expected.tobytes()


def test_a_norm_that_overflows_is_refused():
    # Entries above ~1.3e154 square to inf, and dividing by an infinite norm
    # would give a zero unit row. numpy warns of the overflow first.
    huge = np.array([1e300, 1e300, 0.0])
    calls = [
        lambda: unit_rows(huge[None, :]),
        lambda: projector_from_ray(huge),
        lambda: rays_match(np.array([1e200, 0.0, 0.0]), np.array([1.0, 0.0, 0.0])),
        lambda: sequential_link_test(huge, ks_context(1, 2, 3)),
    ]
    for call in calls:
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="norm overflows double precision"):
            call()
