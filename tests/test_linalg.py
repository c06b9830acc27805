"""Tests for the dense complex linear-algebra core."""

import math

import numpy as np
import pytest

from contextsim.errors import NoConvergenceError, NotHermitianError, ZeroVectorError
from contextsim.linalg import (
    SpectralDecomposition,
    fix_phase,
    hermitian_eigensystem,
    is_hermitian,
    is_unitary,
    kron,
    matrix_function_from_spectrum,
    projector_from_ray,
    spectral_projectors,
    trace,
)
from contextsim.observables import Direction, ks_context, spin1_operator


def kron_oracle(a, b):
    """Independent Kronecker product via the index formula
    result[ia*d + ib, ja*d + jb] = a[ia, ja] * b[ib, jb]."""
    na, nb = a.shape[0], b.shape[0]
    out = np.zeros((na * nb, na * nb), dtype=complex)
    for ia in range(na):
        for ja in range(na):
            for ib in range(nb):
                for jb in range(nb):
                    out[ia * nb + ib, ja * nb + jb] = a[ia, ja] * b[ib, jb]
    return out


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return m + m.conj().T


def align_phase(reference, vector):
    """Multiply ``vector`` by the unit phase matching it to ``reference``."""
    k = int(np.argmax(np.abs(reference)))
    phase = reference[k] / vector[k]
    return vector * (phase / abs(phase))


def test_kron_identity():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_diagonal():
    a = np.diag([1.0, -1.0])
    assert np.allclose(kron(a, a), np.diag([1.0, -1.0, -1.0, 1.0]))


def test_kron_matches_index_formula_on_context_operators():
    a = ks_context(1, 2, 3).matrix
    b = ks_context(4, 5, 6).matrix
    assert np.max(np.abs(kron(a, b) - kron_oracle(a, b))) < 1e-14


def test_kron_bilinear_and_mixed_product():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a, b, c, d = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(4))
        lhs = kron(a + 2.0 * b, c)
        rhs = kron(a, c) + 2.0 * kron(b, c)
        assert np.max(np.abs(lhs - rhs)) < 1e-10
        mixed = kron(a, b) @ kron(c, d)
        assert np.max(np.abs(mixed - kron(a @ c, b @ d))) < 1e-10


def test_trace_identity_and_projector():
    assert trace(np.eye(3)) == 3.0
    p = projector_from_ray(np.array([1.0, 2.0, 2.0]))
    assert abs(trace(p) - 1.0) < 1e-12


def test_trace_of_spin_operator_vanishes():
    # diagonal is cos(theta), 0, -cos(theta) for every direction
    rng = np.random.default_rng(11)
    for _ in range(20):
        d = Direction(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        assert abs(trace(spin1_operator(d))) < 1e-12


def test_trace_multiplicative_over_kron():
    rng = np.random.default_rng(13)
    for _ in range(10):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert abs(trace(kron(a, b)) - trace(a) * trace(b)) < 1e-10


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


def test_spectral_projectors_fully_degenerate():
    d = spectral_projectors(np.eye(3))
    assert d.eigenvalues == (1.0,)
    assert d.multiplicities == (3,)
    assert np.allclose(d.projectors[0], np.eye(3))


def test_spectral_projectors_of_tripod_context():
    d = spectral_projectors(ks_context(1, 2, 3).matrix)
    assert np.allclose(d.eigenvalues, [1.0, 2.0, 3.0])
    assert d.multiplicities == (1, 1, 1)
    rays = (
        np.array([0.0, 1.0, 0.0]),
        np.array([1.0, 0.0, 1.0]) / math.sqrt(2),
        np.array([-1.0, 0.0, 1.0]) / math.sqrt(2),
    )
    for proj, ray in zip(d.projectors, rays):
        assert np.max(np.abs(proj - np.outer(ray, ray.conj()))) < 1e-10


def test_spectral_projectors_degenerate_grouping():
    # squared axis-aligned spin operator: eigenvalue 0 once, 1 twice
    j = spin1_operator(Direction(0.0, 0.0))
    d = spectral_projectors(j @ j)
    assert np.allclose(d.eigenvalues, [0.0, 1.0])
    assert d.multiplicities == (1, 2)


def test_spectral_projectors_sum_to_identity():
    rng = np.random.default_rng(29)
    for n in (3, 4, 9):
        for _ in range(5):
            d = spectral_projectors(random_hermitian(rng, n))
            total = sum(d.projectors)
            assert np.max(np.abs(total - np.eye(n))) <= 1e-9


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
        assert abs(trace(p) - 1.0) < 1e-12


def test_matrix_function_identity_reconstructs():
    m = random_hermitian(np.random.default_rng(37), 4)
    d = spectral_projectors(m)
    assert np.max(np.abs(matrix_function_from_spectrum(d, lambda x: x) - m)) <= 1e-9


def test_matrix_function_square_matches_product():
    j = spin1_operator(Direction(1.1, 0.4))
    d = spectral_projectors(j)
    assert np.max(np.abs(matrix_function_from_spectrum(d, lambda x: x**2) - j @ j)) <= 1e-10


def test_matrix_function_scalar_exponentials():
    d = spectral_projectors(np.diag([1.0, 0.0, -1.0]))
    u = matrix_function_from_spectrum(d, lambda x: np.exp(-1j * math.pi * x))
    assert np.allclose(u, np.diag([-1.0, 1.0, -1.0]))


def test_spectral_decomposition_validates_its_invariants():
    with pytest.raises(ValueError):
        SpectralDecomposition(
            eigenvalues=(0.0, 1.0),
            projectors=(np.eye(2), np.eye(2)),  # not orthogonal, wrong sum
            multiplicities=(1, 1),
        )


def test_unitarity_predicate():
    j = spin1_operator(Direction(0.3, 2.2))
    d = spectral_projectors(j)
    u = matrix_function_from_spectrum(d, lambda x: np.exp(-1j * 0.7 * x))
    assert is_unitary(u)
    assert not is_unitary(2.0 * u)
