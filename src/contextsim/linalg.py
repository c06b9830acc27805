"""Input coercion, predicates and the phase-fixed Hermitian eigensystem.

Everything here is what numpy does not provide directly: finite-entry
coercion, Hermiticity and unitarity predicates at one tolerance, the one
normalization of a ray and the one ray-match rule, rank-1 projectors, and
``np.linalg.eigh`` with a reproducible eigenvector phase.
All values are complex128 numpy arrays and every function is pure.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergenceError, NotHermitianError, ZeroVectorError
from .tolerances import HERMITICITY_TOL, PHASE_CUTOFF, RAY_MATCH_TOL


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex matrix with finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def as_vector(v) -> np.ndarray:
    """Coerce to a 1-D complex vector with finite entries."""
    w = np.asarray(v, dtype=complex)
    if w.ndim != 1:
        raise ValueError(f"expected a vector, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError("vector entries must be finite")
    return w


def is_hermitian(a) -> bool:
    m = as_matrix(a)
    return float(np.max(np.abs(m - m.conj().T))) <= HERMITICITY_TOL


def is_unitary(a) -> bool:
    m = as_matrix(a)
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))) <= HERMITICITY_TOL


def unit_rows(m: np.ndarray) -> np.ndarray:
    """The rows of ``m`` divided by their norms: the one normalization of a
    ray and the one zero-ray check. Raises ZeroVectorError for a row whose
    norm is zero, or underflows to zero as a subnormal row's squares do."""
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    if not (norms > 0.0).all():
        raise ZeroVectorError("cannot normalize a ray whose norm is zero or underflows")
    return m / norms


def same_ray(overlap: np.ndarray) -> np.ndarray:
    """Where an overlap modulus |<u, v>| of two unit rays u, v says they span
    one ray: 1 - |<u, v>| <= ``RAY_MATCH_TOL``. The one ray-match rule of
    the package."""
    return 1.0 - overlap <= RAY_MATCH_TOL


def projector_from_ray(v) -> np.ndarray:
    """Orthogonal projector onto the ray spanned by v (normalized first)."""
    unit = unit_rows(as_vector(v)[None, :])[0]
    return np.outer(unit, unit.conj())


def fix_phase(v: np.ndarray) -> np.ndarray:
    """Rescale by a unit phase so the first entry with modulus above
    ``PHASE_CUTOFF`` becomes real and positive. Returns the input unchanged
    when no entry clears the cutoff."""
    for entry in v:
        if abs(entry) > PHASE_CUTOFF:
            return v * (abs(entry) / entry)
    return v


def hermitian_eigensystem(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a Hermitian matrix via ``np.linalg.eigh``.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues real and
    ascending and eigenvectors as the columns of a unitary matrix, each
    phase-fixed via :func:`fix_phase`.

    Raises:
        NotHermitianError: input deviates from Hermiticity beyond
            ``HERMITICITY_TOL``.
        NoConvergenceError: LAPACK's eigensolver did not converge.
    """
    m = as_matrix(a)
    if not is_hermitian(m):
        raise NotHermitianError(f"matrix is not Hermitian within {HERMITICITY_TOL}")
    try:
        eigenvalues, vectors = np.linalg.eigh((m + m.conj().T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigensolver did not converge: {exc}") from None
    for k in range(vectors.shape[1]):
        vectors[:, k] = fix_phase(vectors[:, k])
    return eigenvalues, vectors
