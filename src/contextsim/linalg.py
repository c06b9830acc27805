"""Dense complex linear algebra for small fixed dimensions (3, 4, 9, 16).

All values are plain numpy arrays of dtype complex128 and every function is
pure. The eigensolver is numpy's ``eigh`` (LAPACK), wrapped to fix each
eigenvector's phase so results are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NoConvergenceError, NotHermitianError, ZeroVectorError

MERGE_TOL = 1e-8
PHASE_CUTOFF = 1e-8
HERMITICITY_TOL = 1e-10
PROJECTOR_TOL = 1e-9


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex matrix with finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def as_vector(v) -> np.ndarray:
    """Coerce to a 1-D complex vector with finite entries."""
    w = np.asarray(v, dtype=complex)
    if w.ndim != 1:
        raise ValueError(f"expected a vector, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("vector entries must be finite")
    return w


def is_hermitian(a, tol: float = HERMITICITY_TOL) -> bool:
    m = as_matrix(a)
    return float(np.max(np.abs(m - m.conj().T))) <= tol


def is_unitary(a, tol: float = HERMITICITY_TOL) -> bool:
    m = as_matrix(a)
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))) <= tol


def kron(a, b) -> np.ndarray:
    """Kronecker product: block (i, j) of the result equals a[i, j] * b."""
    return np.kron(as_matrix(a), as_matrix(b))


def trace(a) -> complex:
    """Sum of the diagonal entries."""
    return complex(np.trace(as_matrix(a)))


def projector_from_ray(v) -> np.ndarray:
    """Orthogonal projector onto the ray spanned by v (normalized first)."""
    w = as_vector(v)
    norm = float(np.linalg.norm(w))
    if norm == 0.0:
        raise ZeroVectorError("cannot project onto the zero vector")
    unit = w / norm
    return np.outer(unit, unit.conj())


def fix_phase(v: np.ndarray, cutoff: float = PHASE_CUTOFF) -> np.ndarray:
    """Rescale by a unit phase so the first entry with modulus above
    ``cutoff`` becomes real and positive. Returns the input unchanged when
    no entry clears the cutoff."""
    for entry in v:
        if abs(entry) > cutoff:
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


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Distinct eigenvalues (ascending) with their eigenspace projectors."""

    eigenvalues: tuple[float, ...]
    projectors: tuple[np.ndarray, ...]
    multiplicities: tuple[int, ...]

    def __post_init__(self):
        if not (len(self.eigenvalues) == len(self.projectors) == len(self.multiplicities)):
            raise ValueError("eigenvalues, projectors and multiplicities must align")
        if len(self.projectors) == 0:
            raise ValueError("empty decomposition")
        dim = self.projectors[0].shape[0]
        if sum(self.multiplicities) != dim:
            raise ValueError("multiplicities must sum to the dimension")
        if any(m < 1 for m in self.multiplicities):
            raise ValueError("multiplicities must be positive")
        if any(b <= a for a, b in zip(self.eigenvalues, self.eigenvalues[1:])):
            raise ValueError("eigenvalues must be strictly ascending")
        total = np.zeros((dim, dim), dtype=complex)
        for proj, mult in zip(self.projectors, self.multiplicities):
            if proj.shape != (dim, dim):
                raise ValueError("projectors must share one dimension")
            if not is_hermitian(proj, PROJECTOR_TOL):
                raise ValueError("projector is not Hermitian")
            if float(np.max(np.abs(proj @ proj - proj))) > PROJECTOR_TOL:
                raise ValueError("projector is not idempotent")
            if abs(np.trace(proj).real - mult) > PROJECTOR_TOL:
                raise ValueError("projector rank does not match multiplicity")
            total += proj
        if float(np.max(np.abs(total - np.eye(dim)))) > PROJECTOR_TOL:
            raise ValueError("projectors do not sum to the identity")
        for i in range(len(self.projectors)):
            for j in range(i + 1, len(self.projectors)):
                if float(np.max(np.abs(self.projectors[i] @ self.projectors[j]))) > PROJECTOR_TOL:
                    raise ValueError("projectors are not mutually orthogonal")

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]


def spectral_projectors(a, merge_tol: float = MERGE_TOL) -> SpectralDecomposition:
    """Group the eigensystem of a Hermitian matrix into eigenspace projectors.

    Adjacent eigenvalues whose gap is at most ``merge_tol`` are treated as
    one (degenerate) eigenvalue; each projector is the sum of the rank-1
    projectors of its group.
    """
    eigenvalues, vectors = hermitian_eigensystem(a)
    boundaries = [0]
    for k in range(1, len(eigenvalues)):
        if eigenvalues[k] - eigenvalues[k - 1] > merge_tol:
            boundaries.append(k)
    boundaries.append(len(eigenvalues))

    values: list[float] = []
    projectors: list[np.ndarray] = []
    multiplicities: list[int] = []
    for lo, hi in zip(boundaries, boundaries[1:]):
        block = vectors[:, lo:hi]
        projectors.append(block @ block.conj().T)
        values.append(float(np.mean(eigenvalues[lo:hi])))
        multiplicities.append(hi - lo)
    return SpectralDecomposition(tuple(values), tuple(projectors), tuple(multiplicities))


def matrix_function_from_spectrum(
    decomposition: SpectralDecomposition,
    f: Callable[[float], complex],
) -> np.ndarray:
    """Apply a scalar function through the spectrum: sum of f(lambda) * P."""
    dim = decomposition.dim
    out = np.zeros((dim, dim), dtype=complex)
    for lam, proj in zip(decomposition.eigenvalues, decomposition.projectors):
        out += complex(f(lam)) * proj
    return out
