"""Entangled singlet states, density matrices, rotation-invariance checks.

Bipartite vectors are flattened first-particle-major: the amplitude of
|i>|j> on a d (x) d space sits at index i*d + j.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, NoConvergenceError, UnsupportedDimensionError
from .linalg import as_matrix, as_vector, is_hermitian, is_unitary
from .observables import Direction, spin1_operator
from .tolerances import DENSITY_TOL, NORM_TOL


@dataclass(frozen=True, eq=False)
class BipartiteState:
    """Unit-norm pure state on a local_dim (x) local_dim tensor product.

    ``amplitudes`` is a read-only copy of the caller's vector, and
    ``density_matrix`` its rank-1 density matrix |state><state|, built and
    checked once with the state."""

    local_dim: int
    amplitudes: np.ndarray
    label: str = ""
    density_matrix: DensityMatrix = field(init=False, repr=False)

    def __post_init__(self):
        # A private copy: as_vector returns complex input as it is.
        amplitudes = as_vector(self.amplitudes).copy()
        if self.local_dim < 2:
            raise ValueError("local dimension must be at least 2")
        if amplitudes.shape[0] != self.local_dim**2:
            raise ValueError(
                f"expected {self.local_dim**2} amplitudes, got {amplitudes.shape[0]}"
            )
        norm = float(np.linalg.norm(amplitudes))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
        amplitudes.setflags(write=False)
        object.__setattr__(self, "amplitudes", amplitudes)
        object.__setattr__(self, "density_matrix", DensityMatrix(np.outer(amplitudes, amplitudes.conj())))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator.

    ``matrix`` is a read-only copy of the caller's array."""

    matrix: np.ndarray

    def __post_init__(self):
        # A private copy: as_matrix returns complex input as it is.
        matrix = as_matrix(self.matrix).copy()
        if not is_hermitian(matrix):
            raise ValueError("density matrix must be Hermitian")
        if abs(np.trace(matrix).real - 1.0) > DENSITY_TOL:
            raise ValueError("density matrix must have unit trace")
        try:
            lowest = float(np.linalg.eigvalsh(matrix)[0])
        except np.linalg.LinAlgError as exc:
            raise NoConvergenceError(f"eigensolver did not converge: {exc}") from None
        if lowest < -DENSITY_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {lowest}")
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


# The singlets are built and checked once, the first time they are asked for,
# and then shared: a state, its amplitudes and its density matrix are read-only.
@functools.cache
def spin1_singlet() -> BipartiteState:
    """Total-spin-zero state of two spin-1 particles (9 amplitudes)."""
    amplitudes = np.zeros(9, dtype=complex)
    s = 1.0 / math.sqrt(3.0)
    amplitudes[2] = s
    amplitudes[4] = -s
    amplitudes[6] = s
    return BipartiteState(local_dim=3, amplitudes=amplitudes, label="spin1-singlet")


@functools.cache
def spin32_singlet() -> BipartiteState:
    """Total-spin-zero state of two spin-3/2 particles (16 amplitudes).

    Local basis order is descending spin projection (3/2, 1/2, -1/2, -3/2),
    so the four nonzero amplitudes pair opposite projections with
    alternating signs.
    """
    amplitudes = np.zeros(16, dtype=complex)
    amplitudes[3] = 0.5
    amplitudes[12] = -0.5
    amplitudes[6] = -0.5
    amplitudes[9] = 0.5
    return BipartiteState(local_dim=4, amplitudes=amplitudes, label="spin32-singlet")


def singlet(local_dim: int) -> BipartiteState:
    """The total-spin-zero state for local dimension 3 (spin 1) or 4 (spin 3/2)."""
    if local_dim == 3:
        return spin1_singlet()
    if local_dim == 4:
        return spin32_singlet()
    raise UnsupportedDimensionError(f"no entangled state available for local dimension {local_dim}")


def density(state: BipartiteState) -> DensityMatrix:
    """Rank-1 density matrix |state><state|, the one the state carries."""
    return state.density_matrix


def rotation_operator_spin1(d: Direction, angle: float) -> np.ndarray:
    """Rotation of the spin-1 representation about axis ``d`` by ``angle``,
    exp(-i * angle * J) = I - i sin(angle) J + (cos(angle) - 1) J^2.

    The closed form holds because the spin-1 component J along any axis has
    eigenvalues -1, 0, 1 and so satisfies J^3 = J."""
    if not math.isfinite(angle):
        raise ValueError("angle must be finite")
    j = spin1_operator(d)
    return np.eye(3) - 1j * math.sin(angle) * j + (math.cos(angle) - 1.0) * (j @ j)


def unitary_invariance_defect(state: BipartiteState, u: np.ndarray) -> float:
    """Infidelity 1 - |<state| (U x U) |state>| for a local unitary U.

    Raises ValueError when ``u`` is not unitary; roundoff that would make
    the infidelity negative is clamped to zero."""
    matrix = as_matrix(u)
    if matrix.shape[0] != state.local_dim:
        raise DimensionMismatchError(
            f"unitary acts on dimension {matrix.shape[0]}, state is local dimension {state.local_dim}"
        )
    if not is_unitary(matrix):
        raise ValueError("invariance defect requires a unitary operator")
    # (U x U) psi is U Psi U^T on the amplitudes reshaped to a d x d matrix Psi.
    psi = state.amplitudes.reshape(state.local_dim, state.local_dim)
    overlap = np.vdot(psi, matrix @ psi @ matrix.T)
    return max(0.0, 1.0 - abs(overlap))


def check_rotation_invariance(state: BipartiteState, d: Direction, angle: float) -> float:
    """Infidelity of ``state`` under the same spatial rotation on both
    particles; zero (to numerical precision) characterizes the spin-1
    singlet. Only defined for local dimension 3."""
    if state.local_dim != 3:
        raise UnsupportedDimensionError("rotation invariance check requires local dimension 3")
    return unitary_invariance_defect(state, rotation_operator_spin1(d, angle))
