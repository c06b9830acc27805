"""Spin-1 observables and maximal context operators.

A context operator packages a maximal measurement: an orthonormal outcome
basis together with one distinct real eigenvalue per basis ray. Two named
families are provided: the interlinked three-outcome tripod pair used in
Kochen-Specker-type arguments (one shared ray) and a four-dimensional pair
sharing two rays, plus a generic constructor from an arbitrary basis.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DegenerateSpectrumError, NonOrthonormalBasisError
from .linalg import as_matrix, as_vector, projector_from_ray

TWO_PI = 2.0 * math.pi
SYNTHESIS_TOL = 1e-10
MERGE_TOL = 1e-8
BASIS_TOL = 1e-8


@dataclass(frozen=True)
class Direction:
    """Spatial direction: polar angle theta, azimuthal angle phi (radians).

    Normalized on construction to 0 <= theta <= pi and 0 <= phi < 2*pi;
    out-of-range angles denoting the same direction are folded back.
    """

    theta: float
    phi: float

    def __post_init__(self):
        theta = float(self.theta)
        phi = float(self.phi)
        if not (math.isfinite(theta) and math.isfinite(phi)):
            raise ValueError("angles must be finite")
        theta %= TWO_PI
        if theta > math.pi:
            theta = TWO_PI - theta
            phi += math.pi
        phi %= TWO_PI
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)


def spin1_operator(d: Direction) -> np.ndarray:
    """Spin-1 component along ``d`` in the standard 3x3 representation."""
    ct = math.cos(d.theta)
    s = math.sin(d.theta) / math.sqrt(2.0)
    em = cmath.exp(-1j * d.phi) * s
    ep = cmath.exp(1j * d.phi) * s
    return np.array(
        [
            [ct, em, 0.0],
            [ep, 0.0, em],
            [0.0, ep, -ct],
        ],
        dtype=complex,
    )


def spin1_eigensystem(d: Direction) -> tuple[tuple[float, np.ndarray], ...]:
    """Closed-form eigenpairs of :func:`spin1_operator`.

    Returns the three (eigenvalue, unit eigenvector) pairs in the order
    +1, 0, -1. The overall phase of each vector is a free choice; it is
    fixed to zero here so results are reproducible.
    """
    half = d.theta / 2.0
    c2 = math.cos(half) ** 2
    s2 = math.sin(half) ** 2
    st = math.sin(d.theta)
    em = cmath.exp(-1j * d.phi)
    ep = cmath.exp(1j * d.phi)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)

    x_plus = np.array([em * c2, st * inv_sqrt2, ep * s2], dtype=complex)
    x_zero = np.array([-em * st * inv_sqrt2, math.cos(d.theta), ep * st * inv_sqrt2], dtype=complex)
    x_minus = np.array([em * s2, -st * inv_sqrt2, ep * c2], dtype=complex)
    return ((1.0, x_plus), (0.0, x_zero), (-1.0, x_minus))


def check_distinct_spectrum(values: Sequence[float]) -> tuple[float, ...]:
    """Validate that eigenvalues are pairwise distinct beyond ``MERGE_TOL``."""
    spectrum = tuple(float(x) for x in values)
    if not all(math.isfinite(x) for x in spectrum):
        raise ValueError("eigenvalues must be finite")
    for i in range(len(spectrum)):
        for j in range(i + 1, len(spectrum)):
            if abs(spectrum[i] - spectrum[j]) <= MERGE_TOL:
                raise DegenerateSpectrumError(
                    f"eigenvalues {spectrum[i]} and {spectrum[j]} coincide within {MERGE_TOL}"
                )
    return spectrum


def _synthesize(basis: Sequence[np.ndarray], spectrum: Sequence[float]) -> np.ndarray:
    """The spectral synthesis sum(spectrum[k] * |basis[k]><basis[k]|)."""
    dim = basis[0].shape[0]
    matrix = np.zeros((dim, dim), dtype=complex)
    for lam, ray in zip(spectrum, basis):
        matrix += lam * projector_from_ray(ray)
    return matrix


@dataclass(frozen=True, eq=False)
class ContextOperator:
    """A maximal observable: Hermitian matrix, orthonormal outcome basis,
    one distinct real eigenvalue per basis ray.

    Construction verifies that ``matrix`` equals the spectral synthesis
    sum(spectrum[k] * |basis[k]><basis[k]|) within ``SYNTHESIS_TOL`` times
    max(1, max|spectrum|), so
    independently built matrices (e.g. from spin-operator combinations) are
    cross-checked against their declared eigensystem.
    """

    matrix: np.ndarray
    basis: tuple[np.ndarray, ...]
    spectrum: tuple[float, ...]
    label: str = ""

    def __post_init__(self):
        matrix = as_matrix(self.matrix)
        basis = tuple(as_vector(v) for v in self.basis)
        spectrum = check_distinct_spectrum(self.spectrum)
        dim = matrix.shape[0]
        if len(basis) != dim or len(spectrum) != dim:
            raise ValueError("need one basis ray and one eigenvalue per dimension")
        gram = np.array([[np.vdot(u, v) for v in basis] for u in basis])
        if float(np.max(np.abs(gram - np.eye(dim)))) > BASIS_TOL:
            raise NonOrthonormalBasisError(f"basis is not orthonormal within {BASIS_TOL}")
        # Relative to the spectrum scale; `not <=` also rejects a matrix that overflowed to nan.
        defect = float(np.max(np.abs(matrix - _synthesize(basis, spectrum))))
        if not defect <= SYNTHESIS_TOL * max(1.0, max(map(abs, spectrum))):
            raise ValueError("matrix does not match the declared eigenbasis and spectrum")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "spectrum", spectrum)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def projectors(self) -> tuple[np.ndarray, ...]:
        """Rank-1 outcome projectors, one per basis ray."""
        return tuple(projector_from_ray(v) for v in self.basis)


def _j_squared(theta: float, phi: float) -> np.ndarray:
    j = spin1_operator(Direction(theta, phi))
    return j @ j


def ks_context(alpha: float, beta: float, gamma: float, label: str = "C_KS") -> ContextOperator:
    """First tripod context: combination of squared spin components along
    the x, y and z axes, with outcome rays (0,1,0), (1,0,1)/sqrt2 and
    (-1,0,1)/sqrt2 carrying alpha, beta, gamma."""
    spectrum = check_distinct_spectrum((alpha, beta, gamma))
    a, b, g = spectrum
    matrix = 0.5 * (
        (a + b - g) * _j_squared(math.pi / 2, 0.0)
        + (a - b + g) * _j_squared(math.pi / 2, math.pi / 2)
        + (b + g - a) * _j_squared(0.0, 0.0)
    )
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    basis = (
        np.array([0.0, 1.0, 0.0], dtype=complex),
        np.array([inv_sqrt2, 0.0, inv_sqrt2], dtype=complex),
        np.array([-inv_sqrt2, 0.0, inv_sqrt2], dtype=complex),
    )
    return ContextOperator(matrix=matrix, basis=basis, spectrum=spectrum, label=label)


def ks_context_prime(alpha: float, beta: float, gamma: float, label: str = "C_KS'") -> ContextOperator:
    """Second tripod context: same construction rotated by 45 degrees about
    z, sharing the ray (0,1,0) with :func:`ks_context`; the other outcome
    rays are (-i,0,1)/sqrt2 and (i,0,1)/sqrt2."""
    spectrum = check_distinct_spectrum((alpha, beta, gamma))
    a, b, g = spectrum
    matrix = 0.5 * (
        (a + b - g) * _j_squared(math.pi / 2, math.pi / 4)
        + (a - b + g) * _j_squared(math.pi / 2, 3 * math.pi / 4)
        + (b + g - a) * _j_squared(0.0, 0.0)
    )
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    basis = (
        np.array([0.0, 1.0, 0.0], dtype=complex),
        np.array([-1j * inv_sqrt2, 0.0, inv_sqrt2], dtype=complex),
        np.array([1j * inv_sqrt2, 0.0, inv_sqrt2], dtype=complex),
    )
    return ContextOperator(matrix=matrix, basis=basis, spectrum=spectrum, label=label)


class FourDimContexts(NamedTuple):
    C: ContextOperator
    C_prime: ContextOperator


def four_dim_contexts(
    alpha: float, beta: float, gamma: float, delta: float
) -> FourDimContexts:
    """Pair of four-outcome contexts sharing the rays e3 and e4.

    ``C`` is diagonal on the standard basis. ``C_prime`` mixes the first two
    coordinates, with outcome rays (1,1,0,0)/sqrt2 and (-1,1,0,0)/sqrt2
    carrying the first two eigenvalues, and keeps e3, e4 unchanged.
    """
    spectrum = check_distinct_spectrum((alpha, beta, gamma, delta))
    a, b, g, d = spectrum

    c_matrix = np.diag(np.array(spectrum, dtype=complex))
    e = [np.eye(4, dtype=complex)[k] for k in range(4)]
    c = ContextOperator(matrix=c_matrix, basis=tuple(e), spectrum=spectrum, label="C")

    cp_matrix = np.zeros((4, 4), dtype=complex)
    cp_matrix[0, 0] = cp_matrix[1, 1] = (a + b) / 2.0
    cp_matrix[0, 1] = cp_matrix[1, 0] = (a - b) / 2.0
    cp_matrix[2, 2] = g
    cp_matrix[3, 3] = d
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    cp_basis = (
        np.array([inv_sqrt2, inv_sqrt2, 0.0, 0.0], dtype=complex),
        np.array([-inv_sqrt2, inv_sqrt2, 0.0, 0.0], dtype=complex),
        e[2],
        e[3],
    )
    c_prime = ContextOperator(matrix=cp_matrix, basis=cp_basis, spectrum=spectrum, label="C'")
    return FourDimContexts(C=c, C_prime=c_prime)


def context_from_basis(
    basis: Sequence[np.ndarray],
    spectrum: Sequence[float],
    label: str = "",
) -> ContextOperator:
    """Context operator from an arbitrary orthonormal basis and spectrum.

    The matrix is the spectral synthesis over the basis rays. Raises
    NonOrthonormalBasisError / DegenerateSpectrumError on invalid input;
    orthonormality is checked by :class:`ContextOperator`.
    """
    rays = tuple(as_vector(v) for v in basis)
    values = check_distinct_spectrum(spectrum)
    if len(rays) == 0 or len(rays) != len(values):
        raise ValueError("need one eigenvalue per basis ray")
    dim = rays[0].shape[0]
    if any(r.shape[0] != dim for r in rays) or len(rays) != dim:
        raise NonOrthonormalBasisError("basis must consist of dim vectors of length dim")
    return ContextOperator(matrix=_synthesize(rays, values), basis=rays, spectrum=values, label=label)
