"""Spin-1 observables and maximal context operators.

A context operator packages a maximal measurement: an orthonormal outcome
basis together with one distinct real eigenvalue per basis ray. Two named
families are provided: the interlinked three-outcome tripod pair used in
Kochen-Specker-type arguments (one shared ray) and a four-dimensional pair
sharing two rays, plus a generic constructor from an arbitrary basis.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DegenerateSpectrumError, NonOrthonormalBasisError
from .linalg import as_matrix, as_vector, unit_rows
from .tolerances import BASIS_TOL, MERGE_TOL

TWO_PI = 2.0 * math.pi


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
    """Validate that eigenvalues are pairwise distinct: no two lie within
    ``MERGE_TOL`` times max(1, max|λ|) of each other."""
    spectrum = tuple(float(x) for x in values)
    if not all(math.isfinite(x) for x in spectrum):
        raise ValueError("eigenvalues must be finite")
    # A float difference that overflows is inf, which counts as distinct.
    tol = MERGE_TOL * max(1.0, max(map(abs, spectrum), default=0.0))
    for i in range(len(spectrum)):
        for j in range(i + 1, len(spectrum)):
            if abs(spectrum[i] - spectrum[j]) <= tol:
                raise DegenerateSpectrumError(
                    f"eigenvalues {spectrum[i]} and {spectrum[j]} coincide within {tol}"
                )
    return spectrum


@dataclass(frozen=True, eq=False)
class RaySet:
    """An orthonormal basis, validated once.

    ``basis`` is one complex (d, d) array whose rows are the rays; ``units``
    holds the same rows divided by their norms. This is the one home of the
    Gram check: every entry of |conj(R) R^T - I| must lie within
    ``BASIS_TOL``. Both arrays are read-only copies, so a ray set that
    passed the check once stays valid wherever it is shared; the caller's
    array is copied, not frozen.
    """

    basis: np.ndarray
    units: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # A private copy: as_matrix returns complex input as it is.
        basis = as_matrix(self.basis).copy()
        units = unit_rows(basis)
        defect = basis.conj() @ basis.T
        defect.reshape(-1)[:: basis.shape[0] + 1] -= 1.0  # the diagonal: minus the identity
        if float(np.abs(defect).max()) > BASIS_TOL:
            raise NonOrthonormalBasisError(f"basis is not orthonormal within {BASIS_TOL}")
        for array in (basis, units):
            array.setflags(write=False)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "units", units)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


@dataclass(frozen=True, eq=False)
class ContextOperator:
    """A maximal observable: orthonormal outcome basis, one distinct real
    eigenvalue per basis ray, and the Hermitian matrix they define.

    ``rays`` is a :class:`RaySet`, or an array of rays that is validated
    into one. ``basis[k]`` is the ray of slot k and ``units[k]`` its unit
    row. The basis fixes the context and the spectrum only labels its
    outcomes, so ``matrix`` is not an input: it is the spectral synthesis
    sum(spectrum[k] * |units[k]><units[k]|), computed with the spectrum
    check on every construction. All three arrays are read-only, so no
    in-place edit can make them disagree.
    """

    rays: RaySet
    spectrum: tuple[float, ...]
    label: str = ""
    matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        spectrum = check_distinct_spectrum(self.spectrum)
        rays = self.rays if isinstance(self.rays, RaySet) else RaySet(self.rays)
        if len(spectrum) != rays.dim:
            raise ValueError("need one basis ray and one eigenvalue per dimension")
        matrix = (rays.units.T * spectrum) @ rays.units.conj()
        matrix.setflags(write=False)
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "spectrum", spectrum)
        object.__setattr__(self, "matrix", matrix)

    @property
    def basis(self) -> np.ndarray:
        return self.rays.basis

    @property
    def units(self) -> np.ndarray:
        return self.rays.units

    @property
    def dim(self) -> int:
        return self.rays.dim


_S = 1.0 / math.sqrt(2.0)
# The outcome rays of the named contexts, one row per slot.
_NAMED_RAYS = {
    "ks": [[0.0, 1.0, 0.0], [_S, 0.0, _S], [-_S, 0.0, _S]],
    "ks'": [[0.0, 1.0, 0.0], [-1j * _S, 0.0, _S], [1j * _S, 0.0, _S]],
    "C": [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
    "C'": [[_S, _S, 0.0, 0.0], [-_S, _S, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
}


# Each named ray set is built and checked the first time a context asks for
# it, then shared. Not at import: the Gram check's complex matmul starts
# numpy's BLAS, and doing that at import raises a CLI process's peak RSS.
@functools.cache
def _named_rays(name: str) -> RaySet:
    return RaySet(np.array(_NAMED_RAYS[name], dtype=complex))


def ks_context(alpha: float, beta: float, gamma: float, label: str = "C_KS") -> ContextOperator:
    """First tripod context: outcome rays (0,1,0), (1,0,1)/sqrt2 and
    (-1,0,1)/sqrt2 carrying alpha, beta, gamma. Its matrix is the paper's
    combination of squared spin components along x, y and z."""
    return ContextOperator(_named_rays("ks"), (alpha, beta, gamma), label)


def ks_context_prime(alpha: float, beta: float, gamma: float, label: str = "C_KS'") -> ContextOperator:
    """Second tripod context: :func:`ks_context` rotated by 45 degrees about
    z, sharing the ray (0,1,0) with it; the other outcome rays are
    (-i,0,1)/sqrt2 and (i,0,1)/sqrt2."""
    return ContextOperator(_named_rays("ks'"), (alpha, beta, gamma), label)


class FourDimContexts(NamedTuple):
    C: ContextOperator
    C_prime: ContextOperator


def four_dim_context(name: str, *spectrum: float) -> ContextOperator:
    """One context of :func:`four_dim_contexts`, labelled by its name: ``"C"``
    or ``"C'"``. A scenario that uses only one of the two builds only that
    one."""
    return ContextOperator(_named_rays(name), spectrum, name)


def four_dim_contexts(
    alpha: float, beta: float, gamma: float, delta: float
) -> FourDimContexts:
    """Pair of four-outcome contexts sharing the rays e3 and e4.

    ``C`` is diagonal on the standard basis. ``C_prime`` mixes the first two
    coordinates, with outcome rays (1,1,0,0)/sqrt2 and (-1,1,0,0)/sqrt2
    carrying the first two eigenvalues, and keeps e3, e4 unchanged.
    """
    return FourDimContexts(
        C=four_dim_context("C", alpha, beta, gamma, delta),
        C_prime=four_dim_context("C'", alpha, beta, gamma, delta),
    )


def context_from_basis(
    basis: Sequence[np.ndarray],
    spectrum: Sequence[float],
    label: str = "",
) -> ContextOperator:
    """Context operator from an arbitrary orthonormal basis and spectrum.

    Coerces the rays into one complex (d, d) array, once, and hands it to
    :class:`ContextOperator`, which checks the spectrum, finiteness and
    orthonormality and raises DegenerateSpectrumError, ValueError or
    NonOrthonormalBasisError on invalid input. A basis that is not d rays
    of length d raises ValueError for the first ray that is not a finite
    vector, and NonOrthonormalBasisError otherwise.
    """
    try:
        rays = np.array(basis, dtype=complex)
    except (TypeError, ValueError):  # ragged, or entries that are not numbers
        rays = None
    if rays is None or rays.ndim != 2 or not 0 < rays.shape[0] == rays.shape[1]:
        for ray in basis:
            as_vector(ray)
        raise NonOrthonormalBasisError("basis must consist of dim vectors of length dim")
    return ContextOperator(rays, spectrum, label)
