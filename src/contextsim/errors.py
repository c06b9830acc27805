"""Exception types shared across the package."""


class ContextsimError(Exception):
    """Base class for every error raised by this package."""


class NotHermitianError(ContextsimError):
    """A matrix required to be Hermitian is not, within tolerance."""


class NoConvergenceError(ContextsimError):
    """numpy's ``eigh`` (LAPACK) failed to converge on the input matrix."""


class ZeroVectorError(ContextsimError):
    """A ray or state vector with zero norm was supplied."""


class DimensionMismatchError(ContextsimError):
    """Operands have incompatible dimensions."""


class DegenerateSpectrumError(ContextsimError):
    """Context eigenvalues must be pairwise distinct; two coincide."""


class NonOrthonormalBasisError(ContextsimError):
    """A supplied basis is not orthonormal within tolerance."""


class NonNegligibleImaginaryPartError(ContextsimError):
    """A quantity that must be real carries a non-negligible imaginary part."""


class BadCellIndexError(ContextsimError):
    """A joint-table cell index is out of range."""


class ShapeMismatchError(ContextsimError):
    """Shots are not a 1-D integer array of the source table's cells."""


class UnsupportedDimensionError(ContextsimError):
    """The operation is only defined for a specific local dimension."""
