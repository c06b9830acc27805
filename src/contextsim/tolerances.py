"""Every numerical tolerance of the package, in one place.

A verdict read off a computed table ("this cell is empty", "these two rays
are one atom", "these eigenvalues coincide") holds only within a tolerance,
so the tolerances are part of every result. Each comment says what the
constant bounds and whether the bound is absolute or scaled (multiplied by
the named scale before the comparison).
"""

# Expectation vs closed form and vs table contraction; scaled by max(1, max|λ|·max|μ|).
CLOSED_FORM_TOL = 1e-9
# Default support threshold: a table cell at or below it counts as empty; absolute.
SUPPORT_THRESHOLD = 1e-10
# |sum of a joint table - 1|, and the most probability sample may drop below its support threshold; absolute.
NORMALIZATION_TOL = 1e-9
# Lowest joint-table probability taken as roundoff and clamped to 0; absolute.
NEGATIVE_FLOOR = -1e-12
# Imaginary part of Tr{rho (A x B)}; scaled by max(1, max|λ|·max|μ|).
IMAG_TOL = 1e-10
# Gap at or below which two eigenvalues of a context coincide; scaled by max(1, max|λ|).
MERGE_TOL = 1e-8
# Largest entry of |conj(R) R^T - I| over a context's rays R; absolute.
BASIS_TOL = 1e-8
# Modulus an eigenvector entry must exceed to fix the vector's phase; absolute.
PHASE_CUTOFF = 1e-8
# Largest entry of |M - M^†| (Hermitian check) and of |U^† U - I| (unitary check); absolute.
HERMITICITY_TOL = 1e-10
# | |psi| - 1 | of a bipartite state vector; absolute.
NORM_TOL = 1e-12
# |Tr rho - 1| and the most negative eigenvalue of a density matrix; absolute.
DENSITY_TOL = 1e-10
# 1 - |<u,v>| / (|u| |v|) at or below which two rays are one atom; scale-free (divided by the norms).
RAY_MATCH_TOL = 1e-8
# Gap below the greatest slot-matching mass within which a matching ties it, and
# the first tied one in lexicographic order is the pairing; absolute. A mass sums
# at most four probabilities, so masses equal in exact arithmetic round apart by
# ~1e-15 at most; the bound clears that and stays below SUPPORT_THRESHOLD.
PAIRING_TIE_TOL = 1e-12
