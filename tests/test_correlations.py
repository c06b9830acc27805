"""Tests for exact quantum predictions: expectations, joint tables,
uniqueness, the zero-cell criterion, and the prepare-then-measure variant."""

import itertools
import math

import numpy as np
import pytest
from oracles import breadth_first_components

from contextsim import correlations, greechie
from contextsim.correlations import (
    JointTable,
    _support_components,
    contextuality_criterion,
    expectation,
    joint_distribution,
    marginals,
    sequential_link_test,
    verify_uniqueness,
)
from contextsim.errors import (
    BadCellIndexError,
    DimensionMismatchError,
    NonNegligibleImaginaryPartError,
    ZeroVectorError,
)
from contextsim.observables import four_dim_contexts, ks_context, ks_context_prime
from contextsim.states import DensityMatrix, density, spin1_singlet, spin32_singlet

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def amplitude_table(state, a, b):
    """Independent Born-rule oracle: contract <u| M |conj(v)> per outcome
    pair, where M is the amplitude vector folded into a d x d matrix."""
    d = state.local_dim
    m = state.amplitudes.reshape(d, d)
    p = np.empty((d, d))
    for i, u in enumerate(a.basis):
        for j, v in enumerate(b.basis):
            p[i, j] = abs(u.conj() @ m @ v.conj()) ** 2
    return p


def random_spectra(rng, dim, spread=6.0):
    while True:
        values = rng.uniform(-spread, spread, size=dim)
        if np.min(np.abs(np.subtract.outer(values, values) + np.eye(dim))) > 1e-3:
            return tuple(values)


def uniform_table(dim):
    spectrum = tuple(float(k + 1) for k in range(dim))
    return JointTable(
        left_spectrum=spectrum,
        right_spectrum=spectrum,
        probabilities=np.full((dim, dim), 1.0 / dim**2),
    )


RHO3 = density(spin1_singlet())
RHO4 = density(spin32_singlet())


def test_collinear_tripod_expectation_value():
    value = expectation(RHO3, ks_context(1, 2, 3), ks_context(4, 5, 6))
    assert abs(value - 32.0 / 3.0) < 1e-12


def test_mixed_tripod_expectation_value():
    value = expectation(RHO3, ks_context(1, 2, 3), ks_context_prime(4, 5, 6))
    assert abs(value - 10.5) < 1e-12


def test_dim4_mixed_expectation_value():
    left = four_dim_contexts(1, 2, 3, 4).C
    right = four_dim_contexts(5, 6, 7, 8).C_prime
    assert abs(expectation(RHO4, left, right) - 121.0 / 8.0) < 1e-12


def test_collinear_expectations_match_closed_form_for_random_spectra():
    rng = np.random.default_rng(101)
    for _ in range(100):
        l = random_spectra(rng, 3)
        r = random_spectra(rng, 3)
        closed = (l[0] * r[0] + l[1] * r[1] + l[2] * r[2]) / 3.0
        assert abs(expectation(RHO3, ks_context(*l), ks_context(*r)) - closed) < 1e-9
        assert abs(expectation(RHO3, ks_context_prime(*l), ks_context_prime(*r)) - closed) < 1e-9


def test_mixed_expectation_matches_closed_form_for_random_spectra():
    rng = np.random.default_rng(103)
    for _ in range(100):
        l = random_spectra(rng, 3)
        r = random_spectra(rng, 3)
        closed = (2.0 * l[0] * r[0] + (l[1] + l[2]) * (r[1] + r[2])) / 6.0
        value = expectation(RHO3, ks_context(*l), ks_context_prime(*r))
        assert abs(value - closed) < 1e-9


def test_dim4_expectations_match_closed_forms_for_random_spectra():
    rng = np.random.default_rng(107)
    for _ in range(100):
        l = random_spectra(rng, 4)
        r = random_spectra(rng, 4)
        left = four_dim_contexts(*l)
        right = four_dim_contexts(*r)
        collinear_c = (l[0] * r[3] + l[1] * r[2] + l[2] * r[1] + l[3] * r[0]) / 4.0
        collinear_cp = ((l[0] + l[1]) * (r[2] + r[3]) + (l[2] + l[3]) * (r[0] + r[1])) / 8.0
        mixed = (2.0 * (l[0] * r[3] + l[1] * r[2]) + (l[2] + l[3]) * (r[0] + r[1])) / 8.0
        assert abs(expectation(RHO4, left.C, right.C) - collinear_c) < 1e-9
        assert abs(expectation(RHO4, left.C_prime, right.C_prime) - collinear_cp) < 1e-9
        assert abs(expectation(RHO4, left.C, right.C_prime) - mixed) < 1e-9


def test_expectation_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        expectation(RHO3, ks_context(1, 2, 3), four_dim_contexts(1, 2, 3, 4).C)


def test_collinear_tripod_joint_table():
    table = joint_distribution(spin1_singlet(), ks_context(1, 2, 3), ks_context(4, 5, 6))
    expected = np.diag([1.0, 1.0, 1.0]) / 3.0
    assert np.max(np.abs(table.probabilities - expected)) < 1e-12


def test_mixed_tripod_joint_table():
    table = joint_distribution(spin1_singlet(), ks_context(1, 2, 3), ks_context_prime(4, 5, 6))
    expected = np.array(
        [
            [1.0 / 3.0, 0.0, 0.0],
            [0.0, 1.0 / 6.0, 1.0 / 6.0],
            [0.0, 1.0 / 6.0, 1.0 / 6.0],
        ]
    )
    assert np.max(np.abs(table.probabilities - expected)) < 1e-12


def test_dim4_mixed_joint_table():
    left = four_dim_contexts(1, 2, 3, 4).C
    right = four_dim_contexts(5, 6, 7, 8).C_prime
    table = joint_distribution(spin32_singlet(), left, right)
    expected = np.array(
        [
            [0.0, 0.0, 0.0, 0.25],
            [0.0, 0.0, 0.25, 0.0],
            [0.125, 0.125, 0.0, 0.0],
            [0.125, 0.125, 0.0, 0.0],
        ]
    )
    assert np.max(np.abs(table.probabilities - expected)) < 1e-12


def linked_configurations():
    c3 = ks_context(1, 2, 3)
    c3p = ks_context_prime(4, 5, 6)
    c4 = four_dim_contexts(1, 2, 3, 4)
    c4r = four_dim_contexts(5, 6, 7, 8)
    s3, s4 = spin1_singlet(), spin32_singlet()
    return [
        (s3, c3, ks_context(4, 5, 6)),
        (s3, c3p, ks_context_prime(1, 2, 3)),
        (s3, c3, c3p),
        (s4, c4.C, c4r.C),
        (s4, c4.C_prime, c4r.C_prime),
        (s4, c4.C, c4r.C_prime),
    ]


def test_joint_tables_match_amplitude_contraction_oracle():
    for state, a, b in linked_configurations():
        table = joint_distribution(state, a, b)
        assert np.max(np.abs(table.probabilities - amplitude_table(state, a, b))) < 1e-12


def test_joint_tables_contract_to_the_expectation():
    for state, a, b in linked_configurations():
        table = joint_distribution(state, a, b)
        contracted = float(np.array(table.left_spectrum) @ table.probabilities @ np.array(table.right_spectrum))
        assert abs(contracted - expectation(density(state), a, b)) < 1e-9


def test_forbidden_cells_are_exact_zeros():
    mixed3 = joint_distribution(spin1_singlet(), ks_context(1, 2, 3), ks_context_prime(4, 5, 6))
    for i, j in ((0, 1), (0, 2), (1, 0), (2, 0)):
        assert mixed3.probabilities[i, j] <= 1e-12
    mixed4 = joint_distribution(
        spin32_singlet(), four_dim_contexts(1, 2, 3, 4).C, four_dim_contexts(5, 6, 7, 8).C_prime
    )
    for i, j in ((2, 2), (2, 3), (3, 2), (3, 3)):
        assert mixed4.probabilities[i, j] <= 1e-12


def test_joint_distribution_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        joint_distribution(spin1_singlet(), ks_context(1, 2, 3), four_dim_contexts(1, 2, 3, 4).C)


def test_negative_probability_beyond_floor_is_rejected():
    spectrum = (1.0, 2.0)
    # A NaN cell is neither below the floor nor off the sum by more than the
    # tolerance when the checks are written as "p < floor" and "|s - 1| > tol".
    # A complex cell is no probability, even where dropping its imaginary
    # part would leave a table that sums to 1.
    for probabilities in (
        [[0.5, 0.5], [1e-6, -1e-6]],
        [[np.nan, 0.0], [0.0, 1.0]],
        [[0.5 + 0.3j, 0.0], [0.0, 0.5]],
    ):
        with pytest.raises(ValueError):
            JointTable(
                left_spectrum=spectrum,
                right_spectrum=spectrum,
                probabilities=np.array(probabilities),
            )


@pytest.mark.parametrize("wrong", [(), (0.0,), (0.0, 1.0, 2.0)])
def test_a_spectrum_of_the_wrong_length_is_rejected(wrong):
    # Row i is left slot i and column j right slot j, so each spectrum names
    # exactly one eigenvalue per row or column.
    good = (0.0, 1.0)
    p = np.array([[0.5, 0.0], [0.0, 0.5]])
    for left, right in ((wrong, good), (good, wrong)):
        with pytest.raises(ValueError, match="shape must match the two spectra"):
            JointTable(left_spectrum=left, right_spectrum=right, probabilities=p)


def test_joint_distribution_carries_the_context_spectra():
    for state, a, b in linked_configurations():
        table = joint_distribution(state, a, b)
        assert table.left_spectrum == a.spectrum
        assert table.right_spectrum == b.spectrum
        assert table.shape == (a.dim, b.dim)


def test_uniqueness_of_collinear_tripods():
    table = joint_distribution(spin1_singlet(), ks_context(1, 2, 3), ks_context(4, 5, 6))
    report = verify_uniqueness(table)
    assert report.is_unique
    assert report.status == "unique"
    assert report.pairing == ((0, 0), (1, 1), (2, 2))
    assert report.violation_mass <= 1e-12


def test_uniqueness_of_collinear_dim4_diagonal():
    table = joint_distribution(
        spin32_singlet(), four_dim_contexts(1, 2, 3, 4).C, four_dim_contexts(5, 6, 7, 8).C
    )
    report = verify_uniqueness(table)
    assert report.is_unique
    assert report.pairing == ((0, 3), (1, 2), (2, 1), (3, 0))


def test_block_pattern_of_collinear_dim4_rotated():
    table = joint_distribution(
        spin32_singlet(),
        four_dim_contexts(1, 2, 3, 4).C_prime,
        four_dim_contexts(5, 6, 7, 8).C_prime,
    )
    report = verify_uniqueness(table)
    assert not report.is_unique
    assert report.block_structured
    assert report.status == "block-structured"
    assert report.blocks == (((0, 1), (2, 3)), ((2, 3), (0, 1)))
    assert abs(report.violation_mass - 0.5) < 1e-12


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_support_components_match_a_breadth_first_search_on_every_pattern(dim):
    cells = dim * dim
    bits = (np.arange(2**cells)[:, None] >> np.arange(cells)) & 1
    patterns = bits.astype(bool).reshape(-1, dim, dim)
    # verify_uniqueness reads "one populated cell per row and column" as "dim components".
    one_per_line = ((patterns.sum(axis=1) == 1).all(axis=1) & (patterns.sum(axis=2) == 1).all(axis=1)).tolist()
    for pattern, single in zip(patterns, one_per_line):
        components, spans = _support_components(pattern)
        expected = breadth_first_components(pattern)
        assert components == expected
        assert (len(components) == dim) == single
        # Oracle for block_structured: every component fills its full product of slots.
        filled = all(pattern[np.ix_(left, right)].all() for left, right in expected)
        assert np.array_equal(pattern, spans) == filled


def table_on_pattern(rng, pattern):
    """A valid table with random positive cells exactly on ``pattern``."""
    n = len(pattern)
    p = np.where(pattern, rng.uniform(0.1, 1.0, pattern.shape), 0.0)
    spectrum = tuple(float(k + 1) for k in range(n))
    return JointTable(left_spectrum=spectrum, right_spectrum=spectrum, probabilities=p / p.sum())


def test_uniqueness_reports_match_a_fresh_computation_on_every_3x3_pattern():
    # Every non-empty pattern, in a shuffled order, twice, on fresh tables:
    # the memo of support structures both misses and hits, and evicts.
    rng = np.random.default_rng(5)
    bits = (np.arange(1, 2**9)[:, None] >> np.arange(9)) & 1
    patterns = list(bits.astype(bool).reshape(-1, 3, 3))
    perms = list(itertools.permutations(range(3)))
    for pattern in [patterns[k] for k in np.concatenate([rng.permutation(511), rng.permutation(511)])]:
        table = table_on_pattern(rng, pattern)
        p = table.probabilities
        report = verify_uniqueness(table)
        # The first permutation of greatest mass, each mass a running sum in slot order.
        masses = [p[0, s[0]] + p[1, s[1]] + p[2, s[2]] for s in perms]
        best = perms[masses.index(max(masses))]
        violation_mass = float(p.sum() - max(masses))
        one_per_line = bool(np.all(pattern.sum(axis=1) == 1) and np.all(pattern.sum(axis=0) == 1))
        components, spans = _support_components(pattern)
        assert report.pairing == tuple((i, best[i]) for i in range(3) if pattern[i, best[i]])
        assert report.violation_mass == violation_mass
        assert report.is_unique == (one_per_line and violation_mass <= 1e-10)
        assert report.blocks == tuple(components)
        assert report.block_structured == np.array_equal(pattern, spans)


def test_support_memo_stays_within_its_bound():
    rng = np.random.default_rng(9)
    for n in (3, 4) * 100:
        pattern = rng.random((n, n)) < 0.5
        pattern[0, 0] = True
        verify_uniqueness(table_on_pattern(rng, pattern))
    info = correlations._support_structure.cache_info()
    assert info.maxsize == greechie.MEMO_SIZE and info.currsize <= info.maxsize


def test_uniform_table_is_not_unique():
    report = verify_uniqueness(uniform_table(3))
    assert not report.is_unique
    assert abs(report.violation_mass - 2.0 / 3.0) < 1e-12


def test_exact_ties_pick_the_first_permutation():
    # Matchings (0, 2, 1), (1, 0, 2) and (1, 2, 0) all carry 7/18 in exact
    # arithmetic, but their running sums round apart; the first one wins.
    p = np.array([[2, 2, 0], [3, 1, 2], [3, 3, 2]]) / 18
    report = verify_uniqueness(JointTable((1.0, 2.0, 3.0), (4.0, 5.0, 6.0), p))
    assert report.pairing == ((0, 0), (1, 2), (2, 1))
    assert report.violation_mass == pytest.approx(11 / 18, abs=1e-15)


def test_a_table_that_does_not_sum_to_one_is_rejected():
    with pytest.raises(ValueError, match="probabilities sum to 0.9"):
        JointTable((1.0, 2.0, 3.0), (4.0, 5.0, 6.0), np.full((3, 3), 0.1))


def test_uniqueness_rejects_a_non_square_table():
    table = JointTable((1.0, 2.0, 3.0), (4.0, 5.0), np.full((3, 2), 1.0 / 6))
    with pytest.raises(ValueError, match="square tables"):
        verify_uniqueness(table)


def test_an_imaginary_trace_beyond_its_bound_is_rejected():
    # i c S with S = sign(Re(A x B))^T is anti-Hermitian by 2c = 9.98e-11,
    # within the Hermiticity check, but adds c * sum|Re(A x B)| = 5.2e-9 to
    # the imaginary part of the trace, against a bound of 1e-10 * 18.
    a, b = ks_context(1, 2, 3), ks_context_prime(4, 5, 6)
    tilt = 1j * 4.99e-11 * np.sign(np.kron(a.matrix, b.matrix).real).T
    with pytest.raises(NonNegligibleImaginaryPartError, match="imaginary part"):
        expectation(DensityMatrix(RHO3.matrix + tilt), a, b)


def test_support_is_the_mask_above_tol_and_never_empty():
    table = joint_distribution(spin1_singlet(), ks_context(1, 2, 3), ks_context_prime(4, 5, 6))
    assert np.array_equal(table.support(1e-10), table.probabilities > 1e-10)
    # no ks-mixed cell exceeds 1/3
    with pytest.raises(ValueError, match="support threshold"):
        table.support(0.5)
    with pytest.raises(ValueError, match="support threshold"):
        verify_uniqueness(table, tol=0.5)


def test_criterion_mass_vanishes_on_mixed_tables():
    mixed3 = joint_distribution(spin1_singlet(), ks_context(1, 2, 3), ks_context_prime(4, 5, 6))
    report = contextuality_criterion(mixed3, [(0, 1), (0, 2), (1, 0), (2, 0)])
    assert report.contextual_mass <= 1e-12
    assert all(p <= 1e-12 for _, _, p in report.forbidden_cells)

    mixed4 = joint_distribution(
        spin32_singlet(), four_dim_contexts(1, 2, 3, 4).C, four_dim_contexts(5, 6, 7, 8).C_prime
    )
    report = contextuality_criterion(mixed4, [(2, 2), (2, 3), (3, 2), (3, 3)])
    assert report.contextual_mass <= 1e-12


def test_criterion_mass_on_uniform_table():
    report = contextuality_criterion(uniform_table(4), [(2, 2), (2, 3), (3, 2), (3, 3)])
    assert abs(report.contextual_mass - 0.25) < 1e-12


def test_criterion_rejects_bad_cell():
    with pytest.raises(BadCellIndexError):
        contextuality_criterion(uniform_table(3), [(0, 3)])


def test_criterion_rejects_a_repeated_cell():
    # Counted twice, the uniform table's (0, 0) would add 2/9 to the mass.
    with pytest.raises(BadCellIndexError, match=r"cell \(0, 0\) listed twice"):
        contextuality_criterion(uniform_table(3), [(0, 0), (1, 2), (0, 0)])


def test_sequential_link_ray_gives_certainty():
    distribution, link_slot = sequential_link_test(np.array([0.0, 1.0, 0.0]), ks_context_prime(4, 5, 6))
    assert [p for _, p in distribution] == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)
    assert distribution[0][0] == 4.0
    assert link_slot == 0


def test_sequential_non_link_ray_splits_evenly():
    # overlap of (1,0,1)/sqrt2 with (-+i,0,1)/sqrt2 has squared modulus 1/2
    prepared = np.array([INV_SQRT2, 0.0, INV_SQRT2])
    distribution, link_slot = sequential_link_test(prepared, ks_context_prime(4, 5, 6))
    assert [p for _, p in distribution] == pytest.approx([0.0, 0.5, 0.5], abs=1e-12)
    assert link_slot is None


def test_sequential_standard_ray_through_diagonal_context():
    distribution, link_slot = sequential_link_test(np.eye(4)[2], four_dim_contexts(1, 2, 3, 4).C)
    assert distribution[2] == (3.0, pytest.approx(1.0))
    assert link_slot == 2


def test_sequential_rejects_zero_and_mismatched_input():
    with pytest.raises(ZeroVectorError):
        sequential_link_test(np.zeros(3), ks_context(1, 2, 3))
    with pytest.raises(DimensionMismatchError):
        sequential_link_test(np.eye(4)[0], ks_context(1, 2, 3))


def test_marginals_are_maximally_mixed():
    for state, a, b in linked_configurations():
        table = joint_distribution(state, a, b)
        left, right = marginals(table)
        d = state.local_dim
        assert np.max(np.abs(left - 1.0 / d)) < 1e-12
        assert np.max(np.abs(right - 1.0 / d)) < 1e-12
        assert np.allclose(table.probabilities.sum(axis=1), left)
