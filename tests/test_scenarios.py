"""Tests of the named scenarios' context pairs."""

import pytest

from contextsim.scenarios import SCENARIOS


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_spectra_of_another_length_are_rejected(name):
    scenario = SCENARIOS[name]
    d = scenario.dim
    good = tuple(float(k) for k in range(1, d + 1))
    for bad in (good[:-1], (*good, d + 1.0)):
        for left, right in ((bad, good), (good, bad)):
            with pytest.raises(ValueError, match=f"^scenario '{name}' needs spectra of length {d}$"):
                scenario.contexts(left, right)


def test_a_fourth_tripod_eigenvalue_is_no_label():
    # ks_context's fourth parameter is the label: the length check comes first.
    with pytest.raises(ValueError, match="needs spectra of length 3"):
        SCENARIOS["ks-mixed"].contexts((1, 2, 3, 4), (5, 6, 7))

