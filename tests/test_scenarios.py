"""Tests of the named scenarios' context pairs."""

import pytest

from contextsim.observables import ContextOperator, four_dim_contexts
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


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_each_side_builds_exactly_one_context(monkeypatch, name):
    built = []
    post_init = ContextOperator.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(ContextOperator, "__post_init__", counting)
    scenario = SCENARIOS[name]
    d = scenario.dim
    pair = scenario.contexts(tuple(range(1, d + 1)), tuple(range(d + 1, 2 * d + 1)))
    assert len(built) == 2
    assert all(c is p for c, p in zip(built, pair))


@pytest.mark.parametrize(
    "name, sides",
    [("dim4-collinear-C", ("C", "C")), ("dim4-collinear-Cprime", ("C_prime", "C_prime")), ("dim4-mixed", ("C", "C_prime"))],
)
def test_four_dim_contexts_equal_the_scenario_contexts(name, sides):
    left, right = (0.5, -1.25, 3.0, 2.0), (7.0, 1e-3, -4.5, 6.25)
    pair = SCENARIOS[name].contexts(left, right)
    for context, side, spectrum in zip(pair, sides, (left, right)):
        expected = getattr(four_dim_contexts(*spectrum), side)
        for attr in ("basis", "units", "matrix"):
            assert getattr(context, attr).tobytes() == getattr(expected, attr).tobytes()
        assert (context.spectrum, context.label) == (expected.spectrum, expected.label)
