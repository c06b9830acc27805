"""Named measurement scenarios: state, context pair, closed-form expectation,
and the outcome cells a contextual model would populate.

For the two mixed scenarios the forbidden set is the standard four-cell
criterion; for collinear scenarios it is the complement of the quantum
support (all cells off the uniqueness pattern).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

from .observables import ContextOperator, four_dim_context, ks_context, ks_context_prime
from .states import BipartiteState, singlet

Spectrum = Sequence[float]


@dataclass(frozen=True)
class Scenario:
    name: str
    dim: int
    forbidden_cells: tuple[tuple[int, int], ...]
    _left_builder: Callable[..., ContextOperator]
    _right_builder: Callable[..., ContextOperator]
    closed_form: Callable[[Spectrum, Spectrum], float]

    def contexts(self, left: Spectrum, right: Spectrum) -> tuple[ContextOperator, ContextOperator]:
        """The pair at these spectra, each of length ``dim``."""
        if len(left) != self.dim or len(right) != self.dim:
            raise ValueError(f"scenario {self.name!r} needs spectra of length {self.dim}")
        return self._left_builder(*left), self._right_builder(*right)

    def state(self) -> BipartiteState:
        return singlet(self.dim)


_build_c = functools.partial(four_dim_context, "C")
_build_c_prime = functools.partial(four_dim_context, "C'")


def _complement(dim: int, support: set[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    return tuple(
        (i, j) for i in range(dim) for j in range(dim) if (i, j) not in support
    )


SCENARIOS: dict[str, Scenario] = {s.name: s for s in (
    Scenario(
        name="ks-collinear",
        dim=3,
        forbidden_cells=_complement(3, {(0, 0), (1, 1), (2, 2)}),
        _left_builder=ks_context,
        _right_builder=ks_context,
        closed_form=lambda l, r: (l[0] * r[0] + l[1] * r[1] + l[2] * r[2]) / 3.0,
    ),
    Scenario(
        name="ks-mixed",
        dim=3,
        forbidden_cells=((0, 1), (0, 2), (1, 0), (2, 0)),
        _left_builder=ks_context,
        _right_builder=ks_context_prime,
        closed_form=lambda l, r: (2.0 * l[0] * r[0] + (l[1] + l[2]) * (r[1] + r[2])) / 6.0,
    ),
    Scenario(
        name="dim4-collinear-C",
        dim=4,
        forbidden_cells=_complement(4, {(0, 3), (1, 2), (2, 1), (3, 0)}),
        _left_builder=_build_c,
        _right_builder=_build_c,
        closed_form=lambda l, r: (l[0] * r[3] + l[1] * r[2] + l[2] * r[1] + l[3] * r[0]) / 4.0,
    ),
    Scenario(
        name="dim4-collinear-Cprime",
        dim=4,
        forbidden_cells=_complement(
            4,
            {(i, j) for i in (0, 1) for j in (2, 3)} | {(i, j) for i in (2, 3) for j in (0, 1)},
        ),
        _left_builder=_build_c_prime,
        _right_builder=_build_c_prime,
        closed_form=lambda l, r: ((l[0] + l[1]) * (r[2] + r[3]) + (l[2] + l[3]) * (r[0] + r[1])) / 8.0,
    ),
    Scenario(
        name="dim4-mixed",
        dim=4,
        forbidden_cells=((2, 2), (2, 3), (3, 2), (3, 3)),
        _left_builder=_build_c,
        _right_builder=_build_c_prime,
        closed_form=lambda l, r: (2.0 * (l[0] * r[3] + l[1] * r[2]) + (l[2] + l[3]) * (r[0] + r[1])) / 8.0,
    ),
)}

