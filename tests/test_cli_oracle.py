"""The reports of the three pair commands against reports built from the oracles.

Inputs are custom d = 3 and d = 4 basis pairs drawn by ``sharing_pairs``
(sharing 0 to d - 2 rays up to a phase, or all d), drawn spectra, a drawn
``--tol`` for ``joint``, drawn forbidden cells, and a drawn shot count, seed
and batch count for ``sample``. For each draw, ``expectation``, ``joint`` and
``sample`` run through ``cli.main``, and each parsed report must equal one
built from ``tests/oracles.py``:

- keys, ints, strings and bools are equal;
- probabilities, marginals, masses and frequencies lie within 1e-14;
- the expectation lies within 1e-14 * max(1, max|λ|·max|μ|), since its terms
  cancel and a bound relative to the value would judge roundoff against a
  value near zero;
- every other float (eigenvalues, the threshold) equals the oracle's at the
  reports' 15 significant digits.

The expected shots are ``reference_stream`` on the library's own table: a
table that differs in its last bit moves the draw's CDF thresholds. Their
counts come from a ``Counter`` and the CSV bytes must equal ``reference_csv``.

Near-threshold draws are rejected by ``assume``: two correct computations may
flip a verdict when a cell or the violation mass lies within 1e-14 of
``--tol``, or when a slot matching's mass lies within 1e-13 of the tie bound
``PAIRING_TIE_TOL`` below the heaviest. Matchings that tie in exact
arithmetic (as when the pair shares all rays) lie far inside that bound.
"""

import collections
import contextlib
import io
import itertools
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    breadth_first_components,
    kronecker_expectation,
    kronecker_table,
    reference_csv,
    reference_stream,
    sharing_pairs,
    uniqueness_oracle,
)

from contextsim import cli
from contextsim.correlations import joint_distribution
from contextsim.observables import context_from_basis
from contextsim.states import singlet
from contextsim.tolerances import PAIRING_TIE_TOL, SUPPORT_THRESHOLD

STATE_LABEL = {3: "spin1-singlet", 4: "spin32-singlet"}
EIGENVALUE = st.one_of(st.integers(-20, 20).map(float), st.floats(-20.0, 20.0))
# The report keys whose floats are probabilities or sums of them.
PROBABILITY_KEYS = {
    "probabilities", "left_marginal", "right_marginal", "violation_mass",
    "probability", "contextual_mass", "frequencies", "max_abs_deviation",
}


def spectra(d):
    return st.lists(EIGENVALUE, min_size=d, max_size=d).filter(
        lambda v: min(abs(x - y) for x, y in itertools.combinations(v, 2)) > 1e-6
    )


@st.composite
def runs(draw):
    """(left rays, right rays, λ, μ, joint --tol, forbidden cells, shots, seed, batches)."""
    left, right = draw(sharing_pairs())
    d = len(left)
    cells = st.tuples(st.integers(0, d - 1), st.integers(0, d - 1))
    return (
        left, right, draw(spectra(d)), draw(spectra(d)),
        draw(st.sampled_from((SUPPORT_THRESHOLD, 0.02, 0.05))),
        draw(st.lists(cells, min_size=1, max_size=d * d, unique=True)),
        draw(st.integers(0, 2000)), draw(st.integers(0, 2**64 - 1)), draw(st.integers(1, 4)),
    )


def rendered(value):
    """``value`` as a report prints it: arrays as lists, floats at 15 significant digits."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, float):
        return float(f"{value:.15g}")
    if isinstance(value, (list, tuple)):
        return [rendered(x) for x in value]
    if isinstance(value, dict):
        return {k: rendered(v) for k, v in value.items()}
    return value


def assert_matches(expected, actual, scale, key=None):
    assert type(actual) is type(expected), (key, expected, actual)
    if isinstance(expected, dict):
        assert list(actual) == list(expected)
        for k in expected:
            assert_matches(expected[k], actual[k], scale, k)
    elif isinstance(expected, list):
        assert len(actual) == len(expected), key
        for x, y in zip(expected, actual):
            assert_matches(x, y, scale, key)
    elif isinstance(expected, float):
        bound = 1e-14 * scale if key == "expectation" else 1e-14 if key in PROBABILITY_KEYS else 0.0
        assert abs(actual - expected) <= bound, (key, expected, actual)
    else:
        assert actual == expected, (key, expected, actual)


def table_payload(d, lam, mu, p):
    return {
        "state": STATE_LABEL[d],
        "left_context": "custom-left",
        "right_context": "custom-right",
        "left_spectrum": lam,
        "right_spectrum": mu,
        "left_outcomes": [{"slot": s, "eigenvalue": v} for s, v in enumerate(lam)],
        "right_outcomes": [{"slot": s, "eigenvalue": v} for s, v in enumerate(mu)],
        "probabilities": p,
        "left_marginal": p.sum(axis=1),
        "right_marginal": p.sum(axis=0),
    }


@settings(max_examples=60, deadline=None)
@given(runs())
def test_pair_command_reports_equal_the_oracle_reports(run):
    left, right, lam, mu, tol, forbidden, shots, seed, batches = run
    d = len(left)
    state = singlet(d)
    a, b = context_from_basis(list(left), lam), context_from_basis(list(right), mu)
    p = kronecker_table(state, a, b)
    pairing, violation_mass, status = uniqueness_oracle(p, tol)
    masses = [sum(p[i, s[i]] for i in range(d)) for s in itertools.permutations(range(d))]
    assume(np.abs(p - tol).min() > 1e-14 and abs(violation_mass - tol) > 1e-14)
    assume(all(abs(max(masses) - mass - PAIRING_TIE_TOL) > 1e-13 for mass in masses))
    support = p > tol
    blocks = breadth_first_components(support)
    scale = max(1.0, max(map(abs, lam)) * max(map(abs, mu)))
    value = kronecker_expectation(state, a, b)
    table = joint_distribution(state, a, b)
    stream = reference_stream(table, shots, seed, batches)
    counts = np.zeros((d, d), dtype=int)
    for cell, count in collections.Counter(stream.tolist()).items():
        counts[divmod(cell, d)] = count
    frequencies = counts / shots if shots else np.zeros((d, d))
    expected = {
        "expectation": {
            "command": "expectation", "scenario": "custom", "left_spectrum": lam, "right_spectrum": mu,
            "expectation": value, "closed_form": None, "abs_difference": None,
        },
        "joint": {
            "command": "joint", "scenario": "custom", **table_payload(d, lam, mu, p),
            "expectation": value, "closed_form": None, "support_threshold": tol,
            "uniqueness": {
                "status": status,
                "is_unique": status == "unique",
                "pairing": pairing,
                "violation_mass": violation_mass,
                "block_structured": all(support[np.ix_(rows, cols)].all() for rows, cols in blocks),
                "blocks": [{"left": rows, "right": cols} for rows, cols in blocks],
            },
            "criterion": {
                "forbidden_cells": [{"left": i, "right": j, "probability": p[i, j]} for i, j in forbidden],
                "contextual_mass": sum(p[i, j] for i, j in forbidden),
            },
        },
    }
    spectrum_flags = ["--left=" + ",".join(map(repr, lam)), "--right=" + ",".join(map(repr, mu))]
    with tempfile.TemporaryDirectory() as tmp:
        basis = Path(tmp) / "pair.json"
        csv = Path(tmp) / "shots.csv"
        rays = {side: [[[z.real, z.imag] for z in ray] for ray in side_rays]
                for side, side_rays in (("left", left), ("right", right))}
        basis.write_text(json.dumps(rays), encoding="utf-8")
        expected["sample"] = {
            "command": "sample", "scenario": "custom", "seed": seed, "batches": batches, "shots": shots,
            **table_payload(d, lam, mu, p),
            "counts": counts, "frequencies": frequencies,
            "max_abs_deviation": float(np.abs(frequencies - p).max()) if shots else None,
            "csv_path": str(csv),
        }
        flags = {
            "expectation": [],
            "joint": [f"--tol={tol!r}", "--forbidden=" + ";".join(f"{i},{j}" for i, j in forbidden)],
            "sample": ["--shots", str(shots), "--seed", str(seed), "--batches", str(batches), "--csv", str(csv)],
        }
        for command, extra in flags.items():
            out = io.StringIO()
            argv = [command, "--scenario", "custom", "--basis-file", str(basis), *spectrum_flags, *extra]
            with contextlib.redirect_stdout(out):
                assert cli.main(argv) == cli.EXIT_OK
            assert_matches(rendered(expected[command]), json.loads(out.getvalue()), scale)
        assert csv.read_bytes() == reference_csv(stream, table)
