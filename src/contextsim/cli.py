"""Command-line interface: build scenarios, emit predictions and simulated runs.

Commands: expectation, joint, sample, states, sequential. Every command
writes one JSON document (stdout or --out) with floats rendered at 15
significant digits, so reruns with identical flags reproduce identical
bytes. Exit codes: 0 success, 1 validation failure, 2 internal consistency
failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .correlations import (
    SUPPORT_THRESHOLD,
    JointTable,
    contextuality_criterion,
    expectation,
    expectation_scale,
    joint_distribution,
    marginals,
    sequential_link_test,
    verify_uniqueness,
)
from .errors import ContextsimError
from .greechie import diagram_from_contexts, diagram_to_dict, is_separating, link_atoms, rays_match, two_valued_states
from .observables import ContextOperator, context_from_basis
from .sampler import empirical_report, sample, write_shot_csv
from .scenarios import SCENARIOS, Scenario, get_scenario
from .states import BipartiteState, density, singlet

DEFAULT_SEED = 42
CLOSED_FORM_TOL = 1e-9
EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONSISTENCY = 2
EXIT_IO = 3


class ConsistencyFailure(Exception):
    """An internal cross-check failed (closed form vs numeric, normalization)."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad arguments by default, which collides with
    # the consistency-failure code; argument problems are validation failures,
    # reported on one line without the usage block.
    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_VALIDATION)


def _round15(obj):
    """Render floats at 15 significant digits for stable, lossless JSON."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.15g}")
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _round15(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [_round15(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _round15(v) for k, v in obj.items()}
    return obj


def _emit(payload: dict, out: str | None) -> None:
    # allow_nan=False: a non-finite value is a ValueError (exit 1), never Infinity/NaN JSON.
    text = json.dumps(_round15(payload), indent=2, allow_nan=False) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _parse_spectrum(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse spectrum {text!r}; expected comma-separated reals") from None


def _parse_forbidden(text: str) -> tuple[tuple[int, int], ...]:
    cells = []
    for chunk in text.split(";"):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ValueError(f"cannot parse forbidden cell {chunk!r}; expected 'left,right'")
        cells.append((int(parts[0]), int(parts[1])))
    return tuple(cells)


def _parse_basis(entries) -> list[np.ndarray]:
    try:
        return [np.array([complex(re, im) for re, im in ray], dtype=complex) for ray in entries]
    except (TypeError, ValueError):
        raise ValueError("a basis must be a list of rays, each a list of [re, im] number pairs") from None


def _ray_pairs(vec: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in vec]


def _load_basis_file(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError("basis file must hold a JSON object")
    return data


def _custom_pair(args) -> tuple[BipartiteState, ContextOperator, ContextOperator, None]:
    if not args.basis_file:
        raise ValueError("scenario 'custom' requires --basis-file")
    data = _load_basis_file(args.basis_file)
    if "left" not in data or "right" not in data:
        raise ValueError("basis file must define 'left' and 'right' bases")
    left_basis = _parse_basis(data["left"])
    right_basis = _parse_basis(data["right"])
    dim = len(left_basis)
    if len(right_basis) != dim:
        raise ValueError(f"left basis has {dim} rays but right basis has {len(right_basis)}")
    left = _parse_spectrum(args.left) if args.left else tuple(float(k) for k in range(1, dim + 1))
    right = _parse_spectrum(args.right) if args.right else tuple(float(k) for k in range(dim + 1, 2 * dim + 1))
    a = context_from_basis(left_basis, left, label="custom-left")
    b = context_from_basis(right_basis, right, label="custom-right")
    return singlet(a.dim), a, b, None


def _named_pair(
    scenario: Scenario, args
) -> tuple[BipartiteState, ContextOperator, ContextOperator, float]:
    left = _parse_spectrum(args.left) if args.left else scenario.default_left
    right = _parse_spectrum(args.right) if args.right else scenario.default_right
    if len(left) != scenario.dim or len(right) != scenario.dim:
        raise ValueError(f"scenario {scenario.name!r} needs spectra of length {scenario.dim}")
    a, b = scenario.contexts(left, right)
    return scenario.state(), a, b, scenario.closed_form(left, right)


def _build_pair(args):
    if args.scenario == "custom":
        return _custom_pair(args)
    return _named_pair(get_scenario(args.scenario), args)


def _table_payload(state, a, b, table: JointTable) -> dict:
    left_marginal, right_marginal = marginals(table)
    return {
        "state": state.label,
        "left_context": a.label,
        "right_context": b.label,
        "left_spectrum": list(a.spectrum),
        "right_spectrum": list(b.spectrum),
        "left_outcomes": [{"slot": s, "eigenvalue": v} for s, v in table.left_labels],
        "right_outcomes": [{"slot": s, "eigenvalue": v} for s, v in table.right_labels],
        "probabilities": table.probabilities,
        "left_marginal": left_marginal,
        "right_marginal": right_marginal,
    }


def _expectation_tol(a: ContextOperator, b: ContextOperator, *values: float | None) -> float:
    """CLOSED_FORM_TOL relative to the spectrum scale max(1, max|λ|·max|μ|).

    Raises ValueError when that scale or one of the expectation ``values``
    (None entries are skipped) overflowed to inf or nan.
    """
    scale = expectation_scale(a, b)
    if not all(math.isfinite(x) for x in (scale, *values) if x is not None):
        raise ValueError("eigenvalue products overflow double precision")
    return CLOSED_FORM_TOL * scale


def _check_table(state, a, b, table: JointTable) -> float:
    """Cross-check contraction and normalization; returns the expectation."""
    exact = expectation(density(state), a, b)
    lam = np.array([v for _, v in table.left_labels])
    mu = np.array([v for _, v in table.right_labels])
    contracted = float(lam @ table.probabilities @ mu)
    if abs(contracted - exact) > _expectation_tol(a, b, exact, contracted):
        raise ConsistencyFailure(
            f"table contraction {contracted} disagrees with expectation {exact}"
        )
    total = float(table.probabilities.sum())
    if abs(total - 1.0) > CLOSED_FORM_TOL:
        raise ConsistencyFailure(f"table probabilities sum to {total}")
    return exact


def cmd_expectation(args) -> dict:
    state, a, b, closed = _build_pair(args)
    value = expectation(density(state), a, b)
    payload = {
        "command": "expectation",
        "scenario": args.scenario,
        "left_spectrum": list(a.spectrum),
        "right_spectrum": list(b.spectrum),
        "expectation": value,
        "closed_form": closed,
        "abs_difference": None if closed is None else abs(value - closed),
    }
    tol = _expectation_tol(a, b, value, closed)
    if closed is not None and abs(value - closed) > tol:
        raise ConsistencyFailure(
            f"numeric expectation {value} deviates from closed form {closed}"
        )
    return payload


def _forbidden_for(args) -> tuple[tuple[int, int], ...]:
    if args.scenario == "custom":
        if not args.forbidden:
            raise ValueError("scenario 'custom' requires an explicit --forbidden list")
        return _parse_forbidden(args.forbidden)
    if args.forbidden:
        return _parse_forbidden(args.forbidden)
    return get_scenario(args.scenario).forbidden_cells


def cmd_joint(args) -> dict:
    state, a, b, closed = _build_pair(args)
    table = joint_distribution(state, a, b)
    exact = _check_table(state, a, b, table)
    if closed is not None and abs(exact - closed) > _expectation_tol(a, b, closed):
        raise ConsistencyFailure(f"numeric expectation {exact} deviates from closed form {closed}")
    uniqueness = verify_uniqueness(table, tol=args.tol)
    criterion = contextuality_criterion(table, _forbidden_for(args))
    payload = {
        "command": "joint",
        "scenario": args.scenario,
        **_table_payload(state, a, b, table),
        "expectation": exact,
        "closed_form": closed,
        "support_threshold": args.tol,
        "uniqueness": {
            "status": uniqueness.status,
            "is_unique": uniqueness.is_unique,
            "pairing": [list(cell) for cell in uniqueness.pairing],
            "violation_mass": uniqueness.violation_mass,
            "block_structured": uniqueness.block_structured,
            "blocks": [
                {"left": list(left), "right": list(right)} for left, right in uniqueness.blocks
            ],
        },
        "criterion": {
            "forbidden_cells": [
                {"left": i, "right": j, "probability": p}
                for i, j, p in criterion.forbidden_cells
            ],
            "contextual_mass": criterion.contextual_mass,
        },
    }
    return payload


def cmd_sample(args) -> dict:
    state, a, b, closed = _build_pair(args)
    table = joint_distribution(state, a, b)
    _check_table(state, a, b, table)
    shots = sample(table, args.shots, args.seed, batches=args.batches, support_threshold=args.tol)
    report = empirical_report(shots, table, seed=args.seed)
    if args.scenario != "custom":
        for i, j in get_scenario(args.scenario).forbidden_cells:
            if report.counts[i, j] != 0:
                raise ConsistencyFailure(f"forbidden cell ({i}, {j}) drew {report.counts[i, j]} shots")
    csv_path = args.csv or str(Path(args.out).with_suffix(".csv"))
    write_shot_csv(shots, table, csv_path)
    return {
        "command": "sample",
        "scenario": args.scenario,
        "seed": args.seed,
        "batches": args.batches,
        "shots": report.total_shots,
        **_table_payload(state, a, b, table),
        "counts": report.counts,
        "frequencies": report.frequencies,
        "max_abs_deviation": None if args.shots == 0 else report.max_abs_deviation,
        "csv_path": csv_path,
    }


def _contexts_for_states(args) -> list[ContextOperator]:
    if args.scenario == "custom":
        if not args.basis_file:
            raise ValueError("scenario 'custom' requires --basis-file")
        data = _load_basis_file(args.basis_file)
        if "contexts" in data:
            if not isinstance(data["contexts"], list):
                raise ValueError("'contexts' must be a list of bases")
            contexts = []
            for k, basis in enumerate(data["contexts"]):
                rays = _parse_basis(basis)
                if len(rays) not in (3, 4):
                    raise ValueError(f"custom contexts must have dimension 3 or 4, not {len(rays)}")
                spectrum = tuple(float(x) for x in range(1, len(rays) + 1))
                contexts.append(context_from_basis(rays, spectrum, label=f"custom-{k}"))
            if not contexts:
                raise ValueError("basis file lists no contexts")
            return contexts
        _, a, b, _ = _custom_pair(args)
        return [a, b]
    scenario = get_scenario(args.scenario)
    a, b = scenario.contexts(scenario.default_left, scenario.default_right)
    return [a, b]


def cmd_states(args) -> dict:
    contexts = _contexts_for_states(args)
    diagram = diagram_from_contexts(contexts)
    states = two_valued_states(diagram)
    separating, witness = is_separating(states, diagram)
    payload = {
        "command": "states",
        "scenario": args.scenario,
        **diagram_to_dict(diagram),
        "link_atoms": link_atoms(diagram),
        "state_count": len(states),
        "two_valued_states": [
            {atom_id: s.assignment[atom_id] for atom_id in diagram.atom_ids()} for s in states
        ],
        "separating": separating,
        "inseparable_pair": None if witness is None else list(witness),
    }
    return payload


def cmd_sequential(args) -> dict:
    state, a, b, closed = _build_pair(args)
    if not (0 <= args.prepare_slot < a.dim):
        raise ValueError(f"--prepare-slot must be in [0, {a.dim})")
    prepared = a.basis[args.prepare_slot]
    distribution = sequential_link_test(prepared, b)
    link_slot = next(
        (j for j, ray in enumerate(b.basis) if rays_match(ray, prepared)), None
    )
    perfect = link_slot is not None and distribution[link_slot][1] >= 1.0 - CLOSED_FORM_TOL
    return {
        "command": "sequential",
        "scenario": args.scenario,
        "prepared_context": a.label,
        "prepared_slot": args.prepare_slot,
        "prepared_ray": _ray_pairs(prepared),
        "measured_context": b.label,
        "distribution": [
            {"slot": k, "eigenvalue": lam, "probability": p}
            for k, (lam, p) in enumerate(distribution)
        ],
        "link_slot": link_slot,
        "perfect_link_correlation": perfect,
    }


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario",
        required=True,
        choices=[*SCENARIOS, "custom"],
        help="named configuration, or 'custom' with --basis-file",
    )
    parser.add_argument("--left", help="comma-separated eigenvalues for the left context")
    parser.add_argument("--right", help="comma-separated eigenvalues for the right context")
    parser.add_argument("--basis-file", help="JSON file with custom bases ([re,im] pair vectors)")
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    parser.add_argument(
        "--tol",
        type=float,
        default=SUPPORT_THRESHOLD,
        help=f"support threshold separating algebraic zeros from roundoff (default {SUPPORT_THRESHOLD})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="contextsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expectation", help="exact expectation value of a context pair")
    _add_common(p)
    p.set_defaults(handler=cmd_expectation)

    p = sub.add_parser("joint", help="full joint table with uniqueness and criterion reports")
    _add_common(p)
    p.add_argument("--forbidden", help="cells 'i,j;i,j;...' (required for custom scenarios)")
    p.set_defaults(handler=cmd_joint)

    p = sub.add_parser("sample", help="simulated shots: CSV records plus a JSON report")
    _add_common(p)
    p.add_argument("--shots", type=int, default=10000, help="number of coincidence shots")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="generator seed in [0, 2^64) (recorded in output)")
    p.add_argument("--batches", type=int, default=1, help="independently seeded batches")
    p.add_argument("--csv", help="shot CSV path (default: --out with a .csv suffix; one of the two is required)")
    p.set_defaults(handler=cmd_sample)

    p = sub.add_parser("states", help="orthogonality diagram and its two-valued states")
    _add_common(p)
    p.set_defaults(handler=cmd_states)

    p = sub.add_parser("sequential", help="prepare-then-measure run through two contexts")
    _add_common(p)
    p.add_argument("--prepare-slot", type=int, default=0, help="left-context slot to prepare")
    p.set_defaults(handler=cmd_sequential)
    return parser


def _check_flags(args) -> None:
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ValueError("--tol must be finite and nonnegative")
    if args.command != "sample":
        return
    if args.shots < 0:
        raise ValueError("--shots must be nonnegative")
    if not 0 <= args.seed < 2**64:
        raise ValueError("--seed must be in [0, 2^64)")
    if not (args.csv or args.out):
        raise ValueError("sample needs --csv or --out to name the shot CSV")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        # numpy would only warn on overflow; here it is an input error with one stderr line.
        with np.errstate(over="raise", invalid="raise"):
            payload = args.handler(args)
        _emit(payload, args.out)
    except ConsistencyFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except FloatingPointError as exc:
        print(f"error: inputs overflow double precision ({exc})", file=sys.stderr)
        return EXIT_VALIDATION
    except (ContextsimError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
