"""Command-line interface: build scenarios, emit predictions and simulated runs.

Commands: expectation, joint, sample, states, sequential. The three pair
commands (expectation, joint, sample) build the context pair, the singlet,
its joint table and its expectation in one place, and check the expectation
against the table contraction and any closed form. Every command writes one
JSON document (stdout or --out) with floats rendered at 15 significant
digits, so reruns with identical flags reproduce identical bytes. Exit
codes: 0 success, 1 validation failure, 2 internal consistency failure, 3
I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
from pathlib import Path

import numpy as np

from .correlations import (
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
from .greechie import diagram_from_contexts, diagram_to_dict, is_separating, link_atoms, two_valued_states
from .observables import ContextOperator, context_from_basis
from .sampler import empirical_report, sample, write_shot_csv
from .scenarios import SCENARIOS, Scenario
from .states import density, singlet
from .tolerances import CLOSED_FORM_TOL, SUPPORT_THRESHOLD

DEFAULT_SEED = 42
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


def _emit(payload: dict, out: str | None) -> None:
    """Write ``payload`` as indented JSON, arrays as lists and every float
    re-read at 15 significant digits for stable, lossless JSON. The payload,
    then its compact text, is dropped once read, so a large report passed
    as the caller's only reference is never held twice."""
    compact = json.dumps(payload, default=lambda value: value.tolist())
    del payload
    rounded = json.loads(compact, parse_float=lambda text: float(f"{float(text):.15g}"))
    del compact
    # allow_nan=False: a non-finite value is a ValueError (exit 1), never Infinity/NaN JSON.
    text = json.dumps(rounded, indent=2, allow_nan=False) + "\n"
    if out is not None:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _spectrum(text: str | None, dim: int, first: int) -> tuple[float, ...]:
    """The spectrum a --left/--right flag gives: ``first, ..., first + dim - 1``
    when the flag is absent."""
    if text is None:
        return tuple(float(k) for k in range(first, first + dim))
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse spectrum {text!r}; expected comma-separated reals") from None


def _parse_forbidden(text: str) -> tuple[tuple[int, int], ...]:
    cells = []
    for chunk in text.split(";"):
        try:
            left, right = map(int, chunk.split(","))
        except ValueError:
            raise ValueError(f"cannot parse forbidden cell {chunk!r}; expected 'left,right'") from None
        cells.append((left, right))
    return tuple(cells)


def _ray_pairs(vec: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in vec]


def _basis_context(entries, spectrum: str | None, first: int, label: str) -> ContextOperator:
    """A custom basis's context, its rays 3 or 4 lists of [re, im] pairs, at
    ``spectrum`` (default: first, first + 1, ...)."""
    try:
        rays = [np.array([complex(re, im) for re, im in ray], dtype=complex) for ray in entries]
        # complex(True, 0) is 1+0j, but a JSON boolean is no number.
        if any(type(x) is bool for ray in entries for pair in ray for x in pair):
            raise TypeError
    except (TypeError, ValueError, OverflowError):
        raise ValueError("a basis must be a list of rays, each a list of [re, im] number pairs") from None
    if len(rays) not in (3, 4):
        raise ValueError(f"custom contexts must have dimension 3 or 4, not {len(rays)}")
    return context_from_basis(rays, _spectrum(spectrum, len(rays), first), label=label)


def _contexts(args) -> tuple[list[ContextOperator], Scenario | None]:
    """The contexts the flags name, and their scenario (None for 'custom').

    A named scenario, or a basis file's 'left'/'right' pair, is built at
    --left/--right (default: 1..d and d+1..2d); a named scenario takes no
    --basis-file. For ``states`` only, a basis file may instead hold a
    'contexts' list, each basis at 1..d, where --left and --right are an
    error.
    """
    if args.scenario != "custom":
        if args.basis_file is not None:
            raise ValueError("--basis-file applies only to --scenario custom")
        scenario = SCENARIOS[args.scenario]
        d = scenario.dim
        return list(scenario.contexts(_spectrum(args.left, d, 1), _spectrum(args.right, d, d + 1))), scenario
    if args.basis_file is None:
        raise ValueError("scenario 'custom' requires --basis-file")
    with open(args.basis_file, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except RecursionError:
            raise ValueError("basis file nests too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("basis file must hold a JSON object")
    if args.command == "states" and "contexts" in data:
        if args.left is not None or args.right is not None:
            raise ValueError("--left and --right set a pair's spectra; a 'contexts' basis file has no pair")
        if not isinstance(data["contexts"], list):
            raise ValueError("'contexts' must be a list of bases")
        return [_basis_context(basis, None, 1, f"custom-{k}") for k, basis in enumerate(data["contexts"])], None
    if "left" not in data or "right" not in data:
        raise ValueError("basis file must define 'left' and 'right' bases")
    a = _basis_context(data["left"], args.left, 1, "custom-left")
    b = _basis_context(data["right"], args.right, a.dim + 1, "custom-right")
    if b.dim != a.dim:
        raise ValueError(f"left basis has {a.dim} rays but right basis has {b.dim}")
    return [a, b], None


def _table_payload(state, a, b, table: JointTable) -> dict:
    left_marginal, right_marginal = marginals(table)
    return {
        "state": state.label,
        "left_context": a.label,
        "right_context": b.label,
        "left_spectrum": a.spectrum,
        "right_spectrum": b.spectrum,
        "left_outcomes": [{"slot": s, "eigenvalue": v} for s, v in enumerate(table.left_spectrum)],
        "right_outcomes": [{"slot": s, "eigenvalue": v} for s, v in enumerate(table.right_spectrum)],
        "probabilities": table.probabilities,
        "left_marginal": left_marginal,
        "right_marginal": right_marginal,
    }


def _checked_pair(args):
    """The flags' context pair on the singlet: ``(scenario, state, a, b,
    table, expectation, closed form)``, the scenario and the closed form
    None for custom.

    Raises ConsistencyFailure when the contraction λᵀPμ of the joint table
    (which checked its own normalization when it was built) or the closed
    form misses the expectation Tr{ρ(A⊗B)} by more than CLOSED_FORM_TOL
    relative to the spectrum scale max(1, max|λ|·max|μ|), and ValueError
    when that scale or one of the values overflowed to inf or nan.
    """
    (a, b), scenario = _contexts(args)
    state = singlet(a.dim)
    table = joint_distribution(state, a, b)
    exact = expectation(density(state), a, b)
    closed = None if scenario is None else scenario.closed_form(a.spectrum, b.spectrum)
    contracted = float(np.array(table.left_spectrum) @ table.probabilities @ np.array(table.right_spectrum))
    scale = expectation_scale(a, b)
    if not all(math.isfinite(x) for x in (scale, exact, closed, contracted) if x is not None):
        raise ValueError("eigenvalue products overflow double precision")
    tol = CLOSED_FORM_TOL * scale
    if abs(contracted - exact) > tol:
        raise ConsistencyFailure(f"table contraction {contracted} disagrees with expectation {exact}")
    if closed is not None and abs(exact - closed) > tol:
        raise ConsistencyFailure(f"numeric expectation {exact} deviates from closed form {closed}")
    return scenario, state, a, b, table, exact, closed


def cmd_expectation(args) -> dict:
    _, _, a, b, _, value, closed = _checked_pair(args)
    return {
        "command": "expectation",
        "scenario": args.scenario,
        "left_spectrum": a.spectrum,
        "right_spectrum": b.spectrum,
        "expectation": value,
        "closed_form": closed,
        "abs_difference": None if closed is None else abs(value - closed),
    }


def cmd_joint(args) -> dict:
    scenario, state, a, b, table, exact, closed = _checked_pair(args)
    uniqueness = verify_uniqueness(table, tol=args.tol)
    if scenario is None and args.forbidden is None:
        raise ValueError("scenario 'custom' requires an explicit --forbidden list")
    forbidden = scenario.forbidden_cells if args.forbidden is None else _parse_forbidden(args.forbidden)
    criterion = contextuality_criterion(table, forbidden)
    return {
        "command": "joint",
        "scenario": args.scenario,
        **_table_payload(state, a, b, table),
        "expectation": exact,
        "closed_form": closed,
        "support_threshold": args.tol,
        "uniqueness": {
            "status": uniqueness.status,
            "is_unique": uniqueness.is_unique,
            "pairing": uniqueness.pairing,
            "violation_mass": uniqueness.violation_mass,
            "block_structured": uniqueness.block_structured,
            "blocks": [{"left": left, "right": right} for left, right in uniqueness.blocks],
        },
        "criterion": {
            "forbidden_cells": [
                {"left": i, "right": j, "probability": p}
                for i, j, p in criterion.forbidden_cells
            ],
            "contextual_mass": criterion.contextual_mass,
        },
    }


def cmd_sample(args) -> dict:
    scenario, state, a, b, table, _, _ = _checked_pair(args)
    shots = sample(table, args.shots, args.seed, batches=args.batches, support_threshold=args.tol)
    report = empirical_report(shots, table)
    for i, j in () if scenario is None else scenario.forbidden_cells:
        if report.counts[i, j] != 0:
            raise ConsistencyFailure(f"forbidden cell ({i}, {j}) drew {report.counts[i, j]} shots")
    csv_path = _csv_path(args)
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
        "max_abs_deviation": report.max_abs_deviation,
        "csv_path": csv_path,
    }


def cmd_states(args) -> dict:
    contexts, _ = _contexts(args)
    diagram = diagram_from_contexts(contexts)
    separating, witness = is_separating(two_valued_states(diagram), diagram)
    ids, bits = diagram.atom_ids, diagram.state_bits
    return {
        "command": "states",
        "scenario": args.scenario,
        **diagram_to_dict(diagram),
        "link_atoms": link_atoms(diagram),
        "state_count": len(bits),
        "two_valued_states": [dict(zip(ids, row)) for row in bits.tolist()],
        "separating": separating,
        "inseparable_pair": witness,
    }


def cmd_sequential(args) -> dict:
    (a, b), _ = _contexts(args)
    if not (0 <= args.prepare_slot < a.dim):
        raise ValueError(f"--prepare-slot must be in [0, {a.dim})")
    prepared = a.basis[args.prepare_slot]
    distribution, link_slot = sequential_link_test(prepared, b)
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
        "perfect_link_correlation": link_slot is not None,
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


def _add_tol(parser: argparse.ArgumentParser) -> None:
    """``--tol``, for the commands that read a table's support."""
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
    _add_tol(p)
    p.add_argument("--forbidden", help="cells 'i,j;i,j;...' (required for custom scenarios)")
    p.set_defaults(handler=cmd_joint)

    p = sub.add_parser("sample", help="simulated shots: CSV records plus a JSON report")
    _add_common(p)
    _add_tol(p)
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


def _csv_path(args) -> str:
    return str(Path(args.out).with_suffix(".csv")) if args.csv is None else args.csv


def _same_file(path: str, other: str | None) -> bool:
    """Whether ``path`` is the file ``other`` names, or standard output when
    ``other`` is None. Only a regular file loses bytes when both are written
    to; a shared device or pipe (``/dev/null``) counts as no shared file."""
    try:
        target = os.stat(path)
        report = os.stat(other) if other is not None else os.fstat(sys.stdout.fileno())
        return stat.S_ISREG(target.st_mode) and os.path.samestat(target, report)
    except (OSError, ValueError):
        # A file that does not exist yet (or a stdout with no descriptor) is
        # the other's only when both are named by the same path.
        return other is not None and os.path.realpath(path) == os.path.realpath(other)


def _check_flags(args) -> None:
    """Checks on flags alone, before any work or write; ``sample`` leaves its
    ``--shots``, ``--seed`` and ``--batches`` ranges, and every command its
    ``--tol``, to the library. Neither output (the report, which is
    standard output without ``--out``, nor the shot CSV) may be the basis
    file."""
    for flag, path in (("--out", args.out), ("--csv", getattr(args, "csv", None)), ("--basis-file", args.basis_file)):
        if path == "":
            raise ValueError(f"{flag} needs a file path, not an empty string")
    outputs = [("JSON report", args.out)]
    if args.command == "sample":
        if args.csv is None and args.out is None:
            raise ValueError("sample needs --csv or --out to name the shot CSV")
        csv_path = _csv_path(args)
        if _same_file(csv_path, args.out):
            raise ValueError(f"the shot CSV and the JSON report would share {csv_path}; give --csv another path")
        outputs.append(("shot CSV", csv_path))
    for name, path in outputs:
        if args.basis_file is not None and _same_file(args.basis_file, path):
            raise ValueError(f"the {name} would overwrite the basis file {args.basis_file}; give it another path")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        # numpy would only warn on overflow; here it is an input error with one stderr line.
        with np.errstate(over="raise", invalid="raise"):
            _emit(args.handler(args), args.out)
    except ConsistencyFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except FloatingPointError as exc:
        print(f"error: inputs overflow double precision ({exc})", file=sys.stderr)
        return EXIT_VALIDATION
    except (ContextsimError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:
        # numpy names the failed allocation; a bare MemoryError names nothing.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
