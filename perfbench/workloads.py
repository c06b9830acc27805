"""The three workloads: seeded inputs, one request, and its correctness check.

Every input (spectra, bases, basis files, seeds, argument lists) is drawn
from the workload seed when the workload is built, before any timing.  A
request only calls into contextsim.  ``check`` returns ``None`` or a message;
``fingerprint`` gives the bytes a repeated request must reproduce.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from contextsim import cli, correlations, greechie, observables, scenarios, states

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
NAMED = ("ks-collinear", "ks-mixed", "dim4-collinear-C", "dim4-collinear-Cprime", "dim4-mixed")
DIM = {"ks-collinear": 3, "ks-mixed": 3, "dim4-collinear-C": 4, "dim4-collinear-Cprime": 4, "dim4-mixed": 4}
# Closed forms and two-valued-state counts, written out here so that the
# checks do not rely on the code under test.  A random custom basis pair
# shares no ray, so its diagram has d * d two-valued states.
CLOSED_FORM = {
    "ks-collinear": lambda l, r: (l[0] * r[0] + l[1] * r[1] + l[2] * r[2]) / 3.0,
    "ks-mixed": lambda l, r: (2.0 * l[0] * r[0] + (l[1] + l[2]) * (r[1] + r[2])) / 6.0,
    "dim4-collinear-C": lambda l, r: (l[0] * r[3] + l[1] * r[2] + l[2] * r[1] + l[3] * r[0]) / 4.0,
    "dim4-collinear-Cprime": lambda l, r: ((l[0] + l[1]) * (r[2] + r[3]) + (l[2] + l[3]) * (r[0] + r[1])) / 8.0,
    "dim4-mixed": lambda l, r: (2.0 * (l[0] * r[3] + l[1] * r[2]) + (l[2] + l[3]) * (r[0] + r[1])) / 8.0,
}
TWO_VALUED = {"ks-collinear": 3, "ks-mixed": 5, "dim4-collinear-C": 4, "dim4-collinear-Cprime": 4, "dim4-mixed": 6}
FORBIDDEN = {
    "ks-collinear": tuple((i, j) for i in range(3) for j in range(3) if i != j),
    "ks-mixed": ((0, 1), (0, 2), (1, 0), (2, 0)),
    "dim4-collinear-C": tuple((i, j) for i in range(4) for j in range(4) if i + j != 3),
    "dim4-collinear-Cprime": tuple((i, j) for i in range(4) for j in range(4) if (i < 2) == (j < 2)),
    "dim4-mixed": ((2, 2), (2, 3), (3, 2), (3, 3)),
}
TOL = 1e-9


def _float_spectrum(rng, d):
    while True:
        values = np.round(rng.uniform(-5.0, 5.0, d), 6)
        if np.min(np.diff(np.sort(values))) > 1e-3:
            return tuple(float(v) for v in values)


def _int_spectrum(rng, d):
    return tuple(int(v) for v in rng.choice(np.arange(1, 21), d, replace=False))


def _random_basis(rng, d):
    """Columns of the QR factor of a complex Gaussian matrix."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return [q[:, k].copy() for k in range(d)]


def _csv_list(values):
    return ",".join(str(v) for v in values)


def _file_digest(path: Path) -> bytes:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.digest()


def _count_lines(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: handle.read(1 << 20), b""))


class PredictSweep:
    """Library analysis: a request is one pass over seven context pairs.

    The pairs are the five named scenarios and one random custom basis pair
    each in d = 3 and d = 4, all with fresh seeded spectra.
    """

    in_process = True
    POOL = 64

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.requests = []
        for _ in range(self.POOL):
            pairs = []
            for name in NAMED:
                d = DIM[name]
                pairs.append((name, d, _float_spectrum(rng, d), _float_spectrum(rng, d), None, None, FORBIDDEN[name]))
            for d in (3, 4):
                pairs.append((f"custom-{d}", d, _float_spectrum(rng, d), _float_spectrum(rng, d),
                              _random_basis(rng, d), _random_basis(rng, d), ((0, 1), (1, 0))))
            self.requests.append(pairs)

    def request(self, k, tracer=None):
        results = []
        for name, d, left, right, left_basis, right_basis, forbidden in self.requests[k % self.POOL]:
            if left_basis is None:
                scenario = scenarios.SCENARIOS[name]
                a, b = scenario.contexts(left, right)
                state = scenario.state()
            else:
                a = observables.context_from_basis(left_basis, left, label="custom-left")
                b = observables.context_from_basis(right_basis, right, label="custom-right")
                state = states.spin1_singlet() if d == 3 else states.spin32_singlet()
            value = correlations.expectation(states.density(state), a, b)
            table = correlations.joint_distribution(state, a, b)
            uniqueness = correlations.verify_uniqueness(table)
            criterion = correlations.contextuality_criterion(table, forbidden)
            marginals = correlations.marginals(table)
            diagram = greechie.diagram_from_contexts([a, b])
            two_valued = greechie.two_valued_states(diagram)
            separating = greechie.is_separating(two_valued, diagram)
            results.append((value, table, uniqueness, criterion, marginals, diagram, two_valued, separating))
        return results

    def warmup(self):
        self.request(0)

    def check(self, k, results):
        for spec, (value, table, _, criterion, _, _, two_valued, _) in zip(self.requests[k % self.POOL], results):
            name, d, left, right = spec[:4]
            p = table.probabilities
            if name in CLOSED_FORM and abs(value - CLOSED_FORM[name](left, right)) > TOL:
                return f"{name}: expectation {value} misses the closed form"
            contracted = float(np.array(left) @ p @ np.array(right))
            if abs(contracted - value) > TOL:
                return f"{name}: lambda^T P mu = {contracted} but expectation = {value}"
            if abs(float(p.sum()) - 1.0) > TOL:
                return f"{name}: table sums to {p.sum()}"
            if len(two_valued) != TWO_VALUED.get(name, d * d):
                return f"{name}: {len(two_valued)} two-valued states"
            if name in FORBIDDEN and criterion.contextual_mass > 1e-10:
                return f"{name}: forbidden cells carry {criterion.contextual_mass}"
        return None

    def fingerprint(self, k, results):
        rows = [
            [value, table.probabilities.tolist(), uniqueness.status, uniqueness.pairing, criterion.contextual_mass,
             [m.tolist() for m in marginals], greechie.diagram_to_dict(diagram),
             [s.assignment for s in two_valued], separating]
            for value, table, uniqueness, criterion, marginals, diagram, two_valued, separating in results
        ]
        return json.dumps(rows).encode()

    def json_bytes(self, k, results):
        return 0


class ShotsMillion:
    """In-process ``sample`` with 10^6 shots, writing the report and the CSV."""

    in_process = True
    POOL = 256
    SHOTS = 1_000_000

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.out, self.csv = workdir / "shots.json", workdir / "shots.csv"
        seeds = rng.choice(2**31 - 1, self.POOL, replace=False)
        self.requests = []
        for k in range(self.POOL):
            name = ("ks-mixed", "dim4-mixed")[k % 2]
            batches = (1, 16)[(k // 2) % 2]
            d = DIM[name]
            argv = ["sample", "--scenario", name,
                    "--left", _csv_list(_int_spectrum(rng, d)), "--right", _csv_list(_int_spectrum(rng, d)),
                    "--shots", str(self.SHOTS), "--seed", str(int(seeds[k])), "--batches", str(batches),
                    "--out", str(self.out), "--csv", str(self.csv)]
            self.requests.append((name, argv))

    def request(self, k, tracer=None):
        return cli.main(self.requests[k % self.POOL][1])

    def warmup(self):
        for name in ("ks-mixed", "dim4-mixed"):
            cli.main(["sample", "--scenario", name, "--shots", "10000", "--out", str(self.out), "--csv", str(self.csv)])

    def check(self, k, code):
        name = self.requests[k % self.POOL][0]
        if code != 0:
            return f"sample exited {code}"
        report = json.loads(self.out.read_text(encoding="utf-8"))
        counts = report["counts"]
        if sum(map(sum, counts)) != self.SHOTS or report["shots"] != self.SHOTS:
            return f"counts sum to {sum(map(sum, counts))}"
        drawn = [counts[i][j] for i, j in FORBIDDEN[name] if counts[i][j]]
        if drawn:
            return f"{name}: forbidden cells drew {drawn}"
        if not report["max_abs_deviation"] < 5e-3:
            return f"max_abs_deviation {report['max_abs_deviation']}"
        lines = _count_lines(self.csv)
        if lines != self.SHOTS + 1:
            return f"CSV has {lines} lines"
        return None

    def fingerprint(self, k, code):
        return _file_digest(self.out) + _file_digest(self.csv)

    def json_bytes(self, k, code):
        return self.out.stat().st_size


class ColdCli:
    """One fresh ``python -m contextsim.cli`` process per request."""

    in_process = False
    POOL = 300
    COMMANDS = ("sample", "expectation", "joint", "states", "sequential")
    TARGETS = NAMED + ("custom",)
    CUSTOM_DIM = 3

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.csv = workdir / "cold.csv"
        self.spans_path = workdir / "spans.json"
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        basis_file = workdir / "basis.json"
        bases = {side: [[[float(z.real), float(z.imag)] for z in ray] for ray in _random_basis(rng, self.CUSTOM_DIM)]
                 for side in ("left", "right")}
        basis_file.write_text(json.dumps(bases), encoding="utf-8")
        self.requests = []
        for k in range(self.POOL):
            command = self.COMMANDS[k % len(self.COMMANDS)]
            target = self.TARGETS[(k // len(self.COMMANDS)) % len(self.TARGETS)]
            d = DIM.get(target, self.CUSTOM_DIM)
            left, right = _int_spectrum(rng, d), _int_spectrum(rng, d)
            argv = [command, "--scenario", target, "--left", _csv_list(left), "--right", _csv_list(right)]
            if target == "custom":
                argv += ["--basis-file", str(basis_file)]
                if command == "joint":
                    argv += ["--forbidden", "0,1;1,0"]
            if command == "sample":
                argv += ["--seed", str(int(rng.integers(2**31 - 1))), "--csv", str(self.csv)]
            if command == "sequential":
                argv += ["--prepare-slot", str(int(rng.integers(d)))]
            self.requests.append((command, target, d, left, right, argv))

    def request(self, k, tracer=None):
        argv = self.requests[k % self.POOL][-1]
        if tracer is None:
            cmd = [sys.executable, "-m", "contextsim.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "child.py"), "cli", str(self.spans_path), *argv]
        proc = subprocess.run(cmd, capture_output=True, env=self.env, cwd=self.workdir, timeout=120)
        if tracer is not None and proc.returncode == 0:
            tracer.merge(json.loads(self.spans_path.read_text(encoding="utf-8")))
        return proc

    def warmup(self):
        pass

    def check(self, k, proc):
        command, target, d, left, right, _ = self.requests[k % self.POOL]
        if proc.returncode != 0:
            return f"{command} {target} exited {proc.returncode}: {proc.stderr.decode(errors='replace').strip()}"
        try:
            report = json.loads(proc.stdout)
        except ValueError:
            return f"{command} {target}: output is not JSON"
        if command == "expectation" and target in CLOSED_FORM:
            if not report["abs_difference"] <= TOL or abs(report["expectation"] - CLOSED_FORM[target](left, right)) > TOL:
                return f"expectation {target}: {report['expectation']} misses the closed form"
        if command == "joint" and abs(sum(map(sum, report["probabilities"])) - 1.0) > TOL:
            return f"joint {target}: table does not sum to 1"
        if command == "sample" and sum(map(sum, report["counts"])) != 10_000:
            return f"sample {target}: counts do not sum to 10^4"
        if command == "states" and report["state_count"] != TWO_VALUED.get(target, d * d):
            return f"states {target}: {report['state_count']} two-valued states"
        if command == "sequential" and abs(sum(p["probability"] for p in report["distribution"]) - 1.0) > TOL:
            return f"sequential {target}: distribution does not sum to 1"
        return None

    def fingerprint(self, k, proc):
        command = self.requests[k % self.POOL][0]
        return proc.stdout + (_file_digest(self.csv) if command == "sample" else b"")

    def json_bytes(self, k, proc):
        return len(proc.stdout)


WORKLOADS = {"predict-sweep": PredictSweep, "shots-1e6": ShotsMillion, "cli-cold": ColdCli}
