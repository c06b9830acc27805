"""The benchmark's tracer finds every contextsim name it wraps, and its
three workloads run on the library and the CLI as they are.

``perfbench/spans.py`` resolves its span and counter names by attribute
lookup when a traced run starts, and ``perfbench/workloads.py`` counts
two-valued states with ``len`` and fingerprints them by iterating their
``assignment`` dicts, and its ``cli-cold`` and ``shots-1e6`` workloads run
the CLI with their own flags and checks. Renaming or deleting one of those
in ``src``, or breaking the CLI path they take, would otherwise fail only in
a benchmark run.
"""

import importlib.util
from pathlib import Path

import contextsim.cli  # noqa: F401  (imports every contextsim module, as spans.install does)
from contextsim.greechie import diagram_from_contexts, two_valued_states
from contextsim.observables import ks_context, ks_context_prime

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    """The module ``perfbench/<name>.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_spanned_and_counted_name_resolves():
    spans = load("spans")
    names = spans.SPANNED + spans.COUNTED
    assert names
    for name in names:
        owner, attr = spans._resolve(name)
        assert callable(getattr(owner, attr, None)), name


def test_two_valued_states_carry_the_assignment_the_fingerprint_reads():
    diagram = diagram_from_contexts([ks_context(1, 2, 3), ks_context_prime(4, 5, 6)])
    states = two_valued_states(diagram)
    assert states
    for state in states:
        assert isinstance(state.assignment, dict)
        assert list(state.assignment) == list(diagram.atom_ids)


def test_predict_sweep_request_passes_its_check_and_reproduces_its_fingerprint(tmp_path):
    sweep = load("workloads").PredictSweep(1, tmp_path)
    results = sweep.request(0)
    assert sweep.check(0, results) is None
    first = sweep.fingerprint(0, results)
    assert sweep.fingerprint(0, sweep.request(0)) == first


def test_cli_cold_custom_requests_pass_their_checks_and_reproduce_sample(tmp_path):
    # Requests 25-29 run the five commands on the workload's custom basis, one process each.
    cold = load("workloads").ColdCli(1, tmp_path)
    for k in range(25, 30):
        proc = cold.request(k)
        assert cold.check(k, proc) is None
        if k == 25:
            first = cold.fingerprint(k, proc)
    assert cold.fingerprint(25, cold.request(25)) == first


def test_shots_million_request_passes_its_check_and_reproduces_its_fingerprint(tmp_path):
    shots = load("workloads").ShotsMillion(1, tmp_path)
    code = shots.request(0)
    assert shots.check(0, code) is None
    first = shots.fingerprint(0, code)
    code = shots.request(0)
    assert shots.check(0, code) is None
    assert shots.fingerprint(0, code) == first
