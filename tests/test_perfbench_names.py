"""The benchmark's tracer finds every contextsim name it wraps.

``perfbench/spans.py`` resolves its span and counter names by attribute
lookup when a traced run starts, and ``perfbench/workloads.py`` fingerprints
two-valued states by their ``assignment`` dict. Renaming or deleting one of
those in ``src`` would otherwise fail only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import contextsim.cli  # noqa: F401  (imports every contextsim module, as spans.install does)
from contextsim.greechie import diagram_from_contexts, two_valued_states
from contextsim.observables import ks_context, ks_context_prime

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_spanned_and_counted_name_resolves():
    spans = load_spans()
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
