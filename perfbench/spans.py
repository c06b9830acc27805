"""In-memory spans around contextsim's public functions, installed at run time.

Nothing under ``src/`` is edited: :func:`install` replaces each listed
function by a recording wrapper in every ``contextsim`` namespace that holds
it, because names imported with ``from .x import y`` are looked up in the
importing module.  Spans stay in memory and are written once, at the end.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter

# Functions that get a span: ``<module>.<attribute path>`` under ``contextsim``.
SPANNED = (
    "cli.main",
    "sampler.sample",
    "sampler.empirical_report",
    "sampler.write_shot_csv",
    "correlations.joint_distribution",
    "correlations.expectation",
    "correlations.verify_uniqueness",
    "correlations.contextuality_criterion",
    "states.density",
    "linalg.hermitian_eigensystem",
    "observables.ks_context",
    "observables.ks_context_prime",
    "observables.four_dim_contexts",
    "observables.context_from_basis",
    "scenarios.Scenario.contexts",
    "greechie.diagram_from_contexts",
    "greechie.two_valued_states",
    "greechie.is_separating",
)
# Small, very frequent functions: counted only, a span would cost more than they do.
COUNTED = ("linalg.projector_from_ray", "greechie.rays_match")


def _csv_bytes(counts, result, args, kwargs):
    counts["sampler.csv_bytes"] += os.path.getsize(args[2] if len(args) > 2 else kwargs["path"])


def _shots(counts, result, args, kwargs):
    counts["sampler.shots"] += len(result)


def _ray_hits(counts, result, args, kwargs):
    counts["greechie.rays_match.hits"] += bool(result)


# Counters read off a call's arguments or result once the call has returned.
AFTER = {
    "sampler.sample": _shots,
    "sampler.write_shot_csv": _csv_bytes,
    "greechie.rays_match": _ray_hits,
}


class Tracer:
    """Spans as ``[name, start, end, parent index, request]`` plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request = 0
        self._open: list[int] = []

    def wrap(self, name, fn, spanned=True):
        after = AFTER.get(name)

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            if not spanned:
                self.counts[name + ".calls"] += 1
                result = fn(*args, **kwargs)
            else:
                record = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self.request]
                self._open.append(len(self.spans))
                self.spans.append(record)
                record[1] = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[2] = time.perf_counter()
                    self._open.pop()
            if after is not None:
                after(self.counts, result, args, kwargs)
            return result

        return recorded

    def merge(self, data: dict) -> None:
        """Add the spans and counters a traced child process wrote."""
        base = len(self.spans)
        for name, start, end, parent, _ in data["spans"]:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, self.request])
        self.counts.update(data["counts"])

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, request in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "request": request}) + "\n")

    def layer_metrics(self, requests: int) -> dict:
        """Per-request calls, busy and self time of every layer, plus counters."""
        calls, busy, covered = Counter(), Counter(), Counter()
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            busy[name] += end - start
            if parent >= 0:
                covered[self.spans[parent][0]] += end - start
        per = 1.0 / max(requests, 1)
        metrics = {}
        for name in SPANNED:
            metrics[f"{name}.calls"] = (calls[name] * per, "1/req")
            metrics[f"{name}.busy_s"] = (busy[name] * per, "s/req")
            metrics[f"{name}.self_s"] = ((busy[name] - covered[name]) * per, "s/req")
        for name in COUNTED:
            metrics[f"{name}.calls"] = (self.counts[f"{name}.calls"] * per, "1/req")
        comparisons = self.counts["greechie.rays_match.calls"]
        hits = self.counts["greechie.rays_match.hits"]
        metrics["greechie.rays_match.hit_ratio"] = (hits / comparisons if comparisons else 0.0, "ratio")
        metrics["sampler.shots"] = (self.counts["sampler.shots"] * per, "1/req")
        metrics["sampler.csv_bytes"] = (self.counts["sampler.csv_bytes"] * per, "B/req")
        metrics["cli.json_bytes"] = (self.counts["cli.json_bytes"] * per, "B/req")
        return metrics


def _resolve(name: str):
    module, *path = name.split(".")
    owner = sys.modules[f"contextsim.{module}"]
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1]


def install(tracer: Tracer) -> None:
    """Route every listed contextsim function through ``tracer``."""
    import contextsim.cli  # noqa: F401  (imports every contextsim module)
    from contextsim.scenarios import SCENARIOS

    modules = [m for n, m in list(sys.modules.items()) if n == "contextsim" or n.startswith("contextsim.")]
    for name in SPANNED + COUNTED:
        owner, attr = _resolve(name)
        original = getattr(owner, attr)
        wrapper = tracer.wrap(name, original, spanned=name in SPANNED)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
        # Scenario records hold their context builders as captured references.
        for scenario in SCENARIOS.values():
            for field in ("_left_builder", "_right_builder"):
                if getattr(scenario, field) is original:
                    object.__setattr__(scenario, field, wrapper)
