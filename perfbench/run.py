"""contextsim benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload predict-sweep --seed 1 --seconds 30 --trace 0

Runs the workload against the contextsim source in ``src/`` as a single
closed-loop caller for ``--seconds`` seconds of request time, checks every
output, and prints each metric with its unit.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the run spends half its time untraced and half with spans
around contextsim's public functions, and reports per-layer metrics per
request plus the tracing overhead.  Scratch files live in ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_TRIALS = 7
IMPORT_TRIALS = 3
CHILD_TIMEOUT_S = 120


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def setup_time(workload: str, seed: int, workdir: Path) -> float:
    """Fresh interpreter to first servable request, minus the benchmark's own share."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), "setup", workload, str(seed), str(workdir)],
                            stdout=subprocess.PIPE, env=_child_env(), text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0 or not line.strip():
        raise RuntimeError(f"set-up probe for {workload} exited {proc.returncode}")
    return ready - float(line)


def import_share() -> float:
    """Self time of contextsim's own modules in ``python -X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import contextsim.cli"],
                          capture_output=True, text=True, env=_child_env(), timeout=CHILD_TIMEOUT_S, check=True)
    total_us = 0
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip().startswith("contextsim"):
            total_us += int(fields[0].split(":")[1])
    return total_us * 1e-6


class Loop:
    """Closed loop over requests k = start, start+1, ... until ``seconds`` of request time."""

    def __init__(self, workload, seconds: float, start: int, tracer=None):
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.first = None
        busy, k = 0.0, start
        while busy < seconds:
            if tracer is not None:
                tracer.request = k
            t0 = time.perf_counter()
            try:
                result, error = workload.request(k, tracer), None
            except (Exception, SystemExit) as exc:
                result, error = None, f"request {k}: {type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            self.latencies.append(latency)
            busy += latency
            if error is None:
                error = workload.check(k, result)
            if error is not None:
                self.failures.append(error)
            elif k == 0:
                self.first = workload.fingerprint(k, result)
            if tracer is not None and error is None:
                tracer.counts["cli.json_bytes"] += workload.json_bytes(k, result)
            k += 1


def repeat_first(workload, first) -> str | None:
    """Request 0 once more; its JSON and CSV bytes must match exactly."""
    try:
        result = workload.request(0)
    except (Exception, SystemExit) as exc:
        return f"repeat of request 0: {type(exc).__name__}: {exc}"
    error = workload.check(0, result)
    if error is None and (first is None or workload.fingerprint(0, result) != first):
        error = "repeat of request 0 did not reproduce its output bytes"
    return error


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(args, **extra) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "contextsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **extra,
    }


def _p90(latencies: list[float]) -> float:
    return statistics.quantiles(latencies, n=10, method="inclusive")[8] if len(latencies) > 1 else latencies[0]


def end_to_end(args, workload, workdir: Path):
    setups = [setup_time(args.workload, args.seed, workdir) for _ in range(SETUP_TRIALS)]
    runner = workload(args.seed, workdir)
    runner.warmup()
    loop = Loop(runner, args.seconds, 0)
    failures = loop.failures + [e for e in [repeat_first(runner, loop.first)] if e]
    lat = loop.latencies
    usage = resource.getrusage(resource.RUSAGE_SELF if runner.in_process else resource.RUSAGE_CHILDREN)
    p90 = _p90(lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "latency_p90_s": (p90, "s"),
        "peak_rss_mb": (usage.ru_maxrss / 1024.0, "MB"),
    }
    # Printed but not declared in BENCHMARK.json: throughput and the median
    # follow the mix of fast and slow CPU phases of a shared host and spread
    # too widely between runs (see README.md), and error_rate is 0 when the
    # program is correct.
    notes = {
        "throughput_rps": (len(lat) / sum(lat), "req/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "error_rate": (len(failures) / (len(lat) + 1), "ratio"),
    }
    if hasattr(runner, "SHOTS"):
        notes["shots_per_s"] = (runner.SHOTS * len(lat) / sum(lat), "shots/s")
    extra = {
        "requests": len(lat),
        "repeats": 1,
        "setup_trials": SETUP_TRIALS,
        "latency_samples": len(lat),
        "samples_above_p90": sum(1 for x in lat if x > p90),
        "request_time_s": sum(lat),
    }
    return metrics, notes, extra, failures, len(lat) + 1


def traced(args, workload, workdir: Path, spans):
    runner = workload(args.seed, workdir)
    runner.warmup()
    plain = Loop(runner, args.seconds / 2, 0)
    failures = plain.failures + [e for e in [repeat_first(runner, plain.first)] if e]
    tracer = spans.Tracer()
    if runner.in_process:
        spans.install(tracer)
    loop = Loop(runner, args.seconds / 2, len(plain.latencies), tracer)
    failures += loop.failures
    metrics = tracer.layer_metrics(len(loop.latencies))
    metrics["cli.import_s"] = (statistics.median(import_share() for _ in range(IMPORT_TRIALS)), "s")
    overhead = statistics.fmean(loop.latencies) / statistics.fmean(plain.latencies) - 1.0
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    metrics["trace.requests"] = (float(len(loop.latencies)), "count")
    tracer.write_jsonl(ROOT / ".perfbench" / f"trace-{args.workload}.jsonl")
    extra = {"requests": len(plain.latencies) + len(loop.latencies), "untraced_requests": len(plain.latencies),
             "traced_requests": len(loop.latencies), "repeats": 1, "import_trials": IMPORT_TRIALS,
             "spans": len(tracer.spans), "trace_file": f".perfbench/trace-{args.workload}.jsonl"}
    return metrics, {}, extra, failures, len(plain.latencies) + len(loop.latencies) + 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("predict-sweep", "shots-1e6", "cli-cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "contextsim" / "cli.py").is_file():
        print(f"perfbench: no contextsim source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        workload = workloads.WORKLOADS[args.workload]
        if args.trace:
            metrics, notes, extra, failures, attempted = traced(args, workload, workdir, spans)
        else:
            metrics, notes, extra, failures, attempted = end_to_end(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in failures[:10]:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    for name, (value, unit) in notes.items():
        print(f"  {name:<44} {value:>14.6g} {unit} (not a declared metric)")
    print("provenance " + json.dumps(provenance(args, **extra)))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
