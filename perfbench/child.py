"""Child processes started by run.py, with ``PYTHONPATH`` pointing at ``src``.

``child.py setup WORKLOAD SEED WORKDIR``
    Set-up probe: import ``contextsim.cli`` in a fresh interpreter, build the
    workload and run its warm-up, then print the seconds spent on the
    benchmark's own imports and input generation, which run.py subtracts.
``child.py cli SPANS_JSON ARGS...``
    Run one CLI command with spans installed and write them to SPANS_JSON.
"""

import json
import sys
import time
from pathlib import Path


def setup(workload: str, seed: str, workdir: str) -> int:
    import contextsim.cli  # noqa: F401  (the import users pay for)

    start = time.perf_counter()
    import workloads

    runner = workloads.WORKLOADS[workload](int(seed), Path(workdir))
    own = time.perf_counter() - start
    runner.warmup()
    print(own, flush=True)
    return 0


def traced_cli(spans_path: str, argv: list[str]) -> int:
    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    from contextsim import cli

    code = cli.main(argv)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.dump(), handle)
    return code


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    sys.exit(setup(*rest) if mode == "setup" else traced_cli(rest[0], rest[1:]))
