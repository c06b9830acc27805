"""Repeat run.py over several seeds and summarise each metric.

    python3 perfbench/repeat.py --workload predict-sweep --seeds 1-10 [--trace 0] [--out summary.json]

Prints, per metric, the median, the quartiles (``statistics.quantiles`` with
``n=4``) and the spread (Q3 - Q1) / median, the figures a performance claim
cites.  ``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last) + 1)) if last else [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=_seeds, help="'1-10' or '3,5,8'")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the summary here as JSON")
    args = parser.parse_args(argv)
    seconds = args.seconds or json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=900)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **{k: result[k] for k in ("correct", "attempted", "failed")}})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}",
              file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    summary = {"workload": args.workload, "seconds": seconds, "trace": args.trace, "runs": runs, "metrics": {}}
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (median, median, median)
        summary["metrics"][name] = {"unit": units[name], "median": median, "q1": q1, "q3": q3,
                                    "spread": (q3 - q1) / median if median else None, "values": series}
        spread = summary["metrics"][name]["spread"]
        print(f"{name:<44} median {median:>12.6g} {units[name]:<6} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {'n/a' if spread is None else f'{spread:.3f}'}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
