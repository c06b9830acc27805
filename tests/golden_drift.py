"""Check that a regenerated set of golden fixtures differs only by roundoff.

    python tests/golden_drift.py OLD_DIR NEW_DIR

The rule: both directories hold the same fixture files; every ``.json``
fixture has the same structure (keys in the same order, lists of the same
length, values of the same type) and the same non-float values, and each
float is within 1e-14 * max(1, |old|) of its old value; every other fixture
(the shot CSVs) is byte-identical. Prints the changed files, the worst
relative deviation and every float that left or reached exact zero, then
exits 0 when the rule holds and 1 when it does not.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REL_TOL = 1e-14


def compare(old, new, where: str, drift: list, errors: list) -> None:
    """Walk two parsed JSON values in step.

    Appends ``(deviation, where, old, new)`` to ``drift`` for each float that
    changed and a message to ``errors`` for each break of the rule."""
    if type(old) is not type(new):
        errors.append(f"{where}: {type(old).__name__} became {type(new).__name__}")
    elif isinstance(old, dict):
        if list(old) != list(new):
            errors.append(f"{where}: keys {list(old)} became {list(new)}")
        else:
            for key in old:
                compare(old[key], new[key], f"{where}.{key}", drift, errors)
    elif isinstance(old, list):
        if len(old) != len(new):
            errors.append(f"{where}: length {len(old)} became {len(new)}")
        else:
            for k, (a, b) in enumerate(zip(old, new)):
                compare(a, b, f"{where}[{k}]", drift, errors)
    elif isinstance(old, float):
        if old != new:
            deviation = abs(new - old) / max(1.0, abs(old))
            drift.append((deviation, where, old, new))
            if not deviation <= REL_TOL:
                errors.append(f"{where}: {old!r} became {new!r} (relative {deviation:.3g} > {REL_TOL})")
    elif old != new:
        errors.append(f"{where}: {old!r} became {new!r}")


def check(old_dir: Path, new_dir: Path) -> tuple[list[str], list, list[str]]:
    """(changed files, float drift, rule breaks) of ``new_dir`` against ``old_dir``."""
    old_names = sorted(p.name for p in old_dir.iterdir() if p.is_file())
    new_names = sorted(p.name for p in new_dir.iterdir() if p.is_file())
    changed: list[str] = []
    drift: list = []
    errors: list[str] = []
    if old_names != new_names:
        errors.append(f"fixture sets differ: only old {sorted(set(old_names) - set(new_names))}, "
                      f"only new {sorted(set(new_names) - set(old_names))}")
    for name in sorted(set(old_names) & set(new_names)):
        old_bytes = (old_dir / name).read_bytes()
        new_bytes = (new_dir / name).read_bytes()
        if old_bytes == new_bytes:
            continue
        changed.append(name)
        if name.endswith(".json"):
            compare(json.loads(old_bytes), json.loads(new_bytes), name, drift, errors)
        else:
            errors.append(f"{name}: bytes differ")
    return changed, drift, errors


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tests/golden_drift.py OLD_DIR NEW_DIR", file=sys.stderr)
        return 2
    changed, drift, errors = check(Path(args[0]), Path(args[1]))
    print(f"{len(changed)} changed files: {', '.join(changed) or 'none'}")
    print(f"{len(drift)} changed floats")
    if drift:
        deviation, where, old, new = max(drift)
        print(f"worst relative deviation {deviation:.3g} at {where}: {old!r} -> {new!r}")
    flips = [(where, old, new) for _, where, old, new in drift if (old == 0.0) != (new == 0.0)]
    print(f"{len(flips)} zero flips" + "".join(f"\n  {w}: {o!r} -> {n!r}" for w, o, n in flips))
    for message in errors:
        print(f"FAIL {message}")
    print("rule holds" if not errors else f"rule broken in {len(errors)} places")
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
