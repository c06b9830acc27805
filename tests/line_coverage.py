"""List the executable lines of a package that no test runs.

    PYTHONPATH=src python tests/line_coverage.py src/contextsim [PYTEST_ARGS ...]

Runs pytest in this process (by default on ``tests`` with ``-q -p
no:cacheprovider``) under a ``sys.settrace`` line tracer, since the standard
library is all it needs. Then it prints ``file:line  source`` for each
executable line of each ``*.py`` file in the directory that never ran, in
file and line order, and the count. A line is executable when a code object
compiled from the file lists it in ``co_lines``. Code that runs only in a
child process is never traced, so the CLI's ``entry()`` and its
``__main__`` block, which only the subprocess tests run, are always listed.
The package must not be imported before the tracer starts, or its
module-level lines are listed too. Tracing makes the suite about twice as
slow. Exits with pytest's exit code.
"""

from __future__ import annotations

import sys
import types
from collections.abc import Callable
from pathlib import Path


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that its code objects list in ``co_lines``."""
    lines = set()
    pending = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while pending:
        code = pending.pop()
        # Line 0 is the module's implicit start, no line of the file.
        lines.update(line for _, _, line in code.co_lines() if line)
        pending.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def traced(files: set[str], run: Callable[[], int]) -> tuple[int, dict[str, set[int]]]:
    """``run()``'s result, and the lines of each of ``files`` (absolute
    paths) that ran while it did."""
    ran: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        if frame.f_code.co_filename not in ran:
            return None
        return local(frame, event, arg)

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        result = run()
    finally:
        sys.settrace(previous)
    return result, ran


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python tests/line_coverage.py DIRECTORY [PYTEST_ARGS ...]", file=sys.stderr)
        return 1
    import pytest

    paths = {str(path.resolve()): path for path in sorted(Path(argv[0]).glob("*.py"))}
    args = argv[1:] or ["-q", "-p", "no:cacheprovider", "tests"]
    code, ran = traced(set(paths), lambda: pytest.main(args))
    missed = 0
    for name, path in sorted(paths.items(), key=lambda item: item[1].name):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - ran[name]):
            missed += 1
            print(f"{path.name}:{line:<5} {source[line - 1].strip()}")
    print(f"{missed} executable lines never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
