"""Mutate modules one change at a time and run the tests.

    python tests/mutation_sweep.py src/contextsim/states.py src/contextsim/correlations.py

Three kinds of mutant are made in the named modules, one at a time: each
``<``/``<=``, ``>``/``>=`` and ``==``/``!=`` is flipped to its partner, each
``and`` is swapped for ``or`` and each ``or`` for ``and``, and each statement
inside a function body, docstrings aside, is replaced by ``pass``. A
compound statement goes whole (an ``elif`` with the branches after it, a
decorated function with its decorators), and each statement inside it is a
mutant of its own. The repository that holds
the modules (the parent of their ``src`` directory) is copied once to a
temporary directory, without ``.git`` and caches; each mutant is written
into that copy, its tests run there with ``src`` on ``PYTHONPATH`` as
``python -m pytest -x -q -p no:cacheprovider --hypothesis-seed=0`` (less
this script's own tests), and the module is put back. The working tree is never edited. A mutant whose run
fails, or runs past a timeout, is killed; one whose run passes survived.

Each mutant is compiled before its tests run. One that does not compile is
a fault of the sweep, not a kill: it is printed as a sweep error and counted
apart. Prints every survivor with its line, and the reason from
``EQUIVALENT`` when it is a known equivalent mutant, then every sweep error
and a summary, and exits 0, or 1 when there was a sweep error. Exits 1,
having run no mutant, when the unmutated copy fails its tests.
"""

from __future__ import annotations

import ast
import itertools
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

FLIPS = {ast.Lt: "<=", ast.LtE: "<", ast.Gt: ">=", ast.GtE: ">", ast.Eq: "!=", ast.NotEq: "=="}
SWAPS = {ast.And: "or", ast.Or: "and"}
# Group 1 is the operator; the first alternative skips a comment between
# the operands, which may itself hold an operator.
_OPERATOR = re.compile(r"#.*|(<=|>=|==|!=|<|>)")
_BOOL_OPERATOR = re.compile(r"#.*|\b(and|or)\b")
# The sweep's own tests are left out: their check that every EQUIVALENT key
# names a mutant in src fails on any mutant of a listed expression.
PYTEST = ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", "--ignore=tests/test_mutation_sweep.py"]
_NOT_COPIED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info")

# Survivors that no test can kill, keyed by (module file name, the mutated
# expression's source text or the deleted statement's first line, its
# replacement), with the reason. Most are a float compared with a tolerance,
# where only exact equality with the bound tells the two operators apart.
EQUIVALENT = {
    ("sampler.py", "dropped > NORMALIZATION_TOL", ">="): "dropped mass exactly equal to the bound",
    ("greechie.py", "len(rows) > 1", ">="): "sorting a single row leaves it as it is",
    ("linalg.py", "1.0 - overlap <= RAY_MATCH_TOL", "<"): "an overlap exactly 1 - RAY_MATCH_TOL",
    ("correlations.py", "p.min() >= NEGATIVE_FLOOR", ">"): "a probability exactly at NEGATIVE_FLOOR",
    ("correlations.py", "abs(total - 1.0) <= NORMALIZATION_TOL", "<"): "a table sum exactly 1 +- NORMALIZATION_TOL",
    ("correlations.py", "abs(raw.imag) > IMAG_TOL * expectation_scale(a, b)", ">="): "an imaginary part exactly at its bound",
    ("correlations.py", "masses >= masses.max() - PAIRING_TIE_TOL", ">"): "a mass exactly PAIRING_TIE_TOL below the greatest",
    ("states.py", "abs(norm - 1.0) > NORM_TOL", ">="): "a state norm exactly 1 +- NORM_TOL",
    ("states.py", "abs(np.trace(matrix).real - 1.0) > DENSITY_TOL", ">="): "a trace exactly 1 +- DENSITY_TOL",
    ("states.py", "lowest < -DENSITY_TOL", "<="): "a lowest eigenvalue exactly -DENSITY_TOL",
    ("cli.py", "abs(contracted - exact) > tol", ">="): "a contraction exactly CLOSED_FORM_TOL off",
    ("cli.py", "abs(exact - closed) > tol", ">="): "a closed form exactly CLOSED_FORM_TOL off",
    ("observables.py", "theta > math.pi", ">="): "theta = pi folds phi differently for the same pole",
    ("observables.py", "abs(x - y) <= tol", "<"): "an eigenvalue gap exactly MERGE_TOL",
    ("observables.py", "float(np.abs(defect).max()) > BASIS_TOL", ">="): "a Gram defect exactly BASIS_TOL",
    ("sampler.py", 'tails = tails.view(f"V{tails.itemsize}")', "pass"): "numpy copies bytes (S) elements byte for byte too; the view states that the copy is raw",
    ("cli.py", "del payload", "pass"): "frees the report early, for peak memory only; no output byte changes",
    ("cli.py", "del compact", "pass"): "frees the compact text early, for peak memory only; no output byte changes",
}


@dataclass(frozen=True)
class Mutant:
    """One mutated place: ``original`` is the source text of the comparison
    or boolean expression that holds it, or the first line of the deleted
    statement, ``replacement`` the operator or statement put in, and
    ``source`` the whole mutated module."""

    module: str
    line: int
    original: str
    replacement: str
    source: str

    @property
    def key(self) -> tuple[str, str, str]:
        return self.module, self.original, self.replacement


def mutants(path: Path) -> list[Mutant]:
    """Every single-place mutant of the module at ``path``, in source order."""
    source = path.read_text(encoding="utf-8")
    # ast numbers lines by "\n" alone; str.splitlines also splits at \f, \x1c and others.
    lines = source.split("\n")
    starts = [0, *itertools.accumulate(len(line) + 1 for line in lines)]

    def offset(lineno: int, byte_col: int) -> int:
        # ast columns count UTF-8 bytes; the text is indexed by character.
        return starts[lineno - 1] + len(lines[lineno - 1].encode()[:byte_col].decode())

    def mutant(node: ast.AST, start: int, end: int, replacement: str) -> tuple[int, Mutant]:
        segment = ast.get_source_segment(source, node)
        original = " ".join((segment.split("\n")[0] if isinstance(node, ast.stmt) else segment).split())
        line = source.count("\n", 0, start) + 1
        return start, Mutant(path.name, line, original, replacement, source[:start] + replacement + source[end:])

    def between(node: ast.AST, pattern: re.Pattern, before: ast.AST, after: ast.AST, replacement: str):
        lo, hi = offset(before.end_lineno, before.end_col_offset), offset(after.lineno, after.col_offset)
        match = next(m for m in pattern.finditer(source, lo, hi) if m.group(1))
        return mutant(node, match.start(1), match.end(1), replacement)

    tree = ast.parse(source)
    functions = [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    docstrings = {id(f.body[0]) for f in functions if ast.get_docstring(f) is not None}
    # A nested function's statements are reached from both functions; the dict keeps one of each.
    statements = {
        id(node): node
        for f in functions
        for top in f.body
        for node in ast.walk(top)
        if isinstance(node, ast.stmt) and id(node) not in docstrings
    }
    found = []
    for node in statements.values():
        # A decorated function or class goes with its decorators, which sit at its indentation.
        first = node.decorator_list[0].lineno if getattr(node, "decorator_list", None) else node.lineno
        start, end = offset(first, node.col_offset), offset(node.end_lineno, node.end_col_offset)
        found.append(mutant(node, start, end, "pass"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, before, after in zip(node.ops, operands, operands[1:]):
                if type(op) in FLIPS:
                    found.append(between(node, _OPERATOR, before, after, FLIPS[type(op)]))
        elif isinstance(node, ast.BoolOp):
            for before, after in zip(node.values, node.values[1:]):
                found.append(between(node, _BOOL_OPERATOR, before, after, SWAPS[type(node.op)]))
    return [m for _, m in sorted(found, key=lambda pair: pair[0])]


def _run_tests(root: Path, timeout: float) -> bool:
    """Whether the tests of the copy at ``root`` pass within ``timeout`` seconds."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        result = subprocess.run(
            [sys.executable, *PYTEST], cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return False
    finally:
        shutil.rmtree(root / ".hypothesis", ignore_errors=True)
    return result.returncode == 0


def main(argv: list[str]) -> int:
    paths = [Path(arg).resolve() for arg in argv]
    if not paths:
        print("usage: python tests/mutation_sweep.py MODULE...", file=sys.stderr)
        return 2
    root = next(p for p in paths[0].parents if p.name == "src").parent
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(root, copy, ignore=_NOT_COPIED)
        start = time.monotonic()
        if not _run_tests(copy, timeout=3600):
            print("the unmutated copy fails its tests; no mutant was run", file=sys.stderr)
            return 1
        timeout = max(60.0, 5 * (time.monotonic() - start))
        survivors, errors, total = [], [], 0
        for path in paths:
            target = copy / path.relative_to(root)
            original = target.read_text(encoding="utf-8")
            for mutant in mutants(path):
                total += 1
                try:
                    compile(mutant.source, str(path), "exec")
                except SyntaxError as error:
                    # The sweep made a broken mutant; no test run could say anything of it.
                    errors.append((mutant, error))
                    continue
                target.write_text(mutant.source, encoding="utf-8")
                try:
                    if _run_tests(copy, timeout):
                        survivors.append(mutant)
                finally:
                    target.write_text(original, encoding="utf-8")
    known = 0
    for m in survivors:
        reason = EQUIVALENT.get(m.key)
        known += reason is not None
        verdict = f"equivalent: {reason}" if reason else "NOT KILLED"
        print(f"{m.module}:{m.line}: {m.original}  ->  {m.replacement}  [{verdict}]")
    for m, error in errors:
        print(f"{m.module}:{m.line}: {m.original}  ->  {m.replacement}  [SWEEP ERROR: does not compile: {error.msg}]")
    killed = total - len(survivors) - len(errors)
    summary = f"{total} mutants, {killed} killed, {len(survivors)} survived ({known} known equivalent)"
    print(summary + (f", {len(errors)} sweep errors" if errors else ""))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
