"""The line tracer of ``tests/line_coverage.py`` on a toy module."""

import importlib
import sys

from line_coverage import executable_lines, main, traced

TARGET = "toy_line_coverage_target"
MODULE = '''"""Toy module."""


def sign(x):
    if x < 0:
        raise ValueError("negative")
    return 1
'''
TEST = f'''from {TARGET} import sign


def test_sign():
    assert sign(1) == 1
'''


def write_target(tmp_path, monkeypatch):
    package = tmp_path / "package"
    package.mkdir()
    path = package / f"{TARGET}.py"
    path.write_text(MODULE)
    monkeypatch.syspath_prepend(str(package))
    return package, path


def test_executable_lines_are_the_compiled_lines(tmp_path, monkeypatch):
    _, path = write_target(tmp_path, monkeypatch)
    # The docstring and the def at import, then the body; blank lines hold no code.
    assert executable_lines(path) == {1, 4, 5, 6, 7}


def test_traced_records_the_lines_that_ran(tmp_path, monkeypatch):
    _, path = write_target(tmp_path, monkeypatch)
    name = str(path.resolve())
    try:
        result, ran = traced({name}, lambda: importlib.import_module(TARGET).sign(2))
    finally:
        sys.modules.pop(TARGET, None)
    assert result == 1
    assert executable_lines(path) - ran[name] == {6}


def test_main_runs_pytest_and_prints_each_missed_line(tmp_path, monkeypatch, capsys):
    package, _ = write_target(tmp_path, monkeypatch)
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_toy_line_coverage.py").write_text(TEST)
    try:
        code = main([str(package), str(tests), "-q", "-p", "no:cacheprovider"])
    finally:
        sys.modules.pop(TARGET, None)
        sys.modules.pop("test_toy_line_coverage", None)
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [
        f"{TARGET}.py:6     raise ValueError(\"negative\")",
        "1 executable lines never ran",
    ]
