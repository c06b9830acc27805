"""The mutation sweep of ``tests/mutation_sweep.py`` on a toy package."""

from pathlib import Path

import mutation_sweep
from mutation_sweep import EQUIVALENT, Mutant, main, mutants

SRC = Path(__file__).resolve().parent.parent / "src" / "contextsim"

MODULE = '''"""Toy module."""

import functools


def is_positive(x):
    return x > 0


def clamp(x):
    # clamp(0) is 0 whether 0 takes this branch or not.
    if x < 0:
        return 0
    return x


def check(x):
    """x, which must be an int."""
    if not isinstance(x, int):
        raise TypeError(x)
    # No test reads the value returned.
    return x


def both(a, b):
    return a and b


def either(a, b):
    # either(a, a) is a whichever operator joins the two.
    return a or b


def outer(x):
    @functools.cache
    def inner(y):
        return y + 1

    return inner(x)
'''
TEST = '''import pytest

from toy.numbers import both, check, clamp, either, is_positive, outer


def test_is_positive():
    assert is_positive(1) and not is_positive(0)


def test_clamp():
    assert clamp(-1) == 0 and clamp(2) == 2


def test_check():
    with pytest.raises(TypeError):
        check("1")


def test_boolean_operators():
    assert both(True, False) is False
    assert either(1, 1) == 1


def test_outer():
    assert outer(1) == 2
'''


def write_toy(tmp_path):
    package = tmp_path / "src" / "toy"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    module = package / "numbers.py"
    module.write_text(MODULE)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_toy.py").write_text(TEST)
    return module


def test_mutants_flip_one_operator_each_in_source_order(tmp_path):
    module = write_toy(tmp_path)
    found = mutants(module)
    assert [(m.line, m.original, m.replacement) for m in found] == [
        (7, "return x > 0", "pass"),
        (7, "x > 0", ">="),
        (12, "if x < 0:", "pass"),
        (12, "x < 0", "<="),
        (13, "return 0", "pass"),
        (14, "return x", "pass"),
        (19, "if not isinstance(x, int):", "pass"),
        (20, "raise TypeError(x)", "pass"),
        (22, "return x", "pass"),
        (26, "return a and b", "pass"),
        (26, "a and b", "or"),
        (31, "return a or b", "pass"),
        (31, "a or b", "and"),
        (35, "def inner(y):", "pass"),
        (37, "return y + 1", "pass"),
        (39, "return inner(x)", "pass"),
    ]
    assert found[1].source == MODULE.replace("x > 0", "x >= 0")
    assert found[3].source == MODULE.replace("x < 0", "x <= 0")
    # A compound statement goes whole; the docstring is no mutant.
    assert found[2].source == MODULE.replace("if x < 0:\n        return 0", "pass")
    assert found[7].source == MODULE.replace("raise TypeError(x)", "pass")
    assert found[10].source == MODULE.replace("a and b", "a or b")
    assert found[12].source == MODULE.replace("a or b", "a and b")
    assert found[6].key == ("numbers.py", "if not isinstance(x, int):", "pass")
    assert found[12].key == ("numbers.py", "a or b", "and")
    # A decorated function goes with its decorator, and every mutant compiles.
    assert found[13].source == MODULE.replace("@functools.cache\n    def inner(y):\n        return y + 1", "pass")
    for m in found:
        compile(m.source, m.module, "exec")


def test_chained_comparisons_and_non_ascii_lines_flip_the_right_operator(tmp_path):
    module = tmp_path / "src" / "chain.py"
    module.parent.mkdir()
    module.write_text('def inside(i, n):\n    return "λ" != "μ" and 0 <= i < n\n')
    assert [m.source.splitlines()[1] for m in mutants(module)] == [
        "    pass",
        '    return "λ" == "μ" and 0 <= i < n',
        '    return "λ" != "μ" or 0 <= i < n',
        '    return "λ" != "μ" and 0 < i < n',
        '    return "λ" != "μ" and 0 <= i <= n',
    ]


def test_operators_in_a_comment_between_operands_stay_as_they_are(tmp_path):
    module = tmp_path / "src" / "comment.py"
    module.parent.mkdir()
    module.write_text("def f(a, b):\n    return (a  # a < b or not\n            and b) == (a  # or <\n                       < b)\n")
    assert [m.source.splitlines()[1:] for m in mutants(module)] == [
        ["    pass"],
        ["    return (a  # a < b or not", "            or b) == (a  # or <", "                       < b)"],
        ["    return (a  # a < b or not", "            and b) != (a  # or <", "                       < b)"],
        ["    return (a  # a < b or not", "            and b) == (a  # or <", "                       <= b)"],
    ]


def test_main_kills_one_mutant_reports_the_survivor_and_leaves_the_tree_alone(tmp_path, capsys):
    module = write_toy(tmp_path)
    assert main([str(module)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "numbers.py:12: x < 0  ->  <=  [NOT KILLED]",
        "numbers.py:22: return x  ->  pass  [NOT KILLED]",
        "numbers.py:31: a or b  ->  and  [NOT KILLED]",
        "16 mutants, 13 killed, 3 survived (0 known equivalent)",
    ]
    assert module.read_text() == MODULE
    assert sorted(p.name for p in tmp_path.rglob("*") if p.is_file()) == ["__init__.py", "numbers.py", "test_toy.py"]


def test_a_mutant_that_does_not_compile_is_a_sweep_error_not_a_kill(tmp_path, capsys, monkeypatch):
    module = write_toy(tmp_path)
    broken = Mutant("numbers.py", 7, "return x > 0", "pass", MODULE.replace("return x > 0", "return x >"))
    monkeypatch.setattr(mutation_sweep, "mutants", lambda path: [broken])
    assert main([str(module)]) == 1
    error, summary = capsys.readouterr().out.splitlines()
    assert error.startswith("numbers.py:7: return x > 0  ->  pass  [SWEEP ERROR: does not compile: ")
    assert summary == "1 mutants, 0 killed, 0 survived (0 known equivalent), 1 sweep errors"
    assert module.read_text() == MODULE


def test_every_known_equivalent_names_a_comparison_in_the_package():
    # Keys are source text, so an edit of the comparison, boolean expression
    # or statement's first line must edit its key too.
    present = {m.key for path in SRC.glob("*.py") for m in mutants(path)}
    assert set(EQUIVALENT) <= present
