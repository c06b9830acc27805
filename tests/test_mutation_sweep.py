"""The mutation sweep of ``tests/mutation_sweep.py`` on a toy package."""

from pathlib import Path

from mutation_sweep import EQUIVALENT, main, mutants

SRC = Path(__file__).resolve().parent.parent / "src" / "contextsim"

MODULE = '''"""Toy module."""


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
'''
TEST = '''import pytest

from toy.numbers import both, check, clamp, either, is_positive


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
        (5, "return x > 0", "pass"),
        (5, "x > 0", ">="),
        (10, "if x < 0:", "pass"),
        (10, "x < 0", "<="),
        (11, "return 0", "pass"),
        (12, "return x", "pass"),
        (17, "if not isinstance(x, int):", "pass"),
        (18, "raise TypeError(x)", "pass"),
        (20, "return x", "pass"),
        (24, "return a and b", "pass"),
        (24, "a and b", "or"),
        (29, "return a or b", "pass"),
        (29, "a or b", "and"),
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
        "numbers.py:10: x < 0  ->  <=  [NOT KILLED]",
        "numbers.py:20: return x  ->  pass  [NOT KILLED]",
        "numbers.py:29: a or b  ->  and  [NOT KILLED]",
        "13 mutants, 10 killed, 3 survived (0 known equivalent)",
    ]
    assert module.read_text() == MODULE
    assert sorted(p.name for p in tmp_path.rglob("*") if p.is_file()) == ["__init__.py", "numbers.py", "test_toy.py"]


def test_every_known_equivalent_names_a_comparison_in_the_package():
    # Keys are source text, so an edit of the comparison, boolean expression
    # or statement's first line must edit its key too.
    present = {m.key for path in SRC.glob("*.py") for m in mutants(path)}
    assert set(EQUIVALENT) <= present
