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
    if not isinstance(x, int):
        raise TypeError(x)
    return x


def unchecked(x):
    # No test passes None.
    if x is None:
        raise ValueError(x)
    return x


def both(a, b):
    return a and b


def either(a, b):
    # either(a, a) is a whichever operator joins the two.
    return a or b
'''
TEST = '''import pytest

from toy.numbers import both, check, clamp, either, is_positive, unchecked


def test_is_positive():
    assert is_positive(1) and not is_positive(0)


def test_clamp():
    assert clamp(-1) == 0 and clamp(2) == 2


def test_checks():
    with pytest.raises(TypeError):
        check("1")
    assert unchecked(2) == 2


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
        (5, "x > 0", ">="),
        (10, "x < 0", "<="),
        (17, "raise TypeError(x)", "pass"),
        (24, "raise ValueError(x)", "pass"),
        (29, "a and b", "or"),
        (34, "a or b", "and"),
    ]
    assert found[0].source == MODULE.replace("x > 0", "x >= 0")
    assert found[1].source == MODULE.replace("x < 0", "x <= 0")
    assert found[2].source == MODULE.replace("raise TypeError(x)", "pass")
    assert found[3].source == MODULE.replace("raise ValueError(x)", "pass")
    assert found[4].source == MODULE.replace("a and b", "a or b")
    assert found[5].source == MODULE.replace("a or b", "a and b")
    assert found[2].key == ("numbers.py", "raise TypeError(x)", "pass")
    assert found[5].key == ("numbers.py", "a or b", "and")


def test_chained_comparisons_and_non_ascii_lines_flip_the_right_operator(tmp_path):
    module = tmp_path / "src" / "chain.py"
    module.parent.mkdir()
    module.write_text('def inside(i, n):\n    return "λ" != "μ" and 0 <= i < n\n')
    assert [m.source.splitlines()[1] for m in mutants(module)] == [
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
        ["    return (a  # a < b or not", "            or b) == (a  # or <", "                       < b)"],
        ["    return (a  # a < b or not", "            and b) != (a  # or <", "                       < b)"],
        ["    return (a  # a < b or not", "            and b) == (a  # or <", "                       <= b)"],
    ]


def test_main_kills_one_mutant_reports_the_survivor_and_leaves_the_tree_alone(tmp_path, capsys):
    module = write_toy(tmp_path)
    assert main([str(module)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "numbers.py:10: x < 0  ->  <=  [NOT KILLED]",
        "numbers.py:24: raise ValueError(x)  ->  pass  [NOT KILLED]",
        "numbers.py:34: a or b  ->  and  [NOT KILLED]",
        "6 mutants, 3 killed, 3 survived (0 known equivalent)",
    ]
    assert module.read_text() == MODULE
    assert sorted(p.name for p in tmp_path.rglob("*") if p.is_file()) == ["__init__.py", "numbers.py", "test_toy.py"]


def test_every_known_equivalent_names_a_comparison_in_the_package():
    # Keys are source text, so an edit of the comparison, boolean expression
    # or raise statement must edit its key too.
    present = {m.key for path in SRC.glob("*.py") for m in mutants(path)}
    assert set(EQUIVALENT) <= present
