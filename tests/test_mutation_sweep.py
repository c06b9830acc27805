"""The comparison-flip sweep of ``tests/mutation_sweep.py`` on a toy package."""

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
'''
TEST = '''from toy.numbers import clamp, is_positive


def test_is_positive():
    assert is_positive(1) and not is_positive(0)


def test_clamp():
    assert clamp(-1) == 0 and clamp(2) == 2
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
    assert [(m.line, m.comparison, m.flipped_to) for m in found] == [(5, "x > 0", ">="), (10, "x < 0", "<=")]
    assert found[0].source == MODULE.replace("x > 0", "x >= 0")
    assert found[1].source == MODULE.replace("x < 0", "x <= 0")


def test_chained_comparisons_and_non_ascii_lines_flip_the_right_operator(tmp_path):
    module = tmp_path / "src" / "chain.py"
    module.parent.mkdir()
    module.write_text('def inside(i, n):\n    return "λ" != "μ" and 0 <= i < n\n')
    assert [m.source.splitlines()[1] for m in mutants(module)] == [
        '    return "λ" == "μ" and 0 <= i < n',
        '    return "λ" != "μ" and 0 < i < n',
        '    return "λ" != "μ" and 0 <= i <= n',
    ]


def test_main_kills_one_mutant_reports_the_survivor_and_leaves_the_tree_alone(tmp_path, capsys):
    module = write_toy(tmp_path)
    assert main([str(module)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "numbers.py:10: x < 0  ->  flipped to <=  [NOT KILLED]",
        "2 mutants, 1 killed, 1 survived (0 known equivalent)",
    ]
    assert module.read_text() == MODULE
    assert sorted(p.name for p in tmp_path.rglob("*") if p.is_file()) == ["__init__.py", "numbers.py", "test_toy.py"]


def test_every_known_equivalent_names_a_comparison_in_the_package():
    # Keys are source text, so an edit of the comparison must edit its key too.
    present = {m.key for path in SRC.glob("*.py") for m in mutants(path)}
    assert set(EQUIVALENT) <= present
