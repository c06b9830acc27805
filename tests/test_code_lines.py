"""The code-line counter of ``tests/code_lines.py`` on small snippets."""

from code_lines import code_lines, main

SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a comment on a code line

# a comment line


class Box:
    """Class docstring."""

    size = 3

    def grow(self, by):
        """Function docstring,
        over two lines."""
        total = (self.size
                 + by)
        note = """a string literal
        that is no docstring"""
        return total, note
'''


def test_docstrings_comments_and_blank_lines_do_not_count():
    # import, class, size, def, both lines of total, both lines of note, return
    assert code_lines(SNIPPET) == 9


def test_a_later_string_statement_is_code():
    assert code_lines('x = 1\n"""not a docstring"""\n') == 2
    assert code_lines("") == 0


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(SNIPPET)
    (tmp_path / "a.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        f"{'a.py':<20} {2:>5}",
        f"{'b.py':<20} {9:>5}",
        f"{'total':<20} {11:>5}",
        "",
    ]
