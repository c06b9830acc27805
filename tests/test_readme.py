"""README's "Library use" example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_block():
    """The first python block under the "## Library use" heading."""
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_example_prints_its_commented_outputs():
    code = library_use_block()
    expected = [line.split("#", 1)[1].strip() for line in code.splitlines() if line.startswith("print(")]
    assert expected == ["10.5", "block-structured", "5"]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(compile(code, str(README), "exec"), {})
    assert stdout.getvalue().splitlines() == expected
