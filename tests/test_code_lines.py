"""``scripts/code_lines.py`` counts code lines, not blanks, comments or docstrings."""

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''\
"""Module docstring,
over two lines."""

import os  # a trailing comment


# A comment-only line.
class Thing:
    """Class docstring."""

    text = """a string
that spans three
lines"""

    def method(self):
        """Method docstring."""
        "a string statement that is not a docstring"
        return (1,
                2)


async def run():
    \'\'\'Async docstring.\'\'\'
    return os.sep
'''


def test_counts_code_lines_of_a_fixed_source():
    # import, class, three lines of text, def, the string statement, two
    # lines of return, async def and its return.
    assert code_lines.code_lines(SOURCE) == 11


def test_counts_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("# only a comment\n\nx = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "    11  a.py", "     1  b.py", "    12  total", "",
    ]
