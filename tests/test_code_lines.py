"""tools/code_lines.py on a small hand-written package."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# 9 code lines: the import, the constant, the string that is no docstring
# (two lines), the class line, the method line, its return, the function
# line and its body; not the blanks, comments or the three docstrings
MODULE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps the line

# a comment line
SCALE = 2.0
NOTE = """a string assigned to a name
is code"""


class Shape:
    """Class docstring."""

    def area(self):
        """Method docstring,

        with a blank line inside."""
        return math.pi


def double(x):
    return SCALE * x
'''


def test_counts_lines_that_are_not_blank_comment_or_docstring():
    assert code_lines.code_lines(MODULE) == 9


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(MODULE)
    (tmp_path / "a.py").write_text('"""Only a docstring."""\n')
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "c.py").write_text("x = 1\n")  # not counted: a subdirectory
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["a.py 0", "b.py 9", "total 9"]


def test_usage_error_without_a_directory(tmp_path, capsys):
    assert code_lines.main([str(tmp_path / "missing")]) == 2
    assert "usage" in capsys.readouterr().err
