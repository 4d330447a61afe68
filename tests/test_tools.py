"""The repository tools under ``tools/``."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FIXTURE = '''"""A module docstring
over two lines."""

import os  # a comment after code counts as code


# a comment alone
def f(x):
    """A function docstring."""
    y = """a string
that is data"""
    return x


class C:
    """A class docstring."""

    size = 1
    """An attribute docstring."""
'''


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    code_lines = _load("code_lines")
    # import, def, y (two lines), return, class, size
    assert code_lines.code_lines(FIXTURE) == 7


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    code_lines = _load("code_lines")
    (tmp_path / "b.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "a.py").write_text("x = 1\n\n# done\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "     1  a.py", "     7  b.py", "     8  total", ""]
