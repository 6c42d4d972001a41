"""scripts/code_lines.py: which lines count as code."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "scripts" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

import os  # a trailing comment

# a comment line


def f(x):
    """A function docstring."""
    "a later string statement is code"
    s = """a string over
two lines"""
    return (x +
            1)


class C:
    'a class docstring'
    y = 1
'''


def test_counts_code_lines_only():
    # import; def; the later string; both lines of s; both lines of the
    # return; class; y: blank, comment and docstring lines are left out
    assert code_lines.code_lines(SOURCE) == 9
    assert code_lines.docstring_lines(SOURCE) == {1, 2, 10, 19}


def test_prints_each_module_and_the_total(capsys):
    code_lines.main()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[-1][1] == "total"
    names = [name for _, name in rows[:-1]]
    assert names == sorted(p.name for p in (ROOT / "src" / "slim").glob("*.py"))
    assert sum(int(n) for n, _ in rows[:-1]) == int(rows[-1][0])
